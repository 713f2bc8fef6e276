"""Pipeline glue: dataset -> split -> partition -> train -> personalize.

``prepare`` builds one seed's setup (split, partition, model spec and
training config) for both ``fedrf run``, which trains it (``run_single``),
and ``fedrf personalize``, which fine-tunes a saved model on it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from . import config as cfg_mod
from . import datafile, federation, models

_DOMAIN_SPLIT = 0xC31


@dataclass
class RunResult:
    """One seed's run; ``metrics`` and ``params`` stay None until it has trained."""

    seed: int
    train_cfg: federation.TrainingConfig
    split: federation.SplitDataset
    partition: federation.Partition
    metrics: Optional[List[federation.RoundMetrics]] = None
    params: Optional[np.ndarray] = None


def load_dataset(cfg: cfg_mod.ExperimentConfig) -> datafile.DatasetFile:
    d = cfg.dataset
    if d.path is not None:
        return datafile.read_dataset(d.path)
    return datafile.generate_dataset(d)


def split_train_test(
    ds: datafile.DatasetFile, test_fraction: float, seed: int
) -> federation.SplitDataset:
    """Stratified split: the same fraction of every label goes to the test set."""
    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_SPLIT, seed)))
    train_rows: List[np.ndarray] = []
    test_rows: List[np.ndarray] = []
    for label in range(ds.num_transmitters):
        rows = np.flatnonzero(ds.labels == label)
        if len(rows) < 2:
            raise ValueError(f"label {label} has fewer than 2 examples to split")
        rows = rng.permutation(rows)
        n_test = min(max(int(round(test_fraction * len(rows))), 1), len(rows) - 1)
        test_rows.append(rows[:n_test])
        train_rows.append(rows[n_test:])
    train_ix = np.sort(np.concatenate(train_rows))
    test_ix = np.sort(np.concatenate(test_rows))
    return federation.SplitDataset(
        num_transmitters=ds.num_transmitters,
        window_len=ds.window_len,
        train_iq=ds.iq[train_ix],
        train_labels=ds.labels[train_ix].astype(np.int64),
        test_iq=ds.iq[test_ix],
        test_labels=ds.labels[test_ix].astype(np.int64),
    )


def prepare(
    cfg: cfg_mod.ExperimentConfig, ds: datafile.DatasetFile, seed: int
) -> RunResult:
    """One seed's setup, not yet trained: split, partition, model spec, training config."""
    p, t = cfg.partition, cfg.training
    split = split_train_test(ds, cfg.dataset.test_fraction, seed)
    if p.mode == "iid":
        partition = federation.partition_iid(split, p.num_aps, seed, t.modalities)
    else:
        partition = federation.partition_noniid(
            split, p.num_aps, p.labels_per_ap, seed, t.modalities
        )
    spec = models.ModelSpec(
        **asdict(cfg.model),
        window_len=ds.window_len,
        num_modalities=len(t.modalities),
        num_classes=ds.num_transmitters,
    )
    train_cfg = federation.TrainingConfig(
        spec=spec,
        rounds=t.rounds,
        local_steps=t.local_steps,
        batch_size=t.batch_size,
        eta=t.eta,
        modalities=tuple(t.modalities),
        eval_stride=t.eval_stride,
        seed=seed,
    )
    return RunResult(seed=seed, train_cfg=train_cfg, split=split, partition=partition)


def run_single(
    cfg: cfg_mod.ExperimentConfig, seed: int, ds: datafile.DatasetFile
) -> RunResult:
    """One complete federated run for one seed."""
    run = prepare(cfg, ds, seed)
    run.metrics, run.params = federation.run_training(run.split, run.partition, run.train_cfg)
    return run


def resolve_fine_tune_steps(
    cfg: cfg_mod.ExperimentConfig, partition: federation.Partition
) -> int:
    """Configured step count, or 5 local epochs of the largest shard."""
    steps = cfg.personalization.fine_tune_steps
    if steps is not None:
        return steps
    largest = max(len(ix) for ix in partition.indices)
    return 5 * math.ceil(largest / min(cfg.training.batch_size, largest))


def personalize_run(
    cfg: cfg_mod.ExperimentConfig, result: RunResult
) -> List[federation.PersonalizationResult]:
    steps = resolve_fine_tune_steps(cfg, result.partition)
    return federation.personalize(
        result.split, result.partition, result.params, steps, result.train_cfg
    )

