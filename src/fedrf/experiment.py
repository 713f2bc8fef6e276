"""Pipeline glue: dataset -> split -> partition -> train -> personalize."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import config as cfg_mod
from . import datafile, federation, models

_DOMAIN_SPLIT = 0xC31


@dataclass
class RunResult:
    seed: int
    spec: models.ModelSpec
    train_cfg: federation.TrainingConfig
    split: federation.SplitDataset
    partition: federation.Partition
    metrics: List[federation.RoundMetrics]
    params: np.ndarray


def load_dataset(cfg: cfg_mod.ExperimentConfig) -> datafile.DatasetFile:
    d = cfg.dataset
    if d.path is not None:
        return datafile.read_dataset(d.path)
    return datafile.generate_dataset(
        d.num_transmitters, d.per_tx_count, d.window_len, d.snr_db, d.seed
    )


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


def build_partition(
    split: federation.SplitDataset, cfg: cfg_mod.ExperimentConfig, seed: int
) -> federation.Partition:
    p = cfg.partition
    selection = cfg.training.modalities
    if p.mode == "iid":
        return federation.partition_iid(split, p.num_aps, seed, selection)
    return federation.partition_noniid(split, p.num_aps, p.labels_per_ap, seed, selection)


def build_spec(
    cfg: cfg_mod.ExperimentConfig, num_classes: int, window_len: int
) -> models.ModelSpec:
    m = cfg.model
    return models.ModelSpec(
        kind=m.kind,
        window_len=window_len,
        num_modalities=len(cfg.training.modalities),
        num_classes=num_classes,
        l2_coeff=m.l2_coeff,
        block_channels=m.block_channels,
        kernel_len=m.kernel_len,
        hidden=m.hidden,
    )


def training_config(
    cfg: cfg_mod.ExperimentConfig, spec: models.ModelSpec, seed: int
) -> federation.TrainingConfig:
    t = cfg.training
    return federation.TrainingConfig(
        spec=spec,
        rounds=t.rounds,
        local_steps=t.local_steps,
        batch_size=t.batch_size,
        eta=t.eta,
        modalities=tuple(t.modalities),
        eval_stride=t.eval_stride,
        seed=seed,
    )


def run_single(
    cfg: cfg_mod.ExperimentConfig, seed: int, ds: datafile.DatasetFile
) -> RunResult:
    """One complete federated run for one seed."""
    split = split_train_test(ds, cfg.dataset.test_fraction, seed)
    partition = build_partition(split, cfg, seed)
    spec = build_spec(cfg, ds.num_transmitters, ds.window_len)
    train_cfg = training_config(cfg, spec, seed)
    metrics, params = federation.run_training(split, partition, train_cfg)
    return RunResult(
        seed=seed,
        spec=spec,
        train_cfg=train_cfg,
        split=split,
        partition=partition,
        metrics=metrics,
        params=params,
    )


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

