"""The benchmark's workloads, why each exists and which module it stresses.

Each workload runs the fedrf command line (``fedrf.cli.main``) inside the
benchmark process as a closed loop with one client: the next iteration starts
only after the previous one has returned. Training uses ``--threads 1``. The
workload seed feeds ``dataset.seed`` and the training seed (desk workloads)
or ``analysis.seed`` (quad_bound); the program sees only the config files
and the dataset file written here before timing starts.

desk_softmax
    ``fedrf run`` on the shipped ``configs/desk_noniid.json`` with one
    training seed: ``softmax_linear``, 4 non-IID APs, 100 rounds x 20 local
    steps x batch 32, all three modalities, personalization on. It is the
    shipped profile. Each SGD step is tiny, so time goes to per-call overhead
    in ``models``/``federation`` (``loss_and_grad``, ``local_train``,
    ``aggregate``), to the normalization fits in ``modality`` and to dataset
    generation in ``waveforms``/``datafile``. No convolution runs.

desk_resnet
    The same profile with ``model.kind = mini_resnet`` (default widths),
    5 rounds and personalization off, reading the dataset from an ``.rfds``
    file that ``fedrf gen-data`` writes before timing starts. It is
    compute-bound in ``models.conv_time`` and ``conv_time_backward``; its
    evaluation forward passes over large batches (``batch_loss``,
    ``evaluate``) sit beside small-batch training, so the one ``models``
    layer is used in two ways. It exercises ``datafile.read_dataset`` where
    desk_softmax exercises generation, and normalization is a small share.

quad_bound
    ``fedrf verify-bound`` on the shipped ``configs/quad_bound.json`` at
    ``analysis.modality_count`` 1, 2 and 3 (the 1/M sweep). Only
    ``analysis`` runs, so a model-side or normalization change must show no
    change here, and a faster ``simulate_quadratic_runs`` shows only here.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

DESK_CONFIG = Path("configs") / "desk_noniid.json"
QUAD_CONFIG = Path("configs") / "quad_bound.json"
TRAIN_PROBE = "federation.run_training"
BOUND_PROBE = "analysis.verify_bound"


@dataclass
class Measure:
    """What one iteration measured beside its wall time."""

    setup_s: float  # from the iteration's start until training/Monte Carlo begins
    busy_s: float  # time inside run_training (desk) or verify_bound (quad)
    rounds_ms: List[float]  # wall time of each round
    steps: int  # SGD steps inside busy_s: federated rounds (desk) or all trajectories (quad)
    counts: Dict[str, int]  # exact work counts, computed from the inputs


@dataclass
class Outcome:
    """Checked result of one iteration."""

    fingerprint: Dict[str, str]  # output file name -> sha256
    final_acc: float
    final_loss: float
    error: Optional[str] = None


def _digest(out: Path) -> Dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _last_row(csv_path: Path) -> Dict[str, str]:
    lines = csv_path.read_text().strip().splitlines()
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


class DeskWorkload:
    """``fedrf run`` on a variant of the shipped desk profile."""

    probe = TRAIN_PROBE

    def __init__(self, name: str, why: str, overrides: dict, from_file: bool, smoke: dict):
        self.name = name
        self.why = why
        self.overrides = overrides
        self.from_file = from_file
        self.smoke = smoke

    def prepare(self, root: Path, work: Path, seed: int, smoke: bool, cli, config) -> "DeskWorkload":
        """Write the run config (and the dataset file) before timing starts.

        Returns a copy of the workload that holds this run's files.
        """
        run = copy.copy(self)
        raw = json.loads((root / DESK_CONFIG).read_text())
        raw = _merge(raw, self.overrides)
        if smoke:
            raw = _merge(raw, self.smoke)
        raw["dataset"]["seed"] = seed
        raw["training"]["seeds"] = [seed]
        run.config_path = work / f"{self.name}.json"
        if self.from_file:
            run.config_path.write_text(json.dumps(raw))
            data_dir = work / "data"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["gen-data", "--config", str(run.config_path), "--out", str(data_dir)])
            if code != 0:
                raise RuntimeError("fedrf gen-data failed")
            raw["dataset"]["path"] = str(data_dir / "dataset.rfds")
        run.config_path.write_text(json.dumps(raw))
        run.cfg = config.parse_config(run.config_path)
        return run

    def calls(self, out: Path) -> List[List[str]]:
        return [["run", "--config", str(self.config_path), "--out", str(out), "--threads", "1"]]

    def measure(self, call_starts: List[float], probes, experiment, models) -> Measure:
        (span, args, result), = probes
        data, partition, tcfg = args
        metrics, params = result
        n_aps = partition.num_aps
        shard = [len(ix) for ix in partition.indices]
        batch = [min(tcfg.batch_size, s) for s in shard]
        round_steps = tcfg.rounds * n_aps * tcfg.local_steps
        steps = round_steps
        examples = tcfg.rounds * tcfg.local_steps * sum(batch)
        eval_rounds = sum(
            1 for t in range(tcfg.rounds)
            if (t + 1) % tcfg.eval_stride == 0 or t == tcfg.rounds - 1
        )
        eval_examples = eval_rounds * (len(data.test_labels) + sum(shard))
        if self.cfg.personalization.enabled:
            fine = experiment.resolve_fine_tune_steps(self.cfg, partition)
            if fine > 0:
                steps += n_aps * fine
                examples += fine * sum(batch)
            # personalize scores each AP before and after on the test rows of its labels
            held = sum(int(np.isin(data.test_labels, labels).sum()) for labels in partition.label_sets)
            eval_examples += 2 * held
        per_example = _conv_flops_per_example(tcfg.spec, models)
        counts = {
            "sgd_examples": examples,
            "grad_evals": steps,
            "aggregate_bytes": tcfg.rounds * n_aps * int(params.size) * 8,
            "conv_flops": per_example * (3 * examples + eval_examples),
            "noise_draws": 0,
        }
        return Measure(
            setup_s=span[1] - call_starts[0],
            busy_s=span[2] - span[1],
            rounds_ms=[m.wall_time_s * 1e3 for m in metrics],
            steps=round_steps,
            counts=counts,
        )

    def check(self, out: Path) -> Outcome:
        manifest = json.loads((out / "manifest.json").read_text())
        last = _last_row(out / "metrics.csv")
        outcome = Outcome(_digest(out), float(last["global_acc"]), float(last["global_loss"]))
        if manifest.get("status") != "complete":
            outcome.error = f"manifest status {manifest.get('status')!r}: {manifest.get('error')}"
        elif not math.isfinite(outcome.final_loss):
            outcome.error = f"final loss {outcome.final_loss} is not finite"
        return outcome


def _conv_flops_per_example(spec, models) -> int:
    """Forward multiply-add flops of every convolution for one example.

    A training example costs three times this (forward, input gradient and
    weight gradient); an evaluated example costs it once.
    """
    if spec.kind != models.KIND_RESNET:
        return 0
    # time length each layer convolves: blocks 1 and 2 sit before the two poolings
    length = {"block1": spec.window_len, "block2": spec.window_len // 2,
              "mid_conv": spec.window_len // 4}
    total = 0
    for name, shape in models.param_layout(spec):
        if len(shape) == 3:
            k, cin, cout = shape
            total += 2 * length[name.split(".")[0]] * 2 * k * cin * cout
    return total


class QuadWorkload:
    """``fedrf verify-bound`` on the shipped quadratic at several modality counts."""

    probe = BOUND_PROBE

    def __init__(self, name: str, why: str, modality_counts: Tuple[int, ...], smoke: dict):
        self.name = name
        self.why = why
        self.modality_counts = modality_counts
        self.smoke = smoke

    def prepare(self, root: Path, work: Path, seed: int, smoke: bool, cli, config) -> "QuadWorkload":
        """Write one config per modality count; returns a copy that holds them."""
        run = copy.copy(self)
        raw = json.loads((root / QUAD_CONFIG).read_text())
        if smoke:
            raw = _merge(raw, self.smoke)
        raw["analysis"]["seed"] = seed
        run.config_paths = []
        for m in self.modality_counts:
            raw["analysis"]["modality_count"] = m
            path = work / f"{self.name}_m{m}.json"
            path.write_text(json.dumps(raw))
            run.config_paths.append(path)
        return run

    def calls(self, out: Path) -> List[List[str]]:
        return [
            ["verify-bound", "--config", str(path), "--out", str(out / f"m{m}")]
            for m, path in zip(self.modality_counts, self.config_paths)
        ]

    def measure(self, call_starts: List[float], probes, experiment, models) -> Measure:
        setup = busy = 0.0
        rounds_ms: List[float] = []
        steps = examples = draws = 0
        for start, (span, args, _) in zip(call_starts, probes):
            problem, qcfg, runs = args
            setup += span[1] - start
            busy += span[2] - span[1]
            # the rounds run inside one vectorised call, so each call gives its mean round
            rounds_ms.append((span[2] - span[1]) * 1e3 / qcfg.rounds)
            n = runs * qcfg.rounds * problem.num_aps * qcfg.local_steps
            steps += n
            examples += n * qcfg.batch_size
            if problem.noise_scale > 0:
                draws += n * qcfg.batch_size * problem.dim
        counts = {
            "sgd_examples": examples,
            "grad_evals": steps,
            "aggregate_bytes": 0,
            "conv_flops": 0,
            "noise_draws": draws,
        }
        return Measure(setup, busy, rounds_ms, steps, counts)

    def check(self, out: Path) -> Outcome:
        # verify-bound writes no manifest: its exit status and summary carry the result
        gaps, within, errors = [], [], []
        for m in self.modality_counts:
            summary = json.loads((out / f"m{m}" / "bound_summary.json").read_text())
            gap = float(_last_row(out / f"m{m}" / "bound_trace.csv")["empirical_gap"])
            gaps.append(gap)
            within.append(1.0 - summary["violation_count"] / (summary["rounds"] + 1))
            if summary["violation_count"]:
                errors.append(f"M={m}: bound violated at rounds {summary['violations']}")
            if not math.isfinite(gap):
                errors.append(f"M={m}: final gap {gap} is not finite")
        return Outcome(
            _digest(out),
            final_acc=sum(within) / len(within),
            final_loss=sum(gaps) / len(gaps),
            error="; ".join(errors) or None,
        )


WORKLOADS = {
    w.name: w
    for w in (
        DeskWorkload(
            "desk_softmax",
            "shipped desk_noniid profile: per-call overhead in models/federation, "
            "normalization fits in modality, dataset generation; no convolution",
            overrides={},
            from_file=False,
            smoke={"dataset": {"per_tx_count": 20, "window_len": 16},
                   "training": {"rounds": 2, "local_steps": 2, "batch_size": 4}},
        ),
        DeskWorkload(
            "desk_resnet",
            "mini_resnet on the desk profile, 5 rounds, dataset read from .rfds: "
            "compute-bound in models.conv_time, large-batch eval beside small-batch training",
            overrides={"model": {"kind": "mini_resnet"}, "training": {"rounds": 5},
                       "personalization": {"enabled": False}},
            from_file=True,
            smoke={"dataset": {"per_tx_count": 20, "window_len": 16},
                   "training": {"rounds": 2, "local_steps": 2, "batch_size": 4}},
        ),
        QuadWorkload(
            "quad_bound",
            "verify-bound at modality_count 1, 2, 3: only analysis runs, so model and "
            "normalization changes must not move it",
            modality_counts=(1, 2, 3),
            smoke={"analysis": {"mc_seeds": 20, "rounds": 5}},
        ),
    )
}
