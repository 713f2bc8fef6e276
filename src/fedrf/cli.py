"""Command-line entry point.

Subcommands:

    gen-data     write the configured dataset to disk (a copy of dataset.path if set)
    run          full pipeline: data, partition, federated training,
                 optional quadratic bound check and personalization
    verify-bound Monte Carlo check of the convergence bound on quadratics
    personalize  fine-tune a saved global model at each AP

All outputs are deterministic functions of the config file, so repeated
invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__, analysis, config as cfg_mod, datafile, experiment, federation, models

DATASET_FILENAME = "dataset.rfds"
METRICS_FILENAME = "metrics.csv"
MANIFEST_FILENAME = "manifest.json"
PERSONALIZE_FILENAME = "personalize.csv"
BOUND_TRACE_FILENAME = "bound_trace.csv"
BOUND_SUMMARY_FILENAME = "bound_summary.json"
ASSUMPTIONS_FILENAME = "assumptions.json"
MODEL_ENTRIES = ("params", "spec", "seed", "modalities")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_config(args) -> cfg_mod.ExperimentConfig:
    cfg = cfg_mod.parse_config(args.config)
    if args.seed_override is not None:
        cfg.training.seeds = (args.seed_override,)
    return cfg


def _out_dir(args, cfg: cfg_mod.ExperimentConfig) -> Path:
    out = args.out or cfg.output_dir
    if out is None:
        raise cfg_mod.ConfigError("no output directory: pass --out or set output_dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, cfg, status: str, outputs: List[str], error: str = ""):
    manifest = {
        "tool": "fedrf",
        "version": __version__,
        "status": status,
        "error": error,
        "seeds": list(cfg.training.seeds),
        "outputs": sorted(outputs),
        "config": cfg.echo(),
    }
    out.joinpath(MANIFEST_FILENAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def save_model(path: Path, result: experiment.RunResult) -> None:
    np.savez(
        path,
        params=result.params,
        spec=json.dumps(asdict(result.spec)),
        seed=result.seed,
        modalities=np.array(result.train_cfg.modalities),
        version=__version__,
    )


def load_model(path: Path):
    """``(params, spec, seed, modalities)`` from a file ``save_model`` wrote.

    A file that is not such a model raises ValueError naming the path.
    """
    if not Path(path).exists():
        raise FileNotFoundError(f"model file not found: {path}")
    try:
        if not zipfile.is_zipfile(path):
            raise ValueError("not an .npz archive")
        with np.load(path, allow_pickle=False) as data:
            missing = [key for key in MODEL_ENTRIES if key not in data.files]
            if missing:
                raise ValueError(f"no {missing[0]!r} entry")
            params, spec, seed, modalities = (data[key] for key in MODEL_ENTRIES)
        raw = json.loads(str(spec))
        raw["block_channels"] = tuple(raw["block_channels"])
        spec = models.ModelSpec(**raw)
        size = models.num_params(spec)
        if params.shape != (size,):
            raise ValueError(f"params has shape {params.shape}, but the spec needs ({size},)")
        return params, spec, int(seed), tuple(modalities.tolist())
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"model {path}: {exc}") from exc


def _metrics_rows(result: experiment.RunResult) -> List[str]:
    rows = []
    run_id = f"seed{result.seed}"
    for m in result.metrics:
        cells = [run_id, str(m.round), _fmt(m.global_loss), _fmt(m.global_acc)]
        cells.extend(_fmt(v) for v in m.ap_losses)
        cells.append("")  # bound column: only defined for quadratic verification
        rows.append(",".join(cells))
    return rows


def _write_metrics(out: Path, results, num_aps: int) -> str:
    header = ["run_id", "round", "global_loss", "global_acc"]
    header.extend(f"ap{i}_loss" for i in range(num_aps))
    header.append("bound")
    lines = [",".join(header)]
    for result in results:
        lines.extend(_metrics_rows(result))
    path = out / METRICS_FILENAME
    path.write_text("\n".join(lines) + "\n")
    return METRICS_FILENAME


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    try:
        ds = experiment.load_dataset(cfg)
    except ValueError as exc:
        _write_manifest(out, cfg, "failed", [], error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    datafile.write_dataset(ds, out / DATASET_FILENAME)
    _write_manifest(out, cfg, "complete", [DATASET_FILENAME])
    print(f"wrote {out / DATASET_FILENAME} ({len(ds)} records)")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    outputs: List[str] = []
    try:
        ds = experiment.load_dataset(cfg)
        results = []
        for seed in cfg.training.seeds:
            result = experiment.run_single(cfg, seed, ds=ds)
            results.append(result)
            model_name = f"model_seed{seed}.npz"
            save_model(out / model_name, result)
            outputs.append(model_name)
        outputs.append(_write_metrics(out, results, cfg.partition.num_aps))
        if cfg.analysis.enabled:
            _run_bound_check(cfg, out)
            outputs.extend([BOUND_TRACE_FILENAME, BOUND_SUMMARY_FILENAME])
            estimates = {
                f"seed{r.seed}": asdict(experiment.assumptions_for_run(cfg, r))
                for r in results
            }
            (out / ASSUMPTIONS_FILENAME).write_text(
                json.dumps(estimates, indent=2, sort_keys=True) + "\n"
            )
            outputs.append(ASSUMPTIONS_FILENAME)
        if cfg.personalization.enabled:
            lines = ["run_id,ap,before_acc,after_acc"]
            for result in results:
                for r in experiment.personalize_run(cfg, result):
                    lines.append(
                        f"seed{result.seed},{r.ap},{_fmt(r.before_acc)},{_fmt(r.after_acc)}"
                    )
            (out / PERSONALIZE_FILENAME).write_text("\n".join(lines) + "\n")
            outputs.append(PERSONALIZE_FILENAME)
    except Exception as exc:  # noqa: BLE001 - manifest must record the failure
        _write_manifest(out, cfg, "failed", outputs, error=str(exc))
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out, cfg, "complete", outputs)
    for result in results:
        final = result.metrics[-1] if result.metrics else None
        if final is not None:
            print(
                f"seed{result.seed}: round {final.round} "
                f"loss {final.global_loss:.4f} acc {final.global_acc:.4f}"
            )
    return 0


def _run_bound_check(cfg: cfg_mod.ExperimentConfig, out: Path) -> dict:
    """Write the bound trace and summary files; returns the summary."""
    a = cfg.analysis
    problem = analysis.make_quadratic_problem(
        seed=a.seed,
        dim=a.dim,
        num_aps=a.num_aps,
        noise_scale=a.noise_scale,
        mu_target=a.mu_target,
        smoothness_target=a.smoothness_target,
        drift_scale=a.drift_scale,
        init_radius=a.init_radius,
    )
    qcfg = analysis.QuadRunConfig(
        rounds=a.rounds,
        local_steps=a.local_steps,
        batch_size=a.batch_size,
        eta=a.eta,
        modality_count=a.modality_count,
        seed=a.seed,
    )
    trace = analysis.verify_bound(problem, qcfg, a.mc_seeds)
    lines = ["round,empirical_gap,stderr,bound"]
    for i in range(len(trace.rounds)):
        lines.append(
            f"{trace.rounds[i]},{_fmt(trace.empirical[i])},"
            f"{_fmt(trace.stderr[i])},{_fmt(trace.bound[i])}"
        )
    (out / BOUND_TRACE_FILENAME).write_text("\n".join(lines) + "\n")
    summary = {
        "rounds": int(qcfg.rounds),
        "mc_seeds": int(a.mc_seeds),
        "modality_count": int(qcfg.modality_count),
        "violations": [int(v) for v in trace.violations],
        "violation_count": int(len(trace.violations)),
        "constants": {
            "mu": problem.mu,
            "smoothness": problem.smoothness,
            "sigma2": problem.sigma2(a.batch_size),
            "zeta2": problem.zeta2,
        },
    }
    (out / BOUND_SUMMARY_FILENAME).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def cmd_verify_bound(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    try:
        summary = _run_bound_check(cfg, out)
    except analysis.BoundInapplicableError as exc:
        print(f"bound inapplicable: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"bound check: {summary['violation_count']} violation(s) "
        f"over {summary['rounds']} rounds"
    )
    return 0


def cmd_personalize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    try:
        params, spec, seed, modalities = load_model(Path(args.model))
        ds = experiment.load_dataset(cfg)
        saved = dict(asdict(spec), modalities=modalities)
        wanted = dict(
            asdict(experiment.build_spec(cfg, ds.num_transmitters, ds.window_len)),
            modalities=cfg.training.modalities,
        )
        if saved != wanted:
            field = next(key for key in saved if saved[key] != wanted[key])
            raise ValueError(
                f"model {args.model}: {field} is {saved[field]}, "
                f"but the config gives {wanted[field]}"
            )
        split = experiment.split_train_test(ds, cfg.dataset.test_fraction, seed)
        partition = experiment.build_partition(split, cfg, seed)
        train_cfg = experiment.training_config(cfg, spec, seed)
        steps = experiment.resolve_fine_tune_steps(cfg, partition)
        results = federation.personalize(split, partition, params, steps, train_cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["ap,before_acc,after_acc"]
    for r in results:
        lines.append(f"{r.ap},{_fmt(r.before_acc)},{_fmt(r.after_acc)}")
    (out / PERSONALIZE_FILENAME).write_text("\n".join(lines) + "\n")
    for r in results:
        print(f"ap{r.ap}: before {r.before_acc:.4f} after {r.after_acc:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrf",
        description="Multi-modal federated RF fingerprinting simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("gen-data", cmd_gen_data),
        ("run", cmd_run),
        ("verify-bound", cmd_verify_bound),
        ("personalize", cmd_personalize),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        # kept so existing command lines keep working: the APs of a round
        # train as one stacked computation, so there are no workers to cap
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (APs train as one stacked computation)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace training.seeds with this single seed")
        if name == "personalize":
            p.add_argument("--model", required=True, help="saved model .npz")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (cfg_mod.ConfigError, FileNotFoundError, datafile.DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
