"""Command-line entry point.

Subcommands:

    gen-data     write the configured dataset to disk (a copy of dataset.path if set)
    run          full pipeline: data, partition, federated training and
                 optional personalization
    verify-bound Monte Carlo check of the convergence bound on quadratics,
                 the one place the bound is checked
    personalize  fine-tune a saved global model at each AP

All outputs are deterministic functions of the config file, so repeated
invocations produce byte-identical artifacts.

``main`` owns every failure: it parses the command line, reads the config
and creates the output directory, then calls the subcommand, which writes
each text file through ``_write`` (so it is listed in the manifest) and
raises on failure. Every subcommand leaves a ``manifest.json`` whose status
is ``"complete"`` or ``"failed"``; every failure, a usage error included, is
one ``error:`` line on stderr and exit status 1; an interrupt (SIGINT) is
``error: interrupted``. A failure before the output directory exists writes
no manifest, and a rerun into a directory marks its manifest ``"failed"``
before it writes anything else. The manifest's ``seeds`` are the ones
the subcommand used, which it records in ``seeds`` as soon as it knows them:
``training.seeds`` for ``run``, ``analysis.seed`` for ``verify-bound``, the
model file's seed for ``personalize`` and ``dataset.seed`` for ``gen-data``
when it generates the dataset.

The manifest records the subcommand that wrote it, and an output directory
belongs to that subcommand: another subcommand refuses it before writing
anything, so one directory never mixes the files of two commands.
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
MODEL_ENTRIES = ("params", "spec", "seed", "modalities")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write(out: Path, outputs: List[str], name: str, content) -> None:
    """Write ``out/name`` and list it in ``outputs``: a dict as JSON, a list of rows as CSV."""
    if isinstance(content, dict):
        text = json.dumps(content, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(",".join(row) + "\n" for row in content)
    (out / name).write_text(text)
    outputs.append(name)


def _ap_rows(results: List[federation.PersonalizationResult], *lead: str) -> List[List[str]]:
    """One personalize.csv row per AP, after the ``lead`` cells."""
    return [[*lead, str(r.ap), _fmt(r.before_acc), _fmt(r.after_acc)] for r in results]


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it like every other failure."""

    def error(self, message: str):
        raise ValueError(message)


def _load_config(args) -> cfg_mod.ExperimentConfig:
    cfg = cfg_mod.parse_config(args.config)
    if args.seed_override is not None:
        cfg.training.seeds = (args.seed_override,)
        cfg_mod.validate(cfg)
    return cfg


def _out_dir(args, cfg: cfg_mod.ExperimentConfig) -> Path:
    out = args.out or cfg.output_dir
    if out is None:
        raise cfg_mod.ConfigError("no output directory: pass --out or set output_dir")
    path = Path(out)
    manifest = path / MANIFEST_FILENAME
    if manifest.exists():
        try:
            owner = json.loads(manifest.read_text()).get("command")
        except (OSError, ValueError, AttributeError):
            owner = None
        if owner != args.command:
            whose = f"fedrf {owner} output" if isinstance(owner, str) else (
                "a manifest.json that names no command")
            raise ValueError(f"out dir {path} holds {whose}; pass another --out")
        # a rerun that dies unreported must not leave the last run's "complete"
        _write_manifest(path, args.command, cfg, "failed", [], [], error="did not finish")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, command: str, cfg, status: str, outputs: List[str],
                    seeds: List[int], error: str = ""):
    _write(out, outputs, MANIFEST_FILENAME, {
        "tool": "fedrf",
        "version": __version__,
        "command": command,
        "status": status,
        "error": error,
        "seeds": seeds,
        "outputs": sorted(outputs),
        "config": cfg.echo(),
    })


def save_model(path: Path, result: experiment.RunResult) -> None:
    np.savez(
        path,
        # float64 holds a mini_resnet run's float32 parameters exactly
        params=np.asarray(result.params, dtype=np.float64),
        spec=json.dumps(asdict(result.train_cfg.spec)),
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
        # save_model writes only finite float64 parameters
        if params.dtype != np.float64:
            raise ValueError(f"params has dtype {params.dtype}, not float64")
        if not np.isfinite(params).all():
            raise ValueError("params are not all finite")
        # save_model writes the seed as one int64, or uint64 from 2**63 on
        if seed.shape != () or seed.dtype.kind not in "iu":
            raise ValueError(f"seed has dtype {seed.dtype} and shape {seed.shape}, "
                             "not one integer")
        if seed < 0:
            raise ValueError(f"seed is {seed}, not >= 0")
        return params, spec, int(seed), tuple(modalities.tolist())
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"model {path}: {exc}") from exc


def cmd_gen_data(args, cfg, out: Path, outputs: List[str], seeds: List[int]) -> None:
    if cfg.dataset.path is None:
        seeds.append(cfg.dataset.seed)
    ds = experiment.load_dataset(cfg)
    datafile.write_dataset(ds, out / DATASET_FILENAME)
    outputs.append(DATASET_FILENAME)
    print(f"wrote {out / DATASET_FILENAME} ({len(ds)} records)")


def cmd_run(args, cfg, out: Path, outputs: List[str], seeds: List[int]) -> None:
    seeds.extend(cfg.training.seeds)
    ds = experiment.load_dataset(cfg)
    runs = []
    for seed in cfg.training.seeds:
        run = experiment.run_single(cfg, seed, ds)
        runs.append(run)
        model_name = f"model_seed{seed}.npz"
        save_model(out / model_name, run)
        outputs.append(model_name)
    header = ["run_id", "round", "global_loss", "global_acc",
              *(f"ap{i}_loss" for i in range(cfg.partition.num_aps))]
    _write(out, outputs, METRICS_FILENAME, [header, *(
        [f"seed{run.seed}", str(m.round), _fmt(m.global_loss), _fmt(m.global_acc),
         *map(_fmt, m.ap_losses)]
        for run in runs for m in run.metrics)])
    if cfg.personalization.enabled:
        rows = [["run_id", "ap", "before_acc", "after_acc"]]
        for run in runs:
            rows.extend(_ap_rows(experiment.personalize_run(cfg, run), f"seed{run.seed}"))
        _write(out, outputs, PERSONALIZE_FILENAME, rows)
    for run in runs:
        if run.metrics:
            final = run.metrics[-1]
            print(
                f"seed{run.seed}: round {final.round} "
                f"loss {final.global_loss:.4f} acc {final.global_acc:.4f}"
            )


def cmd_verify_bound(args, cfg, out: Path, outputs: List[str], seeds: List[int]) -> None:
    a = cfg.analysis
    seeds.append(a.seed)
    problem = analysis.make_quadratic_problem(a)
    trace = analysis.verify_bound(problem, a, a.mc_seeds)
    _write(out, outputs, BOUND_TRACE_FILENAME, [
        ["round", "empirical_gap", "stderr", "bound"],
        *([str(r), _fmt(e), _fmt(s), _fmt(b)] for r, e, s, b in
          zip(trace.rounds, trace.empirical, trace.stderr, trace.bound)),
    ])
    summary = {
        "rounds": a.rounds,
        "mc_seeds": a.mc_seeds,
        "modality_count": a.modality_count,
        "violations": [int(v) for v in trace.violations],
        "violation_count": int(len(trace.violations)),
        "constants": {
            "mu": problem.mu,
            "smoothness": problem.smoothness,
            "sigma2": problem.sigma2(a.batch_size),
            "zeta2": problem.zeta2,
        },
    }
    _write(out, outputs, BOUND_SUMMARY_FILENAME, summary)
    print(
        f"bound check: {summary['violation_count']} violation(s) "
        f"over {summary['rounds']} rounds"
    )


def cmd_personalize(args, cfg, out: Path, outputs: List[str], seeds: List[int]) -> None:
    params, spec, seed, modalities = load_model(Path(args.model))
    seeds.append(seed)
    run = experiment.prepare(cfg, experiment.load_dataset(cfg), seed)
    saved = dict(asdict(spec), modalities=modalities)
    wanted = dict(asdict(run.train_cfg.spec), modalities=run.train_cfg.modalities)
    if saved != wanted:
        field = next(key for key in saved if saved[key] != wanted[key])
        raise ValueError(
            f"model {args.model}: {field} is {saved[field]}, "
            f"but the config gives {wanted[field]}"
        )
    run.params = params
    results = experiment.personalize_run(cfg, run)
    _write(out, outputs, PERSONALIZE_FILENAME,
           [["ap", "before_acc", "after_acc"], *_ap_rows(results)])
    for r in results:
        print(f"ap{r.ap}: before {r.before_acc:.4f} after {r.after_acc:.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedrf",
        description="Multi-modal federated RF fingerprinting simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, fn in (
        ("gen-data", cmd_gen_data),
        ("run", cmd_run),
        ("verify-bound", cmd_verify_bound),
        ("personalize", cmd_personalize),
    ):
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        # kept so existing command lines keep working: the CPUs a run may
        # use are its CPU affinity, which taskset sets
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (a run trains on two processes "
                            "when its CPU affinity holds two CPUs)")
        p.set_defaults(fn=fn, seed_override=None)
    # only run reads training.seeds; personalize takes its seed from the model file
    parsers["run"].add_argument("--seed-override", type=int,
                                help="replace training.seeds with this single seed")
    parsers["personalize"].add_argument("--model", required=True, help="saved model .npz")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    out = None
    outputs: List[str] = []
    seeds: List[int] = []
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        out = _out_dir(args, cfg)
        args.fn(args, cfg, out, outputs, seeds)
    except (Exception, KeyboardInterrupt) as exc:  # noqa: BLE001 - one line and exit 1
        error = "interrupted" if isinstance(exc, KeyboardInterrupt) else str(exc)
        if out is not None:
            _write_manifest(out, args.command, cfg, "failed", outputs, seeds, error=error)
        print(f"error: {error}", file=sys.stderr)
        return 1
    _write_manifest(out, args.command, cfg, "complete", outputs, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
