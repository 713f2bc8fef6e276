"""Benchmark of the fedrf simulator.

    python3 benchmarks/run.py --workload desk_softmax --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a source tree; fedrf is imported from its ``src/``.
One run prepares the workload (configs, dataset file), then repeats one
iteration of the workload until ``--seconds`` are used, checking every
iteration's outputs. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with only the set-up probe
installed. With ``--trace 1`` iterations alternate untraced and traced; the
traced ones give the per-module metrics (medians over traced iterations) and
the spans are written to ``.bench_work/``. ``--smoke`` runs every workload at a
tiny size in both modes and checks that each metric of ``BENCHMARK.json`` is
emitted with its unit.

End-to-end metrics, all per iteration unless said otherwise:

  setup_s               median time from the iteration's start until
                        federated training (desk) or the Monte Carlo loop
                        (quad) begins: config parse, dataset generation or
                        read, split, partition with its normalization fits
  run_s                 median wall time of one iteration
  round_ms_p50          median wall time of a round. Desk: one federated
                        round, as ``RoundMetrics.wall_time_s`` reports it.
                        quad_bound: the rounds run inside one vectorised call,
                        so a sample is a verify_bound call's time / rounds
  train_examples_per_s  SGD examples (rounds x APs x steps x batch plus
                        fine-tune steps x batch; quad: trajectories x rounds
                        x APs x steps x batch) / (run_s - setup_s)
  mc_steps_per_s        SGD steps / median time in run_training (desk) or in
                        verify_bound (quad: trajectories x rounds x APs x steps)
  peak_rss_mb           peak resident memory of this process

Three results are printed beside them, by name and unit, and kept in the
details line rather than in the bounded metrics. The first two are fixed by
the seed, so their spread over seeds is not measurement noise. The tail has
too few samples on desk_resnet (5 rounds an iteration, 2-3 iterations a run)
to be steady from run to run.

  final_acc             global test accuracy after the last round; quad: share
                        of rounds at or under the bound, mean over M
  final_loss            global test loss after the last round; quad: final
                        empirical gap, mean over M
  round_ms_tail         per iteration, the highest percentile with ten round
                        samples beyond it (the eleventh-largest), or the
                        slowest round when an iteration has fewer than 50;
                        the median over iterations. The percentile and the
                        sample counts are printed
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): the loop has a single client, and a
# second thread on a small shared machine adds noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MODULES = ("analysis", "cli", "config", "datafile", "experiment", "federation",
           "modality", "models", "waveforms")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_ms_p50", "ms"),
    ("train_examples_per_s", "1/s"),
    ("mc_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
RESULTS = [("final_acc", "fraction"), ("final_loss", "loss")]

# per traced iteration; a name's last part picks the total it reports
_COUNT_SUFFIXES = ("records", "bytes", "values", "examples", "flops", "noise_draws")
PER_LAYER = [
    ("waveforms.apply_fingerprint.calls", "count"),
    ("waveforms.apply_fingerprint.self_s", "s"),
    ("datafile.generate_dataset.self_s", "s"),
    ("datafile.generate_dataset.records", "count"),
    ("datafile.read_dataset.self_s", "s"),
    ("datafile.read_dataset.bytes", "B"),
    ("config.parse_config.self_s", "s"),
    ("experiment.split_train_test.self_s", "s"),
    ("federation.partition.self_s", "s"),
    ("modality.fit_normalization.calls", "count"),
    ("modality.fit_normalization.self_s", "s"),
    ("modality.fit_normalization.values", "count"),
    ("modality.stack_batch.calls", "count"),
    ("modality.stack_batch.self_s", "s"),
    ("modality.stack_batch.examples", "count"),
    ("models.loss_and_grad.calls", "count"),
    ("models.loss_and_grad.self_s", "s"),
    ("models.loss_and_grad.examples", "count"),
    ("models.conv_time.train_s", "s"),
    ("models.conv_time.eval_s", "s"),
    ("models.conv_time.calls", "count"),
    ("models.conv_time.flops", "flop"),
    ("models.conv_time_backward.self_s", "s"),
    ("models.conv_time_backward.calls", "count"),
    ("models.conv_time_backward.flops", "flop"),
    ("models.maxpool2_time.self_s", "s"),
    ("models.batch_loss.calls", "count"),
    ("models.batch_loss.self_s", "s"),
    ("federation.evaluate.calls", "count"),
    ("federation.evaluate.self_s", "s"),
    ("federation.local_train.calls", "count"),
    ("federation.local_train.self_s", "s"),
    ("federation.aggregate.calls", "count"),
    ("federation.aggregate.self_s", "s"),
    ("federation.aggregate.bytes", "B"),
    ("federation.personalize.self_s", "s"),
    ("federation.run_training.self_s", "s"),
    ("analysis.simulate_quadratic_runs.calls", "count"),
    ("analysis.simulate_quadratic_runs.self_s", "s"),
    ("analysis.simulate_quadratic_runs.noise_draws", "count"),
    ("analysis.verify_bound.self_s", "s"),
    ("cli.main.self_s", "s"),
    # exact work of one iteration, computed from its inputs rather than counted
    ("work.sgd_examples", "count"),
    ("work.grad_evals", "count"),
    ("work.aggregate_bytes", "B"),
    ("work.conv_flops", "flop"),
    ("work.noise_draws", "count"),
    ("trace.spans", "count"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
]
TRACED = {name for _, _, name, _ in tracing.TARGETS}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or no iteration completed)."""


def load_fedrf() -> dict:
    src = ROOT / "src"
    if not (src / "fedrf" / "__init__.py").is_file():
        raise BenchError(f"no fedrf sources under {src}")
    sys.path.insert(0, str(src))
    import fedrf

    if Path(fedrf.__file__).resolve().parent != (src / "fedrf").resolve():
        raise BenchError(f"imported fedrf from {fedrf.__file__}, not from {src}")
    return {name: __import__(f"fedrf.{name}", fromlist=[name]) for name in MODULES}


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or the requested count."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                lib = ctypes.CDLL(path)
                for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                               "openblas_get_num_threads"):
                    fn = getattr(lib, symbol, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_sha() -> str:
    """HEAD of the source tree's own .git, if it has one (no parent search)."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def tail(samples):
    """(value, percentile, samples beyond it) for one iteration's round times.

    The highest percentile with ten samples beyond it is the eleventh-largest
    sample. Below 50 samples that percentile falls under p80 and is no tail,
    so the slowest round stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 50:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _iteration(wl, cli, out):
    """Run one iteration's CLI calls: (wall time, call start times, error)."""
    clock = time.perf_counter
    starts, codes, error = [], [], None
    start = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in wl.calls(out):
                starts.append(clock())
                codes.append(cli.main(argv))
    except Exception as exc:  # noqa: BLE001 - a crash is a failed iteration
        error = f"{type(exc).__name__}: {exc}"
    wall = clock() - start
    if error is None and any(codes):
        error = f"exit status {codes}"
    return wall, starts, error


def _check(wl, out, reference):
    """(outcome, error): the workload's own check, then equality with the first outputs."""
    try:
        outcome = wl.check(out)
    except (OSError, ValueError, KeyError) as exc:
        return None, f"unreadable outputs: {exc}"
    differ = reference and sorted(
        k for k in set(outcome.fingerprint) | set(reference.fingerprint)
        if outcome.fingerprint.get(k) != reference.fingerprint.get(k)
    )
    if differ:
        return outcome, f"outputs differ from the first iteration: {differ}"
    return outcome, outcome.error


def run_workload(wl, fedrf: dict, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Prepare, loop and check one workload; returns the result and details."""
    cli = fedrf["cli"]
    work = WORK / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rec = tracing.Recorder()
    try:
        wl = wl.prepare(ROOT, work, seed, smoke, cli, fedrf["config"])
        began = time.perf_counter()
        walls, traced_walls, untraced_walls = [], [], []
        measures, errors = [], []
        reference = None
        i = 0
        while True:
            traced = trace and i % 2 == 1
            out = work / f"iter{i}"
            rec.iteration = i
            rec.install(fedrf, TRACED if traced else (), probes=(wl.probe,))
            try:
                wall, starts, error = _iteration(wl, cli, out)
            finally:
                rec.uninstall()
            probes = rec.take_results(wl.probe)
            walls.append(wall)
            if error is None:
                # a run that completed is timed even when its outputs fail the check
                (traced_walls if traced else untraced_walls).append(wall)
                if not traced:
                    measures.append(wl.measure(starts, probes, fedrf["experiment"], fedrf["models"]))
                outcome, error = _check(wl, out, reference)
                reference = reference or outcome
            if error is not None:
                errors.append(f"iteration {i}: {error}")
                print(f"FAILED iteration {i}: {error}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            # stop once a further iteration would end more than half of one past the budget
            enough = i >= (2 if trace else 1)
            if enough and time.perf_counter() - began + statistics.median(walls) / 2 > seconds:
                break
        if not untraced_walls or (trace and not traced_walls) or reference is None:
            raise BenchError(f"{wl.name}: no iteration completed: {errors}")
        details = {
            "workload": wl.name,
            "seed": seed,
            "iterations": len(walls),
            "errors": errors,
            "work": measures[0].counts,
            "results": {
                name: {"value": getattr(reference, name), "unit": unit} for name, unit in RESULTS
            },
            "environment": environment(),
        }
        if trace:
            details["count_errors"] = rec.count_errors
            metrics = _layer_metrics(rec.spans, measures[0], traced_walls, untraced_walls)
            WORK.mkdir(exist_ok=True)
            tracing.write_spans(WORK / f"trace-{wl.name}-seed{seed}.json", rec.spans)
        else:
            metrics = _end_to_end(measures, untraced_walls, details)
        return {
            "correct": not errors,
            "attempted": len(walls),
            "failed": len(errors),
            "metrics": metrics,
            "details": details,
        }
    finally:
        rec.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(measures, walls, details) -> dict:
    run_s = statistics.median(walls)
    setup_s = statistics.median(m.setup_s for m in measures)
    busy_s = statistics.median(m.busy_s for m in measures)
    rounds = [r for m in measures for r in m.rounds_ms]
    # a tail per iteration, so that one slow stretch of the host moves one sample
    tails = [tail(m.rounds_ms) for m in measures]
    _, tail_p, beyond = tails[0]
    details["results"]["round_ms_tail"] = {
        "value": statistics.median(t[0] for t in tails), "unit": "ms"
    }
    details["rounds"] = {
        "samples": len(rounds),
        "per_iteration": len(measures[0].rounds_ms),
        "tail_percentile": tail_p,
        "beyond_tail": beyond,
    }
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "round_ms_p50": statistics.median(rounds),
        "train_examples_per_s": measures[0].counts["sgd_examples"] / (run_s - setup_s),
        "mc_steps_per_s": measures[0].steps / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_metrics(spans, measure, traced_walls, untraced_walls) -> dict:
    per_iter = defaultdict(lambda: defaultdict(float))
    selves = tracing.self_times(spans)
    for i, s in enumerate(spans):
        totals = per_iter[s[tracing.ITERATION]]
        name = s[tracing.NAME]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += selves[i]
        totals[f"{name}.count"] += s[tracing.COUNT]
        totals["trace.spans"] += 1
        if name == "models.conv_time":
            totals[f"{name}.{tracing.phase(spans, i)}_s"] += selves[i]
    # odd iterations are the traced ones; even ones hold only the set-up probe
    traced = [totals for it, totals in per_iter.items() if it % 2 == 1]
    # the first iteration also pays for cold caches; leave it out when a warm one exists
    untraced_walls = untraced_walls[1:] or untraced_walls
    values = {}
    for name, unit in PER_LAYER:
        prefix, _, last = name.rpartition(".")
        if prefix == "work":
            value = measure.counts[last]
        elif name == "trace.run_s":
            value = statistics.median(traced_walls)
        elif name == "trace.untraced_run_s":
            value = statistics.median(untraced_walls)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            key = f"{prefix}.count" if last in _COUNT_SUFFIXES else name
            value = statistics.median(t.get(key, 0) for t in traced)
            if unit != "s":
                value = int(value)
        values[name] = value
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def smoke() -> int:
    """Every workload once at a tiny size, both modes; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != dict(END_TO_END) or declared[1] != dict(PER_LAYER):
        problems.append("BENCHMARK.json metrics differ from the benchmark's tables")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    fedrf = load_fedrf()
    for wl in WORKLOADS.values():
        for trace in (0, 1):
            result = run_workload(wl, fedrf, seed=1, seconds=0, trace=bool(trace), smoke=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            status = "ok"
            if emitted != declared[trace]:
                status = "metric names or units differ from BENCHMARK.json"
            elif not result["correct"]:
                status = f"failed: {result['details']['errors']}"
            if status != "ok":
                problems.append(f"{wl.name} trace {trace}: {status}")
            print(f"smoke {wl.name} trace {trace}: {result['attempted']} iteration(s), {status}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        result = run_workload(WORKLOADS[args.workload], load_fedrf(), args.seed,
                              args.seconds, bool(args.trace), smoke=False)
    except (BenchError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    details = result.pop("details")
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1) + "\n"
    )
    for name, m in {**result["metrics"], **details["results"]}.items():
        print(f"{name:44s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
