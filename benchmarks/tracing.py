"""In-memory call spans around fedrf's public functions.

The recorder replaces a module attribute with a timing wrapper. fedrf calls
its own layers through module attributes (``models.loss_and_grad``,
``modality.fit_normalization``) or module globals (``federation.aggregate``,
``models.conv_time``), so a wrapper installed on the attribute sees every
call and ``src/`` needs no instrumentation of its own.

A span is ``[name, start, end, parent, iteration, count]``: ``parent`` is the
index of the enclosing span or -1, ``count`` the work count the target's
count function derived from the call's arguments. Self time is a span's
duration minus the durations of its direct children; calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, ITERATION, COUNT = range(6)

# parents whose subtree is model training rather than evaluation
TRAIN_PARENTS = ("models.loss_and_grad",)
EVAL_PARENTS = ("models.batch_loss", "federation.evaluate")


def _conv_flops(args, result) -> int:
    x, w = args[0], args[1]
    n, t, cols = x.shape[0], x.shape[1], x.shape[2]
    k, cin, cout = w.shape
    return 2 * n * t * cols * k * cin * cout


def _conv_backward_flops(args, result) -> int:
    # dx and dw are each one multiply-add per (example, time, column, tap, cin, cout)
    _, w, dy = args[0], args[1], args[2]
    n, t, cols = dy.shape[0], dy.shape[1], dy.shape[2]
    k, cin, cout = w.shape
    return 4 * n * t * cols * k * cin * cout


def _fit_values(args, result) -> int:
    examples = args[0]
    selection = args[1] if len(args) > 1 else result.means
    return sum(len(x) for x in examples) * 2 * len(selection)


def _aggregate_bytes(args, result) -> int:
    return len(args[0]) * result.size * 8


def _noise_draws(args, result) -> int:
    problem, cfg, num_runs = args[0], args[1], args[2]
    if problem.noise_scale <= 0:
        return 0
    return num_runs * cfg.rounds * problem.num_aps * cfg.local_steps * cfg.batch_size * problem.dim


# (module, attribute, span name, count function) for every traced call
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli.main", None),
    ("config", "parse_config", "config.parse_config", None),
    ("waveforms", "apply_fingerprint", "waveforms.apply_fingerprint", None),
    ("datafile", "generate_dataset", "datafile.generate_dataset", lambda a, r: len(r)),
    ("datafile", "read_dataset", "datafile.read_dataset", lambda a, r: os.path.getsize(a[0])),
    ("experiment", "split_train_test", "experiment.split_train_test", None),
    ("federation", "partition_noniid", "federation.partition", None),
    ("federation", "partition_iid", "federation.partition", None),
    ("modality", "fit_normalization", "modality.fit_normalization", _fit_values),
    ("modality", "stack_batch", "modality.stack_batch", lambda a, r: len(r)),
    ("federation", "run_training", "federation.run_training", None),
    ("federation", "local_train", "federation.local_train", None),
    ("federation", "aggregate", "federation.aggregate", _aggregate_bytes),
    ("federation", "evaluate", "federation.evaluate", None),
    ("federation", "personalize", "federation.personalize", None),
    ("models", "loss_and_grad", "models.loss_and_grad", lambda a, r: len(a[2])),
    ("models", "batch_loss", "models.batch_loss", None),
    ("models", "conv_time", "models.conv_time", _conv_flops),
    ("models", "conv_time_backward", "models.conv_time_backward", _conv_backward_flops),
    ("models", "maxpool2_time", "models.maxpool2_time", None),
    ("analysis", "verify_bound", "analysis.verify_bound", None),
    ("analysis", "simulate_quadratic_runs", "analysis.simulate_quadratic_runs", _noise_draws),
]


class Recorder:
    """Collects spans while installed; ``uninstall`` restores the modules."""

    def __init__(self):
        self.spans: List[list] = []
        self.iteration = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        # results of the probe calls of the current iteration, by span index
        self.results: Dict[int, tuple] = {}
        # span name -> first error of its count function; the count stays 0
        self.count_errors: Dict[str, str] = {}

    def install(self, modules: Dict[str, object], names, probes=()) -> None:
        """Wrap the targets whose span name is in ``names``.

        A probe target also keeps its arguments and result until the
        iteration is taken, for measurements that need them.
        """
        for mod_name, attr, name, count in TARGETS:
            if name in names or name in probes:
                module = modules[mod_name]
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count, name in probes))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, count, keep: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration, 0]
            spans.append(span)
            stack.append(sid)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[COUNT] = count(args, result)
                except Exception as exc:  # noqa: BLE001 - tracing must not change the program
                    self.count_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            if keep:
                self.results[sid] = (args, result)
            return result

        return wrapper

    def take_results(self, name: str) -> List[Tuple[list, tuple, object]]:
        """(span, args, result) of every kept call to ``name``; then forget them."""
        out = [
            (self.spans[sid], args, result)
            for sid, (args, result) in sorted(self.results.items())
            if self.spans[sid][NAME] == name
        ]
        self.results.clear()
        return out


def self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def phase(spans: List[list], i: int) -> str:
    """'train' or 'eval' from the nearest training or evaluation ancestor."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in TRAIN_PARENTS:
            return "train"
        if spans[p][NAME] in EVAL_PARENTS:
            return "eval"
        p = spans[p][PARENT]
    return "eval"


def write_spans(path, spans: List[list]) -> None:
    fields = ("name", "start", "end", "parent", "iteration", "count")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": spans}, fh)
