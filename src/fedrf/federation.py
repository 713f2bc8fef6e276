"""Federated training across simulated access points.

One training round broadcasts the global parameter vector to every AP, runs
J local SGD steps on each AP's private shard, and averages the returned
vectors. Each AP's J mini-batches are drawn up front, as one index plan, from
its own RNG stream keyed by (seed, ap, round). The APs of a round then step
in lockstep: one stacked in-place step (``models.train_step``) serves all APs
of equal batch size, so results are bit-identical to training the APs one
after another.

The average sorts each coordinate with an odd-even transposition network of
``np.minimum``/``np.maximum`` over the AP rows and sums the rows in order,
bit-identical to summing ``np.sort(axis=0)``. ``run_training`` standardizes
the test set and every AP shard once, into one array whose row runs are the
batches, and an evaluated round takes one blocked forward pass over it for
the test loss and accuracy and every AP's loss.

A ``mini_resnet`` run whose process may use two CPUs (its CPU affinity) and
that has at least two APs forks one helper process for the rounds. The
helper trains the later half of the APs and computes the logits of the later
half of the evaluation blocks, into memory the two processes share, while
the calling process does the rest and then aggregates and scores. An AP's
parameters and a row's logits do not depend on which process computed them,
so neither do the results. ``softmax_linear`` rounds are too short to pay
for the handoff and stay in one process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import mmap
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from . import modality, models

# stream domain tags keep unrelated RNG consumers apart
_DOMAIN_PARTITION = 0xA11
_DOMAIN_LOCAL = 0xA12
_DOMAIN_PERSONALIZE = 0xA13
_DOMAIN_INIT = 0xA14


@dataclass
class SplitDataset:
    """Train/test split of a generated dataset, kept as raw waveforms."""

    num_transmitters: int
    window_len: int
    train_iq: np.ndarray
    train_labels: np.ndarray
    test_iq: np.ndarray
    test_labels: np.ndarray


@dataclass
class Partition:
    """Per-AP shards of the training set.

    ``indices[n]`` are row indices into the training arrays (pairwise
    disjoint across APs), ``label_sets[n]`` the labels actually present in
    shard n, and ``stats[n]`` normalization statistics fit on shard n only,
    for the modalities selected when the partition was built. A partition
    belongs to the split it was built from.
    """

    num_aps: int
    indices: List[np.ndarray]
    label_sets: List[np.ndarray]
    stats: List[modality.NormStats]


@dataclass
class TrainingConfig:
    spec: models.ModelSpec
    rounds: int
    local_steps: int
    batch_size: int
    eta: float
    modalities: Tuple[str, ...]
    eval_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0 or self.local_steps < 1 or self.batch_size < 1:
            raise ValueError("rounds must be >= 0; local_steps and batch_size >= 1")
        # false for NaN too
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")
        if self.eval_stride < 1:
            raise ValueError("eval_stride must be >= 1")


@dataclass
class RoundMetrics:
    round: int  # completed rounds, 1-based
    global_loss: float
    global_acc: float
    ap_losses: Tuple[float, ...]
    wall_time_s: float


@dataclass
class PersonalizationResult:
    ap: int
    before_acc: float
    after_acc: float
    params: np.ndarray


def _finalize_partition(
    data: SplitDataset, indices: List[np.ndarray], selection: Sequence[str]
) -> Partition:
    indices = [np.sort(np.asarray(ix, dtype=np.int64)) for ix in indices]
    label_sets = [np.unique(data.train_labels[ix]) for ix in indices]
    stats = [modality.fit_normalization(data.train_iq[ix], selection) for ix in indices]
    return Partition(len(indices), indices, label_sets, stats)


def partition_iid(
    data: SplitDataset, num_aps: int, seed: int, selection: Sequence[str]
) -> Partition:
    """Deal every label's examples round-robin, so each AP sees all labels.

    Each shard's normalization is fit for the ``selection`` modalities.
    """
    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_PARTITION, seed)))
    indices: List[list] = [[] for _ in range(num_aps)]
    for label in range(data.num_transmitters):
        rows = np.flatnonzero(data.train_labels == label)
        if len(rows) < num_aps:
            raise ValueError(
                f"label {label} has {len(rows)} examples, fewer than {num_aps} APs"
            )
        rows = rng.permutation(rows)
        for ap in range(num_aps):
            indices[ap].extend(rows[ap::num_aps])
    return _finalize_partition(data, [np.array(ix) for ix in indices], selection)


def partition_noniid(
    data: SplitDataset,
    num_aps: int,
    labels_per_ap: int,
    seed: int,
    selection: Sequence[str],
) -> Partition:
    """Label-skewed partition: each AP holds ``labels_per_ap`` labels.

    Exactly ``num_aps*labels_per_ap - num_labels`` labels, counted from
    ``data``, are shared between two APs (their examples split evenly);
    every other label belongs to a single AP and no label appears at more
    than two APs. Each shard's normalization is fit for the ``selection``
    modalities.
    """
    num_labels = data.num_transmitters
    shared = num_aps * labels_per_ap - num_labels
    if shared < 0:
        raise ValueError("num_aps*labels_per_ap must cover every label")
    if shared > num_labels:
        raise ValueError("more overlap slots than labels (a label would need >2 APs)")
    if labels_per_ap > num_labels:
        raise ValueError("labels_per_ap exceeds the number of labels")
    if shared > 0 and num_aps < 2:
        raise ValueError("shared labels need at least 2 APs")

    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_PARTITION, seed)))
    order = rng.permutation(num_labels)
    doubled = order[:shared]
    singles = order[shared:]

    capacity = np.full(num_aps, labels_per_ap, dtype=np.int64)
    assigned: List[List[int]] = [[] for _ in range(num_labels)]

    # shared labels first: take the two APs with the most free slots, so
    # capacities stay balanced and the pair is always distinct
    for label in doubled:
        tiebreak = rng.permutation(num_aps)
        ranked = sorted(range(num_aps), key=lambda a: (-capacity[a], tiebreak[a]))
        first, second = ranked[0], ranked[1]
        if capacity[first] < 1 or capacity[second] < 1:
            raise ValueError("infeasible partition: not enough free label slots")
        assigned[label] = [first, second]
        capacity[first] -= 1
        capacity[second] -= 1
    for label in singles:
        tiebreak = rng.permutation(num_aps)
        ap = min(range(num_aps), key=lambda a: (-capacity[a], tiebreak[a]))
        if capacity[ap] < 1:
            raise ValueError("infeasible partition: not enough free label slots")
        assigned[label] = [ap]
        capacity[ap] -= 1

    indices: List[list] = [[] for _ in range(num_aps)]
    for label in range(num_labels):
        rows = np.flatnonzero(data.train_labels == label)
        if len(rows) == 0:
            raise ValueError(f"label {label} has no training examples")
        aps = assigned[label]
        if len(aps) == 1:
            indices[aps[0]].extend(rows)
        else:
            if len(rows) < 2:
                raise ValueError(f"shared label {label} needs >= 2 examples")
            rows = rng.permutation(rows)
            half = (len(rows) + 1) // 2
            indices[aps[0]].extend(rows[:half])
            indices[aps[1]].extend(rows[half:])
    return _finalize_partition(data, [np.array(ix) for ix in indices], selection)


def _round_plan(n: int, batch_size: int, rng: np.random.Generator, steps: int) -> np.ndarray:
    """The (steps, min(batch_size, n)) row indices of one AP's mini-batches.

    Batches are taken without replacement from a shuffled queue of the n rows,
    drawn with ``rng.permutation(n)``; a new queue is drawn whenever fewer than
    a batch of rows remain. Each batch is sorted, so a full batch is the
    natural row order.
    """
    size = min(batch_size, n)
    per_queue = n // size
    queues = [rng.permutation(n)[: per_queue * size] for _ in range(-(-steps // per_queue))]
    return np.sort(np.concatenate(queues).reshape(-1, size)[:steps], axis=1)


def ap_stream(seed: int, ap: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((_DOMAIN_LOCAL, seed, ap, round_index))
    )


@np.errstate(over="ignore", invalid="ignore")
def local_train(
    shards: Sequence[models.Batch],
    rngs: Sequence[np.random.Generator],
    w_global: np.ndarray,
    cfg: TrainingConfig,
    grad_fn: Optional[Callable[[np.ndarray, models.Batch], np.ndarray]] = None,
) -> np.ndarray:
    """Run exactly ``cfg.local_steps`` SGD steps at every AP from the broadcast parameters.

    Returns the local parameters stacked as (N, P) in the order of
    ``shards``. Before the first step, each AP's mini-batches for all steps
    are drawn as one ``_round_plan`` from its own stream in ``rngs``. APs
    with the same effective batch size (``batch_size`` capped at the shard
    size) step together on their stacked (G, P) parameters and stacked
    (G, B, ...) batch: by default each step is one in-place
    ``models.train_step``, which computes no loss; a ``grad_fn`` returns the
    (G, P) gradients instead, and they are not modified. Overflow is not
    reported here; callers check for divergence.
    """
    w_global = np.asarray(w_global, dtype=np.float64)
    plans = [
        _round_plan(len(shard), cfg.batch_size, rng, cfg.local_steps)
        for shard, rng in zip(shards, rngs)
    ]
    groups: Dict[int, List[int]] = {}
    for n, plan in enumerate(plans):
        groups.setdefault(plan.shape[1], []).append(n)
    out = np.empty((len(shards),) + w_global.shape)
    for size, members in groups.items():
        shape = shards[members[0]].inputs.shape[1:]
        # one stacked batch, refilled in place at every step
        batch = models.Batch(
            np.empty((len(members), size) + shape),
            np.empty((len(members), size), dtype=np.int64),
        )
        w = np.repeat(w_global[None], len(members), axis=0)
        for j in range(cfg.local_steps):
            for g, n in enumerate(members):
                idx = plans[n][j]
                # the plan's indices are in range; "clip" lets take write out unbuffered
                np.take(shards[n].inputs, idx, axis=0, out=batch.inputs[g], mode="clip")
                np.take(shards[n].labels, idx, out=batch.labels[g], mode="clip")
            if grad_fn is None:
                models.train_step(cfg.spec, w, batch, cfg.eta)
            else:
                w = models.sgd_step(w, grad_fn(w, batch), cfg.eta)
        out[members] = w
    return out


def aggregate(params_list: Sequence[np.ndarray]) -> np.ndarray:
    """Unweighted elementwise mean of the AP parameter vectors.

    Each coordinate is summed in sorted value order, which makes the result
    exactly invariant to permuting the inputs. An odd-even transposition
    network of ``np.minimum``/``np.maximum`` sorts the N rows, coordinate by
    coordinate, in N phases; the rows are then summed in order. The sum equals
    that of ``np.sort(axis=0)`` bit for bit: the two orders can differ only
    between -0.0 and +0.0, whose order no sum depends on. A NaN spreads
    through the network, so the mean stays non-finite.
    """
    if len(params_list) == 0:
        raise ValueError("nothing to aggregate")
    first = np.asarray(params_list[0])
    for p in params_list[1:]:
        if np.asarray(p).shape != first.shape:
            raise ValueError("parameter layouts differ across APs")
    rows = [np.asarray(p, dtype=np.float64) for p in params_list]
    n = len(rows)
    for phase in range(n):
        for i in range(phase % 2, n - 1, 2):
            lo, hi = rows[i], rows[i + 1]
            rows[i], rows[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    # from +0.0, as np.sum starts: a column of -0.0 sums to +0.0
    total = np.zeros(first.shape)
    for row in rows:
        total += row
    return total / n


def evaluate(spec: models.ModelSpec, params: np.ndarray, batch: models.Batch):
    """Mean cross-entropy (no l2 term) and accuracy under lowest-index tie-break."""
    if len(batch) == 0:
        raise ValueError("empty evaluation set")
    logits, _ = models._logits(spec, params, batch.inputs)
    loss = models._cross_entropy(logits, batch.labels)
    preds = np.argmax(logits, axis=1)
    acc = float(np.mean(preds == batch.labels))
    return loss, acc


def _standardized_rows(
    data: SplitDataset,
    partition: Partition,
    selection: Sequence[str],
    test_stats: Optional[modality.NormStats],
    shard_stats: Sequence[modality.NormStats],
) -> Tuple[np.ndarray, List[models.Batch]]:
    """Every AP's shard, standardized with ``shard_stats[n]``, built in place
    into one (rows, L, 2, M) array; returns it and the batches, consecutive
    views of it in AP order. Unless ``test_stats`` is None the test set,
    standardized with them, is the first batch.
    """
    parts = [
        (data.train_iq[ix], data.train_labels[ix], stats)
        for ix, stats in zip(partition.indices, shard_stats)
    ]
    if test_stats is not None:
        parts.insert(0, (data.test_iq, data.test_labels, test_stats))
    count = sum(len(labels) for _, labels, _ in parts)
    rows = np.empty((count, data.window_len, 2, len(selection)))
    batches, start = [], 0
    for iq, labels, stats in parts:
        x = modality.stack_batch(iq, selection, stats, out=rows[start : start + len(labels)])
        batches.append(models.Batch(x, labels))
        start += len(labels)
    return rows, batches


def build_ap_batches(
    data: SplitDataset, partition: Partition, selection: Sequence[str]
) -> List[models.Batch]:
    """Standardize each shard with its own AP-local statistics."""
    return _standardized_rows(data, partition, selection, None, partition.stats)[1]


def _round_scores(
    spec: models.ModelSpec,
    params: np.ndarray,
    logits: np.ndarray,
    labels: np.ndarray,
    batches: List[models.Batch],
) -> Tuple[float, float, Tuple[float, ...]]:
    """Test loss and accuracy and the AP losses of one evaluated round.

    ``batches`` (the test batch, then the AP batches) are those of
    ``_standardized_rows``; ``logits`` are those of its rows under
    ``params``, and ``labels`` every batch's labels in the same order. A
    row's logits do not depend on the other rows of its evaluation block, so
    the scores equal ``evaluate`` on the test batch and ``models.batch_loss``
    on each AP batch bit for bit; the l2 term is computed once.
    """
    losses = models._row_losses(logits, labels)
    test = batches[0]
    acc = float(np.mean(np.argmax(logits[: len(test)], axis=1) == test.labels))
    means, start = [], 0
    for batch in batches:
        means.append(models._mean(losses[start : start + len(batch)]))
        start += len(batch)
    loss, ap_losses = means[0], means[1:]
    if spec.l2_coeff:
        l2 = models._l2_term(spec, params)
        ap_losses = [ap_loss + l2 for ap_loss in ap_losses]
    return loss, acc, tuple(ap_losses)


# the tasks of a round, each sent to the helper process as one byte
_TRAIN, _SCORE = b"T", b"S"


def _wants_helper(spec: models.ModelSpec, num_aps: int) -> bool:
    """Whether ``run_training`` forks a helper: a mini_resnet round takes long
    enough to pay for the handoff, and there are two APs and two CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return spec.kind == models.KIND_RESNET and num_aps >= 2 and (
        affinity is not None and len(affinity(0)) >= 2)


def _serve(work: Callable[[bytes, int], None], commands: int, replies: int) -> NoReturn:
    """The helper process: run ``work(task, round)`` for each task read from
    ``commands`` until the pipe closes, and answer each with an empty line on
    ``replies``; an exception is answered with one line naming it, and the
    process ends. It never returns into its caller's stack, writes nothing to
    stdout or stderr and ignores SIGINT, which the parent handles for both.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        sys.stdout = sys.stderr = open(os.devnull, "w")
        os.dup2(sys.stdout.fileno(), 1)
        os.dup2(sys.stdout.fileno(), 2)
        rounds = 0  # training tasks done: the index of the round under way
        while task := os.read(commands, 1):
            work(task, rounds)
            rounds += task == _TRAIN
            os.write(replies, b"\n")
        status = 0
    except Exception as exc:  # noqa: BLE001 - the parent raises it as one line
        os.write(replies, " ".join(f"{type(exc).__name__}: {exc}".split()).encode() + b"\n")
    finally:
        os._exit(status)


@contextlib.contextmanager
def _round_tasks(work: Callable[..., None], mine: tuple, theirs: tuple, fork: bool):
    """Yield ``run(task, t)``, which calls ``work(task, t, *mine)`` here and,
    with ``fork``, ``work(task, t, *theirs)`` at the same time in a forked
    helper process, and returns when both are done. A failed helper makes
    ``run`` raise a one-line RuntimeError. On leaving, the helper's command
    pipe is closed and the process reaped, after an exception killed first,
    so no helper outlives the block.
    """
    if not fork:
        yield lambda task, t: work(task, t, *mine)
        return
    commands, command_end = os.pipe()
    reply_end, replies = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(command_end)
        os.close(reply_end)
        _serve(lambda task, t: work(task, t, *theirs), commands, replies)
    os.close(commands)
    os.close(replies)
    reader = os.fdopen(reply_end, "rb")

    def run(task: bytes, t: int) -> None:
        os.write(command_end, task)
        work(task, t, *mine)
        reply = reader.readline()
        if reply == b"":
            raise RuntimeError(f"training helper process ended during round {t+1}")
        if reply != b"\n":
            raise RuntimeError(f"training helper failed in round {t+1}: {reply.decode().strip()}")

    try:
        yield run
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(command_end)
        reader.close()
        os.waitpid(pid, 0)


@np.errstate(over="ignore", invalid="ignore")
def run_training(
    data: SplitDataset, partition: Partition, cfg: TrainingConfig
) -> Tuple[List[RoundMetrics], np.ndarray]:
    """Full federated loop; returns per-round metrics and the final parameters.

    Global metrics are computed on the held-out test set, standardized with
    training-pool statistics, every ``eval_stride`` rounds and always after
    the final round, together with each AP's loss (mean cross-entropy plus
    the l2 term) on its own shard; one blocked forward pass over the test
    rows and the AP rows, built once into one array, serves them all. A round
    whose aggregated parameters are not finite fails the run with a
    ValueError naming that round; the overflow that leads there is not
    reported as NumPy warnings.

    When ``_wants_helper``, a forked helper process trains APs ``[N//2:]``
    and computes the logits of the later half of the evaluation blocks while
    this process does the rest; otherwise this process does all of it. The
    broadcast parameters, the AP results and the logits live in one shared
    anonymous mapping made before the fork, and the helper inherits the rows.
    Each AP's parameters and each row's logits are bit-identical whichever
    process computes them, so the results do not depend on the helper.
    """
    stats = modality.pool_normalization(partition.stats)
    rows, batches = _standardized_rows(data, partition, cfg.modalities, stats, partition.stats)
    labels = np.concatenate([b.labels for b in batches])
    init_seed = int(np.random.SeedSequence((_DOMAIN_INIT, cfg.seed)).generate_state(1)[0])
    w = models.init_params(cfg.spec, init_seed)

    num_aps, size, classes = partition.num_aps, len(w), cfg.spec.num_classes
    shared = np.frombuffer(mmap.mmap(-1, 8 * ((1 + num_aps) * size + len(rows) * classes)))
    w_shared = shared[:size]
    local = shared[size : (1 + num_aps) * size].reshape(num_aps, size)
    logits = shared[(1 + num_aps) * size :].reshape(len(rows), classes)

    def work(task: bytes, t: int, aps: range, block: slice) -> None:
        """One process's share of a task of round t, from ``w_shared``."""
        if task == _TRAIN:
            rngs = [ap_stream(cfg.seed, n, t) for n in aps]
            shards = batches[1 + aps.start : 1 + aps.stop]
            local[aps.start : aps.stop] = local_train(shards, rngs, w_shared, cfg)
        elif block.start < block.stop:
            logits[block] = models._logits(cfg.spec, w_shared, rows[block])[0]

    fork = _wants_helper(cfg.spec, num_aps)
    ap_cut = num_aps // 2 if fork else num_aps
    stops = models.block_stops(cfg.spec, len(rows))
    row_cut = stops[(len(stops) - 1) // 2] if fork else len(rows)
    mine = (range(ap_cut), slice(0, row_cut))
    theirs = (range(ap_cut, num_aps), slice(row_cut, len(rows)))

    metrics: List[RoundMetrics] = []
    w_shared[:] = w
    with _round_tasks(work, mine, theirs, fork) as run:
        for t in range(cfg.rounds):
            start = time.perf_counter()
            run(_TRAIN, t)
            w = aggregate(local)
            if not np.all(np.isfinite(w)):
                raise ValueError(f"training diverged at round {t+1}: parameters are not finite")
            w_shared[:] = w
            if (t + 1) % cfg.eval_stride == 0 or t == cfg.rounds - 1:
                run(_SCORE, t)
                loss, acc, ap_losses = _round_scores(cfg.spec, w, logits, labels, batches)
                metrics.append(
                    RoundMetrics(
                        round=t + 1,
                        global_loss=loss,
                        global_acc=acc,
                        ap_losses=ap_losses,
                        wall_time_s=time.perf_counter() - start,
                    )
                )
    return metrics, w


def personalize(
    data: SplitDataset,
    partition: Partition,
    w_global: np.ndarray,
    fine_tune_steps: int,
    cfg: TrainingConfig,
) -> List[PersonalizationResult]:
    """Fine-tune the global model on each AP's shard.

    Each AP is scored before and after with ``evaluate`` on the subset of the
    global test set whose labels it holds. Training-pool statistics
    standardize both the fine-tuning inputs and the test set, so in the
    i.i.d. case every AP starts from an identical "before" accuracy.
    Fine-tuned parameters that are not finite raise a ValueError naming the
    first such AP.
    """
    if fine_tune_steps < 0:
        raise ValueError("fine_tune_steps must be >= 0")
    stats = modality.pool_normalization(partition.stats)
    _, batches = _standardized_rows(
        data, partition, cfg.modalities, stats, [stats] * partition.num_aps
    )
    test, test_subsets = batches[0], []
    for n in range(partition.num_aps):
        mask = np.isin(test.labels, partition.label_sets[n])
        if not mask.any():
            raise ValueError(f"AP {n}: personalized test subset is empty")
        test_subsets.append(models.Batch(test.inputs[mask], test.labels[mask]))
    if fine_tune_steps == 0:
        tuned = np.repeat(np.asarray(w_global, dtype=np.float64)[None], partition.num_aps, axis=0)
    else:
        tuned_cfg = dataclasses.replace(cfg, local_steps=fine_tune_steps)
        rngs = [
            np.random.default_rng(np.random.SeedSequence((_DOMAIN_PERSONALIZE, cfg.seed, n)))
            for n in range(partition.num_aps)
        ]
        tuned = local_train(batches[1:], rngs, w_global, tuned_cfg)
        diverged = np.flatnonzero(~np.isfinite(tuned).all(axis=1))
        if len(diverged):
            raise ValueError(
                f"fine-tuning diverged at AP {diverged[0]}: parameters are not finite"
            )
    return [
        PersonalizationResult(
            ap=n,
            before_acc=evaluate(cfg.spec, w_global, subset)[1],
            after_acc=evaluate(cfg.spec, tuned[n], subset)[1],
            params=tuned[n],
        )
        for n, subset in enumerate(test_subsets)
    ]
