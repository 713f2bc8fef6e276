"""Federated training across simulated access points.

One training round broadcasts the global parameter vector to every AP, runs
J local SGD steps on each AP's private shard, and averages the returned
vectors. Each AP's J mini-batches are drawn up front, as one index plan, from
its own RNG stream keyed by (seed, ap, round). The APs of equal batch size
then step in lockstep: all J of their stacked in-place steps are one
``models.train_round`` call, which checks shapes, takes views and gathers
labels once per round, and results are bit-identical to training the APs one
after another.

The average sorts each coordinate with an odd-even transposition network of
``np.minimum``/``np.maximum`` over the AP rows and sums the rows in order,
bit-identical to summing ``np.sort(axis=0)``. ``run_training`` standardizes
the test set and every AP shard once, into one array whose row runs are the
batches, and an evaluated round takes one blocked forward pass over it for
the test loss and accuracy and every AP's loss.

A run whose process may use two CPUs (its CPU affinity), that has at least
two APs and at least one round forks one helper process (``helper.tasks``)
for the rounds. The helper trains the later half of the APs and scores the
rows of the later half of the evaluation blocks (each row's loss, and for a
test row whether it is classified right), into memory the two processes
share, while the calling process does the rest and then aggregates and
averages the scores. An AP's parameters and a row's scores do not depend on
which process computed them, so neither do the results.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import helper, modality, models

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

    indices: List[np.ndarray]
    label_sets: List[np.ndarray]
    stats: List[modality.NormStats]

    @property
    def num_aps(self) -> int:
        return len(self.indices)


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
    return Partition(indices, label_sets, stats)


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

    Exactly ``shared = num_aps*labels_per_ap - num_labels`` labels, counted
    from ``data``, are shared between two APs (their examples split evenly);
    every other label belongs to a single AP. The labels are dealt in one
    pass over a random order: each goes to the APs with the most free slots,
    ties broken by a fresh random ranking of the APs, the first ``shared``
    labels to the top two and the rest to the top one, so capacities stay
    balanced and a pair is always distinct. Each shard's normalization is fit
    for the ``selection`` modalities.
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
    capacity = np.full(num_aps, labels_per_ap, dtype=np.int64)
    assigned: List[List[int]] = [[] for _ in range(num_labels)]
    for i, label in enumerate(rng.permutation(num_labels)):
        tiebreak = rng.permutation(num_aps)
        ranked = sorted(range(num_aps), key=lambda a: (-capacity[a], tiebreak[a]))
        aps = ranked[: 2 if i < shared else 1]
        if capacity[aps[-1]] < 1:
            raise ValueError("infeasible partition: not enough free label slots")
        assigned[label] = aps
        capacity[aps] -= 1

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
) -> np.ndarray:
    """Run exactly ``cfg.local_steps`` SGD steps at every AP from the broadcast parameters.

    Returns the local parameters, in the dtype of ``w_global`` (float32 or
    float64), stacked as (N, P) in the order of ``shards``. Before the first
    step, each AP's mini-batches for all steps are drawn as one
    ``_round_plan`` from its own stream in ``rngs``. APs with the same
    effective batch size (``batch_size`` capped at the shard size) step
    together: all their steps are one ``models.train_round`` call on their
    stacked (G, P) parameters. Overflow is not reported here; callers check
    for divergence.
    """
    w_global = models._floats(w_global)
    plans = [
        _round_plan(len(shard), cfg.batch_size, rng, cfg.local_steps)
        for shard, rng in zip(shards, rngs)
    ]
    groups: Dict[int, List[int]] = {}
    for n, plan in enumerate(plans):
        groups.setdefault(plan.shape[1], []).append(n)
    out = np.empty((len(shards),) + w_global.shape, w_global.dtype)
    for members in groups.values():
        w = np.repeat(w_global[None], len(members), axis=0)
        models.train_round(cfg.spec, w, [shards[n] for n in members],
                           np.stack([plans[n] for n in members]), cfg.eta)
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
    through the network, so the mean stays non-finite. The mean is float64,
    rounded once to float32 when the vectors are float32.
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
    return (total / n).astype(np.float32) if first.dtype == np.float32 else total / n


def evaluate(spec: models.ModelSpec, params: np.ndarray, batch: models.Batch):
    """Mean cross-entropy (no l2 term) and accuracy under lowest-index
    tie-break, computed in the spec's dtype, as a run scores its rounds."""
    logits = models._logits(spec, np.asarray(params, spec.dtype), batch.inputs)
    loss = models._mean(models._row_losses(logits, batch.labels))
    return loss, float(np.mean(np.argmax(logits, axis=1) == batch.labels))


def _standardized_rows(
    data: SplitDataset,
    partition: Partition,
    selection: Sequence[str],
    test_stats: modality.NormStats,
    shard_stats: Sequence[modality.NormStats],
    dtype=np.float64,
) -> Tuple[np.ndarray, List[models.Batch]]:
    """The test set, standardized with ``test_stats``, and every AP's shard,
    standardized with ``shard_stats[n]``, built in place into one (rows, L,
    2, M) array of ``dtype`` (see ``modality.stack_batch``); returns it and
    the batches, its consecutive views: the test batch, then the AP batches in AP order.
    """
    parts = [(data.test_iq, data.test_labels, test_stats)] + [
        (data.train_iq[ix], data.train_labels[ix], stats)
        for ix, stats in zip(partition.indices, shard_stats)
    ]
    count = sum(len(labels) for _, labels, _ in parts)
    rows = np.empty((count, data.window_len, 2, len(selection)), dtype)
    batches, start = [], 0
    for iq, labels, stats in parts:
        x = modality.stack_batch(iq, selection, stats, out=rows[start : start + len(labels)])
        batches.append(models.Batch(x, labels))
        start += len(labels)
    return rows, batches


def _round_scores(
    spec: models.ModelSpec,
    params: np.ndarray,
    losses: np.ndarray,
    hits: np.ndarray,
    batches: List[models.Batch],
) -> Tuple[float, float, Tuple[float, ...]]:
    """Test loss and accuracy and the AP losses of one evaluated round.

    ``batches`` (the test batch, then the AP batches) are those of
    ``_standardized_rows``. Under ``params``, ``losses`` holds the
    cross-entropy of each of its rows, and ``hits`` holds 1.0 for each test
    row whose lowest-index argmax is its label, else 0.0. A row's logits do
    not depend on the other rows of its evaluation block, nor its loss on
    other rows, so the scores equal ``evaluate`` on the test batch and
    ``models.batch_loss`` on each AP batch bit for bit; the l2 term is
    computed once.
    """
    acc = float(np.mean(hits))
    means, start = [], 0
    for batch in batches:
        means.append(models._mean(losses[start : start + len(batch)]))
        start += len(batch)
    loss, ap_losses = means[0], means[1:]
    if spec.l2_coeff:
        l2 = models._l2_term(spec, params)
        ap_losses = [ap_loss + l2 for ap_loss in ap_losses]
    return loss, acc, tuple(ap_losses)


# the tasks of a round
_TRAIN, _SCORE = b"T", b"S"


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

    With two APs, a round and two CPUs, a forked helper process trains APs
    ``[N//2:]`` and scores the rows of the later half of the evaluation
    blocks while this process does the rest; otherwise this process does all
    of it. The rows and the broadcast, AP and returned parameters are in
    ``cfg.spec.dtype`` (``aggregate`` rounds the mean to it), and the
    parameters, the row losses and the test hits live in anonymous shared
    mappings made before the fork; the helper inherits the rows. Each AP's
    parameters and each row's scores are bit-identical whichever process
    computes them, so the results do not depend on the helper.
    """
    stats, dtype = modality.pool_normalization(partition.stats), cfg.spec.dtype
    rows, batches = _standardized_rows(data, partition, cfg.modalities, stats, partition.stats,
                                       dtype)
    labels = np.concatenate([b.labels for b in batches])
    init_seed = int(np.random.SeedSequence((_DOMAIN_INIT, cfg.seed)).generate_state(1)[0])
    w = models.init_params(cfg.spec, init_seed).astype(dtype)

    num_aps, size, num_test = partition.num_aps, len(w), len(batches[0])
    scores = np.frombuffer(mmap.mmap(-1, 8 * (len(rows) + num_test)))
    losses, hits = scores[: len(rows)], scores[len(rows) :]
    shared = np.frombuffer(mmap.mmap(-1, dtype.itemsize * (1 + num_aps) * size), dtype)
    w_shared, local = shared[:size], shared[size:].reshape(num_aps, size)

    def work(task: bytes, t: int, aps: range, block: slice) -> None:
        """One process's share of a task of round t, from ``w_shared``."""
        if task == _TRAIN:
            rngs = [ap_stream(cfg.seed, n, t) for n in aps]
            shards = batches[1 + aps.start : 1 + aps.stop]
            local[aps.start : aps.stop] = local_train(shards, rngs, w_shared, cfg)
        elif block.start < block.stop:
            logits = models._logits(cfg.spec, w_shared, rows[block])
            losses[block] = models._row_losses(logits, labels[block])
            hit = hits[block]  # the block's test rows, which come first
            hit[:] = np.argmax(logits[: len(hit)], axis=1) == labels[block][: len(hit)]

    fork = num_aps >= 2 and cfg.rounds >= 1 and helper.two_cpus()
    ap_cut = num_aps // 2 if fork else num_aps
    stops = models.block_stops(cfg.spec, len(rows))
    row_cut = stops[(len(stops) - 1) // 2] if fork else len(rows)
    mine = (range(ap_cut), slice(0, row_cut))
    theirs = (range(ap_cut, num_aps), slice(row_cut, len(rows)))

    metrics: List[RoundMetrics] = []
    w_shared[:] = w
    with helper.tasks(work, mine, theirs, fork, "training", "round {}") as run:
        for t in range(cfg.rounds):
            start = time.perf_counter()
            run(_TRAIN, t)
            w = aggregate(local)
            if not np.all(np.isfinite(w)):
                raise ValueError(f"training diverged at round {t+1}: parameters are not finite")
            w_shared[:] = w
            if (t + 1) % cfg.eval_stride == 0 or t == cfg.rounds - 1:
                run(_SCORE, t)
                loss, acc, ap_losses = _round_scores(cfg.spec, w, losses, hits, batches)
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

    Each AP is scored on the test rows whose labels it holds: "before" is
    the mean of their hits in one blocked pass of ``w_global`` over the test
    set, equal to ``evaluate`` on them (a row's logits do not depend on its
    block), and "after" is ``evaluate`` of the AP's tuned parameters.
    Training-pool statistics standardize both the fine-tuning inputs and the
    test set, so in the i.i.d. case every AP starts from an identical
    "before" accuracy.
    Fine-tuned parameters that are not finite raise a ValueError naming the
    first such AP.
    """
    if fine_tune_steps < 0:
        raise ValueError("fine_tune_steps must be >= 0")
    stats = modality.pool_normalization(partition.stats)
    w_global = np.asarray(w_global, cfg.spec.dtype)
    _, batches = _standardized_rows(
        data, partition, cfg.modalities, stats, [stats] * partition.num_aps, cfg.spec.dtype
    )
    test = batches[0]
    masks = [np.isin(test.labels, labels) for labels in partition.label_sets]
    for n, mask in enumerate(masks):
        if not mask.any():
            raise ValueError(f"AP {n}: personalized test subset is empty")
    if fine_tune_steps == 0:
        tuned = np.repeat(w_global[None], partition.num_aps, axis=0)
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
    hits = np.argmax(models._logits(cfg.spec, w_global, test.inputs), axis=1) == test.labels
    return [
        PersonalizationResult(
            ap=n,
            before_acc=float(np.mean(hits[mask])),
            after_acc=evaluate(cfg.spec, tuned[n], test.select(mask))[1],
            params=tuned[n],
        )
        for n, mask in enumerate(masks)
    ]
