import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedrf import datafile, experiment, federation, modality, models


def make_split(num_tx=4, per_tx=16, window=8, seed=0, test_fraction=0.25):
    ds = datafile.generate_dataset(num_tx, per_tx, window, 10.0, seed)
    return experiment.split_train_test(ds, test_fraction, seed)


def small_cfg(split, seed=0, rounds=2, local_steps=3, batch=8, eta=0.05,
              modalities=("iq",), l2=1e-3, kind="softmax_linear"):
    spec = models.ModelSpec(
        kind,
        split.window_len,
        len(modalities),
        split.num_transmitters,
        l2_coeff=l2,
        block_channels=(4, 6),
        hidden=8,
    )
    return federation.TrainingConfig(
        spec=spec,
        rounds=rounds,
        local_steps=local_steps,
        batch_size=batch,
        eta=eta,
        modalities=tuple(modalities),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# partitioning

def test_iid_partition_basic():
    # 8 examples of each of 2 labels across 4 APs -> 2 each, one per label
    ds = datafile.generate_dataset(2, 8, 8, 10.0, 1)
    split = federation.SplitDataset(2, 8, ds.iq, ds.labels.astype(np.int64),
                                    ds.iq[:2], ds.labels[:2].astype(np.int64))
    part = federation.partition_iid(split, 4, seed=3, selection=("iq",))
    for n in range(4):
        assert len(part.indices[n]) == 4  # 2 per label
        assert part.label_sets[n].tolist() == [0, 1]


def test_iid_partition_disjoint_union():
    split = make_split()
    part = federation.partition_iid(split, 4, seed=5, selection=("iq",))
    allidx = np.concatenate(part.indices)
    assert len(np.unique(allidx)) == len(allidx)
    assert sorted(allidx.tolist()) == list(range(len(split.train_labels)))
    for n in range(4):
        assert part.label_sets[n].tolist() == list(range(4))


def test_iid_partition_too_few_examples():
    ds = datafile.generate_dataset(2, 3, 8, 10.0, 1)
    split = federation.SplitDataset(2, 8, ds.iq, ds.labels.astype(np.int64),
                                    ds.iq[:2], ds.labels[:2].astype(np.int64))
    with pytest.raises(ValueError):
        federation.partition_iid(split, 4, seed=0, selection=("iq",))


def test_noniid_exact_cover():
    split = make_split(num_tx=4, per_tx=10)
    part = federation.partition_noniid(split, 2, 2, seed=1, selection=("iq",))
    labels = [set(s.tolist()) for s in part.label_sets]
    assert labels[0] | labels[1] == {0, 1, 2, 3}
    assert labels[0] & labels[1] == set()
    assert all(len(s) == 2 for s in labels)


def test_noniid_overlap_accounting():
    split = make_split(num_tx=16, per_tx=8)
    part = federation.partition_noniid(split, 4, 5, seed=2, selection=("iq",))
    counts = np.zeros(16, dtype=int)
    for s in part.label_sets:
        assert len(s) == 5
        counts[s] += 1
    assert np.all(counts >= 1) and np.all(counts <= 2)
    assert np.sum(counts == 2) == 4
    assert sum(len(s) for s in part.label_sets) == 16 + 4
    allidx = np.concatenate(part.indices)
    assert len(np.unique(allidx)) == len(allidx) == len(split.train_labels)


def test_noniid_full_scale_assignment():
    split = make_split(num_tx=163, per_tx=4, window=8, test_fraction=0.25)
    part = federation.partition_noniid(split, 4, 41, seed=7, selection=("iq",))
    counts = np.zeros(163, dtype=int)
    for s in part.label_sets:
        assert len(s) == 41
        counts[s] += 1
    assert np.all(counts >= 1)
    assert np.sum(counts == 2) == 1
    assert np.max(counts) == 2


def test_noniid_infeasible_counts():
    split = make_split(num_tx=4, per_tx=10)
    with pytest.raises(ValueError):
        federation.partition_noniid(split, 2, 1, seed=0, selection=("iq",))  # cannot cover


def test_noniid_assignment_fuzz():
    # every count on the grid: a ValueError exactly when no label-skewed
    # partition exists, otherwise the shared-label contracts hold
    feasible = 0
    for num_tx in range(2, 13):
        split = make_split(num_tx=num_tx, per_tx=6)
        for aps in range(1, 7):
            for lpa in range(1, num_tx + 1):
                shared = aps * lpa - num_tx
                possible = 0 <= shared <= num_tx and (shared == 0 or aps >= 2)
                for seed in range(3):
                    if not possible:
                        with pytest.raises(ValueError):
                            federation.partition_noniid(split, aps, lpa, seed=seed,
                                                        selection=("iq",))
                        continue
                    part = federation.partition_noniid(split, aps, lpa, seed=seed,
                                                       selection=("iq",))
                    counts = np.zeros(num_tx, dtype=int)
                    for s in part.label_sets:
                        assert len(s) == lpa
                        counts[s] += 1
                    assert np.all(counts >= 1) and np.all(counts <= 2)
                    assert np.sum(counts == 2) == shared
                    feasible += 1
    assert feasible == 435


def test_shared_label_examples_split_evenly():
    split = make_split(num_tx=16, per_tx=8)
    part = federation.partition_noniid(split, 4, 5, seed=2, selection=("iq",))
    counts = np.zeros(16, dtype=int)
    for s in part.label_sets:
        counts[s] += 1
    shared = np.flatnonzero(counts == 2)
    for label in shared:
        owners = [n for n in range(4) if label in part.label_sets[n]]
        sizes = [
            int(np.sum(split.train_labels[part.indices[n]] == label)) for n in owners
        ]
        assert abs(sizes[0] - sizes[1]) <= 1


# ---------------------------------------------------------------------------
# local training and aggregation

@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_training_config_rejects_non_finite_eta(eta):
    split = federation.SplitDataset(2, 8, np.zeros((2, 8), np.complex64), np.arange(2),
                                    np.zeros((2, 8), np.complex64), np.arange(2))
    with pytest.raises(ValueError, match=f"eta must be finite and > 0, got {eta!r}"):
        small_cfg(split, eta=eta)


def test_local_train_zero_eta_is_identity():
    split = make_split()
    part = federation.partition_iid(split, 2, seed=1, selection=("iq",))
    cfg = small_cfg(split, rounds=1)
    cfg.eta = 0.0  # zero step size: every update is a no-op
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    w0 = models.init_params(cfg.spec, 0)
    out = federation.local_train(batches[:1], [federation.ap_stream(cfg.seed, 0, 0)], w0, cfg)
    assert np.array_equal(out, w0[None])


def test_local_train_quadratic_closed_form():
    # f(w) = 0.5*(w-3)^2 on a single AP, full batch
    split = make_split()
    cfg = small_cfg(split, rounds=1, local_steps=1, eta=0.1)
    dummy = models.Batch(np.zeros((4, split.window_len, 2, 1)), np.zeros(4, dtype=int))
    grad_fn = lambda w, b: w - 3.0
    for steps, expected in ((1, 0.3), (2, 0.57)):
        cfg.local_steps = steps
        rngs = [federation.ap_stream(0, 0, 0)]
        out = federation.local_train([dummy], rngs, np.zeros(1), cfg, grad_fn=grad_fn)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def test_local_train_never_modifies_a_returned_gradient():
    # a grad_fn may return its own argument: the step must be w - eta*w
    split = make_split()
    part = federation.partition_iid(split, 2, seed=1, selection=("iq",))
    cfg = small_cfg(split, local_steps=4, eta=0.3)
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    w0 = models.init_params(cfg.spec, 0)
    rngs = [federation.ap_stream(0, n, 0) for n in range(len(batches))]
    out = federation.local_train(batches, rngs, w0, cfg, grad_fn=lambda w, b: w)
    ref = w0.copy()
    for _ in range(cfg.local_steps):
        ref = ref - cfg.eta * ref
    assert np.array_equal(out, np.stack([ref, ref]))


def test_local_train_deterministic():
    split = make_split()
    part = federation.partition_iid(split, 2, seed=1, selection=("iq",))
    cfg = small_cfg(split, seed=9, rounds=1, local_steps=5, batch=4)
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    w0 = models.init_params(cfg.spec, 0)
    outs = []
    for _ in range(2):
        rngs = [federation.ap_stream(cfg.seed, 1, 3)]
        outs.append(federation.local_train(batches[1:], rngs, w0, cfg))
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("mode", ["iid", "noniid"])
def test_pool_stats_from_shard_totals_equal_pool_fit(mode):
    split = make_split(num_tx=6, per_tx=20, window=16, seed=4)
    sel = modality.ALL_MODALITIES
    if mode == "noniid":
        part = federation.partition_noniid(split, 3, 3, seed=5, selection=sel)
    else:
        part = federation.partition_iid(split, 3, seed=5, selection=sel)
    derived = modality.pool_normalization(part.stats)
    fit = modality.fit_normalization(split.train_iq[np.sort(np.concatenate(part.indices))], sel)
    assert list(derived.means) == list(sel)
    for m in sel:
        assert np.array_equal(derived.means[m], fit.means[m])
        assert np.array_equal(derived.stds[m], fit.stds[m])
    assert derived.totals == fit.totals and derived.count == fit.count


def test_pool_stats_reject_non_finite_shard():
    split = make_split()
    split.train_iq[3] = complex(np.inf, 0.0)
    with np.errstate(invalid="ignore"):
        part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    with pytest.raises(ValueError, match="cannot pool iq statistics"):
        modality.pool_normalization(part.stats)


def queue_reference(n, batch_size, rng, steps):
    """Reference for _round_plan: pop sorted batches off a shuffled queue of
    the n rows, drawing a new queue when a batch no longer fits."""
    size = min(batch_size, n)
    queue, pos, plan = rng.permutation(n), 0, []
    for _ in range(steps):
        if pos + size > n:
            queue, pos = rng.permutation(n), 0
        plan.append(np.sort(queue[pos : pos + size]))
        pos += size
    return np.stack(plan)


# (10, 4, 5) draws a new queue mid-round; (3, 6, 4) has a shard smaller than
# the batch; (680, 32, 20) is the desk shape
@pytest.mark.parametrize("n, batch_size, steps",
                         [(10, 4, 2), (10, 4, 5), (3, 6, 4), (6, 6, 3), (680, 32, 20)])
def test_round_plan_matches_queue_reference(n, batch_size, steps):
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    plan = federation._round_plan(n, batch_size, rng, steps)
    assert np.array_equal(plan, queue_reference(n, batch_size, ref_rng, steps))
    assert plan.shape == (steps, min(batch_size, n))
    # both use up the stream alike
    assert rng.integers(2**62) == ref_rng.integers(2**62)
    # no row repeats within one queue's batches
    per_queue = n // plan.shape[1]
    for start in range(0, steps, per_queue):
        rows = plan[start : start + per_queue].ravel()
        assert len(np.unique(rows)) == len(rows)


def test_aggregate_identities():
    w = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(federation.aggregate([w, w, w]), w)
    got = federation.aggregate([np.array([0.0, 2.0]), np.array([2.0, 4.0])])
    assert np.array_equal(got, np.array([1.0, 3.0]))


def test_aggregate_permutation_invariant_exactly():
    rng = np.random.default_rng(1)
    vs = [rng.standard_normal(257) for _ in range(4)]
    a = federation.aggregate(vs)
    b = federation.aggregate(vs[::-1])
    c = federation.aggregate([vs[2], vs[0], vs[3], vs[1]])
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 6), dim=st.integers(1, 8))
def test_aggregate_invariant_to_any_permutation(data, n, dim):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    vs = list(data.draw(arrays(np.float64, (n, dim), elements=finite)))
    order = data.draw(st.permutations(range(n)))
    with np.errstate(over="ignore", invalid="ignore"):
        a = federation.aggregate(vs)
        b = federation.aggregate([vs[i] for i in order])
    assert np.array_equal(a, b, equal_nan=True)


def test_aggregate_matches_fsum_oracle():
    rng = np.random.default_rng(2)
    vs = [rng.standard_normal(64) for _ in range(4)]
    got = federation.aggregate(vs)
    oracle = np.array(
        [math.fsum(v[i] for v in vs) / 4.0 for i in range(64)]
    )
    assert np.max(np.abs(got - oracle)) <= 1e-12


# specials and magnitudes from 1e-300 to 1e300 with either sign
_AGG_SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                 math.inf, -math.inf])
_AGG_MAGNITUDES = st.tuples(st.booleans(), st.floats(1e-300, 1e300)).map(
    lambda t: -t[1] if t[0] else t[1]
)


# at least 2 coordinates: over a single column np.sum adds 8 or more rows
# pairwise, while over (N, P >= 2) it adds the rows in order, as aggregate does
@settings(deadline=None, derandomize=True, max_examples=300)
@given(data=st.data(), n=st.integers(1, 8), dim=st.integers(2, 12))
def test_aggregate_matches_sorted_sum_bitwise(data, n, dim):
    values = st.one_of(_AGG_SPECIALS, _AGG_MAGNITUDES)
    stacked = data.draw(arrays(np.float64, (n, dim), elements=values))
    with np.errstate(over="ignore", invalid="ignore"):
        got = federation.aggregate(list(stacked))
        ref = np.sort(stacked, axis=0).sum(axis=0) / n
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(data=st.data(), n=st.integers(1, 8), dim=st.integers(1, 6))
def test_aggregate_nan_gives_non_finite(data, n, dim):
    values = st.one_of(_AGG_SPECIALS, _AGG_MAGNITUDES, st.just(math.nan))
    stacked = data.draw(arrays(np.float64, (n, dim), elements=values))
    with np.errstate(over="ignore", invalid="ignore"):
        got = federation.aggregate(list(stacked))
    has_nan = np.isnan(stacked).any(axis=0)
    assert not np.isfinite(got[has_nan]).any()


def test_aggregate_errors():
    with pytest.raises(ValueError):
        federation.aggregate([])
    with pytest.raises(ValueError):
        federation.aggregate([np.zeros(3), np.zeros(4)])


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_uniform_and_perfect():
    spec = models.ModelSpec("softmax_linear", 4, 1, 4)
    params = np.zeros(models.num_params(spec))
    x = np.random.default_rng(0).standard_normal((8, 4, 2, 1))
    y = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    batch = models.Batch(x, y)
    loss, acc = federation.evaluate(spec, params, batch)
    assert acc == 0.25  # uniform predictor, ties break to label 0
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)
    views = models.param_views(spec, params)
    views["b"][:] = 0.0
    # perfect classifier via saturated per-class biases on one-hot inputs
    x2 = np.zeros((4, 4, 2, 1))
    for i in range(4):
        x2[i, i, 0, 0] = 1.0
    views["w"][:] = 0.0
    for i in range(4):
        views["w"][i * 2, i] = 50.0
    _, acc2 = federation.evaluate(spec, params, models.Batch(x2, np.arange(4)))
    assert acc2 == 1.0


def test_evaluate_loss_matches_batch_loss_without_l2():
    split = make_split()
    cfg = small_cfg(split, l2=0.0)
    part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    params = models.init_params(cfg.spec, 1)
    loss, _ = federation.evaluate(cfg.spec, params, batches[0])
    assert loss == pytest.approx(models.batch_loss(cfg.spec, params, batches[0]), abs=1e-15)


# ---------------------------------------------------------------------------
# full training loop

def test_run_training_zero_rounds():
    split = make_split()
    part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    cfg = small_cfg(split, rounds=0)
    metrics, params = federation.run_training(split, part, cfg)
    assert metrics == []
    init_seed = int(
        np.random.SeedSequence((federation._DOMAIN_INIT, cfg.seed)).generate_state(1)[0]
    )
    assert np.array_equal(params, models.init_params(cfg.spec, init_seed))


def test_single_ap_full_batch_equals_centralized():
    split = make_split(num_tx=3, per_tx=8)
    part = federation.partition_iid(split, 1, seed=0, selection=("iq",))
    n_train = len(split.train_labels)
    cfg = small_cfg(split, rounds=5, local_steps=10, batch=n_train, eta=0.05)
    metrics, w_fed = federation.run_training(split, part, cfg)

    # centralized: 50 plain gradient steps on the same standardized tensor
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    init_seed = int(
        np.random.SeedSequence((federation._DOMAIN_INIT, cfg.seed)).generate_state(1)[0]
    )
    w = models.init_params(cfg.spec, init_seed)
    for _ in range(50):
        _, g = models.loss_and_grad(cfg.spec, w, batches[0])
        w = models.sgd_step(w, g, cfg.eta)
    assert np.array_equal(w_fed, w)


def per_ap_local_train(batches, rngs, w0, cfg):
    """Reference for local_train: each AP alone, one loss_and_grad + sgd_step per step."""
    outs = []
    for batch, rng in zip(batches, rngs):
        plan = queue_reference(len(batch), cfg.batch_size, rng, cfg.local_steps)
        w = w0.copy()
        for idx in plan:
            _, g = models.loss_and_grad(cfg.spec, w, batch.select(idx))
            w = models.sgd_step(w, g, cfg.eta)
        outs.append(w)
    return np.stack(outs)


@pytest.mark.parametrize("kind", ["softmax_linear", "mini_resnet"])
@pytest.mark.parametrize("shard_sizes", [None, (3, 10, 5, 12)],
                         ids=["equal_batches", "unequal_batches"])
def test_stacked_local_train_matches_per_ap_loop(kind, shard_sizes):
    # shard sizes 3, 10, 5, 12 at batch 6 give effective batch sizes 3, 6, 5, 6:
    # three stacks, one of them holding two APs
    split = make_split()
    part = federation.partition_iid(split, 4, seed=2, selection=("iq",))
    cfg = small_cfg(split, seed=5, local_steps=4, batch=6, kind=kind)
    batches = federation.build_ap_batches(split, part, cfg.modalities)
    if shard_sizes is not None:
        batches = [b.select(np.arange(k)) for b, k in zip(batches, shard_sizes)]
    w0 = models.init_params(cfg.spec, 3)
    rngs = lambda: [federation.ap_stream(cfg.seed, n, 7) for n in range(4)]
    stacked = federation.local_train(batches, rngs(), w0, cfg)
    assert np.array_equal(stacked, per_ap_local_train(batches, rngs(), w0, cfg))


@pytest.mark.parametrize("kind", ["softmax_linear", "mini_resnet"])
@pytest.mark.parametrize("l2", [0.0, 1e-2])
def test_round_scores_match_per_batch_reference(kind, l2, monkeypatch):
    # unequal shards, one shorter than any evaluation block, so the blocks of
    # the one pass straddle batch boundaries
    split = make_split(per_tx=100)
    sel = ("iq", "dft")
    order = np.random.default_rng(4).permutation(len(split.train_labels))
    sizes = np.cumsum([3, 41, 90])
    part = federation._finalize_partition(split, np.split(order, sizes), sel)
    cfg = small_cfg(split, seed=2, rounds=3, local_steps=2, batch=8, modalities=sel,
                    l2=l2, kind=kind)
    cfg.eval_stride = 2
    aggregated = []  # the global parameters after each round
    aggregate = federation.aggregate

    def recording_aggregate(params_list):
        aggregated.append(aggregate(params_list))
        return aggregated[-1]

    monkeypatch.setattr(federation, "aggregate", recording_aggregate)
    metrics, _ = federation.run_training(split, part, cfg)

    stats = modality.pool_normalization(part.stats)
    test = models.Batch(modality.stack_batch(split.test_iq, sel, stats), split.test_labels)
    aps = [
        models.Batch(modality.stack_batch(split.train_iq[ix], sel, part.stats[n]),
                     split.train_labels[ix])
        for n, ix in enumerate(part.indices)
    ]
    assert [m.round for m in metrics] == [2, 3]
    for m in metrics:
        w = aggregated[m.round - 1]
        assert (m.global_loss, m.global_acc) == federation.evaluate(cfg.spec, w, test)
        assert m.ap_losses == tuple(models.batch_loss(cfg.spec, w, b) for b in aps)


@pytest.mark.parametrize("kind", ["softmax_linear", "mini_resnet"])
def test_personalize_before_matches_evaluate(kind):
    split = make_split(num_tx=4, per_tx=20)
    part = federation.partition_noniid(split, 3, 2, seed=2, selection=("iq",))
    cfg = small_cfg(split, rounds=1, kind=kind)
    _, w = federation.run_training(split, part, cfg)
    test_x = modality.stack_batch(split.test_iq, cfg.modalities,
                                  modality.pool_normalization(part.stats))
    for n, r in enumerate(federation.personalize(split, part, w, 2, cfg)):
        mask = np.isin(split.test_labels, part.label_sets[n])
        subset = models.Batch(test_x[mask], split.test_labels[mask])
        assert r.before_acc == federation.evaluate(cfg.spec, w, subset)[1]


def test_metric_rounds_and_stride():
    split = make_split()
    part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    cfg = small_cfg(split, rounds=5)
    cfg.eval_stride = 2
    metrics, _ = federation.run_training(split, part, cfg)
    assert [m.round for m in metrics] == [2, 4, 5]
    cfg2 = small_cfg(split, rounds=1)
    metrics2, _ = federation.run_training(split, part, cfg2)
    assert [m.round for m in metrics2] == [1]


def one_and_two_process_runs(monkeypatch, split, part, cfg):
    """run_training seeing one CPU, then two; returns both results and the
    number of helper processes forked."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    runs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs.append(federation.run_training(split, part, cfg))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return runs, len(forks)


@pytest.mark.parametrize("sizes, batch, stride", [
    ((5, 43), 8, 1),
    ((3, 10, 35), 6, 2),
    ((48,), 8, 1),
], ids=["two_aps", "three_aps", "one_ap"])
def test_helper_process_gives_the_bits_of_one_process(monkeypatch, sizes, batch, stride):
    # 16 test and 48 training rows: two evaluation blocks, one per process.
    # Shards of 5 and 3 are smaller than the batch, so each process steps
    # APs of other batch sizes than the other one
    split = make_split()
    order = np.random.default_rng(6).permutation(len(split.train_labels))
    part = federation._finalize_partition(
        split, np.split(order, np.cumsum(sizes)[:-1]), ("iq",))
    cfg = small_cfg(split, seed=4, rounds=3, batch=batch, kind="mini_resnet")
    cfg.eval_stride = stride
    ((one, w_one), (two, w_two)), forks = one_and_two_process_runs(monkeypatch, split, part, cfg)
    assert forks == (len(sizes) > 1)
    scores = lambda metrics: [(m.round, m.global_loss, m.global_acc, m.ap_losses) for m in metrics]
    assert scores(one) == scores(two)
    assert [m.round for m in two] == ([2, 3] if stride == 2 else [1, 2, 3])
    assert np.array_equal(w_one, w_two)


def test_softmax_run_forks_no_helper(monkeypatch):
    split = make_split()
    part = federation.partition_iid(split, 4, seed=0, selection=("iq",))
    _, forks = one_and_two_process_runs(monkeypatch, split, part, small_cfg(split))
    assert forks == 0


def test_interrupted_run_leaves_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    split = make_split()
    part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    cfg = small_cfg(split, kind="mini_resnet")
    parent = os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the helper's share of the round

    monkeypatch.setattr(federation, "local_train", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        federation.run_training(split, part, cfg)
    # the helper was stopped, not waited for
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# personalization

def test_personalize_zero_steps_noop():
    split = make_split()
    part = federation.partition_iid(split, 2, seed=0, selection=("iq",))
    cfg = small_cfg(split, rounds=1)
    _, w = federation.run_training(split, part, cfg)
    results = federation.personalize(split, part, w, 0, cfg)
    for r in results:
        assert r.before_acc == r.after_acc
        assert np.array_equal(r.params, w)


def test_personalize_iid_before_identical():
    split = make_split(num_tx=4, per_tx=20)
    part = federation.partition_iid(split, 4, seed=1, selection=("iq",))
    cfg = small_cfg(split, rounds=2)
    _, w = federation.run_training(split, part, cfg)
    results = federation.personalize(split, part, w, 10, cfg)
    befores = {r.before_acc for r in results}
    assert len(befores) == 1


def test_personalize_noniid_subset_labels():
    split = make_split(num_tx=4, per_tx=20)
    part = federation.partition_noniid(split, 2, 2, seed=1, selection=("iq",))
    cfg = small_cfg(split, rounds=1)
    _, w = federation.run_training(split, part, cfg)
    results = federation.personalize(split, part, w, 5, cfg)
    assert len(results) == 2
    for n, r in enumerate(results):
        mask = np.isin(split.test_labels, part.label_sets[n])
        assert mask.any()
