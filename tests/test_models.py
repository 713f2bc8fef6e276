import math

import numpy as np
import pytest

from fedrf import federation, models


def small_softmax_spec(l2=0.0):
    return models.ModelSpec("softmax_linear", 4, 1, 3, l2_coeff=l2)


def small_resnet_spec(l2=0.0):
    return models.ModelSpec(
        "mini_resnet", 16, 2, 5, l2_coeff=l2, block_channels=(4, 6), hidden=8
    )


def random_batch(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.window_len, 2, spec.num_modalities))
    y = rng.integers(0, spec.num_classes, n)
    return models.Batch(x, y)


def probabilities(spec, params, x):
    """Class probabilities, shape (n, num_classes)."""
    return models._softmax(models._logits(spec, params, x)[0])


def test_param_count_softmax():
    spec = small_softmax_spec()
    assert models.num_params(spec) == 4 * 2 * 1 * 3 + 3


def test_init_deterministic_and_biases_zero():
    spec = small_resnet_spec()
    a = models.init_params(spec, 11)
    b = models.init_params(spec, 11)
    assert np.array_equal(a, b)
    views = models.param_views(spec, a)
    for name, _ in models.param_layout(spec):
        if name.endswith(".b"):
            assert np.all(views[name] == 0.0)
        else:
            fan_in = int(np.prod(views[name].shape[:-1]))
            assert np.max(np.abs(views[name])) <= 1.0 / math.sqrt(fan_in)


def test_forward_zero_params_uniform():
    spec = small_softmax_spec()
    batch = random_batch(spec, 3)
    probs = probabilities(spec, np.zeros(models.num_params(spec)), batch.inputs[:1])[0]
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("make_spec", [small_softmax_spec, small_resnet_spec])
def test_forward_probability_vector(make_spec):
    spec = make_spec()
    params = models.init_params(spec, 2)
    batch = random_batch(spec, 6, seed=3)
    probs = probabilities(spec, params, batch.inputs)
    assert probs.shape == (6, spec.num_classes)
    assert np.all(probs > 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_forward_shape_mismatch():
    spec = small_softmax_spec()
    params = models.init_params(spec, 0)
    with pytest.raises(ValueError):
        probabilities(spec, params, np.zeros((2, 5, 2, 1)))
    with pytest.raises(ValueError):
        models.param_views(spec, np.zeros(10))


def test_loss_uniform_is_log_classes():
    spec = models.ModelSpec("softmax_linear", 4, 1, 4)
    batch = random_batch(spec, 5, seed=1)
    loss, _ = models.loss_and_grad(spec, np.zeros(models.num_params(spec)), batch)
    assert abs(loss - math.log(4.0)) <= 1e-12


def test_loss_saturated_prediction():
    spec = small_softmax_spec()
    params = np.zeros(models.num_params(spec))
    views = models.param_views(spec, params)
    batch = random_batch(spec, 4, seed=2)
    labels = np.full(4, 1)
    batch = models.Batch(batch.inputs, labels)
    views["b"][1] = 60.0  # saturate toward the true class
    loss, _ = models.loss_and_grad(spec, params, batch)
    assert 0.0 <= loss < 1e-20


def test_softmax_gradient_finite_difference():
    spec = small_softmax_spec(l2=0.01)
    params = models.init_params(spec, 4)
    batch = random_batch(spec, 8, seed=5)
    err, _ = models.finite_diff_check(spec, params, batch, step=1e-5)
    assert err <= 1e-6


def test_resnet_gradient_finite_difference():
    spec = small_resnet_spec(l2=1e-3)
    params = models.init_params(spec, 6)
    batch = random_batch(spec, 4, seed=7)
    err, checked = models.finite_diff_check(
        spec, params, batch, step=1e-5, num_coords=220, seed=1
    )
    assert checked >= 200
    assert err <= 1e-3


def test_sgd_step():
    assert np.array_equal(
        models.sgd_step(np.array([1.0]), np.array([2.0]), 0.5), np.array([0.0])
    )
    p = np.array([1.0, -2.0])
    assert np.array_equal(models.sgd_step(p, np.zeros(2), 0.1), p)
    with pytest.raises(ValueError):
        models.sgd_step(np.zeros(3), np.zeros(2), 0.1)


def test_sgd_contraction_closed_form():
    w = np.array([1.0])
    for _ in range(3):
        w = models.sgd_step(w, w, 0.1)  # gradient of 0.5*w^2 is w
    assert w[0] == pytest.approx(0.9**3, rel=1e-12)


def evaluated_prediction(spec, params, x):
    """The one label that federation.evaluate scores as correct for input x."""
    hits = [
        c for c in range(spec.num_classes)
        if federation.evaluate(spec, params, models.Batch(x[None], [c]))[1] == 1.0
    ]
    assert len(hits) == 1
    return hits[0]


def test_predict_argmax_and_ties():
    spec = models.ModelSpec("softmax_linear", 4, 1, 3)
    params = np.zeros(models.num_params(spec))
    views = models.param_views(spec, params)
    views["b"][:] = [0.1, 0.7, 0.2]
    x = np.zeros((4, 2, 1))
    assert evaluated_prediction(spec, params, x) == 1
    views["b"][:] = [0.5, 0.5, 0.0]
    assert evaluated_prediction(spec, params, x) == 0
    # shift invariance
    views["b"][:] = [0.5, 0.5, 0.0]
    p1 = evaluated_prediction(spec, params, x)
    views["b"][:] += 3.25
    assert evaluated_prediction(spec, params, x) == p1


def test_resnet_structure():
    spec = models.ModelSpec(
        "mini_resnet", 256, 1, 163, block_channels=(16, 32), hidden=80
    )
    params = models.init_params(spec, 0)
    views = models.param_views(spec, params)
    x = np.zeros((1,) + spec.input_shape)
    shapes = {}
    h = x
    for block, pool in (("block1", "pool1"), ("block2", "pool2")):
        for conv in ("conv1", "conv2", "conv3"):
            h, _ = models.conv_time(h, views[f"{block}.{conv}.w"], views[f"{block}.{conv}.b"])
        shapes[block] = h.shape[1:]
        h, _ = models.maxpool2_time(h)
        shapes[pool] = h.shape[1:]
    h, _ = models.conv_time(h, views["mid_conv.w"], views["mid_conv.b"])
    shapes["mid_conv"] = h.shape[1:]
    h = h.reshape(1, -1) @ views["fc1.w"]
    shapes["fc1"] = h.shape[1:]
    shapes["fc2"] = (h @ views["fc2.w"]).shape[1:]
    assert shapes == {
        "block1": (256, 2, 16), "pool1": (128, 2, 16),
        "block2": (128, 2, 32), "pool2": (64, 2, 32),
        "mid_conv": (64, 2, 16), "fc1": (80,), "fc2": (163,),
    }
    assert models._logits(spec, params, x)[0].shape == (1, 163)
    # each residual block carries exactly three convolutions
    names = [n for n, _ in models.param_layout(spec)]
    for block in ("block1", "block2"):
        convs = {n for n in names if n.startswith(block) and n.endswith(".w")}
        assert convs == {f"{block}.conv{i}.w" for i in (1, 2, 3)}


def test_resnet_skip_isolation():
    """With the trunk convolutions zeroed, a block reduces to relu(conv1(x))."""
    spec = small_resnet_spec()
    params = models.init_params(spec, 9)
    views = models.param_views(spec, params)
    for block in ("block1", "block2"):
        for conv in ("conv2", "conv3"):
            views[f"{block}.{conv}.w"][:] = 0.0
            views[f"{block}.{conv}.b"][:] = 0.0
    batch = random_batch(spec, 3, seed=11)
    got = probabilities(spec, params, batch.inputs)

    h = batch.inputs
    for block in ("block1", "block2"):
        h1, _ = models.conv_time(h, views[f"{block}.conv1.w"], views[f"{block}.conv1.b"])
        h, _ = models.maxpool2_time(np.maximum(h1, 0.0))
    zm, _ = models.conv_time(h, views["mid_conv.w"], views["mid_conv.b"])
    flat = np.maximum(zm, 0.0).reshape(len(batch), -1)
    a1 = np.maximum(flat @ views["fc1.w"] + views["fc1.b"], 0.0)
    logits = a1 @ views["fc2.w"] + views["fc2.b"]
    ref = models._softmax(logits)
    assert np.allclose(got, ref, atol=1e-13)


def test_softmax_loss_convex_along_segments():
    spec = small_softmax_spec(l2=0.05)
    batch = random_batch(spec, 12, seed=13)
    rng = np.random.default_rng(14)
    dim = models.num_params(spec)
    for _ in range(10):
        w1 = rng.standard_normal(dim)
        w2 = rng.standard_normal(dim)
        mid = 0.5 * (w1 + w2)
        f1 = models.batch_loss(spec, w1, batch)
        f2 = models.batch_loss(spec, w2, batch)
        fm = models.batch_loss(spec, mid, batch)
        assert fm <= 0.5 * (f1 + f2) + 1e-10


def test_softmax_gradient_strong_monotonicity():
    lam = 0.05
    spec = small_softmax_spec(l2=lam)
    batch = random_batch(spec, 12, seed=15)
    rng = np.random.default_rng(16)
    dim = models.num_params(spec)
    for _ in range(10):
        w1 = rng.standard_normal(dim)
        w2 = rng.standard_normal(dim)
        g1 = models.loss_and_grad(spec, w1, batch)[1]
        g2 = models.loss_and_grad(spec, w2, batch)[1]
        lhs = np.linalg.norm(g1 - g2)
        assert lhs >= lam * np.linalg.norm(w1 - w2) - 1e-9


@pytest.mark.parametrize("make_spec", [small_softmax_spec, small_resnet_spec])
def test_stacked_loss_and_grad_matches_rows(make_spec):
    spec = make_spec(l2=0.05)
    rng = np.random.default_rng(4)
    params = np.stack([models.init_params(spec, s) for s in range(3)])
    x = rng.standard_normal((3, 5, spec.window_len, 2, spec.num_modalities))
    y = rng.integers(0, spec.num_classes, (3, 5))
    losses, grads = models.loss_and_grad(spec, params, models.Batch(x, y))
    assert losses.shape == (3,) and grads.shape == params.shape
    for k in range(3):
        loss, grad = models.loss_and_grad(spec, params[k], models.Batch(x[k], y[k]))
        assert losses[k] == loss
        assert np.array_equal(grads[k], grad)
    with pytest.raises(ValueError):
        models.loss_and_grad(spec, params[:2], models.Batch(x, y))


def test_batch_validation():
    with pytest.raises(ValueError):
        models.Batch(np.zeros((0, 4, 2, 1)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        models.Batch(np.zeros((2, 4, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        models.Batch(np.zeros((2, 4, 2, 1)), np.zeros(3, dtype=int))
    assert len(models.Batch(np.zeros((3, 2, 4, 2, 1)), np.zeros((3, 2), dtype=int))) == 6
    with pytest.raises(ValueError):
        models.Batch(np.zeros((3, 2, 4, 2, 1)), np.zeros((2, 3), dtype=int))


def test_spec_validation():
    with pytest.raises(ValueError):
        models.ModelSpec("bogus", 4, 1, 3)
    with pytest.raises(ValueError):
        models.ModelSpec("softmax_linear", 4, 1, 1)
    with pytest.raises(ValueError):
        models.ModelSpec("softmax_linear", 4, 1, 3, l2_coeff=-0.1)
    with pytest.raises(ValueError):
        models.ModelSpec("mini_resnet", 18, 1, 3)  # not divisible by 4
    with pytest.raises(ValueError):
        models.ModelSpec("mini_resnet", 16, 1, 3, kernel_len=2)


# ---------------------------------------------------------------------------
# mini_resnet kernels against naive references

def naive_conv_time(x, w, b):
    n, t, cols, _ = x.shape
    k, _, cout = w.shape
    pad = k // 2
    out = np.empty((n, t, cols, cout))
    for i in range(n):
        for tt in range(t):
            for c in range(cols):
                acc = b.copy()
                for j in range(k):
                    src = tt + j - pad
                    if 0 <= src < t:
                        acc = acc + x[i, src, c] @ w[j]
                out[i, tt, c] = acc
    return out


def naive_conv_time_backward(x, w, dy):
    n, t, cols, _ = x.shape
    k = w.shape[0]
    pad = k // 2
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for i in range(n):
        for tt in range(t):
            for c in range(cols):
                for j in range(k):
                    src = tt + j - pad
                    if 0 <= src < t:
                        dw[j] += np.outer(x[i, src, c], dy[i, tt, c])
                        dx[i, src, c] += w[j] @ dy[i, tt, c]
    return dx, dw, dy.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("kernel_len", [1, 3, 5])
def test_conv_time_matches_naive_loop(kernel_len):
    rng = np.random.default_rng(kernel_len)
    n, cin, cout = (int(v) for v in rng.integers(1, 6, size=3))
    t = int(rng.integers(2, 9))
    x = rng.standard_normal((n, t, 2, cin))
    w = rng.standard_normal((kernel_len, cin, cout))
    b = rng.standard_normal(cout)
    dy = rng.standard_normal((n, t, 2, cout))

    out, patches = models.conv_time(x, w, b)
    assert patches.shape == (n * t * 2, kernel_len * cin)
    assert np.allclose(out, naive_conv_time(x, w, b), rtol=0, atol=1e-12)
    for got, ref in zip(models.conv_time_backward(patches, w, dy),
                        naive_conv_time_backward(x, w, dy)):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=0, atol=1e-12)
    dx, dw, db = models.conv_time_backward(patches, w, dy, input_grad=False)
    assert dx is None
    _, dw_ref, db_ref = models.conv_time_backward(patches, w, dy)
    assert np.array_equal(dw, dw_ref) and np.array_equal(db, db_ref)


def test_maxpool2_time_tie_takes_earlier_sample():
    x = np.array([3.0, 3.0, 1.0, 2.0, 5.0, 4.0]).reshape(1, 6, 1, 1)
    out, idx = models.maxpool2_time(x)
    assert out.ravel().tolist() == [3.0, 2.0, 5.0]
    assert idx.ravel().tolist() == [False, True, False]
    dx = models.maxpool2_time_backward(idx, np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1), 6)
    assert dx.ravel().tolist() == [1.0, 0.0, 0.0, 2.0, 3.0, 0.0]


def test_eval_logits_equal_training_logits():
    spec = small_resnet_spec()
    params = models.init_params(spec, 12)
    batch = random_batch(spec, 9, seed=13)
    eval_logits, cache = models._logits(spec, params, batch.inputs, keep=False)
    train_logits, _ = models._logits(spec, params, batch.inputs, keep=True)
    assert cache is None
    assert np.array_equal(eval_logits, train_logits)


@pytest.mark.parametrize("sizes", [range(1, 140), range(679, 682)], ids=["1-139", "679-681"])
def test_blocked_eval_logits_equal_one_pass(sizes):
    # the desk profile's shapes: 64 samples, three modalities, 16 classes
    spec = models.ModelSpec("mini_resnet", 64, 3, 16)
    rng = np.random.default_rng(21)
    params = 0.3 * rng.standard_normal(models.num_params(spec))
    x = rng.standard_normal((sizes[-1],) + spec.input_shape)
    views = models.param_views(spec, params)
    for n in sizes:
        blocked, _ = models._logits(spec, params, x[:n])
        one_pass, _ = models._resnet_forward(spec, views, x[:n], keep=False)
        assert blocked.shape == (n, 16)
        assert np.array_equal(blocked, one_pass), n


def test_keyed_conv_work_arrays_match_fresh_ones():
    # a key hands the next call its previous memory, here first filled with nan
    models._scratch("test.conv.patches", (9 * 8 * 2 * 3 * 2,))[:] = np.nan
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal(4)
    for n in (6, 3, 9):
        x = rng.standard_normal((n, 8, 2, 2))
        dy = rng.standard_normal((n, 8, 2, 4))
        out, patches = models.conv_time(x, w, b, key="test.conv")
        ref_out, ref_patches = models.conv_time(x, w, b)
        assert np.array_equal(out, ref_out) and np.array_equal(patches, ref_patches)
        got = models.conv_time_backward(patches, w, dy, key="test.conv")
        for g, r in zip(got, models.conv_time_backward(ref_patches, w, dy)):
            assert np.array_equal(g, r)
        pooled, idx = models.maxpool2_time(x, key="test.pool")
        ref_pooled, ref_idx = models.maxpool2_time(x)
        assert np.array_equal(pooled, ref_pooled) and np.array_equal(idx, ref_idx)
        dpool = models.maxpool2_time_backward(idx, x[:, ::2], 8, key="test.pool")
        assert np.array_equal(dpool, models.maxpool2_time_backward(idx, x[:, ::2], 8))


def test_scratch_keeps_only_small_keyed_arrays():
    kept = models._scratch("test.small", (2, 3))
    kept[:] = 7.0
    # the same memory comes back under the key, in any shape that fits
    assert np.array_equal(models._scratch("test.small", (5,)), [7.0] * 5)
    assert not np.shares_memory(models._scratch(None, (2, 3)), kept)
    rows = models.SCRATCH_MAX_BYTES // 8 + 1
    big = models._scratch("test.big", (rows,))
    assert not np.shares_memory(models._scratch("test.big", (rows,)), big)


def test_resnet_steps_repeat_exactly_between_other_batches():
    spec = small_resnet_spec(l2=1e-3)
    params = models.init_params(spec, 4)
    batch = random_batch(spec, 8, seed=1)
    loss, grad = models.loss_and_grad(spec, params, batch)
    models.batch_loss(spec, params, random_batch(spec, 50, seed=2))
    models.loss_and_grad(spec, params, random_batch(spec, 3, seed=3))
    again, grad_again = models.loss_and_grad(spec, params, batch)
    assert again == loss and np.array_equal(grad_again, grad)


def test_resnet_kernel5_gradient_finite_difference():
    spec = models.ModelSpec(
        "mini_resnet", 16, 2, 5, l2_coeff=1e-3, block_channels=(4, 6), hidden=8,
        kernel_len=5,
    )
    params = models.init_params(spec, 14)
    batch = random_batch(spec, 4, seed=15)
    err, checked = models.finite_diff_check(
        spec, params, batch, step=1e-5, num_coords=220, seed=3
    )
    assert checked >= 200
    assert err <= 1e-3
