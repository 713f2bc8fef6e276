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


def slab(a, kernel_len):
    """(n, T, cols, C) -> the kernels' channel-major layout: a (C, T + 2p, n*cols)
    slab whose p = kernel_len // 2 time steps at each end are zero."""
    n, t, cols, c = a.shape
    p = kernel_len // 2
    out = np.zeros((c, t + 2 * p, n * cols))
    out[:, p : p + t] = a.transpose(3, 1, 0, 2).reshape(c, t, n * cols)
    return out


def unslab(a, kernel_len, n):
    """The inverse of ``slab``: the interior as (n, T, cols, C), once the pads are zero."""
    c, tp, s = a.shape
    p = kernel_len // 2
    assert not a[:, :p].any() and not a[:, tp - p :].any(), "nonzero padding"
    return a[:, p : tp - p].reshape(c, tp - 2 * p, n, s // n).transpose(2, 1, 3, 0)


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
    h = slab(x, 3)
    for block, pool in (("block1", "pool1"), ("block2", "pool2")):
        for conv in ("conv1", "conv2", "conv3"):
            h = models.conv_time(h, views[f"{block}.{conv}.w"], views[f"{block}.{conv}.b"])
        shapes[block] = unslab(h, 3, 1).shape[1:]
        h, _ = models.maxpool2_time(h, 1)
        shapes[pool] = unslab(h, 3, 1).shape[1:]
    h = models.conv_time(h, views["mid_conv.w"], views["mid_conv.b"])
    shapes["mid_conv"] = unslab(h, 3, 1).shape[1:]
    h = unslab(h, 3, 1).reshape(1, -1) @ views["fc1.w"]
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

    h = slab(batch.inputs, 3)
    for block in ("block1", "block2"):
        h1 = models.conv_time(h, views[f"{block}.conv1.w"], views[f"{block}.conv1.b"])
        h, _ = models.maxpool2_time(np.maximum(h1, 0.0), 1)
    zm = models.conv_time(h, views["mid_conv.w"], views["mid_conv.b"])
    flat = unslab(np.maximum(zm, 0.0), 3, len(batch)).reshape(len(batch), -1)
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


@pytest.mark.parametrize("make_spec", [small_softmax_spec, small_resnet_spec])
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_train_step_matches_sgd_step_of_loss_and_grad(make_spec, l2, stacked):
    spec = make_spec(l2=l2)
    rng = np.random.default_rng(6)
    lead = (3,) if stacked else ()
    params = (np.stack([models.init_params(spec, s) for s in range(3)]) if stacked
              else models.init_params(spec, 0))
    batch = models.Batch(rng.standard_normal(lead + (5,) + spec.input_shape),
                         rng.integers(0, spec.num_classes, lead + (5,)))
    # the kept work arrays start from whatever the previous step left there
    for key in ("step.grad", "step.l2", "step.logits"):
        models._scratch(key, (params.size,))[:] = np.nan
    expected = models.sgd_step(params, models.loss_and_grad(spec, params, batch)[1], 0.1)
    got = params.copy()
    models.train_step(spec, got, batch, 0.1)
    assert np.array_equal(got, expected)
    one_stack = batch if stacked else models.Batch(batch.inputs[None], batch.labels[None])
    with pytest.raises(ValueError, match="differ in count"):
        models.train_step(spec, np.zeros((2,) + params.shape[-1:]), one_stack, 0.1)


@pytest.mark.parametrize("make_spec", [small_softmax_spec, small_resnet_spec])
def test_loss_and_grad_returns_new_arrays(make_spec):
    spec = make_spec(l2=0.05)
    params = models.init_params(spec, 1)
    loss, grad = models.loss_and_grad(spec, params, random_batch(spec, 6, seed=1))
    kept = grad.copy()
    models.loss_and_grad(spec, params, random_batch(spec, 6, seed=2))
    models.train_step(spec, params.copy(), random_batch(spec, 6, seed=3), 0.1)
    assert np.array_equal(grad, kept)


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


@pytest.mark.parametrize("l2", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_l2(l2):
    with pytest.raises(ValueError, match=f"l2_coeff must be finite and >= 0, got {l2!r}"):
        models.ModelSpec("mini_resnet", 16, 1, 3, l2_coeff=l2)


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
    # a drawn length, and lengths below the kernel (mid_conv runs at T=1 when window_len is 4)
    for t in (int(rng.integers(2, 9)), 1, 2):
        x = rng.standard_normal((n, t, 2, cin))
        w = rng.standard_normal((kernel_len, cin, cout))
        b = rng.standard_normal(cout)
        dy = rng.standard_normal((n, t, 2, cout))

        xs, dys = slab(x, kernel_len), slab(dy, kernel_len)
        out = models.conv_time(xs, w, b)
        assert out.shape == (cout, t + kernel_len - 1, n * 2)
        assert np.allclose(unslab(out, kernel_len, n), naive_conv_time(x, w, b),
                           rtol=0, atol=1e-12)
        dx, dw, db = models.conv_time_backward(xs, w, dys)
        got_dx = unslab(dx, kernel_len, n)
        for got, ref in zip((got_dx, dw, db), naive_conv_time_backward(x, w, dy)):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0, atol=1e-12)
        no_dx, dw_only, db_only = models.conv_time_backward(xs, w, dys, input_grad=False)
        assert no_dx is None
        assert np.array_equal(dw_only, dw) and np.array_equal(db_only, db)


def naive_resnet_loss_and_grad(spec, params, x, labels):
    """(logits, loss, grad) of mini_resnet from the loop kernels, in (n, T, cols, C) layout.

    Pooling takes explicit 2x1 pairs along time, and fc1's input is flattened
    in (time, column, channel) order: together with ``param_layout`` this is
    what a saved parameter vector means.
    """
    v = models.param_views(spec, params)
    g = {name: np.zeros_like(a) for name, a in v.items()}
    relu = lambda a: np.maximum(a, 0.0)
    conv = lambda name, h: naive_conv_time(h, v[f"{name}.w"], v[f"{name}.b"])

    def conv_back(name, h, dy):
        dx, dw, db = naive_conv_time_backward(h, v[f"{name}.w"], dy)
        g[f"{name}.w"] += dw
        g[f"{name}.b"] += db
        return dx

    n, cols = len(x), x.shape[2]
    trace, h = [], x
    for block in ("block1", "block2"):
        a1 = conv(f"{block}.conv1", h)
        z2 = conv(f"{block}.conv2", a1)
        pre = conv(f"{block}.conv3", relu(z2)) + a1
        out = relu(pre)
        pooled = np.empty((n, out.shape[1] // 2) + out.shape[2:])
        for i in range(pooled.shape[1]):
            pooled[:, i] = np.where(out[:, 2 * i + 1] > out[:, 2 * i], out[:, 2 * i + 1], out[:, 2 * i])
        trace.append((block, h, a1, z2, pre, out))
        h = pooled
    zm = conv("mid_conv", h)
    tq, c = zm.shape[1], zm.shape[3]
    flat = np.empty((n, tq * cols * c))
    for t in range(tq):
        for col in range(cols):
            flat[:, (t * cols + col) * c : (t * cols + col + 1) * c] = relu(zm[:, t, col])
    z1 = flat @ v["fc1.w"] + v["fc1.b"]
    logits = relu(z1) @ v["fc2.w"] + v["fc2.b"]

    probs = models._softmax(logits)
    loss = np.mean(-np.log(probs[np.arange(n), labels])) + 0.5 * spec.l2_coeff * params @ params
    dlogits = (probs - np.eye(spec.num_classes)[labels]) / n
    g["fc2.w"] += relu(z1).T @ dlogits
    g["fc2.b"] += dlogits.sum(axis=0)
    dz1 = (dlogits @ v["fc2.w"].T) * (z1 > 0)
    g["fc1.w"] += flat.T @ dz1
    g["fc1.b"] += dz1.sum(axis=0)
    dflat = dz1 @ v["fc1.w"].T
    dzm = np.empty_like(zm)
    for t in range(tq):
        for col in range(cols):
            dzm[:, t, col] = dflat[:, (t * cols + col) * c : (t * cols + col + 1) * c]
    dh = conv_back("mid_conv", h, dzm * (zm > 0))
    for block, h, a1, z2, pre, out in reversed(trace):
        dout = np.zeros_like(out)
        for i in range(dh.shape[1]):
            later = out[:, 2 * i + 1] > out[:, 2 * i]
            dout[:, 2 * i] = np.where(later, 0.0, dh[:, i])
            dout[:, 2 * i + 1] = np.where(later, dh[:, i], 0.0)
        dpre = dout * (pre > 0)
        dz2 = conv_back(f"{block}.conv3", relu(z2), dpre) * (z2 > 0)
        da1 = conv_back(f"{block}.conv2", a1, dz2) + dpre
        dh = conv_back(f"{block}.conv1", h, da1)
    grad = np.concatenate([g[name].ravel() for name, _ in models.param_layout(spec)])
    return logits, loss, grad + spec.l2_coeff * params


@pytest.mark.parametrize("kernel_len", [1, 3, 5])
def test_resnet_matches_naive_network(kernel_len):
    # window_len 8: mid_conv runs at T=2, below kernel_len 5
    spec = models.ModelSpec("mini_resnet", 8, 2, 5, l2_coeff=1e-3, block_channels=(3, 4),
                            kernel_len=kernel_len, hidden=6)
    rng = np.random.default_rng(30 + kernel_len)
    params = 0.5 * rng.standard_normal(models.num_params(spec))
    batch = random_batch(spec, 4, seed=kernel_len)
    logits, loss, grad = naive_resnet_loss_and_grad(spec, params, batch.inputs, batch.labels)
    for keep in (False, True):
        got, _ = models._logits(spec, params, batch.inputs, keep=keep)
        assert np.allclose(got, logits, rtol=0, atol=1e-10)
    got_loss, got_grad = models.loss_and_grad(spec, params, batch)
    assert abs(got_loss - loss) <= 1e-10
    assert np.allclose(got_grad, grad, rtol=0, atol=1e-10)


def test_maxpool2_time_tie_takes_earlier_sample():
    x = np.array([3.0, 3.0, 1.0, 2.0, 5.0, 4.0]).reshape(1, 6, 1)
    out, win = models.maxpool2_time(x)
    assert out.ravel().tolist() == [3.0, 2.0, 5.0]
    assert win.ravel().tolist() == [True, False, False, True, True, False]
    dx = models.maxpool2_time_backward(win, np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
    assert dx.ravel().tolist() == [1.0, 0.0, 0.0, 2.0, 3.0, 0.0]
    # with one zero time step of padding at each end, in and out
    out, win = models.maxpool2_time(np.pad(x, ((0, 0), (1, 1), (0, 0))), 1)
    assert out.ravel().tolist() == [0.0, 3.0, 2.0, 5.0, 0.0]
    assert win.ravel().tolist() == [False, True, False, False, True, True, False, False]
    dx = models.maxpool2_time_backward(win, np.array([0.0, 1.0, 2.0, 3.0, 0.0]).reshape(1, 5, 1))
    assert dx.ravel().tolist() == [0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0]


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


@pytest.mark.parametrize("sizes", [range(1, 300), range(3199, 3202)], ids=["1-299", "3199-3201"])
def test_blocked_softmax_logits_equal_one_pass(sizes):
    # the desk profile's shapes; 3200 rows is one round's test and AP rows
    spec = models.ModelSpec("softmax_linear", 64, 3, 16)
    rng = np.random.default_rng(22)
    params = 0.3 * rng.standard_normal(models.num_params(spec))
    x = rng.standard_normal((sizes[-1],) + spec.input_shape)
    views = models.param_views(spec, params)
    for n in sizes:
        blocked, _ = models._logits(spec, params, x[:n])
        one_pass = x[:n].reshape(n, -1) @ views["w"] + views["b"]
        assert np.array_equal(blocked, one_pass), n


def test_row_max_equals_the_reduction():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 100, 16))
    a[0, 1] = 3.0  # a tie across the whole row
    a[0, 2, 5] = np.inf
    a[0, 3] = -np.inf
    a[0, 4, 7] = a[1, 5, 0] = a[2, 6, 15] = np.nan
    a[0, 8] = -1e308
    for x in (a, a[0]):
        assert np.array_equal(models._row_max(x), x.max(axis=-1, keepdims=True),
                              equal_nan=True)


def poison_work_arrays():
    """Fill every work array this thread keeps with nan, padding included."""
    for buf in models._scratch_arrays.__dict__.values():
        buf[:] = np.nan


def test_keyed_conv_work_arrays_match_fresh_ones():
    # a key hands the next call its previous memory, here first filled with nan;
    # the patch matrix and dx are shared by all keys
    for key in ("patches", "test.conv.out", "dx", "test.pool.pool", "test.pool.dpool"):
        models._scratch(key, (9 * 2 * 10 * (3 * 4 + 1),))
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal(4)
    w_back = rng.standard_normal((3, 4, 2))
    for n in (6, 3, 9):
        poison_work_arrays()
        x = slab(rng.standard_normal((n, 8, 2, 2)), 3)
        dy = slab(rng.standard_normal((n, 8, 2, 4)), 3)
        out = models.conv_time(x, w, b, key="test.conv")
        assert np.array_equal(out, models.conv_time(x, w, b))
        unslab(out, 3, n)
        got = models.conv_time_backward(x, w, dy, key="test.conv")
        for g, r in zip(got, models.conv_time_backward(x, w, dy)):
            assert np.array_equal(g, r)
        unslab(got[0], 3, n)
        # the next keyed call may take the last dx as its dy
        dx = got[0]
        ref = models.conv_time_backward(out, w_back, dx.copy())
        got = models.conv_time_backward(out, w_back, dx, key="test.conv")
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        unslab(got[0], 3, n)
        pooled, idx = models.maxpool2_time(x, 1, key="test.pool")
        ref_pooled, ref_idx = models.maxpool2_time(x, 1)
        assert np.array_equal(pooled, ref_pooled) and np.array_equal(idx, ref_idx)
        unslab(pooled, 3, n)
        dpool = models.maxpool2_time_backward(idx, pooled, key="test.pool")
        assert np.array_equal(dpool, models.maxpool2_time_backward(idx, pooled))
        unslab(dpool, 3, n)


@pytest.mark.parametrize("kernel_len", [1, 3, 5])
@pytest.mark.parametrize("window_len", [8, 16])
def test_poisoned_work_arrays_match_fresh_ones(kernel_len, window_len):
    # window_len 8: mid_conv runs at T=2, below kernel_len 5; the padding of
    # every slab must come back zero from work arrays that another batch size
    # laid out differently and that hold nan everywhere
    spec = models.ModelSpec("mini_resnet", window_len, 2, 5, l2_coeff=1e-3,
                            block_channels=(3, 4), kernel_len=kernel_len, hidden=6)
    params = models.init_params(spec, kernel_len)
    sizes = (32, 31, 9, 1)
    batches = [random_batch(spec, n, seed=n) for n in sizes]

    def calls(batch, before):
        before()
        stepped = params.copy()
        models.train_step(spec, stepped, batch, 0.1)
        before()
        loss, grad = models.loss_and_grad(spec, params, batch)
        before()
        return loss, grad, stepped, models._logits(spec, params, batch.inputs)[0]

    fresh = [calls(batch, models._scratch_arrays.__dict__.clear) for batch in batches]
    calls(batches[0], lambda: None)  # the largest batch sizes the kept arrays
    for batch, ref in zip(batches, fresh):
        for got, want in zip(calls(batch, poison_work_arrays), ref):
            assert np.array_equal(got, want), len(batch)


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
