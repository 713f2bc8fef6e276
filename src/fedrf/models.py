"""Classifiers with exact manual gradients.

Two model kinds operate on stacked modality tensors of shape (L, 2, M):

* ``softmax_linear`` -- multinomial logistic regression on the flattened
  tensor. With a positive l2 coefficient its loss is strongly convex, which
  is what the convergence analysis needs.
* ``mini_resnet`` -- a small residual CNN: two residual blocks (three
  convolutions plus an additive skip each) separated by 2x1 max pooling
  along time, a trailing convolution, then two fully connected layers.
  Convolutions use odd-length kernels along the time axis with zero padding
  and stride 1; the 2-wide column axis is never convolved. Each convolution
  is an im2col GEMM: the K time shifts of the input form a patch matrix whose
  rows are the (example, time, column) positions, so the forward pass, the
  weight gradient and the input gradient are one matrix product each. The
  first convolution's input gradient is never formed: no parameter needs it.
  Evaluation without gradients runs in near-equal blocks of at most
  ``EVAL_BLOCK_ROWS`` examples, so its patch matrices stay cache-sized. A
  batch larger than one block splits into blocks of at least half a block, so
  every product stays a matrix-matrix product, whose rows do not depend on the
  other rows: the blocked logits are bit-identical to one pass over the whole
  batch. (A 1-row block would take a matrix-vector product, which rounds
  differently.) Each layer's patch matrix, output, pooling result and their
  gradients are work arrays that the thread keeps from call to call (each up
  to ``SCRATCH_MAX_BYTES``), so a training step does not allocate, fault in
  and free them again; the products that fill them are the same, and so are
  the bits.

Everything is float64 and gradients are computed by hand so they can be
verified against central finite differences.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

KIND_SOFTMAX = "softmax_linear"
KIND_RESNET = "mini_resnet"

# examples per mini_resnet evaluation block: at 64 samples and the default
# widths a block's largest patch matrix is 4096 x 24 float64 values (0.8 MB),
# where a 680-example batch would build 16 MB ones
EVAL_BLOCK_ROWS = 32

# work arrays above this size are allocated per call instead of kept
SCRATCH_MAX_BYTES = 4 << 20


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    window_len: int
    num_modalities: int
    num_classes: int
    l2_coeff: float = 0.0
    block_channels: Tuple[int, int] = (8, 16)
    kernel_len: int = 3
    hidden: int = 32

    def __post_init__(self):
        if self.kind not in (KIND_SOFTMAX, KIND_RESNET):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be >= 0")
        if self.num_modalities < 1 or self.window_len < 2:
            raise ValueError("invalid input shape")
        if self.kind == KIND_RESNET:
            if min(self.block_channels) < 1 or self.hidden < 1:
                raise ValueError("mini_resnet widths must be >= 1")
            if self.kernel_len < 1 or self.kernel_len % 2 == 0:
                raise ValueError("kernel_len must be odd and >= 1")
            if self.window_len % 4 != 0:
                raise ValueError("mini_resnet needs window_len divisible by 4")

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.window_len, 2, self.num_modalities)


def param_layout(spec: ModelSpec) -> List[Tuple[str, Tuple[int, ...]]]:
    """Ordered (name, shape) segments of the flat parameter vector."""
    if spec.kind == KIND_SOFTMAX:
        d = spec.window_len * 2 * spec.num_modalities
        return [("w", (d, spec.num_classes)), ("b", (spec.num_classes,))]
    k = spec.kernel_len
    c1, c2 = spec.block_channels
    m = spec.num_modalities
    flat_dim = (spec.window_len // 4) * 2 * c1
    layout: List[Tuple[str, Tuple[int, ...]]] = []
    for name, cin, cout in (
        ("block1.conv1", m, c1),
        ("block1.conv2", c1, c1),
        ("block1.conv3", c1, c1),
        ("block2.conv1", c1, c2),
        ("block2.conv2", c2, c2),
        ("block2.conv3", c2, c2),
        ("mid_conv", c2, c1),
    ):
        layout.append((f"{name}.w", (k, cin, cout)))
        layout.append((f"{name}.b", (cout,)))
    layout.append(("fc1.w", (flat_dim, spec.hidden)))
    layout.append(("fc1.b", (spec.hidden,)))
    layout.append(("fc2.w", (spec.hidden, spec.num_classes)))
    layout.append(("fc2.b", (spec.num_classes,)))
    return layout


def num_params(spec: ModelSpec) -> int:
    return sum(int(np.prod(shape)) for _, shape in param_layout(spec))


@functools.lru_cache(maxsize=None)
def _segments(spec: ModelSpec) -> Tuple[Tuple[str, int, int, Tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every layout segment, computed once per spec."""
    segments = []
    off = 0
    for name, shape in param_layout(spec):
        size = int(np.prod(shape))
        segments.append((name, off, off + size, shape))
        off += size
    return tuple(segments)


def param_views(spec: ModelSpec, params: np.ndarray) -> Dict[str, np.ndarray]:
    """Named, reshaped views into the flat vector (shared memory).

    Leading axes of ``params`` (stacked vectors, e.g. (N, P) for N APs) are
    kept in front of every view's shape.
    """
    params = np.asarray(params)
    segments = _segments(spec)
    total = segments[-1][2]
    if total != params.shape[-1]:
        raise ValueError(
            f"parameter vector has length {params.shape[-1]}, spec needs {total}"
        )
    lead = params.shape[:-1]
    return {
        name: params[..., start:stop].reshape(lead + shape)
        for name, start, stop, shape in segments
    }


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform fan-in scaled weights, zero biases; deterministic in (spec, seed)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for name, shape in param_layout(spec):
        if name.endswith(".b") or name == "b":
            chunks.append(np.zeros(int(np.prod(shape))))
        else:
            fan_in = int(np.prod(shape[:-1]))
            lim = 1.0 / np.sqrt(fan_in)
            chunks.append(rng.uniform(-lim, lim, size=int(np.prod(shape))))
    return np.concatenate(chunks)


@dataclass
class Batch:
    """Stacked inputs (n, L, 2, M) with integer labels (n,).

    A stacked batch holds N equal-size batches, one per AP, as inputs
    (N, n, L, 2, M) and labels (N, n); ``loss_and_grad`` takes one step on
    each of them in one call.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim not in (1, 2) or self.inputs.ndim != self.labels.ndim + 3:
            raise ValueError("inputs must be a 4-D (n, L, 2, M) array, 5-D when stacked")
        if self.inputs.shape[: self.labels.ndim] != self.labels.shape or self.labels.size == 0:
            raise ValueError("batch needs >= 1 example and matching label count")

    def __len__(self) -> int:
        """Number of examples, over all stacked batches."""
        return self.labels.size

    def select(self, idx) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx])


# ---------------------------------------------------------------------------
# primitive ops

def _tap_ranges(t: int, k: int):
    """Per tap j: output times [lo, hi) read input time + s, s = j - k // 2."""
    ranges = []
    for j in range(k):
        s = j - k // 2
        lo = min(max(-s, 0), t)
        ranges.append((lo, max(min(t, t - s), lo), s))
    return ranges


_scratch_arrays = threading.local()


def _scratch(key: Optional[str], shape: Tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float64 work array of ``shape`` with undefined contents.

    With a ``key`` (and at most ``SCRATCH_MAX_BYTES``) the array is the start
    of one that this thread keeps for the key, so it holds what the key's
    previous user left there; every other call gets a new array. Keeping the
    arrays spares a mini_resnet step from allocating and freeing a few MB of
    work arrays, which the C allocator may return to the system and fault in
    again at the next step.
    """
    size = math.prod(shape)
    if key is None or 8 * size > SCRATCH_MAX_BYTES:
        return np.empty(shape)
    kept = _scratch_arrays.__dict__
    buf = kept.get(key)
    if buf is None or len(buf) < size:
        buf = kept[key] = np.empty(size)
    return buf[:size].reshape(shape)


def conv_time(x: np.ndarray, w: np.ndarray, b: np.ndarray, key: Optional[str] = None):
    """Convolve along the time axis with zero padding; columns stay separate.

    x: (n, T, 2, Cin), w: (K, Cin, Cout), b: (Cout,). The K zero-padded time
    shifts of x form a (n*T*2, K*Cin) patch matrix (im2col), so the whole
    convolution is one GEMM. Returns (out, patches). With a ``key`` both are
    kept work arrays (see ``_scratch``) that the key's next call overwrites.
    """
    n, t, cols, cin = x.shape
    k, _, cout = w.shape
    patches = _scratch(key and f"{key}.patches", (n, t, cols, k, cin))
    for j, (lo, hi, s) in enumerate(_tap_ranges(t, k)):
        patches[:, :lo, :, j] = 0.0
        patches[:, lo:hi, :, j] = x[:, lo + s : hi + s]
        patches[:, hi:, :, j] = 0.0
    patches = patches.reshape(n * t * cols, k * cin)
    out = np.matmul(patches, w.reshape(k * cin, cout),
                    out=_scratch(key and f"{key}.out", (n * t * cols, cout)))
    out += b
    return out.reshape(n, t, cols, cout), patches


def conv_time_backward(patches: np.ndarray, w: np.ndarray, dy: np.ndarray,
                       input_grad: bool = True, key: Optional[str] = None):
    """Gradients of conv_time from its patch matrix; returns (dx, dw, db).

    dx is None unless ``input_grad``. With a ``key``, dx is a kept work array
    (see ``_scratch``) that the key's next call overwrites, and the patch
    gradient, which does not outlive the call, uses one that all keys share.
    """
    n, t, cols, cout = dy.shape
    k, cin, _ = w.shape
    dy2 = dy.reshape(-1, cout)
    dw = (patches.T @ dy2).reshape(w.shape)
    db = dy2.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dpatches = _scratch(key and "dpatches", (n * t * cols, k * cin))
    np.matmul(dy2, w.reshape(k * cin, cout).T, out=dpatches)
    dpatches = dpatches.reshape(n, t, cols, k, cin)
    dx = _scratch(key and f"{key}.dx", (n, t, cols, cin))
    dx.fill(0.0)
    for j, (lo, hi, s) in enumerate(_tap_ranges(t, k)):
        dx[:, lo + s : hi + s] += dpatches[:, lo:hi, :, j]
    return dx, dw, db


def maxpool2_time(x: np.ndarray, key: Optional[str] = None):
    """Non-overlapping 2x1 max pooling along time; ties take the earlier sample.

    Returns (out, idx) with idx True where the later sample of a pair won.
    With a ``key``, out is a kept work array (see ``_scratch``), and so is the
    result of ``maxpool2_time_backward`` with the same key.
    """
    n, t, cols, c = x.shape
    xr = x.reshape(n, t // 2, 2, cols, c)
    first, second = xr[:, :, 0], xr[:, :, 1]
    out = _scratch(key and f"{key}.pool", (n, t // 2, cols, c))
    return np.maximum(first, second, out=out), second > first


def maxpool2_time_backward(idx: np.ndarray, dy: np.ndarray, t: int,
                           key: Optional[str] = None) -> np.ndarray:
    n, th, cols, c = dy.shape
    dxr = _scratch(key and f"{key}.dpool", (n, th, 2, cols, c))
    np.multiply(dy, ~idx, out=dxr[:, :, 0])
    np.multiply(dy, idx, out=dxr[:, :, 1])
    return dxr.reshape(n, t, cols, c)


def _shifted_exp(logits: np.ndarray):
    """(z, e, s): logits shifted by their row max, exp(z), and the row sums of e."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _shifted_exp(logits)
    return e / s[..., None]


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, parts=None):
    """Mean cross-entropy; one value per batch when the logits are stacked.

    ``parts`` reuses a ``_shifted_exp(logits)`` the caller already has.
    """
    z, _, s = _shifted_exp(logits) if parts is None else parts
    rows = z.reshape(-1, z.shape[-1])
    picked = rows[np.arange(len(rows)), labels.ravel()].reshape(labels.shape)
    loss = np.mean(np.log(s) - picked, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def _l2_term(spec: ModelSpec, params: np.ndarray):
    """(l2/2)*||params||^2; one value per row when the parameters are stacked."""
    if params.ndim == 1:
        return 0.5 * spec.l2_coeff * float(params @ params)
    # a stack of (1, P) @ (P, 1) products: the same dot product per row
    return 0.5 * spec.l2_coeff * (params[:, None, :] @ params[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# forward / backward

def _check_input(spec: ModelSpec, x: np.ndarray) -> None:
    if x.shape[-3:] != spec.input_shape:
        raise ValueError(
            f"input shape {x.shape[-3:]} does not match spec {spec.input_shape}"
        )


def _resnet_forward(spec: ModelSpec, views, x: np.ndarray, keep: bool):
    """Returns (logits, cache). cache is None unless keep.

    Without keep no ReLU mask is built. Each layer's patch matrix, output and
    pooling result is a work array of that layer (see ``_scratch``), so the
    cache holds views that the next pass overwrites.
    """
    cache: Optional[dict] = {"masks": []} if keep else None

    def conv(name, h):
        z, patches = conv_time(h, views[f"{name}.w"], views[f"{name}.b"], key=name)
        return z, (patches if keep else None)

    def relu(z):
        # in place: every z here is its own layer's work array
        mask = z > 0 if keep else None
        return np.maximum(z, 0.0, out=z), mask

    def block(name, h):
        a1, p1 = conv(f"{name}.conv1", h)
        a2, p2 = conv(f"{name}.conv2", a1)
        a2, m2 = relu(a2)
        pre, p3 = conv(f"{name}.conv3", a2)
        pre += a1
        out, mo = relu(pre)
        pooled, pidx = maxpool2_time(out, key=name)
        if keep:
            cache[name] = (p1, p2, p3, m2, mo, pidx, out.shape[1])
            cache["masks"].extend([m2, mo, pidx])
        return pooled

    h = block("block2", block("block1", x))
    am, pm = conv("mid_conv", h)
    am, mm = relu(am)
    flat = am.reshape(am.shape[0], -1)
    a1f, m1 = relu(flat @ views["fc1.w"] + views["fc1.b"])
    logits = a1f @ views["fc2.w"] + views["fc2.b"]
    if keep:
        cache["head"] = (pm, mm, am.shape, flat, m1, a1f)
        cache["masks"].extend([mm, m1])
    return logits, cache


def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray, keep: bool = False):
    _check_input(spec, x)
    views = param_views(spec, params)
    if spec.kind == KIND_SOFTMAX:
        flat = x.reshape(x.shape[:-3] + (-1,))
        return flat @ views["w"] + views["b"][..., None, :], {"flat": flat} if keep else None
    if keep:
        return _resnet_forward(spec, views, x, keep)
    # near-equal blocks: a fixed stride would leave a 1-row tail, whose
    # matrix-vector products round differently from GEMM rows
    blocks = np.array_split(x, max(1, -(-len(x) // EVAL_BLOCK_ROWS)))
    return np.concatenate([_resnet_forward(spec, views, b, False)[0] for b in blocks]), None


def batch_loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean cross-entropy plus (l2/2)*||params||^2, without the gradient."""
    logits, _ = _logits(spec, params, batch.inputs)
    loss = _cross_entropy(logits, batch.labels)
    if spec.l2_coeff:
        loss += _l2_term(spec, params)
    return loss


def loss_and_grad(spec: ModelSpec, params: np.ndarray, batch: Batch):
    """Exact gradient of the batch loss with respect to the flat parameters.

    Stacked parameters (N, P) with a stacked batch (N, n, ...) take N
    independent steps in one call and return N losses and (N, P) gradients,
    each bit-identical to its own unstacked call. softmax_linear runs them as
    batched matrix products; mini_resnet steps through the rows in turn.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.shape[:-1] != batch.labels.shape[:-1]:
        raise ValueError("stacked parameters and stacked batches differ in count")
    if spec.kind == KIND_RESNET and params.ndim > 1:
        parts = [
            _loss_and_grad(spec, p, x, y)
            for p, x, y in zip(params, batch.inputs, batch.labels)
        ]
        return np.array([loss for loss, _ in parts]), np.stack([g for _, g in parts])
    return _loss_and_grad(spec, params, batch.inputs, batch.labels)


def _loss_and_grad(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray):
    logits, cache = _logits(spec, params, x, keep=True)
    parts = _shifted_exp(logits)
    probs = parts[1] / parts[2][..., None]
    loss = _cross_entropy(logits, labels, parts)
    # subtracting the one-hot labels as 0.0/1.0 leaves every other entry exact
    dlogits = probs - (labels[..., None] == np.arange(spec.num_classes))
    dlogits /= labels.shape[-1]

    grad = np.zeros_like(params)
    gviews = param_views(spec, grad)
    views = param_views(spec, params)

    if spec.kind == KIND_SOFTMAX:
        flat = cache["flat"]
        gviews["w"] += np.swapaxes(flat, -1, -2) @ dlogits
        gviews["b"] += dlogits.sum(axis=-2)
    else:
        pm, mm, am_shape, flat, m1, a1f = cache["head"]
        gviews["fc2.w"] += a1f.T @ dlogits
        gviews["fc2.b"] += dlogits.sum(axis=0)
        da1f = dlogits @ views["fc2.w"].T
        dz1 = da1f * m1
        gviews["fc1.w"] += flat.T @ dz1
        gviews["fc1.b"] += dz1.sum(axis=0)
        dflat = dz1 @ views["fc1.w"].T
        dam = dflat.reshape(am_shape)
        dzm = dam * mm
        dh, dw, db = conv_time_backward(pm, views["mid_conv.w"], dzm, key="mid_conv")
        gviews["mid_conv.w"] += dw
        gviews["mid_conv.b"] += db
        for name in ("block2", "block1"):
            p1, p2, p3, m2, mo, pidx, t_out = cache[name]
            dout = maxpool2_time_backward(pidx, dh, t_out, key=name)
            dpre = np.multiply(dout, mo, out=dout)
            da2, dw3, db3 = conv_time_backward(
                p3, views[f"{name}.conv3.w"], dpre, key=f"{name}.conv3"
            )
            gviews[f"{name}.conv3.w"] += dw3
            gviews[f"{name}.conv3.b"] += db3
            dz2 = np.multiply(da2, m2, out=da2)
            da1, dw2, db2 = conv_time_backward(
                p2, views[f"{name}.conv2.w"], dz2, key=f"{name}.conv2"
            )
            gviews[f"{name}.conv2.w"] += dw2
            gviews[f"{name}.conv2.b"] += db2
            da1 += dpre  # additive skip from the block output
            # the input gradient of block1.conv1 would be the data's
            dh, dw1, db1 = conv_time_backward(
                p1, views[f"{name}.conv1.w"], da1, input_grad=name != "block1",
                key=f"{name}.conv1",
            )
            gviews[f"{name}.conv1.w"] += dw1
            gviews[f"{name}.conv1.b"] += db1

    if spec.l2_coeff:
        loss += _l2_term(spec, params)
        grad += spec.l2_coeff * params
    return loss, grad


def sgd_step(params: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient step params - eta * grad."""
    params = np.asarray(params)
    grad = np.asarray(grad)
    if params.shape != grad.shape:
        raise ValueError("parameter and gradient layouts differ")
    return params - eta * grad


# ---------------------------------------------------------------------------
# finite-difference verification

def _activation_signature(spec: ModelSpec, params: np.ndarray, batch: Batch):
    """Loss plus a fingerprint of every ReLU mask and pooling argmax."""
    logits, cache = _logits(spec, params, batch.inputs, keep=True)
    loss = _cross_entropy(logits, batch.labels)
    if spec.l2_coeff:
        loss += _l2_term(spec, params)
    if spec.kind == KIND_SOFTMAX:
        return loss, None
    return loss, [m.copy() for m in cache["masks"]]


def _same_signature(a, b) -> bool:
    if a is None and b is None:
        return True
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def central_diff_max_error(loss_fn, params: np.ndarray, grad: np.ndarray,
                           coords: Sequence[int], step: float,
                           limit: Optional[int] = None) -> Tuple[float, int]:
    """Max relative error between grad and central differences of loss_fn.

    ``loss_fn(p)`` returns ``(loss, signature)``. A coordinate whose +step or
    -step signature differs from the signature at ``params`` has a kink inside
    the difference stencil and is skipped. Coordinates are taken in the order
    of ``coords`` until ``limit`` of them have been compared. Returns the max
    relative error and the number of coordinates compared.
    """
    _, sig0 = loss_fn(params)
    scale = max(float(np.max(np.abs(grad))), 1e-12)
    worst = 0.0
    checked = 0
    for i in coords:
        if limit is not None and checked >= limit:
            break
        p = params.copy()
        p[i] = params[i] + step
        lp, sig_p = loss_fn(p)
        p[i] = params[i] - step
        lm, sig_m = loss_fn(p)
        if not (_same_signature(sig0, sig_p) and _same_signature(sig0, sig_m)):
            continue
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(grad[i]), abs(fd), 1e-8 * (1.0 + scale))
        worst = max(worst, abs(fd - grad[i]) / denom)
        checked += 1
    return worst, checked


def finite_diff_check(
    spec: ModelSpec,
    params: np.ndarray,
    batch: Batch,
    step: float = 1e-5,
    num_coords: Optional[int] = None,
    seed: int = 0,
) -> Tuple[float, int]:
    """Compare loss_and_grad against central differences.

    Every coordinate is checked unless ``num_coords`` is smaller than the
    parameter count; then coordinates are drawn in a random order until
    ``num_coords`` of them have been compared. For mini_resnet a coordinate
    whose perturbation flips a ReLU mask or a pooling argmax (the loss has a
    kink inside the difference stencil) is skipped. Returns the max relative
    error and the number of coordinates compared.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    params = np.asarray(params, dtype=np.float64)
    _, grad = loss_and_grad(spec, params, batch)
    dim = params.shape[0]
    if num_coords is None or num_coords >= dim:
        coords, limit = np.arange(dim), None
    else:
        coords, limit = np.random.default_rng(seed).permutation(dim), num_coords
    return central_diff_max_error(
        lambda p: _activation_signature(spec, p, batch), params, grad, coords, step, limit
    )

