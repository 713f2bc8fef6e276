"""Classifiers with exact manual gradients.

Two model kinds operate on stacked modality tensors of shape (L, 2, M):

* ``softmax_linear`` -- multinomial logistic regression on the flattened
  tensor. With a positive l2 coefficient its loss is strongly convex, which
  is what the convergence analysis needs.
* ``mini_resnet`` -- a small residual CNN: two residual blocks (three
  convolutions plus an additive skip each) separated by 2x1 max pooling
  along time, a trailing convolution, then two fully connected layers.
  Convolutions use odd-length kernels along the time axis with zero padding
  and stride 1; the 2-wide column axis is never convolved. Activations are
  channel-major slabs (C, T + 2p, S) of the S = n*cols (example, column)
  time sequences, with p = K//2 zero time steps at each end: a time step of
  a channel is one contiguous run of S values. The input is transposed into
  a slab once at entry and back before fc1, whose rows keep their (time,
  column, channel) meaning. Row j*Cin + c of a convolution's (K*Cin + 1,
  T*S) patch matrix is channel c shifted by tap j, one contiguous copy, and
  a ones row carries the bias, so the convolution is one GEMM
  ``[w; b].T @ patches`` into the interior of a padded output slab. Tap j's
  weight gradient is the input slab shifted by j, read in place, times dy;
  the input gradient is the time-flipped kernel times the patch matrix of
  dy, and the first convolution's is never formed. ReLU, the skip and the
  masks run on whole slabs and pooling on S-long time steps, so the padding
  stays zero. The pooling's backward copies dy to both samples of each pair
  and multiplies by one mask: the block's ReLU mask with each pair's losing
  sample cleared. The slabs are work arrays that the process keeps from
  call to call (each up to ``SCRATCH_MAX_BYTES``), so a step does not
  allocate, fault in and free them again; their padding is zeroed whenever
  they are handed out. All layers share one patch matrix and one input
  gradient.

Evaluation has one forward path, ``_logits``, and one loss, the mean of
``_row_losses``. It runs in near-equal blocks of at most
``SOFTMAX_BLOCK_ROWS`` or ``EVAL_BLOCK_ROWS`` examples, so the softmax input
block and the mini_resnet patch matrices stay cache-sized. Blocks hold at
least half a block, so every product stays a matrix-matrix product (a 1-row
block's matrix-vector products round differently). A convolution's output
column depends only on its own patch column, and a dense layer's row only on
its own input row, so a row's logits do not depend on its block: the blocked
logits are bit-identical to one pass, and any subset of rows may be scored
from one pass over all of them.

One backward pass serves both ``loss_and_grad``, which returns a new
gradient array of one batch beside its ``batch_loss``, and ``train_round``,
the one SGD step path: it takes all J in-place steps of a round of local
training at G APs in one call. The backward computes no loss; ``_row_losses``
is the only cross-entropy. A round does its bookkeeping once: it checks the
input shapes, takes the parameter and gradient views, hands out the kept
work arrays (the gradient, its l2 term and the softmax logits, which turn in
place into the probabilities and then the logit gradient) and gathers every
step's labels from the round plans; for softmax_linear it also computes
every step's flat indices of the label entries in the (G, B, C) logits. A
step then only gathers its mini-batches and does the arithmetic: batched
matrix products over the G APs for softmax_linear, one ``_backward`` per AP
for mini_resnet. The l2 term and the update run in place in the order of
``sgd_step(params, loss_and_grad(...)[1], eta)`` (``g += l2*w``, then
``w -= eta*g``), so each AP's bits are those of that reference.

Every array of a pass takes its parameters' dtype: a run of either kind
computes in float32 (``ModelSpec.dtype``), and the finite-difference check
runs the same code in float64. Inputs are rounded into that dtype as they are
copied in; the cross-entropy and the l2 term are float64.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config, modality

KIND_SOFTMAX = "softmax_linear"
KIND_RESNET = "mini_resnet"

# examples per mini_resnet evaluation block: at 64 samples and the default widths
# a block's largest patch matrix is 25 x 4096 float32 values (0.4 MB), where a
# 680-example batch would build 8.7 MB ones; 64 rows won 4 of 10 desk_resnet pairs
EVAL_BLOCK_ROWS = 32

# examples per softmax_linear evaluation block: on a 2-core Xeon at 1 BLAS
# thread, 3200 desk rows (384 inputs, 16 classes) take 2.2 ms in one GEMM,
# 1.2-1.5 ms in blocks of 64-160 rows and 1.8-2.2 ms in blocks of 192-512
SOFTMAX_BLOCK_ROWS = 128

# work arrays above this size are allocated per call instead of kept
SCRATCH_MAX_BYTES = 4 << 20


@dataclass(frozen=True)
class ModelSpec:
    """A model's kind and shape; widths and ``l2_coeff`` take ``config.ModelConfig``'s bounds."""

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
        config.check_bounds(self, config.ModelConfig, "model.")
        if self.num_modalities < 1 or self.window_len < 2:
            raise ValueError("invalid input shape")
        if self.kind == KIND_RESNET:
            if self.kernel_len % 2 == 0:
                raise ValueError("kernel_len must be odd")
            if self.window_len % 4 != 0:
                raise ValueError("mini_resnet needs window_len divisible by 4")

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.window_len, 2, self.num_modalities)

    @property
    def dtype(self) -> np.dtype:
        """What a run computes in: float32 for both kinds."""
        return np.dtype(np.float32)


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
    return layout + [("fc1.w", (flat_dim, spec.hidden)), ("fc1.b", (spec.hidden,)),
                     ("fc2.w", (spec.hidden, spec.num_classes)), ("fc2.b", (spec.num_classes,))]


def num_params(spec: ModelSpec) -> int:
    return sum(int(np.prod(shape)) for _, shape in param_layout(spec))


@functools.lru_cache(maxsize=None)
def _segments(spec: ModelSpec) -> Tuple[Tuple[str, int, int, Tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every layout segment, computed once per spec."""
    segments, off = [], 0
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


def _floats(a) -> np.ndarray:
    """``a`` as a float32 array if it is one, else as float64; no copy when it is either."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


@dataclass
class Batch:
    """Stacked float32 or float64 inputs (n, L, 2, M) with integer labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = _floats(self.inputs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 4 or self.labels.ndim != 1:
            raise ValueError("inputs must be a 4-D (n, L, 2, M) array with 1-D labels")
        if len(self.inputs) != len(self.labels) or len(self.labels) == 0:
            raise ValueError("batch needs >= 1 example and matching label count")

    def __len__(self) -> int:
        return len(self.labels)

    def select(self, idx) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx])


# ---------------------------------------------------------------------------
# primitive ops

_scratch_arrays: Dict[Tuple[str, np.dtype], np.ndarray] = {}


def _scratch(key: Optional[str], shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A C-contiguous work array of ``shape`` and ``dtype`` with undefined contents.

    With a ``key`` (and at most ``SCRATCH_MAX_BYTES``) the array is the start
    of one that the process keeps for the key and dtype, so it holds what
    their previous user left there; every other call gets a new array. Keeping
    the arrays spares a mini_resnet step from allocating and freeing a few MB of
    work arrays, which the C allocator may return to the system and fault in
    again at the next step. Each kept array is a private mapping of its own,
    outside the C heap: one first kept, or grown, late in a run would sit at
    the top of the heap, and the memory freed below it could no longer be
    extended to fit the next large array, which would grow the heap instead.
    """
    dtype, size = np.dtype(dtype), math.prod(shape)
    if key is None or dtype.itemsize * size > SCRATCH_MAX_BYTES:
        return np.empty(shape, dtype)
    buf = _scratch_arrays.get((key, dtype))
    if buf is None or len(buf) < size:
        mapping = mmap.mmap(-1, dtype.itemsize * max(size, 1), flags=mmap.MAP_PRIVATE)
        buf = _scratch_arrays[key, dtype] = np.frombuffer(mapping, dtype)
    return buf[:size].reshape(shape)


def _slab(key: Optional[str], c: int, t: int, s: int, p: int, dtype) -> np.ndarray:
    """A (c, t + 2p, s) work array (see ``_scratch``) whose first and last p
    time steps are zero: the padding around an interior of t steps."""
    slab = _scratch(key, (c, t + 2 * p, s), dtype)
    slab[:, :p] = 0.0
    slab[:, p + t :] = 0.0
    return slab


def _interior(slab: np.ndarray, t: int) -> np.ndarray:
    """The (C, t*S) view of the t unpadded time steps of a (C, T, S) slab."""
    p = (slab.shape[1] - t) // 2
    return slab[:, p : p + t].reshape(len(slab), -1)


def _to_slab(rows: np.ndarray, key: str, p: int, dtype) -> np.ndarray:
    """(n, t, cols, C) ``rows`` as the interior of a (C, t + 2p, n*cols) work
    slab of ``dtype``, copied a column at a time: one transposed copy of the
    whole array runs inner loops of 2 values and takes three times as long."""
    n, t, cols, c = rows.shape
    slab = _slab(key, c, t, n * cols, p, dtype)
    for col in range(cols):
        _interior(slab, t).reshape(c, t, n, cols)[..., col] = rows[:, :, col].transpose(2, 1, 0)
    return slab


def _fill_taps(rows: np.ndarray, slab: np.ndarray, k: int, t: int) -> None:
    """Fill (k*C, t*S) ``rows`` from a (C, t + k - 1, S) slab: row j*C + c is
    channel c's time steps j .. j+t-1, one contiguous run of t*S values."""
    taps = rows.reshape(k, len(slab), t, -1)
    for j in range(k):
        taps[j] = slab[:, j : j + t]


def conv_time(x: np.ndarray, w: np.ndarray, b: np.ndarray, key: Optional[str] = None):
    """Convolve along time the (Cin, T + 2p, S) slab x, whose p = K//2 time
    steps at each end are zero, with w (K, Cin, Cout) and b (Cout,).

    Returns the (Cout, T + 2p, S) slab, padded alike, of one GEMM ``[w; b].T
    @ patches`` (see the module docstring). With a ``key`` it is a kept work
    array (see ``_scratch``) that the key's next call overwrites, and the
    patch matrix one that all keys share.
    """
    k, cin, cout = w.shape
    t = x.shape[1] - 2 * (k // 2)
    patches = _scratch(key and "patches", (k * cin + 1, t * x.shape[2]), w.dtype)
    _fill_taps(patches[:-1], x, k, t)
    patches[-1] = 1.0
    wb = np.concatenate((w.reshape(k * cin, cout), b[None]))
    out = _slab(key and f"{key}.out", cout, t, x.shape[2], k // 2, w.dtype)
    np.matmul(wb.T, patches, out=_interior(out, t))
    return out


def conv_time_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                       input_grad: bool = True, key: Optional[str] = None):
    """(dx, dw, db) of conv_time from its input slab x and the dy slab; dx is
    None unless ``input_grad``. With a ``key``, dx and the patch matrix of dy
    are work arrays (see ``_scratch``) that all keys share: the next keyed
    call overwrites dx, and its dy may be that dx, as dy is read in full
    before dx is written.
    """
    k, cin, cout = w.shape
    t = dy.shape[1] - 2 * (k // 2)
    dyi = _interior(dy, t)
    dw, db = np.empty(w.shape, w.dtype), dyi.sum(axis=1)
    for j in range(k):
        np.matmul(x[:, j : j + t].reshape(cin, -1), dyi.T, out=dw[j])
    if not input_grad:
        return None, dw, db
    windows = _scratch(key and "patches", (k * cout, dyi.shape[1]), w.dtype)
    _fill_taps(windows, dy, k, t)
    # dx[t] = sum over taps j of w[j] @ dy[t + p - j]: the windows run j backwards
    flipped = w[::-1].transpose(0, 2, 1).reshape(k * cout, cin)
    dx = _slab(key and "dx", cin, t, dy.shape[2], k // 2, w.dtype)
    np.matmul(flipped.T, windows, out=_interior(dx, t))
    return dx, dw, db


def maxpool2_time(x: np.ndarray, p: int = 0, key: Optional[str] = None,
                  winners: bool = True):
    """Non-overlapping 2x1 max pooling along time of a (C, T + 2p, S) slab
    padded by p zero time steps; ties take the earlier sample.

    Returns (out, win): the (C, T/2 + 2p, S) slab of the maxima, padded
    alike, and a bool array of x's shape, True at the sample of each pair
    that won and False elsewhere; win is None unless ``winners``. With a
    ``key``, out is a kept work array (see ``_scratch``), and so is the
    result of ``maxpool2_time_backward`` with the same key.
    """
    th = x.shape[1] // 2 - p
    first, second = x[:, p : p + 2 * th : 2], x[:, p + 1 : p + 2 * th : 2]
    out = _slab(key and f"{key}.pool", len(x), th, x.shape[2], p, x.dtype)
    np.maximum(first, second, out=out[:, p : p + th])
    if not winners:
        return out, None
    win = np.zeros(x.shape, dtype=bool)
    np.greater(second, first, out=win[:, p + 1 : p + 2 * th : 2])
    np.logical_not(win[:, p + 1 : p + 2 * th : 2], out=win[:, p : p + 2 * th : 2])
    return out, win


def maxpool2_time_backward(win: np.ndarray, dy: np.ndarray,
                           key: Optional[str] = None) -> np.ndarray:
    """dx of maxpool2_time from its win and the padded dy slab: each time
    step of dy at the winner of its pair, zero elsewhere, padded alike. A
    ``win`` with more samples cleared (a ReLU mask folded in) clears them too.
    """
    c, t, s = win.shape
    th = t - dy.shape[1]
    p = (t - 2 * th) // 2
    dx = _slab(key and f"{key}.dpool", c, 2 * th, s, p, dy.dtype)
    # copy dy to both samples of each pair, then zero the losers in one
    # contiguous multiply: a strided multiply of each half by a bool mask
    # took three times as long as this copy
    dx[:, p : p + 2 * th].reshape(c, th, 2, s)[...] = dy[:, p : p + th, None]
    dx *= win
    return dx


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` as a loop over the columns: over the
    3200 desk evaluation rows of 16 logits it takes a quarter of the time of
    the reduction along the short rows (a 32-row training batch is faster
    with the reduction). A NaN spreads alike; the two may differ only in the
    sign of a zero maximum, which no shifted logit's exp or loss depends on.
    """
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j : j + 1], out=m)
    return m


def _shifted_exp(logits: np.ndarray):
    """(z, e, s): logits shifted by their row max, exp(z), and the row sums of e."""
    z = logits - _row_max(logits)
    e = np.exp(z)
    return z, e, e.sum(axis=-1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _shifted_exp(logits)
    return e / s[..., None]


def _label_index(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """The flat index of every row's label entry in the C-contiguous
    (..., n, num_classes) array of the rows' logits."""
    return num_classes * np.arange(labels.size) + labels.ravel()


def _picked(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """z[..., label] of every row, in the shape of ``labels``."""
    return z.reshape(-1)[_label_index(labels, z.shape[-1])].reshape(labels.shape)


def _mean(losses: np.ndarray) -> float:
    return float(np.mean(losses))


def _row_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Float64 cross-entropy of every row, in the shape of ``labels``."""
    z, _, s = _shifted_exp(logits.astype(np.float64, copy=False))
    return np.log(s) - _picked(z, labels)


def _dlogits(logits: np.ndarray, index: np.ndarray) -> None:
    """Turn C-contiguous (..., n, C) ``logits``, in place, into the gradient
    of the mean cross-entropy with respect to them; the loss itself is not
    computed. ``index`` is the ``_label_index`` of the rows' labels.

    The operations are those of ``_softmax``, in the same order, so the bits
    are too; the row max is the reduction, which ``_row_max`` equals and
    which is faster on a training batch.
    """
    entries = logits.reshape(-1)
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    probs = np.divide(e, e.sum(axis=-1)[..., None], out=e)
    # subtracting 1 at each label leaves every other entry exact
    entries[index] -= 1.0
    probs /= logits.shape[-2]


def _l2_term(spec: ModelSpec, params: np.ndarray) -> float:
    """(l2/2)*||params||^2 in float64. The float64 squares of float32 parameters
    (a run's) are exact, and their exact sum is rounded once, as ``math.fsum``
    rounds it. OpenBLAS splits a dot of over 10,000 values by thread, so
    float64 parameters are summed in order as dots of at most 10,000."""
    if params.dtype == np.float32:
        return 0.5 * spec.l2_coeff * modality.exact_sum(np.square(params, dtype=np.float64))
    chunks = (params[i : i + 10_000] for i in range(0, len(params), 10_000))
    return 0.5 * spec.l2_coeff * sum(float(c @ c) for c in chunks)


# ---------------------------------------------------------------------------
# forward / backward

def _check_input(spec: ModelSpec, x: np.ndarray) -> None:
    if x.shape[-3:] != spec.input_shape:
        raise ValueError(f"input shape {x.shape[-3:]} does not match spec {spec.input_shape}")


def _resnet_forward(spec: ModelSpec, views, x: np.ndarray, keep: bool):
    """Returns (logits, cache). cache is None unless keep.

    Without keep no ReLU or pooling mask is built. Each layer's output slab
    and pooling result is a work array of that layer (see ``_scratch``), so
    the cache holds views that the next pass overwrites.
    """
    cache: Optional[dict] = {"masks": []} if keep else None
    n, t, cols, _ = x.shape
    p = spec.kernel_len // 2

    def conv(name, h):
        return conv_time(h, views[f"{name}.w"], views[f"{name}.b"], key=name)

    def relu(z):
        # in place: every z here is its own layer's work array or a fresh copy
        mask = z > 0 if keep else None
        return np.maximum(z, 0.0, out=z), mask

    def block(name, h):
        a1 = conv(f"{name}.conv1", h)
        a2, m2 = relu(conv(f"{name}.conv2", a1))
        pre = conv(f"{name}.conv3", a2)
        pre += a1
        out, mo = relu(pre)
        pooled, win = maxpool2_time(out, p, key=name, winners=keep)
        if keep:
            # the samples whose gradient passes both the ReLU and the pooling;
            # a pool's loser has no kink, so the masks still show every one
            np.logical_and(mo, win, out=mo)
            # the input slab of each convolution, for its weight gradient
            cache[name] = (h, a1, a2, m2, mo)
            cache["masks"].extend([m2, mo, win])
        return pooled

    h = block("block2", block("block1", _to_slab(x, "input", p, views["fc1.w"].dtype)))
    am = _interior(conv("mid_conv", h), t // 4).reshape(-1, t // 4, n, cols)
    # fc1 rows are in (time, column, channel) order; see _to_slab for the loop
    flat = np.empty((n, t // 4, cols, len(am)), am.dtype)
    for col in range(cols):
        flat[:, :, col] = am[..., col].transpose(2, 1, 0)
    flat, mm = relu(flat.reshape(n, -1))
    a1f, m1 = relu(flat @ views["fc1.w"] + views["fc1.b"])
    logits = a1f @ views["fc2.w"] + views["fc2.b"]
    if keep:
        cache["head"] = (h, mm, flat, m1, a1f)
        cache["masks"].extend([mm, m1])
    return logits, cache


def block_stops(spec: ModelSpec, n: int) -> List[int]:
    """Where each of the evaluation blocks of n examples ends: near-equal
    blocks of at most ``SOFTMAX_BLOCK_ROWS`` or ``EVAL_BLOCK_ROWS`` rows."""
    rows = SOFTMAX_BLOCK_ROWS if spec.kind == KIND_SOFTMAX else EVAL_BLOCK_ROWS
    # near-equal blocks, as np.array_split cuts them: a fixed stride would
    # leave a 1-row tail, whose matrix-vector products round differently
    parts = max(1, -(-n // rows))
    size, longer = divmod(n, parts)
    return [k * size + min(k, longer) for k in range(1, parts + 1)]


def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n, num_classes) logits of a batch of (n, L, 2, M) inputs, run in
    near-equal blocks of at most ``SOFTMAX_BLOCK_ROWS`` or
    ``EVAL_BLOCK_ROWS`` examples and written into one array."""
    _check_input(spec, x)
    params = np.asarray(params)
    views = param_views(spec, params)
    logits = np.empty((len(x), spec.num_classes), params.dtype)
    start = 0
    for stop in block_stops(spec, len(x)):
        xb, out = x[start:stop], logits[start:stop]
        start = stop
        if spec.kind == KIND_SOFTMAX:
            # rounded to the parameters' dtype, as _to_slab rounds mini_resnet's
            flat = xb.reshape(len(xb), -1).astype(params.dtype, copy=False)
            np.matmul(flat, views["w"], out=out)
            out += views["b"]
        else:
            out[...] = _resnet_forward(spec, views, xb, False)[0]
    return logits


def batch_loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean cross-entropy plus (l2/2)*||params||^2, without the gradient."""
    loss = _mean(_row_losses(_logits(spec, params, batch.inputs), batch.labels))
    if spec.l2_coeff:
        loss += _l2_term(spec, params)
    return loss


def loss_and_grad(spec: ModelSpec, params: np.ndarray, batch: Batch):
    """(loss, grad): ``batch_loss`` and its exact gradient with respect to
    the flat (P,) parameters, a new array on every call."""
    params = _floats(params)
    _check_count(params, ())
    grad = np.empty_like(params)
    _backward(spec, params, batch.inputs, batch.labels, grad)
    if spec.l2_coeff:
        grad += spec.l2_coeff * params
    return batch_loss(spec, params, batch), grad


def _check_count(params: np.ndarray, lead: Tuple[int, ...]) -> None:
    if params.shape[:-1] != lead:
        raise ValueError("parameter rows and batches differ in count")


def train_round(spec: ModelSpec, params: np.ndarray, shards: Sequence[Batch],
                plans: np.ndarray, eta: float) -> None:
    """Take the J SGD steps of a round of local training at G APs, in place.

    ``params`` is the (G, P) float32 or float64 array of the APs' parameters,
    ``shards`` their G unstacked batches and ``plans`` the (G, J, B) row
    indices, each in range, of every AP's J mini-batches in its shard. Step
    j sets ``params[g] -= eta * grad`` of the loss of rows ``plans[g, j]`` of
    ``shards[g]``, for every g, as ``sgd_step`` of ``loss_and_grad`` would,
    bit for bit, and computes no loss. The shape checks, views, work arrays,
    labels and label indices are set up once for all J steps (see the module
    docstring); each step's stacked (G, B, ...) mini-batch is gathered into
    one array of this call.
    """
    plans = np.asarray(plans)
    _check_count(params, (len(shards),))
    _check_count(params, plans.shape[:1])
    for shard in shards:
        _check_input(spec, shard.inputs)
    # in the parameters' dtype, so that take casts nothing, not even the
    # undefined contents of its output
    sources = [shard.inputs.astype(params.dtype, copy=False) for shard in shards]
    g_count, steps, size = plans.shape
    # (J, G, B): every step's stacked labels
    labels = np.stack([shard.labels[plan] for shard, plan in zip(shards, plans)], axis=1)
    inputs = np.empty((g_count, size) + spec.input_shape, params.dtype)
    grad = _scratch("step.grad", params.shape, params.dtype)
    l2 = _scratch("step.l2", params.shape, params.dtype) if spec.l2_coeff else None
    if spec.kind == KIND_SOFTMAX:
        views, gviews = param_views(spec, params), param_views(spec, grad)
        flat = inputs.reshape(g_count, size, -1)
        logits = _scratch("step.logits", (g_count, size, spec.num_classes), params.dtype)
        # every step's _label_index of its (G, B) labels
        index = spec.num_classes * np.arange(g_count * size) + labels.reshape(steps, -1)
    for j in range(steps):
        for g, source in enumerate(sources):
            # the plan's indices are in range; "clip" lets take write out unbuffered
            np.take(source, plans[g, j], axis=0, out=inputs[g], mode="clip")
        if spec.kind == KIND_SOFTMAX:
            _softmax_backward(views, gviews, flat, logits, index[j])
        else:
            for g in range(g_count):
                _backward(spec, params[g], inputs[g], labels[j, g], grad[g])
        if l2 is not None:
            grad += np.multiply(params, spec.l2_coeff, out=l2)
        grad *= eta
        params -= grad


def _softmax_backward(views, gviews, flat: np.ndarray, logits: np.ndarray,
                      index: np.ndarray) -> None:
    """softmax_linear's pass: the (..., n, C) ``logits`` of the flattened
    inputs ``flat`` under ``views``, turned by ``_dlogits`` into their
    gradient, and the weight and bias gradients written into ``gviews``."""
    np.matmul(flat, views["w"], out=logits)
    logits += views["b"][..., None, :]
    _dlogits(logits, index)
    np.matmul(np.swapaxes(flat, -1, -2), logits, out=gviews["w"])
    gviews["b"][...] = logits.sum(axis=-2)


def _backward(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray,
              grad: np.ndarray) -> None:
    """Write the gradient of the mean cross-entropy (no l2 term) of one batch
    into ``grad``."""
    _check_input(spec, x)
    views = param_views(spec, params)
    gviews = param_views(spec, grad)
    index = _label_index(labels, spec.num_classes)
    if spec.kind == KIND_SOFTMAX:
        flat = x.reshape(len(x), -1).astype(params.dtype, copy=False)
        logits = np.empty((len(x), spec.num_classes), params.dtype)
        _softmax_backward(views, gviews, flat, logits, index)
    else:
        dlogits, cache = _resnet_forward(spec, views, x, keep=True)
        _dlogits(dlogits, index)
        grad.fill(0.0)
        hm, mm, flat, m1, a1f = cache["head"]

        def add(name, dw, db):
            gviews[f"{name}.w"] += dw
            gviews[f"{name}.b"] += db

        def conv_back(name, h, dy, input_grad=True):
            dx, dw, db = conv_time_backward(h, views[f"{name}.w"], dy, input_grad, key=name)
            add(name, dw, db)
            return dx

        add("fc2", a1f.T @ dlogits, dlogits.sum(axis=0))
        dz1 = (dlogits @ views["fc2.w"].T) * m1
        add("fc1", flat.T @ dz1, dz1.sum(axis=0))
        dflat = dz1 @ views["fc1.w"].T

        # back from fc1's (time, column, channel) order, into the dx work
        # array, which mid_conv's backward call may overwrite
        rows = (dflat * mm).reshape(len(x), x.shape[1] // 4, x.shape[2], -1)
        dh = conv_back("mid_conv", hm, _to_slab(rows, "dx", spec.kernel_len // 2, rows.dtype))
        for name in ("block2", "block1"):
            h, a1, a2, m2, mo = cache[name]
            dpre = maxpool2_time_backward(mo, dh, key=name)
            dz2 = conv_back(f"{name}.conv3", a2, dpre)
            dz2 *= m2
            da1 = conv_back(f"{name}.conv2", a1, dz2)
            da1 += dpre  # additive skip from the block output
            # the input gradient of block1.conv1 would be the data's
            dh = conv_back(f"{name}.conv1", h, da1, input_grad=name != "block1")


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
    """``batch_loss`` and, for mini_resnet, copies of every ReLU mask and
    pooling argmax from one more forward pass that keeps them (None for
    softmax_linear)."""
    loss = batch_loss(spec, params, batch)
    if spec.kind == KIND_SOFTMAX:
        return loss, None
    _, cache = _resnet_forward(spec, param_views(spec, params), batch.inputs, keep=True)
    return loss, [m.copy() for m in cache["masks"]]


def _same_signature(a, b) -> bool:
    return (a is None and b is None) or all(np.array_equal(x, y) for x, y in zip(a, b))


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
    worst, checked = 0.0, 0
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


def finite_diff_check(spec: ModelSpec, params: np.ndarray, batch: Batch, step: float = 1e-5,
                      num_coords: Optional[int] = None, seed: int = 0) -> Tuple[float, int]:
    """Compare loss_and_grad's gradient against central differences of
    ``batch_loss``, the loss that training and evaluation report.

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

