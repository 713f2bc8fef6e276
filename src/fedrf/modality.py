"""Real-valued signal representations and multi-channel input stacking.

A complex waveform of length L maps to an L x 2 real matrix in three ways:
raw I/Q time samples, real/imaginary parts of the unnormalized DFT, and
per-sample amplitude/phase. Selected representations are standardized per
(modality, column) and stacked into an L x 2 x M tensor for the classifiers.

Normalization statistics come from exact sums: the fitted values and their
squares are cut into integer pieces whose float64 sums are exact in any
order and added as Python ints, so the totals of disjoint sets add, and the
statistics of a union (the training pool of the AP shards) come from the
shards' totals. Each sum is rounded to float64 once, as ``math.fsum`` is.
A value that is not finite, or whose square is not, is rejected where it is fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

MODALITY_IQ = "iq"
MODALITY_DFT = "dft"
MODALITY_AMP_PHASE = "amp_phase"
ALL_MODALITIES = (MODALITY_IQ, MODALITY_DFT, MODALITY_AMP_PHASE)

STD_FLOOR = 1e-8

# float64 values per modality in one chunk of stack_batch's rows: on a 2-core
# Xeon, 3200 rows of 64 samples x 3 modalities standardize into float32 or
# float64 in 10-12 ms at 2**14-2**15 values, 12-18 ms at 2**12-2**13 or
# 2**16-2**17, and in 24 ms as one pass that broadcasts (2,) means and stds
STACK_CHUNK_VALUES = 1 << 15

# an exact total counts units of 2**-_TOTAL_SHIFT: a piece's unit 2**(E - w)
# is at least 2**-1124, as E >= -1073 and w <= 51
_TOTAL_SHIFT = 1126


def transform(iq: np.ndarray, modality: str) -> np.ndarray:
    """Map complex waveforms of shape (..., L) to real (..., L, 2) columns.

    ``iq``: (Re r[k], Im r[k]). ``dft``: (Re R[p], Im R[p]) of the
    unnormalized DFT sum. ``amp_phase``: (|r[k]|, angle(r[k])) with the angle
    in (-pi, pi] and angle(0) = 0. Rows are transformed independently, so row
    i of a batch equals the transform of waveform i alone. The ``iq`` and
    ``dft`` columns are float64 views of complex128 (re, im) pairs; for ``iq``,
    of the argument itself when it is already complex128.
    """
    x = np.asarray(iq, dtype=np.complex128)
    if modality in (MODALITY_IQ, MODALITY_DFT):
        z = np.fft.fft(x, axis=-1) if modality == MODALITY_DFT else x
        return z[..., None].view(np.float64)
    if modality == MODALITY_AMP_PHASE:
        amp = np.abs(x)
        phase = np.angle(x)
        # keep the principal branch half-open at -pi and pin phase(0) to 0
        phase = np.where(phase == -np.pi, np.pi, phase)
        phase = np.where(amp == 0.0, 0.0, phase)
        return np.stack([amp, phase], axis=-1)
    raise ValueError(f"unknown modality {modality!r}")


@dataclass
class NormStats:
    """Per-(modality, column) standardization statistics.

    ``means[m]`` and ``stds[m]`` are length-2 arrays for modality ``m``.
    Identity stats (mean 0, std 1) leave inputs unchanged. Stats from
    ``fit_normalization`` also keep the fitted value count and, per modality
    and column, the exact totals of the values and of their squares, which
    ``pool_normalization`` adds. They are fit on finite values only.
    """

    means: Dict[str, np.ndarray]
    stds: Dict[str, np.ndarray]
    count: int = 0
    totals: Dict[str, Tuple[Tuple[int, int], ...]] = field(default_factory=dict)

    @classmethod
    def identity(cls, selection: Sequence[str]) -> "NormStats":
        return cls(
            means={m: np.zeros(2) for m in selection},
            stds={m: np.ones(2) for m in selection},
        )


def fit_normalization(iq: np.ndarray, selection: Sequence[str]) -> NormStats:
    """Fit per-(modality, column) mean and std over all samples of a (n, L) array.

    Only the selected modalities are fit, each independently of the others.
    Moments are accumulated with exact (correctly rounded) summation, so the
    result does not depend on example order. Non-finite values raise ValueError.
    """
    selection = _check_selection(selection)
    stacked = np.asarray(iq, dtype=np.complex128)
    if stacked.ndim != 2:
        raise ValueError("waveforms must be a (n, L) array")
    if len(stacked) < 2:
        raise ValueError("need at least 2 examples to fit normalization stats")
    totals = {}
    for m in selection:
        mats = transform(stacked, m)  # (n, L, 2)
        cols = []
        for col in range(2):
            vals = mats[:, :, col].ravel()  # a copy: the column is strided
            squares = vals * vals
            if not np.isfinite(squares).all():
                raise ValueError(f"cannot fit {m} statistics: a value or its square is not finite")
            cols.append((_consume_total(vals), _consume_total(squares)))
        totals[m] = tuple(cols)
    return _from_totals(totals, stacked.size)


def pool_normalization(parts: Sequence[NormStats]) -> NormStats:
    """Stats of the union of the sets ``parts`` were fit on, from their exact totals.

    Bitwise equal to ``fit_normalization`` on the union.
    """
    totals = {
        m: tuple(
            tuple(sum(p.totals[m][col][k] for p in parts) for k in range(2)) for col in range(2)
        )
        for m in parts[0].totals
    }
    return _from_totals(totals, sum(p.count for p in parts))


def _from_totals(totals: Dict[str, Tuple[Tuple[int, int], ...]], count: int) -> NormStats:
    """Stats of ``count`` values per column from the exact totals of the
    values and of their squares, each rounded to float64 once."""
    stats = NormStats(means={}, stds={}, count=count, totals=totals)
    for m, cols in totals.items():
        mean, std = np.empty(2), np.empty(2)
        for col, pair in enumerate(cols):
            # int / int rounds correctly; beyond float64 it raises OverflowError
            s, s2 = (t / (1 << _TOTAL_SHIFT) for t in pair)
            mean[col] = mu = s / count
            std[col] = math.sqrt(max(s2 / count - mu * mu, 0.0))
        stats.means[m], stats.stds[m] = mean, std
    return stats


def exact_total(vals: np.ndarray) -> int:
    """Exact sum of a 1-D float64 array as an integer count of 2**-1126.

    From the top exponent E of the finite values down, with w = 52 -
    n.bit_length() for n values, a pass takes the integer pieces
    trunc(r * 2**(w - E)), each below 2**w, off the remainder r and sums them
    in float64, exact in any order as the sum stays below 2**52 (Rump, Ogita
    and Oishi, SIAM J. Sci. Comput. 31(1), 2008). Totals of disjoint arrays add.
    """
    return _consume_total(np.array(vals, dtype=np.float64))


def exact_sum(vals: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float64 array, which it overwrites: the
    ``exact_total`` of finite values, rounded to float64 once. With a value
    that is not finite the sum is inf or nan, as ``np.sum`` gives it."""
    if not np.isfinite(vals).all():
        return float(vals.sum())
    return _consume_total(vals) / (1 << _TOTAL_SHIFT)


def _consume_total(r: np.ndarray) -> int:
    """``exact_total`` of a 1-D float64 array, which it overwrites."""
    w = 52 - len(r).bit_length()
    piece = np.empty_like(r)
    total = 0
    while True:
        top = max(r.max(initial=0.0), -r.min(initial=0.0))
        if top == 0.0:
            return total
        k = math.frexp(top)[1] - w  # the pieces count units of 2**k
        # exact scalings: by normal powers of two, else by ldexp
        f, up, down = (np.multiply, 2.0**-k, 2.0**k) if abs(k) <= 1022 else (np.ldexp, -k, k)
        np.trunc(f(r, up, out=piece), out=piece)
        total += int(piece.sum()) << (k + _TOTAL_SHIFT)
        r -= f(piece, down, out=piece)


def _check_selection(selection: Sequence[str]) -> Tuple[str, ...]:
    sel = tuple(selection)
    if not sel:
        raise ValueError("modality selection must be non-empty")
    for m in sel:
        if m not in ALL_MODALITIES:
            raise ValueError(f"unknown modality {m!r}")
    if len(set(sel)) != len(sel):
        raise ValueError("duplicate modality in selection")
    return sel


def stack_batch(
    iq: np.ndarray,
    selection: Sequence[str],
    stats: NormStats,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Standardize and stack modalities for a (n, L) complex array.

    Writes the (n, L, 2, M) values, standardized in float64, into ``out``
    (each rounded once to its dtype) or a new float64 array, and returns it.
    Each modality's mean and std are tiled over the window as (L, 2) rows, so
    NumPy's inner loops run over 2L values rather than over a (2,) pair, and
    the rows are standardized in chunks of at most ``STACK_CHUNK_VALUES``
    float64 values per modality, which stay in cache.
    """
    selection = _check_selection(selection)
    iq = np.asarray(iq)
    n, window = iq.shape
    if out is None:
        out = np.empty(iq.shape + (2, len(selection)))
    tiled = [(np.tile(stats.means[m], (window, 1)),
              np.tile(np.maximum(stats.stds[m], STD_FLOOR), (window, 1))) for m in selection]
    rows = max(1, STACK_CHUNK_VALUES // (2 * window))
    centered = np.empty((min(rows, n), window, 2))
    for start in range(0, n, rows):
        x = np.asarray(iq[start : start + rows], dtype=np.complex128)
        z = centered[: len(x)]
        for k, (m, (mean, std)) in enumerate(zip(selection, tiled)):
            np.subtract(transform(x, m), mean, out=z)
            np.divide(z, std, out=out[start : start + len(x), ..., k])
    return out
