"""Real-valued signal representations and multi-channel input stacking.

A complex waveform of length L maps to an L x 2 real matrix in three ways:
raw I/Q time samples, real/imaginary parts of the unnormalized DFT, and
per-sample amplitude/phase. Selected representations are standardized per
(modality, column) and stacked into an L x 2 x M tensor for the classifiers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

MODALITY_IQ = "iq"
MODALITY_DFT = "dft"
MODALITY_AMP_PHASE = "amp_phase"
ALL_MODALITIES = (MODALITY_IQ, MODALITY_DFT, MODALITY_AMP_PHASE)

STD_FLOOR = 1e-8

# values per tolist() chunk fed to math.fsum: converting a whole column to a
# list at once costs its full size in Python floats
FSUM_CHUNK = 4096


def transform(iq: np.ndarray, modality: str) -> np.ndarray:
    """Map complex waveforms of shape (..., L) to real (..., L, 2) columns.

    ``iq``: (Re r[k], Im r[k]). ``dft``: (Re R[p], Im R[p]) of the
    unnormalized DFT sum. ``amp_phase``: (|r[k]|, angle(r[k])) with the angle
    in (-pi, pi] and angle(0) = 0. Rows are transformed independently, so row
    i of a batch equals the transform of waveform i alone.
    """
    x = np.asarray(iq, dtype=np.complex128)
    if modality == MODALITY_IQ:
        return np.stack([x.real, x.imag], axis=-1)
    if modality == MODALITY_DFT:
        spec = np.fft.fft(x, axis=-1)
        return np.stack([spec.real, spec.imag], axis=-1)
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
    Identity stats (mean 0, std 1) leave inputs unchanged.
    """

    means: Dict[str, np.ndarray]
    stds: Dict[str, np.ndarray]

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
    result does not depend on example order.
    """
    selection = _check_selection(selection)
    stacked = np.asarray(iq, dtype=np.complex128)
    if stacked.ndim != 2:
        raise ValueError("waveforms must be a (n, L) array")
    if len(stacked) < 2:
        raise ValueError("need at least 2 examples to fit normalization stats")
    means: Dict[str, np.ndarray] = {}
    stds: Dict[str, np.ndarray] = {}
    count = stacked.shape[0] * stacked.shape[1]
    for m in selection:
        mats = transform(stacked, m)  # (n, L, 2)
        mean = np.empty(2)
        std = np.empty(2)
        for col in range(2):
            vals = mats[:, :, col].ravel()
            s = exact_sum(vals)
            s2 = exact_sum(vals, squared=True)
            mu = s / count
            var = max(s2 / count - mu * mu, 0.0)
            mean[col] = mu
            std[col] = math.sqrt(var)
        means[m] = mean
        stds[m] = std
    return NormStats(means=means, stds=stds)


def exact_sum(vals: np.ndarray, squared: bool = False) -> float:
    """Correctly rounded sum of a 1-D float64 array, or of its squares.

    Equals ``math.fsum`` over the values; it feeds fsum ``FSUM_CHUNK``
    values at a time as Python floats.
    """
    chunks = (vals[i : i + FSUM_CHUNK] for i in range(0, len(vals), FSUM_CHUNK))
    if squared:
        chunks = (c * c for c in chunks)
    return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks))


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
    iq: np.ndarray, selection: Sequence[str], stats: NormStats
) -> np.ndarray:
    """Standardize and stack modalities for a (n, L) complex array.

    Returns a float64 tensor of shape (n, L, 2, M).
    """
    selection = _check_selection(selection)
    x = np.asarray(iq, dtype=np.complex128)
    channels = []
    for m in selection:
        mats = transform(x, m)
        denom = np.maximum(stats.stds[m], STD_FLOOR)
        channels.append((mats - stats.means[m]) / denom)
    return np.stack(channels, axis=-1)
