"""Synthetic fingerprinted baseband waveforms.

Each transmitter is characterized by a small set of hardware impairments
(IQ imbalance, DC offset, cubic PA nonlinearity, carrier frequency offset,
oscillator phase noise). A waveform is produced by passing random unit-power
QPSK symbols through the transmitter's impairment chain and then through an
AWGN channel at a requested SNR.

All generation is float64 and fully deterministic given the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Uniform draw ranges for the impairment parameters. Chosen so that classes
# stay separable at 10 dB SNR while individual impairments remain subtle.
GAIN_IMBALANCE_RANGE = (0.9, 1.1)
PHASE_IMBALANCE_RANGE = (-math.radians(5.0), math.radians(5.0))
DC_OFFSET_RANGE = (-0.05, 0.05)
CFO_RANGE = (-0.01, 0.01)  # cycles per sample
PHASE_NOISE_STD_RANGE = (0.0, 0.01)  # radians per sample step
PA_CUBIC_RANGE = (-0.05, 0.05)

_QPSK_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)


@dataclass(frozen=True)
class TransmitterProfile:
    """Hardware impairment parameters fingerprinting one transmitter.

    ``iq_gain_imbalance`` is the Q-branch gain relative to the I branch and
    ``iq_phase_imbalance`` the Q-branch phase skew in radians; both are 1/0
    for an ideal transmitter. ``cfo_norm`` is the carrier frequency offset in
    cycles per sample. ``phase_noise_std`` is the per-step standard deviation
    of the oscillator phase random walk.
    """

    transmitter_id: int
    iq_gain_imbalance: float
    iq_phase_imbalance: float
    dc_offset_i: float
    dc_offset_q: float
    cfo_norm: float
    phase_noise_std: float
    pa_cubic_coeff: float


def record_stream(master_seed: int, transmitter_id: int, record_index: int) -> np.random.Generator:
    """Independent RNG stream for one dataset record.

    Derived from (seed, transmitter, record) so per-record generation is
    schedule-independent and can run in any order.
    """
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, transmitter_id, record_index))
    )


def synth_transmitter_profile(master_seed: int, transmitter_id: int) -> TransmitterProfile:
    """Draw a transmitter's impairment parameters.

    Deterministic function of (master_seed, transmitter_id); distinct ids
    yield distinct parameter tuples with probability one.
    """
    if transmitter_id < 0:
        raise ValueError("transmitter_id must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, transmitter_id)))
    return TransmitterProfile(
        transmitter_id=transmitter_id,
        iq_gain_imbalance=rng.uniform(*GAIN_IMBALANCE_RANGE),
        iq_phase_imbalance=rng.uniform(*PHASE_IMBALANCE_RANGE),
        dc_offset_i=rng.uniform(*DC_OFFSET_RANGE),
        dc_offset_q=rng.uniform(*DC_OFFSET_RANGE),
        cfo_norm=rng.uniform(*CFO_RANGE),
        phase_noise_std=rng.uniform(*PHASE_NOISE_STD_RANGE),
        pa_cubic_coeff=rng.uniform(*PA_CUBIC_RANGE),
    )


def record_draws(master_seed: int, transmitter_id: int, count: int, length: int):
    """QPSK symbols and standard normals for one transmitter's first ``count`` records.

    Each record draws from its own ``record_stream``: ``length`` symbol
    indices, then one ``(3, length)`` block of standard normals whose rows
    are the phase-noise steps and the real and imaginary channel noise.
    Returns the unit-power symbols, shape ``(count, length)``, and the
    normals, shape ``(3, count, length)``.
    """
    if length < 2:
        raise ValueError("waveform length must be >= 2")
    indices = np.empty((count, length), dtype=np.int64)
    normals = np.empty((3, count, length))
    for rec in range(count):
        rng = record_stream(master_seed, transmitter_id, rec)
        indices[rec] = rng.integers(0, 4, size=length)
        normals[:, rec] = rng.standard_normal((3, length))
    return _QPSK_POINTS[indices], normals


def apply_fingerprint(
    profile: TransmitterProfile, symbols: np.ndarray, phase_steps: np.ndarray
) -> np.ndarray:
    """Pass symbols through the transmitter impairment chain.

    ``symbols`` has any leading shape with samples along the last axis;
    ``phase_steps`` holds one standard normal per sample. Stages, in order:
    IQ imbalance, DC offset, cubic PA nonlinearity, CFO rotation
    exp(j*2*pi*cfo_norm*k), cumulative phase-noise random walk whose steps
    are ``phase_noise_std * phase_steps``. An ideal profile (unit gain, all
    other impairments zero) reproduces the input exactly.
    """
    x = np.asarray(symbols, dtype=np.complex128)
    if not np.all(np.isfinite(x)):
        raise ValueError("input symbols must be finite")
    n = x.shape[-1]

    i = x.real
    q = profile.iq_gain_imbalance * (
        x.imag * math.cos(profile.iq_phase_imbalance)
        + x.real * math.sin(profile.iq_phase_imbalance)
    )
    x = i + 1j * q
    x = x + (profile.dc_offset_i + 1j * profile.dc_offset_q)
    x = x + profile.pa_cubic_coeff * (np.abs(x) ** 2) * x
    x = x * np.exp(2j * np.pi * profile.cfo_norm * np.arange(n))
    # 0.0 + s*z is Generator.normal(0.0, s)'s arithmetic: it turns -0.0 steps into 0.0
    walk = np.cumsum(0.0 + profile.phase_noise_std * phase_steps, axis=-1)
    x = x * np.exp(1j * walk)
    return x


def snr_ratio(snr_db: float) -> float:
    """The linear power ratio 10^(snr_db/10); ``inf`` for ``snr_db = inf``.

    Any other ``snr_db`` whose ratio is not a positive finite float (NaN,
    -inf, or so large or small that the power overflows or underflows)
    raises ValueError.
    """
    if snr_db == math.inf:
        return math.inf
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"snr_db must be Infinity or give a positive finite 10**(snr_db/10), got {snr_db}"
        )
    return ratio


def add_awgn(waveform: np.ndarray, snr_db: float, noise: np.ndarray) -> np.ndarray:
    """Add complex white Gaussian noise at the requested SNR.

    ``waveform`` has any leading shape with samples along the last axis, and
    ``noise`` holds standard normals of shape ``(2,) + waveform.shape``: the
    real and the imaginary parts. Each row's noise power is set so its
    signal_power / noise_power = 10^(snr_db/10), with the real and imaginary
    components carrying half the noise variance each. ``snr_db = inf``
    returns the input unchanged.
    """
    x = np.asarray(waveform, dtype=np.complex128)
    ratio = snr_ratio(snr_db)
    if ratio == math.inf:
        return x.copy()
    signal_power = np.mean(np.abs(x) ** 2, axis=-1, keepdims=True)
    if np.any(signal_power == 0.0):
        raise ValueError("zero-power signal: SNR scaling undefined for finite snr_db")
    s = np.sqrt(signal_power / ratio / 2.0)
    return x + ((0.0 + s * noise[0]) + 1j * (0.0 + s * noise[1]))
