"""Synthetic fingerprinted baseband waveforms.

Each transmitter is characterized by a small set of hardware impairments
(IQ imbalance, DC offset, cubic PA nonlinearity, carrier frequency offset,
oscillator phase noise). A waveform is produced by passing random unit-power
QPSK symbols through the transmitter's impairment chain and then through an
AWGN channel at a requested SNR.

All generation is float64 and fully deterministic given the seeds. Each
record draws from its own stream, ``PCG64(SeedSequence((seed, tx, rec)))``.
``record_draws`` seeds a transmitter's streams in one pass: NumPy's
``SeedSequence`` hash runs vectorized over the record indices, and one
reused bit generator is set to each record's state in turn. The symbol
decode equals ``Generator.integers(0, 4)``, so the bits are those of one
``default_rng`` per record; the pinned dataset digests and the tests
against that per-record reference hold the code to them.
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

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, NEP 19), pool size 4
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _uint32_words(n: int) -> list:
    """``n``'s 32-bit words, least significant first, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_consts(init: int, mult: int):
    """Successive (xor, multiply) constants of SeedSequence's hash steps."""
    while True:
        nxt = init * mult & 0xFFFFFFFF
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _stream_seeds(master_seed: int, transmitter_id: int, count: int) -> np.ndarray:
    """``SeedSequence((master_seed, transmitter_id, rec)).generate_state(4, np.uint64)``
    for every ``rec < count``, shape ``(count, 4)``.

    The hash runs on uint32 arrays with one element per record: ``mix_entropy``
    (post-pool mixing for entropy beyond 4 words), then ``generate_state``.
    """
    prefix = _uint32_words(master_seed) + _uint32_words(transmitter_id)
    entropy = [np.full(count, w, dtype=np.uint32) for w in prefix]
    entropy.append(np.arange(count, dtype=np.uint32))
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    return np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _pcg64_state(seed_words) -> dict:
    """The ``PCG64.state`` seeded from four ``generate_state`` words, as ``pcg64_set_seed`` sets it."""
    s0, s1, i0, i1 = (int(w) for w in seed_words)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def record_draws(master_seed: int, transmitter_id: int, count: int, length: int):
    """QPSK symbols and standard normals for one transmitter's first ``count`` records.

    Record ``rec`` draws from ``PCG64(SeedSequence((master_seed,
    transmitter_id, rec)))``: ``length`` symbol indices, as
    ``Generator.integers(0, 4)`` draws them, then one ``(3, length)`` block of
    standard normals whose rows are the phase-noise steps and the real and
    imaginary channel noise. The records' seeds are hashed in one pass and
    one bit generator is set to each record's state in turn. Returns the
    unit-power symbols, shape ``(count, length)``, and the normals, shape
    ``(3, count, length)``.
    """
    half = (length + 1) // 2
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    raw = np.empty((count, half), dtype=np.uint64)
    normals = np.empty((count, 3, length))
    for rec, words in enumerate(_stream_seeds(master_seed, transmitter_id, count).tolist()):
        bit_gen.state = _pcg64_state(words)
        raw[rec] = bit_gen.random_raw(half)
        gen.standard_normal(out=normals[rec])
    # integers(0, 4) is Lemire's method on next_uint32, which never rejects at
    # range 4: the top two bits of each 32-bit half, the low half first
    indices = np.empty((count, 2 * half), dtype=np.intp)
    indices[:, 0::2] = (raw >> 30) & 3
    indices[:, 1::2] = raw >> 62
    return _QPSK_POINTS[indices[:, :length]], normals.transpose(1, 0, 2)


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
    x = x + profile.pa_cubic_coeff * (x.real * x.real + x.imag * x.imag) * x
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
    signal_power = np.mean(x.real * x.real + x.imag * x.imag, axis=-1, keepdims=True)
    if np.any(signal_power == 0.0):
        raise ValueError("zero-power signal: SNR scaling undefined for finite snr_db")
    s = np.sqrt(signal_power / ratio / 2.0)
    return x + ((0.0 + s * noise[0]) + 1j * (0.0 + s * noise[1]))
