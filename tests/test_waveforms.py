import dataclasses
import math

import numpy as np
import pytest

from fedrf import waveforms

QPSK_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)


def record_stream(master_seed, transmitter_id, record_index):
    """The reference stream of one dataset record, built the plain way."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, transmitter_id, record_index))
    )


def test_profile_deterministic():
    a = waveforms.synth_transmitter_profile(7, 3)
    b = waveforms.synth_transmitter_profile(7, 3)
    assert a == b


def impairments(profile):
    """Every field of a profile except its id."""
    return dataclasses.astuple(profile)[1:]


def ideal_profile():
    """A profile whose impairment chain is the exact identity map."""
    return waveforms.TransmitterProfile(0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_profiles_differ_across_ids():
    a = waveforms.synth_transmitter_profile(7, 3)
    b = waveforms.synth_transmitter_profile(7, 4)
    assert impairments(a) != impairments(b)


def test_163_distinct_profiles():
    profiles = [waveforms.synth_transmitter_profile(7, k) for k in range(163)]
    assert len({impairments(p) for p in profiles}) == 163


def test_profile_fields_within_ranges():
    for k in range(50):
        p = waveforms.synth_transmitter_profile(123, k)
        assert waveforms.GAIN_IMBALANCE_RANGE[0] <= p.iq_gain_imbalance <= waveforms.GAIN_IMBALANCE_RANGE[1]
        assert abs(p.iq_phase_imbalance) <= math.radians(5.0)
        assert abs(p.dc_offset_i) <= 0.05 and abs(p.dc_offset_q) <= 0.05
        assert abs(p.cfo_norm) <= 0.01
        assert 0.0 <= p.phase_noise_std <= 0.01
        assert abs(p.pa_cubic_coeff) <= 0.05


def test_negative_id_rejected():
    with pytest.raises(ValueError):
        waveforms.synth_transmitter_profile(7, -1)


def test_identity_profile_is_identity():
    syms, normals = waveforms.record_draws(0, 0, 4, 64)
    out = waveforms.apply_fingerprint(ideal_profile(), syms, normals[0])
    assert np.array_equal(out, syms)


def test_dc_offset_on_zero_input():
    profile = dataclasses.replace(ideal_profile(), dc_offset_i=0.5)
    out = waveforms.apply_fingerprint(profile, np.zeros((2, 8), dtype=complex),
                                      np.random.default_rng(0).standard_normal((2, 8)))
    assert np.array_equal(out, np.full((2, 8), 0.5 + 0j))


def test_distinct_profiles_distinct_outputs():
    a = waveforms.synth_transmitter_profile(7, 0)
    b = waveforms.synth_transmitter_profile(7, 1)
    a = dataclasses.replace(a, phase_noise_std=0.0)
    b = dataclasses.replace(b, phase_noise_std=0.0)
    syms, normals = waveforms.record_draws(5, 0, 3, 32)
    out_a = waveforms.apply_fingerprint(a, syms, normals[0])
    out_b = waveforms.apply_fingerprint(b, syms, normals[0])
    assert np.all(np.any(out_a != out_b, axis=1))


def test_fingerprint_rejects_nonfinite():
    with pytest.raises(ValueError):
        waveforms.apply_fingerprint(
            ideal_profile(),
            np.array([[1.0, 1.0], [1.0, np.nan]], dtype=complex),
            np.zeros((2, 2)),
        )


def test_qpsk_unit_power():
    syms, _ = waveforms.record_draws(1, 0, 64, 64)
    assert np.allclose(np.abs(syms), 1.0)
    assert len(np.unique(np.round(syms, 12))) == 4


def test_awgn_infinite_snr_is_identity():
    x, normals = waveforms.record_draws(2, 0, 4, 32)
    out = waveforms.add_awgn(x, float("inf"), normals[1:])
    assert np.array_equal(out, x)


def test_awgn_empirical_snr():
    x, _ = waveforms.record_draws(10, 0, 16, 4096)
    normals = np.random.default_rng(11).standard_normal((2,) + x.shape)
    noisy = waveforms.add_awgn(x, 10.0, normals)
    noise = noisy - x
    snr = np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2)
    snr_db = 10 * np.log10(snr)
    assert abs(snr_db - 10.0) <= 0.3


def test_awgn_sets_each_row_to_its_own_power():
    """A row at 100x the power gets 100x the noise power."""
    x, normals = waveforms.record_draws(4, 0, 1, 64)
    x = np.concatenate([x, 10.0 * x])
    noise = waveforms.add_awgn(x, 5.0, np.repeat(normals[1:], 2, axis=1)) - x
    assert np.allclose(noise[1], 10.0 * noise[0], rtol=1e-12, atol=0)


def test_awgn_deterministic():
    x, normals = waveforms.record_draws(4, 0, 4, 64)
    a = waveforms.add_awgn(x, 5.0, normals[1:])
    b = waveforms.add_awgn(x, 5.0, normals[1:].copy())
    assert np.array_equal(a, b)


def test_awgn_zero_power_error():
    x = np.ones((3, 16), dtype=complex)
    x[1] = 0.0
    with pytest.raises(ValueError, match="zero-power"):
        waveforms.add_awgn(x, 10.0, np.zeros((2, 3, 16)))


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 4000.0, -4000.0])
def test_snr_ratio_rejects_unusable_values(snr_db):
    with pytest.raises(ValueError, match="snr_db must be Infinity"):
        waveforms.snr_ratio(snr_db)


def test_snr_ratio_values():
    assert waveforms.snr_ratio(math.inf) == math.inf
    assert waveforms.snr_ratio(10.0) == 10.0
    assert waveforms.snr_ratio(-30.0) == 10.0 ** -3.0


@pytest.mark.parametrize("shape", [(5, 33), (3, 2, 16)])
@pytest.mark.parametrize("snr_db", [0.0, 10.0, math.inf])
def test_batched_calls_match_row_calls_bitwise(shape, snr_db):
    """Every row of a batched call equals the call on that row alone."""
    rng = np.random.default_rng(17)
    profile = waveforms.synth_transmitter_profile(3, 1)
    syms = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    normals = rng.standard_normal((3,) + shape)
    batch = waveforms.add_awgn(
        waveforms.apply_fingerprint(profile, syms, normals[0]), snr_db, normals[1:]
    )
    for idx in np.ndindex(shape[:-1]):
        row = waveforms.apply_fingerprint(profile, syms[idx], normals[0][idx])
        row = waveforms.add_awgn(row, snr_db, normals[1:][(slice(None),) + idx])
        assert row.tobytes() == batch[idx].tobytes()


def assert_draws_follow_record_streams(seed, tx, count, length):
    """Record r draws its symbol indices, then one (3, L) normal block, from its own stream.

    Compared byte for byte against one ``default_rng`` per record.
    """
    syms, normals = waveforms.record_draws(seed, tx, count, length)
    assert syms.shape == (count, length) and normals.shape == (3, count, length)
    for rec in range(count):
        rng = record_stream(seed, tx, rec)
        assert syms[rec].tobytes() == QPSK_POINTS[rng.integers(0, 4, size=length)].tobytes()
        assert normals[:, rec].tobytes() == rng.standard_normal((3, length)).tobytes()


def test_record_draws_follow_each_record_stream():
    assert_draws_follow_record_streams(9, 2, 4, 16)


# seeds of 1, 1, 2, 2, 3 and 4 words: with tx and rec, 3 to 6 words of
# entropy, so the last two reach SeedSequence's post-pool mixing
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tx", [0, 65535])
def test_stream_seeds_match_seed_sequence(seed, tx):
    """The vectorized hash gives SeedSequence's words, and the state PCG64 seeds from them."""
    words = waveforms._stream_seeds(seed, tx, 300)
    assert words.shape == (300, 4) and words.dtype == np.uint64
    bit_gen = np.random.PCG64(1)
    for rec in (0, 1, 2, 255, 256, 299):
        key = (seed, tx, rec)
        assert np.array_equal(words[rec], np.random.SeedSequence(key).generate_state(4, np.uint64))
        bit_gen.state = waveforms._pcg64_state(words[rec])
        assert bit_gen.state == np.random.PCG64(np.random.SeedSequence(key)).state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("length", [1, 2, 3, 17, 64])
def test_record_draws_match_per_record_reference_bytes(seed, count, length):
    """An odd length leaves the high half of the last 64-bit output unused."""
    assert_draws_follow_record_streams(seed, 65535, count, length)


@pytest.mark.parametrize("seed, tx", [(-1, 0), (0, -1)])
def test_record_draws_rejects_negative_keys(seed, tx):
    with pytest.raises(ValueError, match="non-negative"):
        waveforms.record_draws(seed, tx, 2, 4)
