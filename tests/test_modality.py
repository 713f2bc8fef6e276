import math

import numpy as np
import pytest

from fedrf import modality


def brute_force_dft(r):
    """Direct O(L^2) evaluation of the unnormalized DFT sum."""
    ell = len(r)
    p = np.arange(ell)
    w = np.exp(-2j * np.pi * np.outer(p, np.arange(ell)) / ell)
    return w @ r


def test_to_iq_examples():
    m = modality.to_iq(np.array([1 + 2j, 3 - 4j]))
    assert np.array_equal(m.values, [[1, 2], [3, -4]])
    z = modality.to_iq(np.zeros(8, dtype=complex))
    assert np.array_equal(z.values, np.zeros((8, 2)))


def test_to_iq_bijection():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    m = modality.to_iq(r)
    back = m.values[:, 0] + 1j * m.values[:, 1]
    assert np.array_equal(back, r)


def test_to_dft_examples():
    z = modality.to_dft(np.zeros(4, dtype=complex))
    assert np.array_equal(z.values, np.zeros((4, 2)))
    imp = modality.to_dft(np.array([1, 0, 0, 0], dtype=complex))
    assert np.allclose(imp.values[:, 0], 1.0, atol=1e-15)
    assert np.allclose(imp.values[:, 1], 0.0, atol=1e-15)
    tone = modality.to_dft(np.exp(2j * np.pi * np.arange(4) / 4))
    assert np.allclose(tone.values[:, 0], [0, 4, 0, 0], atol=1e-12)
    assert np.allclose(tone.values[:, 1], 0.0, atol=1e-12)


@pytest.mark.parametrize("ell", [4, 16, 256])
def test_dft_matches_brute_force(ell):
    rng = np.random.default_rng(ell)
    for _ in range(20):
        r = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        got = modality.to_dft(r).values
        ref = brute_force_dft(r)
        err = np.max(np.abs((got[:, 0] + 1j * got[:, 1]) - ref))
        assert err / np.max(np.abs(ref)) <= 1e-9


def test_parseval():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    spec = modality.to_dft(r).values
    lhs = np.sum(spec[:, 0] ** 2 + spec[:, 1] ** 2)
    rhs = 128 * np.sum(np.abs(r) ** 2)
    assert abs(lhs - rhs) / rhs <= 1e-9


def test_amp_phase_examples():
    m = modality.to_amp_phase(np.array([1 + 0j, 1j, -1 - 1j]))
    assert np.allclose(m.values[0], [1.0, 0.0])
    assert np.allclose(m.values[1], [1.0, np.pi / 2])
    assert np.allclose(m.values[2], [math.sqrt(2.0), -3 * np.pi / 4])


def test_phase_branch_and_zero():
    vals = modality.to_amp_phase(
        np.array([-1 + 0j, complex(-1, -0.0), 0j, complex(-0.0, 0.0)])
    ).values
    assert vals[0, 1] == np.pi
    assert vals[1, 1] == np.pi  # -pi folded onto the half-open branch
    assert vals[2, 1] == 0.0
    assert vals[3, 1] == 0.0
    rng = np.random.default_rng(8)
    r = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    ph = modality.to_amp_phase(r).values[:, 1]
    assert np.all(ph > -np.pi) and np.all(ph <= np.pi)


def test_amp_phase_reconstruction():
    rng = np.random.default_rng(9)
    r = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    m = modality.to_amp_phase(r).values
    back = m[:, 0] * np.exp(1j * m[:, 1])
    assert np.max(np.abs(back - r)) <= 1e-12
    amp2 = m[:, 0] ** 2
    assert np.allclose(amp2, r.real**2 + r.imag**2, rtol=1e-14)


def test_fit_normalization_two_examples():
    w1 = np.array([1 + 2j, 3 + 4j])
    w2 = np.array([5 + 6j, 7 + 8j])
    stats = modality.fit_normalization([w1, w2], ("iq",))
    # hand-computed over {1,3,5,7} and {2,4,6,8}
    assert np.allclose(stats.means["iq"], [4.0, 5.0])
    assert np.allclose(stats.stds["iq"], [math.sqrt(5.0), math.sqrt(5.0)])


def test_fit_normalization_order_independent():
    rng = np.random.default_rng(4)
    wfs = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(7)]
    a = modality.fit_normalization(wfs, modality.ALL_MODALITIES)
    b = modality.fit_normalization(wfs[::-1], modality.ALL_MODALITIES)
    for m in modality.ALL_MODALITIES:
        assert np.array_equal(a.means[m], b.means[m])
        assert np.array_equal(a.stds[m], b.stds[m])


def test_fit_normalization_needs_examples():
    with pytest.raises(ValueError):
        modality.fit_normalization([], ("iq",))
    with pytest.raises(ValueError):
        modality.fit_normalization([np.ones(4, dtype=complex)], ("iq",))


def test_constant_channel_std_floored():
    wfs = [np.full(8, 2 + 0j), np.full(8, 2 + 0j)]
    stats = modality.fit_normalization(wfs, ("iq",))
    assert stats.stds["iq"][0] == 0.0
    out = modality.stack_batch(np.stack(wfs), ("iq",), stats)
    assert np.array_equal(out, np.zeros_like(out))


def test_stack_identity_passthrough():
    rng = np.random.default_rng(5)
    r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    stats = modality.NormStats.identity(("iq",))
    mi = modality.stack_modalities(r, ("iq",), stats)
    assert mi.tensor.shape == (16, 2, 1)
    assert np.array_equal(mi.tensor[:, :, 0], modality.to_iq(r).values)


def test_stack_channel_order():
    rng = np.random.default_rng(6)
    r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    stats = modality.NormStats.identity(modality.ALL_MODALITIES)
    mi = modality.stack_modalities(r, modality.ALL_MODALITIES, stats)
    assert mi.tensor.shape == (8, 2, 3)
    assert np.array_equal(mi.tensor[:, :, 0], modality.to_iq(r).values)
    assert np.array_equal(mi.tensor[:, :, 1], modality.to_dft(r).values)
    assert np.array_equal(mi.tensor[:, :, 2], modality.to_amp_phase(r).values)
    # order follows the selection, not a fixed canonical order
    swapped = modality.stack_modalities(r, ("dft", "iq"), stats)
    assert np.array_equal(swapped.tensor[:, :, 0], modality.to_dft(r).values)


def test_standardized_moments_on_fitting_set():
    rng = np.random.default_rng(7)
    wfs = np.array(
        [rng.standard_normal(32) + 1j * rng.standard_normal(32) for _ in range(40)]
    )
    stats = modality.fit_normalization(list(wfs), modality.ALL_MODALITIES)
    out = modality.stack_batch(wfs, modality.ALL_MODALITIES, stats)
    for ch in range(3):
        for col in range(2):
            vals = out[:, :, col, ch]
            assert abs(vals.mean()) <= 1e-9
            assert abs(vals.std() - 1.0) <= 1e-6


def test_stack_channels_independent():
    rng = np.random.default_rng(11)
    r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    stats = modality.NormStats.identity(modality.ALL_MODALITIES)
    mats = [modality.transform(r, m) for m in modality.ALL_MODALITIES]
    base = modality.stack_from_matrices(mats, modality.ALL_MODALITIES, stats)
    zeroed = [modality.RealMatrix(m.values.copy(), m.columns) for m in mats]
    zeroed[1].values[:] = 0.0
    out = modality.stack_from_matrices(zeroed, modality.ALL_MODALITIES, stats)
    assert np.array_equal(out.tensor[:, :, 0], base.tensor[:, :, 0])
    assert np.array_equal(out.tensor[:, :, 2], base.tensor[:, :, 2])
    assert np.all(out.tensor[:, :, 1] == 0.0)


def test_selection_validation():
    with pytest.raises(ValueError):
        modality.stack_modalities(np.ones(4, dtype=complex), (), modality.NormStats.identity(()))
    with pytest.raises(ValueError):
        modality.stack_modalities(
            np.ones(4, dtype=complex), ("bogus",), modality.NormStats.identity(("iq",))
        )


@pytest.mark.parametrize("squared", [False, True])
def test_exact_sum_matches_fsum_on_adversarial_arrays(squared):
    rng = np.random.default_rng(8)
    chunk = modality.FSUM_CHUNK
    # squares of the widest values would overflow, so they span half the exponents
    top = 150 if squared else 300
    wide = rng.choice([-1.0, 1.0], 2 * chunk + 17) * 10.0 ** rng.uniform(-top, top, 2 * chunk + 17)
    cancel = np.array([1e16, 1.0, -1e16, 1e-16, 3.0, -3.0] * 1000)
    cancel[[5, 2999, chunk]] = [1e100, -1e100, 2.0 ** -60]
    for vals in (wide, cancel, wide[:chunk], wide[: chunk + 1], wide[:1], wide[:0]):
        ref = math.fsum(v * v for v in vals) if squared else math.fsum(vals)
        assert modality.exact_sum(vals, squared=squared) == ref
