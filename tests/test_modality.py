import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedrf import config, experiment, modality

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def brute_force_dft(r):
    """Direct O(L^2) evaluation of the unnormalized DFT sum."""
    ell = len(r)
    p = np.arange(ell)
    w = np.exp(-2j * np.pi * np.outer(p, np.arange(ell)) / ell)
    return w @ r


def test_iq_examples():
    m = modality.transform(np.array([1 + 2j, 3 - 4j]), "iq")
    assert np.array_equal(m, [[1, 2], [3, -4]])
    z = modality.transform(np.zeros(8, dtype=complex), "iq")
    assert np.array_equal(z, np.zeros((8, 2)))


def test_iq_bijection():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    m = modality.transform(r, "iq")
    back = m[:, 0] + 1j * m[:, 1]
    assert np.array_equal(back, r)


def test_dft_examples():
    z = modality.transform(np.zeros(4, dtype=complex), "dft")
    assert np.array_equal(z, np.zeros((4, 2)))
    imp = modality.transform(np.array([1, 0, 0, 0], dtype=complex), "dft")
    assert np.allclose(imp[:, 0], 1.0, atol=1e-15)
    assert np.allclose(imp[:, 1], 0.0, atol=1e-15)
    tone = modality.transform(np.exp(2j * np.pi * np.arange(4) / 4), "dft")
    assert np.allclose(tone[:, 0], [0, 4, 0, 0], atol=1e-12)
    assert np.allclose(tone[:, 1], 0.0, atol=1e-12)


@pytest.mark.parametrize("ell", [4, 16, 256])
def test_dft_matches_brute_force(ell):
    rng = np.random.default_rng(ell)
    for _ in range(20):
        r = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        got = modality.transform(r, "dft")
        ref = brute_force_dft(r)
        err = np.max(np.abs((got[:, 0] + 1j * got[:, 1]) - ref))
        assert err / np.max(np.abs(ref)) <= 1e-9


def stacked_columns(r, mod):
    """The (..., L, 2) iq or dft columns built by stacking copies of the parts."""
    x = np.asarray(r, dtype=np.complex128)
    z = np.fft.fft(x, axis=-1) if mod == "dft" else x
    return np.stack([z.real, z.imag], axis=-1)


@pytest.mark.parametrize("ell", [16, 33])
@pytest.mark.parametrize("mod", ["iq", "dft"])
def test_iq_and_dft_columns_equal_the_stacked_parts_bitwise(mod, ell):
    rng = np.random.default_rng(ell)
    x = rng.standard_normal((6, ell)) + 1j * rng.standard_normal((6, ell))
    x[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, np.nan)]
    for r in (x, x.astype(np.complex64), x[3], x[::2], x[:, 1:]):
        got, ref = modality.transform(r, mod), stacked_columns(r, mod)
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
        assert got.tobytes() == ref.tobytes()
    # the iq columns of complex128 waveforms are a view of them, and fitting
    # normalization on them copies each column before it overwrites it
    assert np.shares_memory(modality.transform(x, "iq"), x)
    before = x.tobytes()
    modality.fit_normalization(x[1:], (mod,))
    assert x.tobytes() == before


def test_parseval():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    spec = modality.transform(r, "dft")
    lhs = np.sum(spec[:, 0] ** 2 + spec[:, 1] ** 2)
    rhs = 128 * np.sum(np.abs(r) ** 2)
    assert abs(lhs - rhs) / rhs <= 1e-9


def test_amp_phase_examples():
    m = modality.transform(np.array([1 + 0j, 1j, -1 - 1j]), "amp_phase")
    assert np.allclose(m[0], [1.0, 0.0])
    assert np.allclose(m[1], [1.0, np.pi / 2])
    assert np.allclose(m[2], [math.sqrt(2.0), -3 * np.pi / 4])


def test_phase_branch_and_zero():
    vals = modality.transform(
        np.array([-1 + 0j, complex(-1, -0.0), 0j, complex(-0.0, 0.0)]), "amp_phase"
    )
    assert vals[0, 1] == np.pi
    assert vals[1, 1] == np.pi  # -pi folded onto the half-open branch
    assert vals[2, 1] == 0.0
    assert vals[3, 1] == 0.0
    rng = np.random.default_rng(8)
    r = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    ph = modality.transform(r, "amp_phase")[:, 1]
    assert np.all(ph > -np.pi) and np.all(ph <= np.pi)


def test_amp_phase_reconstruction():
    rng = np.random.default_rng(9)
    r = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    m = modality.transform(r, "amp_phase")
    back = m[:, 0] * np.exp(1j * m[:, 1])
    assert np.max(np.abs(back - r)) <= 1e-12
    amp2 = m[:, 0] ** 2
    assert np.allclose(amp2, r.real**2 + r.imag**2, rtol=1e-14)


def test_fit_normalization_two_examples():
    wfs = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    stats = modality.fit_normalization(wfs, ("iq",))
    # hand-computed over {1,3,5,7} and {2,4,6,8}
    assert np.allclose(stats.means["iq"], [4.0, 5.0])
    assert np.allclose(stats.stds["iq"], [math.sqrt(5.0), math.sqrt(5.0)])


def test_fit_normalization_order_independent():
    rng = np.random.default_rng(4)
    wfs = rng.standard_normal((7, 16)) + 1j * rng.standard_normal((7, 16))
    a = modality.fit_normalization(wfs, modality.ALL_MODALITIES)
    b = modality.fit_normalization(wfs[::-1], modality.ALL_MODALITIES)
    for m in modality.ALL_MODALITIES:
        assert np.array_equal(a.means[m], b.means[m])
        assert np.array_equal(a.stds[m], b.stds[m])


def test_fit_normalization_needs_examples():
    with pytest.raises(ValueError):
        modality.fit_normalization(np.empty((0, 4), dtype=complex), ("iq",))
    with pytest.raises(ValueError):
        modality.fit_normalization(np.ones((1, 4), dtype=complex), ("iq",))


def test_constant_channel_std_floored():
    wfs = np.full((2, 8), 2 + 0j)
    stats = modality.fit_normalization(wfs, ("iq",))
    assert stats.stds["iq"][0] == 0.0
    out = modality.stack_batch(wfs, ("iq",), stats)
    assert np.array_equal(out, np.zeros_like(out))


def test_stack_identity_passthrough():
    rng = np.random.default_rng(5)
    r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    stats = modality.NormStats.identity(("iq",))
    out = modality.stack_batch(r[None], ("iq",), stats)[0]
    assert out.shape == (16, 2, 1)
    assert np.array_equal(out[:, :, 0], modality.transform(r, "iq"))


def test_stack_channel_order():
    rng = np.random.default_rng(6)
    r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    stats = modality.NormStats.identity(modality.ALL_MODALITIES)
    out = modality.stack_batch(r[None], modality.ALL_MODALITIES, stats)[0]
    assert out.shape == (8, 2, 3)
    assert np.array_equal(out[:, :, 0], modality.transform(r, "iq"))
    assert np.array_equal(out[:, :, 1], modality.transform(r, "dft"))
    assert np.array_equal(out[:, :, 2], modality.transform(r, "amp_phase"))
    # order follows the selection, not a fixed canonical order
    swapped = modality.stack_batch(r[None], ("dft", "iq"), stats)[0]
    assert np.array_equal(swapped[:, :, 0], modality.transform(r, "dft"))


def test_standardized_moments_on_fitting_set():
    rng = np.random.default_rng(7)
    wfs = np.array(
        [rng.standard_normal(32) + 1j * rng.standard_normal(32) for _ in range(40)]
    )
    stats = modality.fit_normalization(wfs, modality.ALL_MODALITIES)
    out = modality.stack_batch(wfs, modality.ALL_MODALITIES, stats)
    for ch in range(3):
        for col in range(2):
            vals = out[:, :, col, ch]
            assert abs(vals.mean()) <= 1e-9
            assert abs(vals.std() - 1.0) <= 1e-6


def test_stack_channels_independent():
    rng = np.random.default_rng(11)
    r = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    stats = modality.NormStats.identity(modality.ALL_MODALITIES)
    base = modality.stack_batch(r, modality.ALL_MODALITIES, stats)
    stats.means["dft"] = np.array([2.5, -1.0])
    stats.stds["dft"] = np.array([4.0, 0.5])
    out = modality.stack_batch(r, modality.ALL_MODALITIES, stats)
    assert np.array_equal(out[..., 0], base[..., 0])
    assert np.array_equal(out[..., 2], base[..., 2])
    moved = (base[..., 1] - stats.means["dft"]) / stats.stds["dft"]
    assert np.array_equal(out[..., 1], moved)
    assert not np.array_equal(out[..., 1], base[..., 1])


def test_selection_validation():
    with pytest.raises(ValueError):
        modality.stack_batch(np.ones((1, 4), dtype=complex), (), modality.NormStats.identity(()))
    with pytest.raises(ValueError):
        modality.stack_batch(
            np.ones((1, 4), dtype=complex), ("bogus",), modality.NormStats.identity(("iq",))
        )


def _exact_sum(vals):
    """The correctly rounded sum that fit_normalization takes of each column."""
    return modality.exact_total(vals) / 2**1126


def _assert_oracle(vals):
    """exact_total is the rational sum of ``vals`` in units of 2**-1126."""
    vals = np.asarray(vals, dtype=np.float64)
    total = modality.exact_total(vals)
    assert type(total) is int
    # each float64 is p / 2**j with j <= 1074, so p * 2**(1126 - j) is exact
    ratios = map(float.as_integer_ratio, vals.tolist())
    assert total == sum(p << (1127 - q.bit_length()) for p, q in ratios)
    if len(vals) <= 4096:  # Fraction sums are slow on long arrays
        assert total == int(sum(map(Fraction, vals.tolist())) * 2**1126)


@pytest.mark.parametrize("squared", [False, True])
def test_exact_sum_matches_fsum_on_adversarial_arrays(squared):
    rng = np.random.default_rng(8)
    chunk = 4096
    # squares of the widest values would overflow, so they span half the exponents
    top = 150 if squared else 300
    wide = rng.choice([-1.0, 1.0], 2 * chunk + 17) * 10.0 ** rng.uniform(-top, top, 2 * chunk + 17)
    cancel = np.array([1e16, 1.0, -1e16, 1e-16, 3.0, -3.0] * 1000)
    cancel[[5, 2999, chunk]] = [1e100, -1e100, 2.0 ** -60]
    for vals in (wide, cancel, wide[:chunk], wide[: chunk + 1], wide[:1], wide[:0]):
        ref = math.fsum(v * v for v in vals) if squared else math.fsum(vals)
        summed = vals * vals if squared else vals
        assert _exact_sum(summed) == ref
        _assert_oracle(summed)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    vals=arrays(np.float64, st.integers(0, 300), elements=st.floats(-1e300, 1e300)),
    cuts=st.lists(st.integers(0, 300), max_size=6),
)
def test_exact_totals_add_across_splits(vals, cuts):
    # squares of values up to 1e150 stay finite
    for whole in (vals, vals[np.abs(vals) < 1e150] ** 2):
        parts = np.split(whole, sorted(c for c in cuts if c <= len(whole)))
        totals = [modality.exact_total(p) for p in parts]
        assert all(type(t) is int for t in totals)
        assert sum(totals) == modality.exact_total(whole)
        assert sum(totals) / 2**1126 == math.fsum(whole.tolist())
        _assert_oracle(whole)


@pytest.mark.parametrize(
    "vals",
    [
        [5e-324],
        [-5e-324],
        [2.0**-1074] * 1000,
        [-(2.0**-1074)] * 3 + [2.0**-1022 - 2.0**-1074] * 5,
        [1.7976931348623157e308],
        [-1.7976931348623157e308],
        [1.7976931348623157e308, -1.7976931348623157e308, 5e-324],
        [1.7976931348623157e308, 5e-324, -5e-324, 2.0**-1022],
        [0.0],
        [-0.0],
        [0.0, -0.0, 0.0],
        np.zeros(4097),
        [-(2.0**-600)],
    ],
)
def test_exact_total_equals_rational_sum_at_the_extremes(vals):
    _assert_oracle(vals)


@pytest.mark.parametrize("k", [1, 5, 12, 16])
def test_exact_total_equals_rational_sum_where_the_piece_width_changes(k):
    rng = np.random.default_rng(k)
    for n in (2**k - 1, 2**k, 2**k + 1):
        # full 53-bit mantissas over many exponents, a dense run near the
        # maximum width (every piece carries bits), and sign mixtures
        wide = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-60, 60, n)
        top = np.nextafter(2.0 ** rng.integers(-3, 4, n), 0.0)
        for vals in (wide, top, -top, np.abs(wide), wide * 2.0**-1000, wide * 2.0**900):
            _assert_oracle(vals)


def test_exact_total_not_finite_falls_back_to_fsum():
    # no sum is taken of a value that is not finite: the fit refuses it, for
    # each modality alone and among the others
    iq = np.random.default_rng(2).standard_normal((6, 8)) + 0j
    for bad in (complex(np.inf, 0.0), complex(0.0, np.nan)):
        iq[3, 2] = bad
        for sel in [(m,) for m in modality.ALL_MODALITIES] + [modality.ALL_MODALITIES[::-1]]:
            with pytest.raises(ValueError, match=f"cannot fit {sel[0]} statistics"):
                modality.fit_normalization(iq, sel)
    # a finite total beyond float64 raises as math.fsum does
    with pytest.raises(OverflowError):
        math.fsum([1.7e308, 1.7e308])
    with pytest.raises(OverflowError):
        _exact_sum(np.array([1.7e308, 1.7e308]))


def _bincount_total(vals):
    """A second exact total in units of 2**-1126: frexp splits each value into
    a 53-bit integer mantissa, cut into halves below 2**27 that np.bincount
    sums per exponent, exactly in float64 below 2**26 values."""
    assert len(vals) < 2**26
    mant, exp = np.frexp(vals)
    mant = np.ldexp(mant, 53)
    hi = np.trunc(mant * 2.0**-26)
    lo = mant - hi * 2.0**26
    exp += 1073  # the exponent of the smallest subnormal goes to bin 0
    his = np.bincount(exp, weights=hi)
    los = np.bincount(exp, weights=lo)
    nonzero = np.flatnonzero((his != 0) | (los != 0)).tolist()
    return sum((int(his[e]) << (26 + e)) + (int(los[e]) << e) for e in nonzero)


@pytest.mark.parametrize(("name", "seeds"), [("desk_noniid.json", [1, 2, 3, 4, 5]),
                                             ("desk_iid.json", [1])])
def test_fit_totals_equal_bincount_reference_on_desk_shards(name, seeds):
    cfg = config.parse_config(CONFIG_DIR / name)
    ds = experiment.load_dataset(cfg)
    for seed in seeds:
        run = experiment.prepare(cfg, ds, seed)
        for ix, stats in zip(run.partition.indices, run.partition.stats):
            for m in cfg.training.modalities:
                mats = modality.transform(run.split.train_iq[ix], m)
                cols = (mats[:, :, col].ravel() for col in range(2))
                ref = tuple((_bincount_total(c), _bincount_total(c * c)) for c in cols)
                assert stats.totals[m] == ref


@pytest.mark.parametrize("ell", [4, 33, 256])
@pytest.mark.parametrize("mod", modality.ALL_MODALITIES)
def test_batch_transform_rows_equal_single_waveform(mod, ell):
    rng = np.random.default_rng(ell)
    r = rng.standard_normal((5, ell)) + 1j * rng.standard_normal((5, ell))
    r[0, :2] = [0j, complex(-1, -0.0)]  # the pinned phase cases
    batch = modality.transform(r, mod)
    stacked = modality.stack_batch(r, (mod,), modality.NormStats.identity((mod,)))
    assert batch.shape == (5, ell, 2)
    for i in range(len(r)):
        row = modality.transform(r[i], mod)
        assert np.array_equal(batch[i], row)
        assert np.array_equal(stacked[i, :, :, 0], row)


# hashes of the iq and dft columns of a small generated dataset and of their
# fit totals, and the SIMD groups that NumPy dispatches to and this CPU has,
# lowest first, as CI detects them
_DISPATCH_CHILD = """
import hashlib, json
from numpy._core import _multiarray_umath as u
from fedrf import datafile, modality
from fedrf.config import DatasetConfig
ds = datafile.generate_dataset(DatasetConfig(4, 6, 33, 10.0, 5))
stats = modality.fit_normalization(ds.iq, ("iq", "dft"))
out = {"groups": [g for g in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
                  if g in u.__cpu_dispatch__ and u.__cpu_features__.get(g)]}
for m in ("iq", "dft"):
    out[m] = hashlib.sha256(modality.transform(ds.iq, m).tobytes()).hexdigest()
    out[m + " totals"] = hashlib.sha256(repr(stats.totals[m]).encode()).hexdigest()
print(json.dumps(out))
"""


def _dispatch_child(disabled):
    env = dict(os.environ, PYTHONPATH=str(Path(modality.__file__).resolve().parents[1]),
               NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD], capture_output=True,
                          text=True, check=True, env=env, timeout=120)
    return json.loads(proc.stdout)


def test_iq_and_dft_columns_and_totals_do_not_depend_on_simd_dispatch():
    """One child process with NumPy's defaults, and one with each group and
    every group above it switched off; amp_phase is left out, as its bits do
    depend on the dispatch."""
    default = _dispatch_child(())
    groups = default.pop("groups")
    runs = [default] + [_dispatch_child(groups[i:]) for i in range(len(groups))]
    for quantity in default:
        assert len({run[quantity] for run in runs}) == 1, quantity
