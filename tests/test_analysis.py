import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedrf import analysis, cli, datafile, experiment, federation, modality, models
from fedrf.config import AnalysisConfig, DatasetConfig
from conftest import ap_batches

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# gradient decomposition

def test_corrected_decomposition_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = [rng.standard_normal(40) for _ in range(3)]
        corrected, _ = analysis.grad_decomposition_residuals(*g)
        assert corrected <= 1e-12


def test_literal_decomposition_collapses_only_when_static():
    rng = np.random.default_rng(1)
    g_start = rng.standard_normal(30)
    g_glob = rng.standard_normal(30)
    _, literal = analysis.grad_decomposition_residuals(g_start, g_start, g_glob)
    assert literal <= 1e-12


def test_literal_residual_equals_drift_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g_step = rng.standard_normal(25)
        g_start = rng.standard_normal(25)
        g_glob = rng.standard_normal(25)
        _, literal = analysis.grad_decomposition_residuals(g_step, g_start, g_glob)
        expected = np.linalg.norm(g_step - g_start)
        assert abs(literal - expected) <= 1e-12
        assert literal > 0


def test_decomposition_layout_mismatch():
    with pytest.raises(ValueError):
        analysis.grad_decomposition_residuals(np.zeros(3), np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# step bound

def test_step_bound_noiseless_contraction():
    got = analysis.convergence_step_bound(
        gap=1.0, eta=0.1, local_steps=1, mu=1.0, modality_count=1,
        smoothness=1.0, sigma2=0.0, zeta2=0.0, num_aps=1,
    )
    assert got == pytest.approx(0.9, abs=1e-15)


def test_step_bound_worked_example():
    got = analysis.convergence_step_bound(
        gap=1.0, eta=0.01, local_steps=10, mu=1.0, modality_count=1,
        smoothness=10.0, sigma2=1.0, zeta2=1.0, num_aps=4,
    )
    # independent evaluation: 1*(1-0.1) + 1e-4*10*100*2/(8*1)
    assert got == pytest.approx(0.925, abs=1e-15)


def test_step_bound_inapplicable():
    with pytest.raises(analysis.BoundInapplicableError):
        analysis.convergence_step_bound(1.0, 0.5, 3, 1.0, 1, 1.0, 0.0, 0.0, 1)


def test_step_bound_monotonicity():
    rng = np.random.default_rng(3)
    base = dict(gap=0.05, eta=0.02, local_steps=5, mu=1.0, modality_count=1,
                smoothness=8.0, sigma2=1.0, zeta2=0.5, num_aps=4)
    b0 = analysis.convergence_step_bound(**base)
    for _ in range(50):
        kw = dict(base)
        kw["sigma2"] = base["sigma2"] + rng.uniform(0, 2)
        assert analysis.convergence_step_bound(**kw) >= b0
        kw = dict(base)
        kw["zeta2"] = base["zeta2"] + rng.uniform(0, 2)
        assert analysis.convergence_step_bound(**kw) >= b0
        kw = dict(base)
        kw["smoothness"] = base["smoothness"] + rng.uniform(0, 5)
        assert analysis.convergence_step_bound(**kw) >= b0
        kw = dict(base)
        kw["gap"] = base["gap"] + rng.uniform(0, 1)
        assert analysis.convergence_step_bound(**kw) >= b0
        kw = dict(base)
        kw["num_aps"] = base["num_aps"] + int(rng.integers(1, 8))
        assert analysis.convergence_step_bound(**kw) <= b0


def test_step_bound_m_monotone_in_rising_regime():
    # The bound decreases in M exactly when gap*eta*J*mu <= eta^2*L*J^2*(s2+z2)/(2N),
    # i.e. when the trace sits at or below the recursion's fixed point.
    base = dict(gap=0.05, eta=0.02, local_steps=5, mu=1.0,
                smoothness=8.0, sigma2=1.0, zeta2=0.5, num_aps=4)
    noise = base["eta"] ** 2 * base["smoothness"] * base["local_steps"] ** 2 * 1.5 / 8.0
    assert base["gap"] * base["eta"] * base["local_steps"] * base["mu"] <= noise
    b1 = analysis.convergence_step_bound(modality_count=1, **base)
    b3 = analysis.convergence_step_bound(modality_count=3, **base)
    assert b3 < b1


# ---------------------------------------------------------------------------
# quadratic problems

def test_scalar_quadratic_exact_values():
    prob = analysis.QuadraticProblem(
        a_matrix=np.array([[2.0]]),
        b_vectors=np.array([[2.0]]),
        noise_scale=0.0,
        w_init=np.array([0.0]),
    )
    assert prob.w_star[0] == pytest.approx(1.0, abs=1e-14)
    assert prob.f_star == pytest.approx(-1.0, abs=1e-14)
    assert prob.smoothness == pytest.approx(2.0, abs=1e-12)
    assert prob.mu == pytest.approx(2.0, abs=1e-12)
    assert prob.zeta2 == 0.0


def test_quadratic_minimizer_and_spectrum():
    prob = analysis.make_quadratic_problem(
        AnalysisConfig(seed=4, dim=8, num_aps=4, noise_scale=0.5))
    assert np.linalg.norm(prob.a_matrix @ prob.w_star - prob.b_mean) <= 1e-10
    eigs = np.linalg.eigvalsh(prob.a_matrix)
    assert prob.mu <= eigs[0] + 1e-9
    assert eigs[-1] <= prob.smoothness + 1e-9
    assert prob.mu == pytest.approx(1.0, rel=1e-9)
    assert prob.smoothness == pytest.approx(10.0, rel=1e-9)


def test_one_dimensional_quadratic():
    # np.linspace(mu, L, 1) is [mu]: the single curvature is mu_target
    cfg = AnalysisConfig(dim=1, num_aps=3, mu_target=2.0, smoothness_target=10.0,
                         noise_scale=0.5, init_radius=0.5, rounds=10, local_steps=2,
                         batch_size=4, eta=0.05, seed=3)
    prob = analysis.make_quadratic_problem(cfg)
    assert prob.a_matrix.tolist() == [[2.0]]
    assert prob.mu == prob.smoothness == 2.0
    trace = analysis.verify_bound(prob, cfg, seeds=50)
    assert len(trace.empirical) == len(trace.bound) == cfg.rounds + 1
    assert np.all(np.isfinite(trace.empirical))
    assert len(trace.violations) == 0


def test_quadratic_drift_closed_form():
    a = np.array([[3.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])  # b_mean = (0.5, 0.5)
    prob = analysis.QuadraticProblem(
        a_matrix=a, b_vectors=b, noise_scale=0.0, w_init=np.zeros(2)
    )
    # drift gradients are b_mean - b_n = (+-0.5, -+0.5): squared norm 0.5 each
    assert prob.zeta2 == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(2)
    global_grad = prob.a_matrix @ w - prob.b_mean
    drift = np.mean(
        [np.sum((prob.a_matrix @ w - prob.b_vectors[n] - global_grad) ** 2) for n in range(2)]
    )
    assert drift == pytest.approx(prob.zeta2, abs=1e-12)


def test_sigma2_exact_for_batch():
    prob = analysis.make_quadratic_problem(
        AnalysisConfig(seed=1, dim=4, num_aps=2, noise_scale=0.8))
    assert prob.sigma2(8) == pytest.approx(0.64 / 8, abs=1e-15)


# ---------------------------------------------------------------------------
# estimators

def softmax_setup(n=10, l2=0.01, seed=0):
    spec = models.ModelSpec("softmax_linear", 4, 1, 3, l2_coeff=l2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4, 2, 1))
    y = rng.integers(0, 3, n)
    return spec, models.Batch(x, y), models.init_params(spec, seed)


def test_sigma2_full_batch_is_exactly_zero():
    spec, batch, params = softmax_setup(n=9)
    est = analysis.estimate_sigma2(spec, params, batch, len(batch), trials=5, seed=2)
    assert est == 0.0


def test_sigma2_two_example_enumeration():
    spec, batch, params = softmax_setup(n=2)
    g_full = models.loss_and_grad(spec, params, batch)[1]
    vals = []
    for i in range(2):
        g = models.loss_and_grad(spec, params, batch.select(np.array([i])))[1]
        vals.append(float(np.sum((g - g_full) ** 2)))
    # the full gradient is the midpoint of the two single-example gradients,
    # so both enumerated deviations coincide and any sampling mix equals them
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    est = analysis.estimate_sigma2(spec, params, batch, 1, trials=400, seed=3)
    assert est == pytest.approx(0.5 * (vals[0] + vals[1]), rel=1e-10)


def test_sigma2_nonnegative_and_validated():
    spec, batch, params = softmax_setup()
    assert analysis.estimate_sigma2(spec, params, batch, 4, 8, 0) >= 0.0
    with pytest.raises(ValueError):
        analysis.estimate_sigma2(spec, params, batch, 4, 1, 0)
    with pytest.raises(ValueError):
        analysis.estimate_sigma2(spec, params, batch, len(batch) + 1, 4, 0)


def test_zeta2_identical_datasets_zero():
    spec, batch, params = softmax_setup(n=8)
    est = analysis.estimate_zeta2(spec, params, [batch, batch, batch])
    assert est <= 1e-12


def test_zeta2_iid_below_noniid():
    # label-skewed shards drift more than label-balanced shards of the same data
    diffs = []
    for seed in range(5):
        ds = datafile.generate_dataset(DatasetConfig(8, 12, 16, 10.0, seed))
        split = experiment.split_train_test(ds, 0.25, seed)
        spec = models.ModelSpec("softmax_linear", 16, 2, 8, l2_coeff=1e-3)
        params = models.init_params(spec, seed)
        sel = ("iq", "amp_phase")

        p_iid = federation.partition_iid(split, 4, seed, sel)
        p_non = federation.partition_noniid(split, 4, 2, seed, sel)
        z_iid = analysis.estimate_zeta2(
            spec, params, ap_batches(split, p_iid, sel)
        )
        z_non = analysis.estimate_zeta2(
            spec, params, ap_batches(split, p_non, sel)
        )
        diffs.append(z_non - z_iid)
    assert np.median(diffs) > 0


# ---------------------------------------------------------------------------
# bound verification

def test_verify_bound_noiseless_matches_closed_form():
    prob = analysis.make_quadratic_problem(AnalysisConfig(
        seed=6, dim=8, num_aps=1, noise_scale=0.0, drift_scale=0.0, init_radius=1.0
    ))
    cfg = AnalysisConfig(rounds=50, local_steps=1, batch_size=1, eta=0.05, seed=0)
    trace = analysis.verify_bound(prob, cfg, seeds=1)
    # closed form via eigendecomposition of the exact gradient-descent map
    a = prob.a_matrix
    eigs, q = np.linalg.eigh(a)
    e0 = q.T @ (prob.w_init - prob.w_star)
    for t in range(51):
        coords = ((1.0 - cfg.eta * eigs) ** t) * e0
        gap = 0.5 * float(np.sum(eigs * coords**2))
        assert abs(trace.empirical[t] - gap) <= 1e-9
    assert len(trace.violations) == 0


def test_verify_bound_monte_carlo_and_m_ordering():
    prob = analysis.make_quadratic_problem(AnalysisConfig(
        seed=5, dim=8, num_aps=4, noise_scale=1.0, init_radius=0.15
    ))
    c1 = AnalysisConfig(rounds=30, local_steps=5, batch_size=8, eta=0.035,
                        modality_count=1, seed=0)
    c3 = AnalysisConfig(rounds=30, local_steps=5, batch_size=8, eta=0.035,
                        modality_count=3, seed=0)
    t1 = analysis.verify_bound(prob, c1, seeds=100)
    t3 = analysis.verify_bound(prob, c3, seeds=100)
    assert len(t1.violations) == 0
    assert len(t3.violations) == 0
    assert t1.bound[0] == t3.bound[0]
    assert np.all(t3.bound[1:] < t1.bound[1:])
    assert np.all(t1.bound >= 0)


@pytest.mark.parametrize("modality_count, batch_size", [(1, 1), (1, 8), (3, 8)])
def test_one_step_noise_law_closed_form(modality_count, batch_size):
    # one AP, one local step, one round: w1 - w* = (I - eta A)(w0 - w*) - eta xi,
    # with xi ~ N(0, s^2 / (M d B) I), so E[gap1] adds eta^2 s^2 tr(A) / (2 M d B)
    prob = analysis.make_quadratic_problem(AnalysisConfig(
        seed=12, dim=8, num_aps=1, noise_scale=1.0, init_radius=0.1
    ))
    cfg = AnalysisConfig(rounds=1, local_steps=1, batch_size=batch_size,
                         eta=0.05, modality_count=modality_count, seed=4)
    runs = 20_000
    gap1 = analysis.simulate_quadratic_runs(prob, cfg, runs)[:, 1]
    a = prob.a_matrix
    e1 = (np.eye(prob.dim) - cfg.eta * a) @ (prob.w_init - prob.w_star)
    noiseless = 0.5 * e1 @ a @ e1
    noise = 0.5 * cfg.eta**2 * prob.noise_scale**2 * np.trace(a) / (
        modality_count * prob.dim * batch_size
    )
    stderr = gap1.std(ddof=1) / np.sqrt(runs)
    assert abs(gap1.mean() - (noiseless + noise)) <= 5 * stderr


# sha256 of verify-bound's outputs. The quad_bound traces come from the
# stream that draws each AP-step's batch-mean noise directly. The summaries
# hold nothing that depends on the stream, and the noiseless run draws no
# noise, so those bytes equal the ones the per-example stream wrote.
BOUND_DIGESTS = [
    ("quad_bound.json", 1,
     "44be041d60ea4e5ee6162b1f3043591656e289a4e0c896c8d1fa71f21f39fce2",
     "d59db9c494ad02f50b121307694de502c3c3fac93a9c7e9ce383bf5a588af575"),
    ("quad_bound.json", 2,
     "97212150f89b05e19fd8a57c4ae1d232cacfd7f2f97d1c39ff3fa9feb864f174",
     "66efd8a7b530d09d4bae0a692447a340e913840d9e799a872291c4fd07635530"),
    ("quad_bound.json", 3,
     "dbce9dfe06fc17ab351aee12ae89f69d116b4264f7a36b6377448b6ad1c1b1c8",
     "3b5d14c2884b84af6141beef43594fcc098117180fe84e6889aa36aa7fd7f39d"),
    ("quad_noiseless.json", 1,
     "7f2230ffcefa91ffd1ed21d4fe56cd26de16d79e99aafd5cda0fabd3695088dc",
     "8b500b20d25cc4d4a518ddba03d8c08bd4703100e3a3f2639e1ac35c368ecb51"),
]


# an empty analysis section: AnalysisConfig's defaults are quad_bound's M = 1
# settings, and nothing else declares a default for them
EMPTY_ANALYSIS = pytest.param(None, None, *BOUND_DIGESTS[0][2:], id="empty-analysis-section")


@pytest.mark.parametrize("name, modality_count, trace_digest, summary_digest",
                         [*BOUND_DIGESTS, EMPTY_ANALYSIS])
def test_verify_bound_output_bytes_are_pinned(
    tmp_path, name, modality_count, trace_digest, summary_digest
):
    raw = {"analysis": {}}
    if name is not None:
        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["analysis"]["modality_count"] = modality_count
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["verify-bound", "--config", str(cfg_path), "--out", str(out)]) == 0
    for filename, digest in ((cli.BOUND_TRACE_FILENAME, trace_digest),
                             (cli.BOUND_SUMMARY_FILENAME, summary_digest)):
        assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest


def test_verify_bound_deterministic():
    prob = analysis.make_quadratic_problem(
        AnalysisConfig(seed=7, dim=4, num_aps=2, noise_scale=0.5, init_radius=1.0))
    cfg = AnalysisConfig(rounds=10, local_steps=3, batch_size=4, eta=0.05,
                         modality_count=1, seed=9)
    a = analysis.verify_bound(prob, cfg, seeds=20)
    b = analysis.verify_bound(prob, cfg, seeds=20)
    assert np.array_equal(a.empirical, b.empirical)
    assert np.array_equal(a.bound, b.bound)


def test_verify_bound_inapplicable_config():
    prob = analysis.make_quadratic_problem(
        AnalysisConfig(seed=8, dim=4, num_aps=2, noise_scale=0.5, init_radius=1.0))
    cfg = AnalysisConfig(rounds=5, local_steps=30, batch_size=4, eta=0.05, seed=0)
    with pytest.raises(analysis.BoundInapplicableError):
        analysis.verify_bound(prob, cfg, seeds=5)


def test_modality_variance_ratio_reported_not_asserted():
    """Measured sigma2/zeta2 ratios between M=1 and M=3 inputs are reported
    as data; the 1/M scaling is an assumption, not an asserted fact."""
    ds = datafile.generate_dataset(DatasetConfig(6, 10, 16, 10.0, 3))
    split = experiment.split_train_test(ds, 0.25, 3)
    part = federation.partition_iid(split, 3, 3, modality.ALL_MODALITIES)
    ratios = {}
    for sel in (("iq",), ("iq", "dft", "amp_phase")):
        spec = models.ModelSpec("softmax_linear", 16, len(sel), 6, l2_coeff=1e-3)
        params = models.init_params(spec, 0)
        batches = ap_batches(split, part, sel)
        s2 = np.mean(
            [analysis.estimate_sigma2(spec, params, b, 4, 20, i)
             for i, b in enumerate(batches)]
        )
        z2 = analysis.estimate_zeta2(spec, params, batches)
        ratios[len(sel)] = (float(s2), float(z2))
    for m, (s2, z2) in ratios.items():
        assert np.isfinite(s2) and s2 >= 0
        assert np.isfinite(z2) and z2 >= 0
    print(
        "sigma2 M1/M3 ratio: %.3f, zeta2 M1/M3 ratio: %.3f"
        % (ratios[1][0] / ratios[3][0], ratios[1][1] / ratios[3][1])
    )

