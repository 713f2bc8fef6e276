"""Empirical verification of the convergence theory.

The federated round-gap recursion

    gap' <= gap * (1 - eta*J*mu/M) + eta^2 * L * J^2 * (sigma^2 + zeta^2) / (2*N*M)

is checked on synthetic quadratic problems where every constant (smoothness
L, strong convexity mu, stochastic-gradient variance sigma^2, AP drift
zeta^2, minimizer and optimal value) is known exactly; ``fedrf verify-bound``
is its one command-line caller. The problem, its Monte Carlo runs and the
check take every setting from the config's ``analysis`` section, a
``config.AnalysisConfig``, which declares each one's default and bounds once.
The module also provides estimators of sigma^2 and zeta^2 on real
model/dataset pairs, and a numerical check of the gradient decomposition
identity underlying the bound (both the corrected form and the literally
printed one, which differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import models
from .config import AnalysisConfig

_DOMAIN_QUAD = 0xB21
_DOMAIN_VERIFY = 0xB22
_DOMAIN_ESTIMATE = 0xB23


class BoundInapplicableError(ValueError):
    """Raised when eta*J*mu/M >= 1 and the contraction factor is invalid."""


@dataclass
class BoundTrace:
    """Per-round empirical mean gap vs. the iterated theoretical bound."""

    rounds: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray
    violations: np.ndarray  # round indices where empirical > bound + 3*stderr


def grad_decomposition_residuals(
    grad_local_step: np.ndarray,
    grad_local_start: np.ndarray,
    grad_global_start: np.ndarray,
) -> Tuple[float, float]:
    """Residuals of two decompositions of the local step gradient.

    The corrected decomposition writes the local gradient as the global
    gradient plus a local-drift term plus a heterogeneity term
    (local-at-start minus global-at-start); it is an exact telescoping
    identity, so its residual is rounding noise. The literal variant uses
    (local-at-step minus global-at-start) as the third term instead, which
    only collapses when the local gradient has not moved; its residual
    equals ||grad_local_step - grad_local_start||.
    """
    g_step = np.asarray(grad_local_step, dtype=np.float64)
    g_start = np.asarray(grad_local_start, dtype=np.float64)
    g_glob = np.asarray(grad_global_start, dtype=np.float64)
    if not (g_step.shape == g_start.shape == g_glob.shape):
        raise ValueError("gradient layouts differ")
    corrected_rhs = g_glob + (g_step - g_start) + (g_start - g_glob)
    literal_rhs = g_glob + (g_step - g_start) + (g_step - g_glob)
    corrected = float(np.linalg.norm(g_step - corrected_rhs))
    literal = float(np.linalg.norm(g_step - literal_rhs))
    return corrected, literal


def _contraction(eta: float, local_steps: int, mu: float, modality_count: int) -> float:
    """eta*J*mu/M; raises BoundInapplicableError when it is >= 1."""
    contraction = eta * local_steps * mu / modality_count
    if contraction >= 1.0:
        raise BoundInapplicableError(
            f"eta*J*mu/M = {contraction:.6g} >= 1: bound inapplicable"
        )
    return contraction


def convergence_step_bound(
    gap: float,
    eta: float,
    local_steps: int,
    mu: float,
    modality_count: int,
    smoothness: float,
    sigma2: float,
    zeta2: float,
    num_aps: int,
) -> float:
    """One application of the round-gap recursion."""
    if min(gap, mu, smoothness, sigma2, zeta2) < 0:
        raise ValueError("constants must be nonnegative")
    contraction = _contraction(eta, local_steps, mu, modality_count)
    noise = (
        eta**2
        * smoothness
        * local_steps**2
        * (sigma2 + zeta2)
        / (2.0 * num_aps * modality_count)
    )
    return gap * (1.0 - contraction) + noise


@dataclass
class QuadraticProblem:
    """Federated quadratic objective with exactly known constants.

    AP n minimizes f_n(w) = 0.5 w^T A w - b_n^T w; the one curvature matrix
    A is shared by every AP, so the AP-drift gradients (b_mean - b_n) are
    constant in w and the drift variance zeta^2 is a finite exact number.
    A stochastic gradient adds the mean of ``batch_size`` per-example
    Gaussian noise vectors, each with total variance noise_scale^2, giving a
    per-step variance of exactly noise_scale^2 / batch_size; the Monte Carlo
    draws that mean directly, one normal per coordinate per AP-step.
    """

    a_matrix: np.ndarray  # (d, d)
    b_vectors: np.ndarray  # (N, d)
    noise_scale: float
    w_init: np.ndarray
    # derived, exact
    b_mean: np.ndarray = field(init=False)
    w_star: np.ndarray = field(init=False)
    f_star: float = field(init=False)
    smoothness: float = field(init=False)
    mu: float = field(init=False)
    zeta2: float = field(init=False)

    def __post_init__(self):
        self.a_matrix = a = np.asarray(self.a_matrix, dtype=np.float64)
        self.b_vectors = np.asarray(self.b_vectors, dtype=np.float64)
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("curvature matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0:
            raise ValueError("curvature matrix must be positive definite")
        self.b_mean = self.b_vectors.mean(axis=0)
        self.w_star = np.linalg.solve(a, self.b_mean)
        self.f_star = self.f_global(self.w_star)
        self.smoothness = float(eigs[-1])
        self.mu = float(eigs[0])
        drift = self.b_vectors - self.b_mean
        self.zeta2 = float(np.mean(np.sum(drift**2, axis=1)))

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def num_aps(self) -> int:
        return self.b_vectors.shape[0]

    def f_global(self, w: np.ndarray) -> float:
        return float(0.5 * w @ self.a_matrix @ w - self.b_mean @ w)

    def sigma2(self, batch_size: int) -> float:
        """Exact per-step stochastic gradient variance at this batch size."""
        return self.noise_scale**2 / batch_size


def make_quadratic_problem(cfg: AnalysisConfig) -> QuadraticProblem:
    """Random problem with spectrum spanning [mu_target, smoothness_target].

    ``drift_scale`` sets the expected squared norm of each AP's gradient
    offset from the global gradient (zero when num_aps == 1), and the start
    lies ``init_radius`` from the minimizer.
    """
    dim, num_aps = cfg.dim, cfg.num_aps
    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_QUAD, cfg.seed)))
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # fix the QR sign ambiguity
    eigs = np.linspace(cfg.mu_target, cfg.smoothness_target, dim)
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    b_mean = rng.standard_normal(dim)
    if num_aps > 1 and cfg.drift_scale > 0:
        delta = rng.standard_normal((num_aps, dim)) * (cfg.drift_scale / np.sqrt(dim))
        delta -= delta.mean(axis=0)
    else:
        delta = np.zeros((num_aps, dim))
    b_vectors = b_mean + delta
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    problem = QuadraticProblem(
        a_matrix=a,
        b_vectors=b_vectors,
        noise_scale=cfg.noise_scale,
        w_init=np.zeros(dim),
    )
    problem.w_init = problem.w_star + cfg.init_radius * direction
    return problem


def simulate_quadratic_runs(
    problem: QuadraticProblem, cfg: AnalysisConfig, num_runs: int
) -> np.ndarray:
    """Federated local-SGD trajectories on the quadratic, vectorized over runs.

    The APs take each local step together, on parameters stacked as
    (num_aps, num_runs, dim), and the new model is their mean. A step's
    stochastic gradient adds one normal per coordinate per AP and run: the
    mean of ``batch_size`` per-example noise vectors, drawn directly, since
    the mean of b iid N(0, s^2) draws is N(0, s^2 / b). With M modalities the
    per-example noise and the AP drift are both scaled by 1/sqrt(M), matching
    the assumption that their variances shrink proportionally to the modality
    count. Returns the global gap per run and round, shape
    (num_runs, rounds + 1).
    """
    m = cfg.modality_count
    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_VERIFY, cfg.seed)))
    a = problem.a_matrix
    scale = problem.noise_scale / np.sqrt(m * problem.dim * cfg.batch_size)
    drift = (problem.b_vectors - problem.b_mean) / np.sqrt(m)
    b_eff = (problem.b_mean + drift)[:, None, :]
    shape = (problem.num_aps, num_runs, problem.dim)

    w = np.repeat(problem.w_init[None], num_runs, axis=0)  # (R, d)
    gaps = np.empty((num_runs, cfg.rounds + 1))
    gaps[:, 0] = _gap_rows(problem, w)
    for t in range(cfg.rounds):
        wn = np.broadcast_to(w, shape)  # every AP starts from the global model
        for _ in range(cfg.local_steps):
            g = wn @ a - b_eff
            if problem.noise_scale > 0:
                g += scale * rng.standard_normal(shape)
            wn = wn - cfg.eta * g
        w = wn.mean(axis=0)
        gaps[:, t + 1] = _gap_rows(problem, w)
    return gaps


def _gap_rows(problem: QuadraticProblem, w: np.ndarray) -> np.ndarray:
    vals = 0.5 * np.einsum("rd,de,re->r", w, problem.a_matrix, w) - w @ problem.b_mean
    return vals - problem.f_star


@np.errstate(over="ignore", invalid="ignore")
def verify_bound(
    problem: QuadraticProblem, cfg: AnalysisConfig, seeds: int
) -> BoundTrace:
    """Monte Carlo check that the mean gap stays under the iterated bound.

    Runs ``seeds`` independent trajectories, averages the gap per round, and
    iterates the step bound from the measured initial gap using the
    problem's exact constants. A round is a violation when the empirical
    mean exceeds bound + 3 * (standard error). A round whose mean gap is not
    finite raises a ValueError naming that round, because no comparison with
    the bound can flag it; the overflow that leads there is not reported as
    NumPy warnings.
    """
    _contraction(cfg.eta, cfg.local_steps, problem.mu, cfg.modality_count)
    gaps = simulate_quadratic_runs(problem, cfg, seeds)
    empirical = gaps.mean(axis=0)
    diverged = np.flatnonzero(~np.isfinite(empirical))
    if len(diverged):
        raise ValueError(
            f"bound check diverged at round {diverged[0]}: empirical gap is not finite"
        )
    if seeds > 1:
        stderr = gaps.std(axis=0, ddof=1) / np.sqrt(seeds)
    else:
        stderr = np.zeros_like(empirical)
    bound = np.empty_like(empirical)
    bound[0] = empirical[0]
    for t in range(cfg.rounds):
        bound[t + 1] = convergence_step_bound(
            bound[t],
            cfg.eta,
            cfg.local_steps,
            problem.mu,
            cfg.modality_count,
            problem.smoothness,
            problem.sigma2(cfg.batch_size),
            problem.zeta2,
            problem.num_aps,
        )
    violations = np.flatnonzero(empirical > bound + 3.0 * stderr)
    return BoundTrace(
        rounds=np.arange(cfg.rounds + 1),
        empirical=empirical,
        stderr=stderr,
        bound=bound,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# estimators on real models

def estimate_sigma2(
    spec: models.ModelSpec,
    params: np.ndarray,
    data: models.Batch,
    batch_size: int,
    trials: int,
    seed: int,
) -> float:
    """Mean squared deviation of mini-batch gradients from the full gradient."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    n = len(data)
    if batch_size > n:
        raise ValueError("batch_size exceeds dataset size")
    rng = np.random.default_rng(np.random.SeedSequence((_DOMAIN_ESTIMATE, seed)))
    _, g_full = models.loss_and_grad(spec, params, data)
    total = 0.0
    for _ in range(trials):
        idx = np.sort(rng.choice(n, size=batch_size, replace=False))
        _, g = models.loss_and_grad(spec, params, data.select(idx))
        diff = g - g_full
        total += float(diff @ diff)
    return total / trials


def estimate_zeta2(
    spec: models.ModelSpec, params: np.ndarray, ap_batches: Sequence[models.Batch]
) -> float:
    """Average squared deviation of AP full gradients from their mean."""
    grads = [models.loss_and_grad(spec, params, b)[1] for b in ap_batches]
    mean = np.mean(grads, axis=0)
    return float(np.mean([np.sum((g - mean) ** 2) for g in grads]))
