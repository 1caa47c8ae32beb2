"""Standard, robust, and jittering risk evaluation for linear estimators.

The robust risk at radius eps is E max_{||e|| <= eps} ||H(y+e) - x||^2.
For a fixed sample the inner maximum is a trust-region subproblem whose
exact value comes from a one-dimensional convex dual:

    max_{||e|| <= eps} ||v + H e||^2
      = min_{lam >= sigma_max(H)^2} lam eps^2 + sum_k vt_k^2 / (1 - s_k^2/lam)
                                    + ||v_perp||^2,

where v = H y - x is the unperturbed residual, vt = P' v are its
coefficients on the left singular vectors P of H, and v_perp is the part of
v outside the range of H (lambda-independent, added analytically).  Strong
duality holds, so this value is exact, and projected gradient ascent can
only approach it from below.

One private solver, _secular_min, minimizes this dual for a block of
weight vectors at once by Newton's method on its secular equation (More &
Sorensen, "Computing a Trust Region Step", 1983).  It serves
inner_max_dual, dual_values_batch and the analytic mode-form risk.

certify is the one Monte-Carlo certification path: on a pre-drawn
evaluation set, shared by every estimator a driver compares, it averages
the dual per eps with a 66% confidence interval (mean +- 0.954 SE).  It
walks the set in fixed blocks of _CERTIFY_COLUMNS columns, so no n x N
residual is formed and each block's Newton loop stops at its own slowest
column.  robust_risk_exact is a seeded draw plus certify.

best_jitter_level_analytic finds the jitter level whose jittering-optimal
estimator has the least analytic mode-form risk, as the root of that
risk's derivative in sigma_w^2 (estimators._increasing_root, the root
finder the conjectured estimator's dual uses too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EvaluationError,
    InvalidDimensionError,
    InvalidParameterError,
)
from .estimators import LinearEstimator, _increasing_root, _jittering_shrinkage
from .model import ForwardOperator, NoiseModel, SubspaceModel, _check_triple, draw_sample_arrays

# 66% two-sided normal quantile: CI = mean +- 0.954 * SE.
CI_SCALE = 0.954


@dataclass(frozen=True)
class RiskReport:
    """Per-eps risk values with 66% confidence bounds.

    Values are total squared errors, as certify computes them; figure-style
    CSV output divides them by n for per-coordinate risk.
    """

    eps_grid: np.ndarray
    values: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        eps = np.atleast_1d(np.asarray(self.eps_grid, dtype=float))
        val = np.atleast_1d(np.asarray(self.values, dtype=float))
        lo = np.atleast_1d(np.asarray(self.ci_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.ci_high, dtype=float))
        if not (eps.shape == val.shape == lo.shape == hi.shape):
            raise InvalidDimensionError("report arrays must share one shape")
        if not np.isfinite([val, lo, hi]).all():
            raise InvalidParameterError("risk values and bounds must be finite")
        if np.any(val < 0):
            raise InvalidParameterError("risk values must be >= 0")
        if np.any(lo > val) or np.any(val > hi):
            raise InvalidParameterError("need ci_low <= value <= ci_high per entry")
        for name, arr in (("eps_grid", eps), ("values", val), ("ci_low", lo), ("ci_high", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _mean_ci(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, mean - CI_SCALE * se, mean + CI_SCALE * se


# Newton on the secular equation converges in 4-12 steps from the left start
# point; a column still moving after this many has hit a numerical problem.
_NEWTON_MAX_ITER = 60
# Relative slack on ||p(lam)|| = eps; the value is stationary in lam, so this
# leaves it accurate to rounding.
_SECULAR_RTOL = 1e-11
# Least start for mu: its cube is still a normal float, and a root below it
# leaves lam* = max s2 to working precision.
_MU_FLOOR = float(np.finfo(float).tiny) ** (1.0 / 3.0)
# Evaluation-set columns per certify block: at n = 100 a block's residual and
# secular temporaries fit a 2 MiB L2.  Fixed, as no certified value depends on it.
_CERTIFY_COLUMNS = 1024
# Relative gap below which two forward singular values count as one in the
# best-jitter scan's hard case; an SVD of A U with tied values spreads them
# by a few float64 epsilons.
_TIE_RTOL = 1e-10


def _secular_terms(
    mu: np.ndarray, gap: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """||p||^2 and sum_k p_k^2 / (mu + gap_k) per column, with two k x N temporaries."""
    inv = mu + gap
    np.reciprocal(inv, out=inv)
    u = inv * inv
    u *= w
    inv *= u
    return u.sum(axis=0), inv.sum(axis=0)


def _secular_min(s2: np.ndarray, a: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """min over lam >= max s2 of lam eps^2 + sum_k a_k / (1 - s2_k/lam), per column.

    s2 has shape (k,) and a (k, N) with a >= 0; returns (values, lam_star),
    each of shape (N,).  Writing lam = max s2 + mu, the derivative in lam
    is eps^2 - ||p||^2 with p_k = s_k sqrt(a_k) / (mu + gap_k) and
    gap_k = max s2 - s2_k, so the minimizer solves the secular equation
    phi(mu) = 1/||p(mu)|| - 1/eps = 0 (More & Sorensen 1983).  phi is
    concave and increasing, so Newton's method from the left start
    mu0 = sqrt(sum_top s_k^2 a_k) / eps (where ||p|| >= eps) rises
    monotonically to the root and never crosses the pole.

    Zero-weight terms drop out: mu never drops below a tiny positive floor,
    so they contribute 0 rather than 0/0.  In the hard case every top-mode
    weight is 0 and the iteration starts at that floor; if ||p|| <= eps
    there, the minimizer is the boundary lam = max s2, which the
    convergence test accepts at once.  A step that is not finite
    (non-finite weights, or underflow at eps below about 1e-90) or a column
    still moving after _NEWTON_MAX_ITER steps raises EvaluationError.
    """
    top = float(s2.max())
    gap = (top - s2)[:, None]
    w = s2[:, None] * a  # squared numerators of p
    mu = np.maximum(np.sqrt(w[gap[:, 0] == 0.0].sum(axis=0)) / eps, _MU_FLOOR)
    with np.errstate(all="ignore"):  # a non-finite step raises below instead
        for _ in range(_NEWTON_MAX_ITER):
            pn2, q = _secular_terms(mu, gap, w)
            pn = np.sqrt(pn2)
            # Written so that NaN counts as still moving and reaches the check below.
            moving = ~(pn - eps <= _SECULAR_RTOL * eps)
            if not moving.any():
                break
            step = (pn2 * (pn - eps) / (eps * q))[moving]
            if not np.all(np.isfinite(step)):
                raise EvaluationError("secular equation produced a non-finite Newton step")
            mu[moving] += step
        else:
            raise EvaluationError(
                f"secular Newton iteration did not converge in {_NEWTON_MAX_ITER} steps "
                f"for {np.count_nonzero(moving)} of {a.shape[1]} columns"
            )
    lam = top + mu
    ratio = mu + gap
    np.divide(lam, ratio, out=ratio)  # 1 / (1 - s2_k / lam)
    ratio *= a
    return lam * (eps * eps) + ratio.sum(axis=0), lam


def inner_max_dual(estimator: LinearEstimator, v: np.ndarray, eps: float) -> float:
    """Exact worst-case value max_{||e|| <= eps} ||v + H e||^2.

    eps = 0 and H = 0 short-circuit to ||v||^2; otherwise the secular
    solver minimizes the dual in lambda over lambda >= sigma_max^2.
    """
    v = np.asarray(v, dtype=float)
    return float(dual_values_batch(estimator, v[:, None], eps)[0])


def dual_values_batch(estimator: LinearEstimator, v: np.ndarray, eps: float) -> np.ndarray:
    """inner_max_dual for every column of v (n x N), vectorized.

    All N duals share H's spectrum, so one secular Newton solve runs on the
    k x N block of weights vt^2 at once, and a converged column stops
    moving while the others finish.  Non-convergence raises
    EvaluationError rather than returning a best-so-far value.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise InvalidDimensionError("batch residuals must be n x N")
    if eps < 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    vnorm2 = (v * v).sum(axis=0)
    if eps == 0.0 or estimator.sigma_max == 0.0 or v.shape[1] == 0:
        return vnorm2
    vt2 = (estimator.left.T @ v) ** 2  # k x N
    vperp2 = np.maximum(vnorm2 - vt2.sum(axis=0), 0.0)
    values, _ = _secular_min(estimator.singular_values**2, vt2, eps)
    return values + vperp2


def residuals(
    estimator: LinearEstimator,
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Unperturbed residual columns v = H y - x = (H A - I) x + H z."""
    x, y, _ = draw_sample_arrays(model, op, noise, n_samples, seed)
    return estimator.apply(y) - x


def certify(
    estimator: LinearEstimator, x: np.ndarray, y: np.ndarray, eps_grid: np.ndarray
) -> RiskReport:
    """Monte-Carlo robust risk of one estimator on a pre-drawn evaluation set.

    x (n x N) and y (m x N) are paired signal and measurement columns.  Per
    block of _CERTIFY_COLUMNS columns the residual H y - x is formed once
    and each eps takes one batched dual on it; each eps then takes a 66%
    interval over all N per-sample values.  Each dual is computed column by
    column, so the block size, fixed to bound the working set, changes no
    value.  Callers certify every estimator they compare on the same (x, y),
    so differences between estimators and between radii are not Monte-Carlo
    noise.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = estimator.shape
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != n or y.shape[0] != m or x.shape[1] != y.shape[1]:
        raise InvalidDimensionError(
            f"estimator {estimator.shape} does not match signals {x.shape}, measurements {y.shape}"
        )
    if x.shape[1] < 2:
        raise InvalidParameterError(f"need at least 2 samples, got {x.shape[1]}")
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    duals = np.empty((eps_grid.size, x.shape[1]))
    for start in range(0, x.shape[1], _CERTIFY_COLUMNS):
        cols = slice(start, start + _CERTIFY_COLUMNS)
        v = estimator.apply(y[:, cols])
        v -= x[:, cols]
        for k, eps in enumerate(eps_grid):
            duals[k, cols] = dual_values_batch(estimator, v, float(eps))
    stats = np.array([_mean_ci(row) for row in duals]).reshape(-1, 3)
    values, ci_low, ci_high = stats.T
    return RiskReport(eps_grid, values, ci_low, ci_high, x.shape[1])


def robust_risk_exact(
    estimator: LinearEstimator,
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    eps: float,
    n_samples: int,
    seed: int,
) -> RiskReport:
    """Monte-Carlo robust risk at one eps: certify on a seeded draw of n_samples pairs."""
    x, y, _ = draw_sample_arrays(model, op, noise, n_samples, seed)
    return certify(estimator, x, y, eps)


def standard_risk_closed_form(
    alpha: float, sigma_c: float, sigma_z: float, d: int, n: int
) -> float:
    """Exact unperturbed risk of the denoiser H = alpha U U'."""
    if sigma_c < 0 or sigma_z < 0:
        raise InvalidParameterError("scales must be >= 0")
    return float(sigma_c**2 * (alpha - 1.0) ** 2 + alpha**2 * sigma_z**2 * d / n)


def worst_case_perturbation_projection(
    alpha: float,
    model: SubspaceModel,
    c: np.ndarray,
    z: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Closed-form worst perturbation for H = alpha U U' at one sample.

    e_hat = eps * U dir / ||dir|| with dir = (alpha - 1) c + alpha U' z,
    the subspace component of the residual Hy - x; aligning the attack
    with the residual attains the inner maximum exactly.  The direction
    degenerates only when that vector vanishes.
    """
    if eps < 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    c = np.asarray(c, dtype=float)
    z = np.asarray(z, dtype=float)
    direction = (alpha - 1.0) * c + alpha * (model.basis.T @ z)
    norm = float(np.linalg.norm(direction))
    if not np.isfinite(norm) or norm < 1e-30:
        raise DegenerateInputError("worst-case direction vector is numerically zero")
    return eps * (model.basis @ (direction / norm))


def jittering_risk_closed_form(
    estimator: LinearEstimator,
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    sigma_w: float,
) -> float:
    """Exact jittering risk E||H(y+w) - x||^2 with w ~ N(0, sigma_w^2 I).

    J(H) = tr((HA - I) U U' (HA - I)') sigma_c^2/d
           + tr(H H') (sigma_z^2/m + sigma_w^2).
    """
    if sigma_w < 0:
        raise InvalidParameterError(f"sigma_w must be >= 0, got {sigma_w}")
    _check_triple(model, op, noise)
    if estimator.shape != (model.n, noise.m):
        raise InvalidDimensionError(f"estimator {estimator.shape} is not {model.n} x {noise.m}")
    mism = estimator.apply(op.matrix @ model.basis) - model.basis  # (HA - I) U
    h_energy = float(np.sum(estimator.singular_values**2))
    return float(
        (mism * mism).sum() * model.sigma_c**2 / model.d
        + h_energy * (noise.sigma_z**2 / noise.m + sigma_w**2)
    )


def robust_risk_mode_form(
    sigma_i: np.ndarray,
    lambda_i: np.ndarray,
    sigma_c: float,
    sigma_z: float,
    d: int,
    m: int,
    eps: float,
) -> tuple[float, float]:
    """Analytic robust risk of a subspace-aligned shrinkage estimator.

    For H = (U V') diag(sigma_i) W' built on the SVD of A U, the residual
    covariance diagonalizes in H's left singular basis, so taking the
    expectation inside the dual gives the exact risk as a one-dimensional
    minimization:

        R_eps(H) = min_{lam >= max sigma_i^2} lam eps^2
                   + sum_i ((sigma_i lambda_i - 1)^2 sigma_c^2/d
                            + sigma_i^2 sigma_z^2/m) / (1 - sigma_i^2/lam),

    with unobserved modes (profile shorter than d) contributing the constant
    sigma_c^2/d each.  Returns (risk, lam_star).
    """
    sigma_i = np.atleast_1d(np.asarray(sigma_i, dtype=float))
    lambda_i = np.atleast_1d(np.asarray(lambda_i, dtype=float))
    if sigma_i.shape != lambda_i.shape:
        raise InvalidDimensionError("sigma_i and lambda_i must share a shape")
    if sigma_i.shape[0] > d:
        raise InvalidDimensionError("more modes than subspace dimensions")
    if eps < 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    s2 = sigma_c**2 / d
    z2 = sigma_z**2 / m
    num = (sigma_i * lambda_i - 1.0) ** 2 * s2 + sigma_i**2 * z2
    tail = (d - sigma_i.shape[0]) * s2  # unobserved modes, shrinkage 0
    if eps == 0.0:
        return float(num.sum() + tail), 0.0
    shr2 = sigma_i**2
    if float(shr2.max()) == 0.0:
        return float(num.sum() + tail), 0.0
    values, lam = _secular_min(shr2, num[:, None], eps)
    return float(values[0] + tail), float(lam[0])


def best_jitter_level_analytic(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, eps: float
) -> tuple[float, float]:
    """Jitter level minimizing the analytic robust risk of H_J(sigma_w).

    Works in s = sigma_w^2, where R(s) is the mode-form risk of the
    jittering shrinkage sigma_i(s); dR/dsigma_w vanishes at sigma_w = 0
    for every input, dR/ds does not.  By the envelope theorem dR/ds is
    sum_i dG/dsigma_i * dsigma_i/ds at the lam* that robust_risk_mode_form
    returns, so each step of _increasing_root costs one mode-form solve.
    Returns (sigma_w_star, risk).

    If dR/ds is still negative once every sigma_i lambda_i has fallen below
    float64 resolution, the infimum is the zero estimator, reached only as
    sigma_w -> inf: the result is (inf, sigma_c^2), and
    optimal_jittering_estimator(..., inf) is H = 0.  At sigma_z = 0 and
    s = 0, H inverts A U on the subspace and every mode weight is 0, so
    lam* sits on the dual's pole (its hard case); there, and wherever lam*
    cannot be told from the pole in float64, dR/ds is the right limit at
    sigma_z = s = 0, in which the weakest modes, tied to working
    precision, take the whole budget eps.
    """
    _, lam, _ = op.au_svd(model)
    d, m, sc2 = model.d, noise.m, model.sigma_c**2
    s2, z2 = sc2 / d, noise.sigma_z**2 / m
    nu = z2 * d

    def slope(s: float) -> float:
        sigma = _jittering_shrinkage(model, noise, lam, math.sqrt(s))
        _, lam_star = robust_risk_mode_form(sigma, lam, model.sigma_c, noise.sigma_z, d, m, eps)
        if 0.0 < lam_star <= float(sigma.max()) ** 2:
            # The hard case, to working precision: sigma_z = 0 at s = 0, see above.
            lam_min = float(lam.min())
            tied = np.count_nonzero(lam <= lam_min * (1.0 + _TIE_RTOL))
            return 2.0 * eps * d / (sc2 * lam_min**3) * (math.sqrt(tied * s2) - eps / lam_min)
        denom = sc2 * lam**2 + nu + s * d
        miss = (nu + s * d) / denom  # 1 - sigma_i lambda_i, without cancellation
        num = s2 * miss**2 + z2 * sigma**2
        dnum = 2.0 * (z2 * sigma - s2 * lam * miss)  # d num_i / d sigma_i
        if lam_star > 0.0:
            rho = lam_star / (lam_star - sigma**2)
            dnum = rho * (dnum + 2.0 * sigma * num * rho / lam_star)
        return -d * float((sigma / denom) @ dnum)  # dsigma_i/ds = -d sigma_i / denom_i

    # Past s_cap every sigma_i lambda_i is below float64 epsilon.
    s_cap = sc2 * float(lam.max()) ** 2 / (d * np.finfo(float).eps)
    if slope(s_cap) < 0.0:
        return math.inf, sc2
    # Solve in t = s / s0, where s0 halves the weakest mode's shrinkage, so
    # that the bracket opens near s* rather than at s = 1.
    s0 = z2 + s2 * float(lam.min()) ** 2 or 1.0
    s_star = s0 * _increasing_root(lambda t: slope(s0 * t))
    sigma = _jittering_shrinkage(model, noise, lam, math.sqrt(s_star))
    risk, _ = robust_risk_mode_form(sigma, lam, model.sigma_c, noise.sigma_z, d, m, eps)
    return math.sqrt(s_star), risk
