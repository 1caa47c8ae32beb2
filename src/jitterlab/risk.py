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
Sorensen, "Computing a Trust Region Step", 1983), started below each root
and stepping only the columns still moving.  It serves
inner_max_dual, dual_values_batch and the analytic mode-form risk.

certify is the one Monte-Carlo certification path: on a pre-drawn
evaluation set, shared by every estimator a driver compares, it averages
the dual per eps with a 66% confidence interval (mean +- 0.954 SE).  It
walks the set in fixed blocks of _CERTIFY_COLUMNS columns, a narrow last
block joined to the one before, so no n x N residual is formed, and
projects each block once for every eps.  robust_risk_exact is a seeded
draw plus certify.

best_jitter_level_analytic finds the jitter level whose jittering-optimal
estimator has the least analytic mode-form risk, a high-dimensional upper
bound on the robust risk (robust_risk_mode_form), as the root of that
bound's derivative in sigma_w^2 (estimators._increasing_root, the root
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
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _check_count, _check_nonnegative, _check_triple,
    _column_blocks, draw_sample_arrays,
)

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
        _check_nonnegative(values=val)
        if not np.all((lo <= val) & (val <= hi)):
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
# secular temporaries fit a 2 MiB L2.  Fixed, as BLAS may round by block width.
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
    concave and increasing, so Newton's method from a left start, where
    ||p|| >= eps, rises monotonically to the root and never crosses the
    pole.  With w = s^2 a, the start is the largest of a floor and two lower
    bounds on the root: sqrt(sum_top w) / eps, and sqrt(sum w) / eps minus
    the w-weighted mean gap, as ||p||^2 >= sum w / (mu + mean gap)^2 by
    Jensen.  A converged column leaves the block, which stays in C order and
    two columns wide or more, as numpy sums an F-ordered or (k, 1) block's
    columns pairwise, so a column's bits do not depend on its neighbours.

    Zero-weight terms drop out: mu never drops below a tiny positive floor,
    so they contribute 0 rather than 0/0.  In the hard case every top-mode
    weight is 0; if ||p|| <= eps at the start, the minimizer is the boundary
    lam = max s2, which the convergence test accepts at once.  A step that is
    not finite (non-finite weights, or underflow at eps below about 1e-90) or
    a column still moving after _NEWTON_MAX_ITER steps raises EvaluationError.
    """
    top = float(s2.max())
    gap = (top - s2)[:, None]
    w = np.multiply(s2[:, None], a, order="C")  # squared numerators of p
    with np.errstate(all="ignore"):  # fmax drops the 0/0 at sum w = 0; a bad step raises
        total = w.sum(axis=0)
        mu = np.fmax(np.sqrt(w[gap[:, 0] == 0.0].sum(axis=0)) / eps, np.fmax(
            np.sqrt(total) / eps - (w * gap).sum(axis=0) / total, _MU_FLOOR))
        cols, w_live, mu_live = np.arange(a.shape[1]), w, mu
        for _ in range(_NEWTON_MAX_ITER):
            pn2, q = _secular_terms(mu_live, gap, w_live)
            pn = np.sqrt(pn2)
            # Written so that NaN counts as still moving and reaches the check below.
            moving = ~(pn - eps <= _SECULAR_RTOL * eps)
            live = np.count_nonzero(moving)
            if not live:
                mu[cols] = mu_live
                break
            step = (pn2 * (pn - eps) / (eps * q))[moving]
            if not np.all(np.isfinite(step)):
                raise EvaluationError("secular equation produced a non-finite Newton step")
            mu_live[moving] += step
            if live < moving.size:
                mu[cols] = mu_live
                if live == 1:
                    moving[np.argmin(moving)] = True  # keep a converged column beside it
                cols, mu_live = cols[moving], mu_live[moving]
                w_live = np.compress(moving, w_live, axis=1)  # C order, unlike w_live[:, moving]
        else:
            raise EvaluationError(
                f"secular Newton iteration did not converge in {_NEWTON_MAX_ITER} steps "
                f"for {live} of {a.shape[1]} columns"
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


def dual_values_batch(
    estimator: LinearEstimator, v: np.ndarray, eps: float | np.ndarray
) -> np.ndarray:
    """inner_max_dual for every column of v (n x N), vectorized, at one eps or a 1-D eps grid.

    All N duals share H's spectrum, so one secular Newton solve per radius
    runs on the k x N block of weights vt^2 at once, and a converged column
    stops moving while the others finish.  v is projected once for every
    radius.  A scalar eps gives shape (N,); a grid of R radii gives (R, N),
    each row with the bits of that radius's scalar call.  Non-convergence
    raises EvaluationError rather than returning a best-so-far value.
    """
    grid = np.asarray(eps, dtype=float)
    _check_nonnegative(eps=grid)
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != estimator.shape[0]:
        raise InvalidDimensionError(
            f"batch residuals {v.shape} are not n x N for estimator {estimator.shape}"
        )
    if grid.ndim > 1:
        raise InvalidDimensionError(f"eps must be a scalar or a 1-D grid, got shape {grid.shape}")
    radii = np.atleast_1d(grid)
    vnorm2 = (v * v).sum(axis=0)
    out = np.tile(vnorm2, (radii.size, 1))  # the value at eps = 0, and for H = 0
    if estimator.sigma_max != 0.0 and v.shape[1] != 0 and np.any(radii != 0.0):
        vt2 = (estimator.left.T @ v) ** 2  # k x N
        vperp2 = np.maximum(vnorm2 - vt2.sum(axis=0), 0.0)
        s2 = estimator.singular_values**2
        for row, radius in zip(out, radii):
            if radius != 0.0:
                np.add(_secular_min(s2, vt2, float(radius))[0], vperp2, out=row)
    return out if grid.ndim else out[0]


def residuals(
    estimator: LinearEstimator,
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Unperturbed residual columns v = H y - x = (H A - I) x + H z."""
    _check_count(0, n_samples=n_samples)
    x, y = draw_sample_arrays(model, op, noise, n_samples, seed)[:2]
    return estimator.apply(y) - x


def certify(
    estimator: LinearEstimator, x: np.ndarray, y: np.ndarray, eps_grid: np.ndarray
) -> RiskReport:
    """Monte-Carlo robust risk of one estimator on a pre-drawn evaluation set.

    x (n x N) and y (m x N) are paired signal and measurement columns for
    an n x m estimator, n, m >= 1.  Per block of _CERTIFY_COLUMNS columns
    the residual H y - x is formed once and one batched dual takes every
    eps on it; each eps then takes a 66% interval over all N per-sample
    values.  A last block narrower than 512 columns joins the block before
    it (model._column_blocks, the rule the latent evaluation draw shares).
    Each dual is computed column by column, so the per-sample values are
    those of one unblocked pass wherever BLAS rounds a block's products as
    it rounds the full ones, which OpenBLAS does for blocks of 1024 columns
    and for a merged or a 512-column-or-wider last block.  Callers certify
    every estimator they compare on the same (x, y), so differences between
    estimators and between radii are not Monte-Carlo noise.

    A non-finite value in x or y raises InvalidParameterError, and a finite
    set whose risk or interval is not finite (an estimator so large that its
    residuals overflow) EvaluationError, at every radius and with no
    RuntimeWarning; x and y are scanned only once a result is not finite.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = estimator.shape
    _check_count(1, n=n, m=m)  # with no rows, no value of y would reach a statistic
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != n or y.shape[0] != m or x.shape[1] != y.shape[1]:
        raise InvalidDimensionError(
            f"estimator {estimator.shape} does not match signals {x.shape}, measurements {y.shape}"
        )
    _check_count(2, eval_samples=x.shape[1])
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    duals = np.empty((eps_grid.size, x.shape[1]))
    try:
        with np.errstate(all="ignore"):  # a non-finite result raises below, by its cause
            for cols in _column_blocks(x.shape[1], _CERTIFY_COLUMNS):
                v = estimator.apply(y[:, cols])
                v -= x[:, cols]
                duals[:, cols] = dual_values_batch(estimator, v, eps_grid)
            stats = np.array([_mean_ci(row) for row in duals]).reshape(-1, 3)
        if not np.isfinite(stats).all():
            raise EvaluationError("certified risk or its interval is not finite")
    except EvaluationError:
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidParameterError("evaluation set x and y must be finite") from None
        raise
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
    _check_count(2, n_samples=n_samples)
    x, y = draw_sample_arrays(model, op, noise, n_samples, seed)[:2]
    return certify(estimator, x, y, eps)


def standard_risk_closed_form(
    alpha: float, sigma_c: float, sigma_z: float, d: int, n: int
) -> float:
    """Exact unperturbed risk of the denoiser H = alpha U U'."""
    _check_count(1, d=d, n=n)
    _check_nonnegative(sigma_c=sigma_c, sigma_z=sigma_z)
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
    _check_nonnegative(eps=eps)
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
    _check_nonnegative(sigma_w=sigma_w)
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
    """High-dimensional upper bound on the robust risk of a subspace-aligned shrinkage estimator.

    For H = (U V') diag(sigma_i) W' built on the SVD of A U, the residual
    covariance diagonalizes in H's left singular basis.  Taking the
    expectation inside the dual gives a one-dimensional minimization:

        R_eps(H) = min_{lam >= max sigma_i^2} lam eps^2
                   + sum_i ((sigma_i lambda_i - 1)^2 sigma_c^2/d
                            + sigma_i^2 sigma_z^2/m) / (1 - sigma_i^2/lam),

    with unobserved modes (profile shorter than d) contributing the constant
    sigma_c^2/d each.  This is min_lam E[...], which by Jensen's inequality
    is at least the robust risk E min_lam [...] that `certify` estimates;
    the two agree only as d -> infinity, and at small d the gap is a few
    percent.  Returns (bound, lam_star).
    """
    _check_count(1, d=d, m=m)
    sigma_i = np.atleast_1d(np.asarray(sigma_i, dtype=float))
    lambda_i = np.atleast_1d(np.asarray(lambda_i, dtype=float))
    if sigma_i.shape != lambda_i.shape:
        raise InvalidDimensionError("sigma_i and lambda_i must share a shape")
    if sigma_i.shape[0] > d:
        raise InvalidDimensionError("more modes than subspace dimensions")
    _check_nonnegative(sigma_c=sigma_c, sigma_z=sigma_z, eps=eps)
    s2 = sigma_c**2 / d
    z2 = sigma_z**2 / m
    num = (sigma_i * lambda_i - 1.0) ** 2 * s2 + sigma_i**2 * z2
    tail = (d - sigma_i.shape[0]) * s2  # unobserved modes, shrinkage 0
    shr2 = sigma_i**2
    if eps == 0.0 or not shr2.any():
        return float(num.sum() + tail), 0.0
    values, lam = _secular_min(shr2, num[:, None], eps)
    return float(values[0] + tail), float(lam[0])


def best_jitter_level_analytic(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, eps: float
) -> tuple[float, float]:
    """Jitter level minimizing the mode-form risk bound of H_J(sigma_w).

    The minimized value is the high-dimensional upper bound of
    robust_risk_mode_form, min_lam E[...] >= E min_lam [...] (Jensen), not
    the robust risk itself.  Works in s = sigma_w^2, where R(s) is the
    mode-form bound of the jittering shrinkage sigma_i(s); dR/dsigma_w
    vanishes at sigma_w = 0 for every input, dR/ds does not.  By the
    envelope theorem dR/ds is
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
    _check_triple(model, op, noise)
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
