"""Closed-form linear estimators for the Gaussian subspace model.

Throughout, signals are x = U c with c ~ N(0, sigma_c^2/d * I) and
measurements y = A x + z with z ~ N(0, sigma_z^2/m * I).  Writing the SVD
of the restricted forward map as A U = W diag(lambda_i) V (W: m x k
orthonormal columns, V: k x d orthonormal rows), every estimator here is a
per-mode shrinkage H = (U V') diag(sigma_i) W', so it is represented in
factored form and materialized to a dense matrix only on demand.

The families implemented:
  * worst-case-optimal denoiser (A = I): H = alpha U U' with the alpha that
    minimizes the robust risk at radius eps;
  * the jitter level sigma_w(eps) whose jittering-optimal denoiser equals
    that robust denoiser exactly;
  * the jittering-risk minimizer for a general forward operator;
  * the conjectured robust-risk minimizer for a general forward operator,
    obtained from a one-dimensional dual problem in lambda; it minimizes a
    high-dimensional upper bound on the robust risk, not the risk itself;
  * the ridge (weight-decay) estimator, computed by dense normal equations
    as an independent cross-check of the jittering formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EvaluationError,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRegimeError,
)
from .model import ForwardOperator, NoiseModel, SubspaceModel, _check_triple

_FACTOR_TOL = 1e-8
# A bisection follows _STALE_STEPS steps in a row that fail to halve the
# bracket, so 53 halvings, which close a factor-2 bracket to float64 width,
# take at most (_STALE_STEPS + 1) * 53 = 212 steps.
_STALE_STEPS = 3
_ROOT_MAX_ITER = 250
_EPS = float(np.finfo(float).eps)


def _increasing_root(g: Callable[[float], float]) -> float:
    """Root on t >= 0 of a derivative g that turns from < 0 to >= 0 once.

    g is the derivative of a convex (or unimodal) function on t >= 0, whose
    minimizer is returned: 0 when g(0) >= 0.  Otherwise doubling or halving
    from t = 1 brackets the root between a point with g < 0 and one with
    g >= 0, a factor 2 apart.  Illinois (modified regula falsi) steps then
    shrink the bracket, with a bisection after _STALE_STEPS steps in a row
    that fail to halve it, and with each step kept a few ulps inside the
    bracket so that a one-sided approach still closes it.  The search stops
    once no float64 lies between the ends and returns the end with g >= 0;
    a jump of g (a kink of the function it differentiates) is found the
    same way.  A non-finite g, no sign change on the float64 range, or a
    bracket still open after _ROOT_MAX_ITER steps raises EvaluationError.
    """

    def checked(t: float) -> float:
        value = float(g(t))
        if not math.isfinite(value):
            raise EvaluationError(f"derivative is not finite at t={t!r}: {value!r}")
        return value

    lo, g_lo = 0.0, checked(0.0)
    if g_lo >= 0.0:
        return 0.0
    hi, g_hi = 1.0, checked(1.0)
    while g_hi < 0.0:
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
        if math.isinf(hi):
            raise EvaluationError("derivative stays negative on the whole float64 range")
        g_hi = checked(hi)
    probe = 0.5 * hi
    while lo == 0.0 and probe > 0.0:  # g(1) >= 0: halve down to the root
        g_probe = checked(probe)
        if g_probe < 0.0:
            lo, g_lo = probe, g_probe
        else:
            hi, g_hi, probe = probe, g_probe, 0.5 * probe
    kept, ref, stale = 0, hi - lo, 0  # kept: +1 or -1 when hi or lo survived the last step
    for _ in range(_ROOT_MAX_ITER):
        width = hi - lo
        mid = lo + 0.5 * width
        if not lo < mid < hi:
            return hi
        room = 4.0 * _EPS * hi
        if stale >= _STALE_STEPS or width <= 2.0 * room:
            t = mid
        else:
            t = min(max(lo - g_lo * width / (g_hi - g_lo), lo + room), hi - room)
        g_t = checked(t)
        if g_t >= 0.0:
            hi, g_hi = t, g_t
            if kept == -1:
                g_lo *= 0.5  # Illinois: halve the value at the end kept twice
            kept = -1
        else:
            lo, g_lo = t, g_t
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        if hi - lo <= 0.5 * ref:
            ref, stale = hi - lo, 0
        else:
            stale += 1
    raise EvaluationError(f"root bracket still open after {_ROOT_MAX_ITER} steps")


class LinearEstimator:
    """A linear map H (n x m) with its SVD always available.

    Construct with from_matrix (SVD computed once and cached) or
    from_factors (left: n x k orthonormal columns, singular_values >= 0,
    right: k x m orthonormal rows; stored sorted non-increasing).  The top
    singular value is then an O(1) lookup, which the robust-risk dual needs
    on every call.
    """

    def __init__(self) -> None:
        self._matrix: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._s: np.ndarray | None = None
        self._right: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "LinearEstimator":
        est = cls()
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidDimensionError("estimator matrix must be 2-D")
        if not np.all(np.isfinite(matrix)):
            raise InvalidParameterError("estimator matrix must be finite")
        est._matrix = matrix.copy()
        return est

    @classmethod
    def from_factors(
        cls, left: np.ndarray, singular_values: np.ndarray, right: np.ndarray
    ) -> "LinearEstimator":
        left = np.asarray(left, dtype=float)
        s = np.asarray(singular_values, dtype=float)
        right = np.asarray(right, dtype=float)
        if left.ndim != 2 or right.ndim != 2 or s.ndim != 1:
            raise InvalidDimensionError("factors must be (n x k, k, k x m)")
        k = s.shape[0]
        if left.shape[1] != k or right.shape[0] != k:
            raise InvalidDimensionError(
                f"factor shapes {left.shape}, {s.shape}, {right.shape} do not chain"
            )
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise InvalidParameterError("singular values must be finite and >= 0")
        if k:
            err_l = np.abs(left.T @ left - np.eye(k)).max()
            err_r = np.abs(right @ right.T - np.eye(k)).max()
            if max(err_l, err_r) > _FACTOR_TOL:
                raise InvalidParameterError(
                    f"factors not orthonormal: errors {err_l:.2e}, {err_r:.2e}"
                )
        order = np.argsort(-s, kind="stable")
        est = cls()
        est._left = left[:, order].copy()
        est._s = s[order].copy()
        est._right = right[order, :].copy()
        return est

    def _ensure_svd(self) -> None:
        if self._s is None:
            w, s, vt = np.linalg.svd(self._matrix, full_matrices=False)
            self._left, self._s, self._right = w, s, vt

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = (self._left * self._s) @ self._right
        return self._matrix

    @property
    def left(self) -> np.ndarray:
        self._ensure_svd()
        return self._left

    @property
    def singular_values(self) -> np.ndarray:
        self._ensure_svd()
        return self._s

    @property
    def right(self) -> np.ndarray:
        self._ensure_svd()
        return self._right

    @property
    def sigma_max(self) -> float:
        s = self.singular_values
        return float(s[0]) if s.size else 0.0

    @property
    def shape(self) -> tuple[int, int]:
        if self._matrix is not None:
            return self._matrix.shape
        return (self._left.shape[0], self._right.shape[1])

    def apply(self, y: np.ndarray) -> np.ndarray:
        """H @ y for a vector (m,) or a batch (m x N)."""
        if self._s is not None and self._matrix is None:
            return (self._left * self._s) @ (self._right @ y)
        return self.matrix @ y

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.singular_values**2)))


@dataclass(frozen=True)
class ShrinkageProfile:
    """Per-mode shrinkage factors sigma_i on forward singular values lambda_i.

    lambda_star is the optimal dual variable of the conjectured robust
    estimator; the dual constraint sigma_i^2 <= lambda_star is asserted at
    construction.
    """

    sigma_i: np.ndarray
    lambda_i: np.ndarray
    lambda_star: float

    def __post_init__(self) -> None:
        sigma_i = np.asarray(self.sigma_i, dtype=float)
        lambda_i = np.asarray(self.lambda_i, dtype=float)
        if sigma_i.shape != lambda_i.shape or sigma_i.ndim != 1:
            raise InvalidDimensionError("sigma_i and lambda_i must be matching 1-D arrays")
        if np.any(sigma_i < 0):
            raise InvalidParameterError("shrinkage factors must be >= 0")
        if np.any(sigma_i**2 > self.lambda_star + 1e-12):
            raise InvalidParameterError(
                "dual constraint violated: max sigma_i^2 = "
                f"{(sigma_i**2).max():.6e} > lambda_star = {self.lambda_star:.6e}"
            )
        object.__setattr__(self, "sigma_i", sigma_i)
        object.__setattr__(self, "lambda_i", lambda_i)


def optimal_robust_alpha(sigma_c: float, sigma_z: float, d: int, n: int, eps: float) -> float:
    """Shrinkage factor of the worst-case-optimal denoiser at radius eps.

    alpha = (sigma_c^2 - eps sigma_c sigma_z sqrt(d/n)
             / sqrt(sigma_c^2 + sigma_z^2 d/n - eps^2)) / (sigma_c^2 + sigma_z^2 d/n)
    when eps^2 < sigma_c^2, and 0 past that transition.
    """
    if sigma_c <= 0 or sigma_z < 0 or eps < 0:
        raise InvalidParameterError("need sigma_c > 0, sigma_z >= 0, eps >= 0")
    sc2 = sigma_c**2
    if eps**2 >= sc2:
        return 0.0
    nu2 = sigma_z**2 * d / n
    num = sc2 - eps * sigma_c * sigma_z * np.sqrt(d / n) / np.sqrt(sc2 + nu2 - eps**2)
    return float(num / (sc2 + nu2))


def optimal_robust_denoiser(
    model: SubspaceModel, noise: NoiseModel, eps: float
) -> LinearEstimator:
    """Worst-case-optimal denoiser H = alpha U U' (requires m = n)."""
    if noise.m != model.n:
        raise InvalidDimensionError(
            f"denoising needs m = n, got m={noise.m}, n={model.n}"
        )
    alpha = optimal_robust_alpha(model.sigma_c, noise.sigma_z, model.d, model.n, eps)
    s = np.full(model.d, alpha)
    return LinearEstimator.from_factors(model.basis, s, model.basis.T)


def jittering_denoiser_alpha(
    sigma_c: float, sigma_z: float, d: int, n: int, sigma_w: float
) -> float:
    """Jittering-risk-minimizing shrinkage for denoising at jitter level sigma_w."""
    if sigma_c <= 0 or sigma_z < 0 or sigma_w < 0:
        raise InvalidParameterError("need sigma_c > 0, sigma_z >= 0, sigma_w >= 0")
    sc2 = sigma_c**2
    return float(sc2 / (sc2 + sigma_z**2 * d / n + sigma_w**2 * d))


def jitter_level_for_eps(
    sigma_c: float, sigma_z: float, d: int, n: int, eps: float
) -> float:
    """Jitter level whose jittering-optimal denoiser is the robust one at eps.

    sigma_w(eps)^2 = (eps^2 sigma_z^2 d/n
                      + sigma_z sqrt(d/n) sigma_c eps sqrt(sigma_c^2 - eps^2 + sigma_z^2 d/n))
                     / (d (sigma_c^2 - eps^2)),
    defined for eps^2 < sigma_c^2.
    """
    if sigma_c <= 0 or sigma_z < 0 or eps < 0:
        raise InvalidParameterError("need sigma_c > 0, sigma_z >= 0, eps >= 0")
    sc2 = sigma_c**2
    if eps**2 >= sc2:
        raise OutOfRegimeError(
            f"jitter level undefined for eps^2 >= sigma_c^2 (eps={eps}, sigma_c={sigma_c})"
        )
    nu2 = sigma_z**2 * d / n
    num = eps**2 * nu2 + sigma_z * np.sqrt(d / n) * sigma_c * eps * np.sqrt(sc2 - eps**2 + nu2)
    return float(np.sqrt(num / (d * (sc2 - eps**2))))


def _jittering_shrinkage(
    model: SubspaceModel, noise: NoiseModel, lam: np.ndarray, sigma_w: float
) -> np.ndarray:
    """Jittering-optimal shrinkage per mode of A U, on its singular values lam.

    sigma_i = sigma_c^2 lambda_i / (sigma_c^2 lambda_i^2 + sigma_z^2 d/m + sigma_w^2 d).
    """
    sc2 = model.sigma_c**2
    denom = sc2 * lam**2 + noise.sigma_z**2 * model.d / noise.m + sigma_w**2 * model.d
    return sc2 * lam / denom


def optimal_jittering_estimator(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, sigma_w: float
) -> LinearEstimator:
    """Minimizer of the jittering risk E||H(y+w) - x||^2, w ~ N(0, sigma_w^2 I).

    H = (U V') diag(sigma_i) W' with the per-mode shrinkage of
    _jittering_shrinkage.
    """
    if sigma_w < 0:
        raise InvalidParameterError(f"sigma_w must be >= 0, got {sigma_w}")
    _check_triple(model, op, noise)
    w, lam, v = op.au_svd(model)
    sigma = _jittering_shrinkage(model, noise, lam, sigma_w)
    return LinearEstimator.from_factors(model.basis @ v.T, sigma, w.T)


def conjectured_robust_estimator(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, eps: float
) -> tuple[LinearEstimator, ShrinkageProfile]:
    """Conjectured worst-case-optimal estimator for a general forward operator.

    It minimizes the high-dimensional upper bound on the robust risk, the
    dual with the expectation taken inside, min_lam E[...] >= E min_lam [...]
    (Jensen), which is exact only as d -> infinity.  Solves min over lam >= 0 of
      F(lam) = lam eps^2 + sum_i [ (1 - lam lam_i^2)/2 * sigma_c^2/d
               - lam/2 * sigma_z^2/m
               + sqrt( ((1 + lam lam_i^2)/2 * sigma_c^2/d + lam/2 * sigma_z^2/m)^2
                        - lam lam_i^2 sigma_c^4/d^2 ) ],
    then applies the per-mode shrinkage
      sigma_i = a_i - sqrt(a_i^2 - lam),
      a_i = (1 + lam lam_i^2)/(2 lam_i) + (d/m) (lam/(2 lam_i)) (sigma_z^2/sigma_c^2)
    for observed modes (lam_i > 0) and sigma_i = 0 for unobservable ones.

    With Q_i = (1 + lam lam_i^2) sigma_c^2/(2d) + lam sigma_z^2/(2m),
    R_i = lam lam_i^2 sigma_c^4/d^2 and h_i = R_i / (Q_i + sqrt(Q_i^2 - R_i)),
    the per-mode F term is sigma_c^2/d - h_i and sigma_i = h_i d / (sigma_c^2 lam_i);
    Q_i^2 - R_i is summed from nonnegative parts, so nothing cancels.  lam*
    is the root of F'(lam) = eps^2 - sum_i (R_i'/2 - Q_i' h_i) / sqrt(Q_i^2 - R_i)
    found by _increasing_root.  F'(0) >= 0 is the collapse case lam* = 0,
    H = 0, and F'(inf) = eps^2 > 0, so a root always exists.  At sigma_z = 0,
    F has kinks at lam = 1/lam_i^2, where the mode's term is taken as its
    right limit, 0.
    """
    if eps <= 0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    if model.sigma_c <= 0:
        raise InvalidParameterError(f"need sigma_c > 0, got {model.sigma_c}")
    _check_triple(model, op, noise)
    w, lam_fwd, v = op.au_svd(model)
    observed = lam_fwd > 0.0
    t2 = lam_fwd[observed] ** 2
    s2 = model.sigma_c**2 / model.d  # per-mode signal variance
    z2 = noise.sigma_z**2 / noise.m  # per-coordinate noise variance

    def h_and_root_disc(lam: float) -> tuple[np.ndarray, np.ndarray]:
        a = 0.5 * s2 * (1.0 + lam * t2)
        b = 0.5 * z2 * lam
        q = a + b
        root_disc = np.sqrt((0.5 * s2 * (1.0 - lam * t2)) ** 2 + b * (q + a))  # sqrt(Q^2 - R)
        return lam * t2 * s2**2 / (q + root_disc), root_disc

    def slope(lam: float) -> float:
        h, root_disc = h_and_root_disc(lam)
        numer = 0.5 * t2 * s2**2 - 0.5 * (s2 * t2 + z2) * h
        terms = np.divide(numer, root_disc, out=np.zeros_like(h), where=root_disc > 0.0)
        return eps**2 - float(terms.sum())

    lam_star = _increasing_root(slope)
    sigma = np.zeros(lam_fwd.shape[0])
    sigma[observed] = h_and_root_disc(lam_star)[0] / (s2 * lam_fwd[observed])
    est = LinearEstimator.from_factors(model.basis @ v.T, sigma, w.T)
    profile = ShrinkageProfile(sigma_i=sigma, lambda_i=lam_fwd, lambda_star=float(lam_star))
    return est, profile


def ridge_estimator(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, reg: float
) -> LinearEstimator:
    """Minimizer of E||Hy - x||^2 + reg ||H||_F^2 by dense normal equations.

    Kept as an independent computation path (no shared formula with
    optimal_jittering_estimator) so the identity ridge(sigma_w^2) ==
    jittering(sigma_w) is a real cross-check: H = E[x y'] (E[y y'] + reg I)^{-1}.
    """
    if reg < 0:
        raise InvalidParameterError(f"reg must be >= 0, got {reg}")
    _check_triple(model, op, noise)
    b = op.matrix @ model.basis  # m x d
    s2 = model.sigma_c**2 / model.d
    z2 = noise.sigma_z**2 / noise.m
    gram = s2 * (b @ b.T) + (z2 + reg) * np.eye(noise.m)
    cross = s2 * (b @ model.basis.T)  # (E[x y'])' = E[y x']
    return LinearEstimator.from_matrix(np.linalg.solve(gram, cross).T)


def mmse_estimator(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel
) -> LinearEstimator:
    """Standard-risk (eps = 0) optimal linear estimator: jittering at sigma_w = 0."""
    return optimal_jittering_estimator(model, op, noise, 0.0)

