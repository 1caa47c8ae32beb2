"""One-dimensional convex minimization on a half-open or closed ray.

Two scalar problems in the package are not secular equations: the
conjectured estimator's dual F(lam) over lam >= 0, and the scan over
jitter levels sigma_w >= 0 in best_jitter_level_analytic (jitterlab.risk).
Both are convex on their ray, may have a pole at the lower endpoint, and
have no useful upper bound.  minimize_convex handles exactly this shape:
geometric bracket expansion away from the lower endpoint followed by
golden-section search.  (The robust-risk inner maxima are solved by the
secular Newton iteration in jitterlab.risk.)

Conventions:
  * +inf objective values are legal and compare as "very large"; a pole at
    the boundary is therefore handled without special cases.
  * NaN (or -inf) objective values raise: NaN is an evaluation error, -inf
    means the problem is unbounded below.
  * With lower_inclusive=True the endpoint itself competes as a candidate
    minimizer; otherwise a minimum pinned against the endpoint raises
    BoundaryLimitError since the infimum is not attained on the open ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BoundaryLimitError,
    EvaluationError,
    InvalidParameterError,
    UnboundedBelowError,
)

# Golden ratio step: interval shrinks by this factor per function evaluation.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Relative interval width below which float64 cannot resolve further progress.
_REL_FLOOR = 4.0 * 2.0**-52


@dataclass(frozen=True)
class ScalarProblem:
    """A convex objective on the ray above `lower`.

    Parameters
    ----------
    objective : callable
        Convex function of one float.  Must be finite or +inf on the domain.
    lower : float
        Lower endpoint of the domain ray.
    tolerance : float
        Absolute accuracy requested for the argmin.  Must be positive.
    lower_inclusive : bool
        Whether `lower` itself belongs to the domain.
    max_doublings : int
        Budget for geometric bracket expansion; probes reach
        lower + tolerance * 2**max_doublings before the problem is declared
        unbounded below.
    """

    objective: Callable[[float], float]
    lower: float
    tolerance: float = 1e-10
    lower_inclusive: bool = False
    max_doublings: int = 60

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0) or not math.isfinite(self.tolerance):
            raise InvalidParameterError(
                f"tolerance must be a positive finite float, got {self.tolerance!r}"
            )
        if not math.isfinite(self.lower):
            raise InvalidParameterError(f"lower endpoint must be finite, got {self.lower!r}")
        if self.max_doublings < 2:
            raise InvalidParameterError("max_doublings must be at least 2")


def _checked(value: float, where: float) -> float:
    # NaN never orders correctly and -inf certifies unboundedness; both stop the search.
    if math.isnan(value):
        raise EvaluationError(f"objective returned NaN at {where!r}")
    if value == -math.inf:
        raise UnboundedBelowError(f"objective returned -inf at {where!r}")
    return value


def minimize_convex(problem: ScalarProblem) -> tuple[float, float]:
    """Minimize a convex scalar objective on its ray.

    Returns
    -------
    (argmin, value) : tuple of floats
        Best evaluated point, within `tolerance` of the true minimizer, and
        the objective there.

    Raises
    ------
    UnboundedBelowError
        If the objective keeps decreasing past the expansion budget.
    BoundaryLimitError
        If the domain is open at `lower` and the infimum sits on it.
    EvaluationError
        If the objective returns NaN, or no finite value is ever seen.
    """
    f = problem.objective
    lo = problem.lower
    tol = problem.tolerance

    # Geometric probes p_j = lower + tol * 2^j until the values stop falling.
    p_prev = lo + tol
    f_prev = _checked(f(p_prev), p_prev)
    bracket = None
    history = [(p_prev, f_prev)]
    for j in range(1, problem.max_doublings + 1):
        p_next = lo + tol * 2.0**j
        f_next = _checked(f(p_next), p_next)
        history.append((p_next, f_next))
        if f_next >= f_prev:
            # Convexity pins the minimum between the probe two steps back
            # (or the endpoint, early on) and the first rising probe.
            left = lo if j < 3 else lo + tol * 2.0 ** (j - 2)
            bracket = (left, p_next)
            break
        p_prev, f_prev = p_next, f_next
    if bracket is None:
        raise UnboundedBelowError(
            f"no bracket within {problem.max_doublings} doublings above {lo!r}"
        )

    a, b = bracket
    a_is_lower = a == lo

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = _checked(f(x1), x1)
    f2 = _checked(f(x2), x2)
    history.append((x1, f1))
    history.append((x2, f2))
    while b - a > tol and b - a > _REL_FLOOR * max(abs(a), abs(b)):
        # A +inf tie means both probes sit in a pole region, which our
        # objectives only have against the lower endpoint: move right.
        if f1 <= f2 and not (math.isinf(f1) and math.isinf(f2)):
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = _checked(f(x1), x1)
            history.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            a_is_lower = False
            x2 = a + _INVPHI * (b - a)
            f2 = _checked(f(x2), x2)
            history.append((x2, f2))

    x_best, f_best = min(history, key=lambda pair: pair[1])

    if a_is_lower:
        # The search never left the lower endpoint's side: the minimizer sits
        # against the boundary at this resolution.
        if not problem.lower_inclusive:
            raise BoundaryLimitError(
                f"infimum lies on the excluded boundary at {lo!r}"
            )
        f_lo = _checked(f(lo), lo)
        if f_lo <= f_best:
            x_best, f_best = lo, f_lo
    elif problem.lower_inclusive:
        # Closed domain: the endpoint always competes, pole values lose.
        f_lo = _checked(f(lo), lo)
        if f_lo < f_best:
            x_best, f_best = lo, f_lo

    if not math.isfinite(f_best):
        raise EvaluationError("objective has no finite values on the search range")
    return x_best, f_best
