"""Projected gradient ascent for l2-bounded worst-case perturbations.

The attack maximizes ||f(y + e) - x||^2 over the ball ||e|| <= eps with
normalized-gradient steps

    e^{j+1} = P_{B(0, eps)}( e^j + step * De^j / ||De^j|| ),

step = step_scale * eps / n_steps.  For the linear family f(y) = H y the
gradient is analytic, De = 2 H' (H (y + e) - x), so no autodiff is needed.

One loop steps the columns of a block side by side, in buffers allocated
once per call; leading axes stack independent blocks, each with its own
radius.  pgd_perturb_batch runs one attack per minibatch column from
e^0 = 0 and returns the final iterates, for one minibatch or a stack of
them (the lockstep training loop).  pgd_attack runs its restarts as the
columns (column 0 from zero, the others from random points at radius eps)
and returns the best of every iterate of every restart: a lower bound on
the exact dual value, with equality (to ~1e-4 relative) at
evaluation-grade budgets.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AttackDivergenceError, InvalidParameterError
from .estimators import LinearEstimator
from .model import _check_integer, _check_nonnegative, _check_positive, rng_stream


def _check_budget(eps: float | np.ndarray, n_steps: int, step_scale: float) -> None:
    """eps is one radius or an array of them, one per stacked run."""
    _check_integer(n_steps=n_steps)
    _check_nonnegative(eps=eps)
    _check_positive(n_steps=n_steps, step_scale=step_scale)
    if not (np.all(np.isfinite(eps)) and math.isfinite(step_scale)):
        raise InvalidParameterError(f"need finite eps and step_scale, got {eps}, {step_scale}")


@dataclass(frozen=True)
class AttackConfig:
    """PGD budget: radius, step count/scale, restarts.

    n_restarts counts total runs including the deterministic start at 0;
    restarts 1, 2, ... start at random points on the sphere of radius eps.
    """

    eps: float
    n_steps: int
    step_scale: float = 2.5
    n_restarts: int = 1

    def __post_init__(self) -> None:
        _check_budget(self.eps, self.n_steps, self.step_scale)
        _check_integer(n_restarts=self.n_restarts)
        _check_positive(n_restarts=self.n_restarts)


def _column_norms(a: np.ndarray, sq: np.ndarray, out: np.ndarray) -> None:
    """out = the 2-norms of a's columns (axis -2), with the bits of np.linalg.norm."""
    np.multiply(a, a, out=sq)
    np.add.reduce(sq, axis=-2, keepdims=True, out=out)
    np.sqrt(out, out=out)


def _pgd_iterates(
    h: np.ndarray,
    r0: np.ndarray,
    e: np.ndarray,
    eps: float | np.ndarray,
    n_steps: int,
    step_scale: float,
) -> Iterator[np.ndarray]:
    """Step the columns of e in place, yielding r0 + H e^j while e holds e^j.

    h is (..., n, m), r0 (..., n, B) and e (..., m, B); eps is one radius or
    an array of radii broadcasting against (..., 1, B).  The yielded
    residual is a buffer that the next step overwrites.  The final
    iterate's residual is left to the caller.
    """
    step = step_scale * eps / n_steps
    h_t = np.swapaxes(h, -1, -2)
    resid = np.empty_like(r0)
    grad, sq = np.empty_like(e), np.empty_like(e)
    norm = np.empty(e.shape[:-2] + (1, e.shape[-1]))
    scale = np.empty_like(norm)
    mask = np.empty(norm.shape, dtype=bool)
    for j in range(n_steps):
        if j or e.any():
            np.matmul(h, e, out=resid)
            resid += r0
            current = resid
        else:
            current = r0  # H e is zero from a zero start
        yield current
        # The gradient is 2 H' resid; its factor 2 cancels in the normalisation.
        np.matmul(h_t, current, out=grad)
        _column_norms(grad, sq, norm)
        np.greater(norm, 0.0, out=mask)
        scale.fill(0.0)
        np.divide(step, norm, out=scale, where=mask)
        grad *= scale
        e += grad
        _column_norms(e, sq, norm)
        np.greater(norm, eps, out=mask)
        scale.fill(1.0)
        np.divide(eps, norm, out=scale, where=mask)
        e *= scale


def pgd_attack(
    estimator: LinearEstimator,
    x: np.ndarray,
    y: np.ndarray,
    config: AttackConfig,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Best perturbation found by projected gradient ascent.

    Returns (perturbation, value) with ||perturbation|| <= eps and value the
    max of the squared error over every iterate visited, the lowest restart
    winning ties.  A zero gradient leaves the iterate unchanged for that step.
    """
    y = np.asarray(y, dtype=float)
    h = estimator.matrix
    n_restarts, eps = config.n_restarts, config.eps
    r0 = np.repeat((h @ y - np.asarray(x, dtype=float))[:, None], n_restarts, axis=1)
    # Restart k >= 1 starts along row k - 1: successive draws of one stream.
    starts = rng_stream(seed, 0).standard_normal((n_restarts - 1, y.shape[0])).T
    e = np.hstack([np.zeros((y.shape[0], 1)), starts * (eps / np.linalg.norm(starts, axis=0))])
    best_e = e.copy()
    best_value = np.full(n_restarts, -np.inf)

    def keep(resid: np.ndarray) -> None:
        value = np.einsum("ij,ij->j", resid, resid)
        if not np.all(np.isfinite(value)):
            raise AttackDivergenceError("squared error non-finite at an iterate")
        np.copyto(best_e, e, where=value > best_value)
        np.maximum(best_value, value, out=best_value)

    for resid in _pgd_iterates(h, r0, e, eps, config.n_steps, config.step_scale):
        keep(resid)
    keep(r0 + h @ e)
    k = int(np.argmax(best_value))
    return best_e[:, k], float(best_value[k])


def pgd_perturb_batch(
    h: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    eps: float | np.ndarray,
    n_steps: int,
    step_scale: float = 2.5,
) -> np.ndarray:
    """Training-mode PGD on a whole minibatch at once, or on a stack of them.

    Columns of x (n x B) and y (m x B) are independent samples; each gets
    the single-run attack (start at zero, normalized steps, projection) and
    the final iterate is returned, which is what the adversarial training
    gradient consumes.  Matches pgd_attack with n_restarts = 1 up to
    best-iterate tracking.  Leading axes of h (..., n, m), x and y stack
    independent runs; eps is then one radius or an array of per-run radii
    shaped to broadcast against (..., 1, 1), and each run's slice gets the
    bits of its own call.  A non-finite result raises AttackDivergenceError
    with the whole result attached as `.perturbation`.
    """
    _check_budget(eps, n_steps, step_scale)
    e = np.zeros_like(y)
    if not np.any(eps):
        return e
    r0 = np.matmul(h, y)
    r0 -= x
    for _ in _pgd_iterates(h, r0, e, eps, n_steps, step_scale):
        pass
    if not np.all(np.isfinite(e)):
        exc = AttackDivergenceError("batch attack produced non-finite perturbations")
        exc.perturbation = e
        raise exc
    return e
