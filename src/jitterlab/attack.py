"""Projected gradient ascent for l2-bounded worst-case perturbations.

The attack maximizes ||f(y + e) - x||^2 over the ball ||e|| <= eps with
normalized-gradient steps

    e^{j+1} = P_{B(0, eps)}( e^j + step * De^j / ||De^j|| ),

step = step_scale * eps / n_steps.  For the linear family f(y) = H y the
gradient is analytic, De = 2 H' (H (y + e) - x), so no autodiff is needed.

One loop steps the columns of a block side by side, in buffers allocated
once per call; leading axes stack independent blocks, each with its own
radius.  pgd_perturb_batch runs one attack per minibatch column from
e^0 = 0 at the training step scale 2.5 and returns the final iterates, for
one minibatch or a stack of them; the lockstep training loop calls its
unchecked core, _pgd_perturb.  pgd_attack runs its restarts as the columns
(column 0 from zero, the others from random points at radius eps) and
returns the best of every iterate of every restart: a lower bound on the
exact dual value, with equality (to ~1e-4 relative) at evaluation-grade
budgets.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AttackDivergenceError, InvalidDimensionError, InvalidParameterError
from .estimators import LinearEstimator
from .model import _check_count, _check_nonnegative, _check_positive, rng_stream

# What a non-finite _pgd_perturb result reads as, raised here or recorded by the training loop.
_DIVERGED = "batch attack produced non-finite perturbations"
_STEP_SCALE = 2.5  # training-mode PGD's and AttackConfig's default: steps travel 2.5 eps in all


def _check_budget(eps: float | np.ndarray, n_steps: int) -> None:
    """eps is one radius or an array of them, one per stacked run."""
    _check_count(1, n_steps=n_steps)
    _check_nonnegative(eps=eps)
    if not np.all(np.isfinite(eps)):
        raise InvalidParameterError(f"eps must be finite, got {eps}")


@dataclass(frozen=True)
class AttackConfig:
    """PGD budget: radius, step count/scale, restarts.

    n_restarts counts total runs including the deterministic start at 0;
    restarts 1, 2, ... start at random points on the sphere of radius eps.
    """

    eps: float
    n_steps: int
    step_scale: float = _STEP_SCALE
    n_restarts: int = 1

    def __post_init__(self) -> None:
        _check_budget(self.eps, self.n_steps)
        _check_count(1, n_restarts=self.n_restarts)
        _check_positive(step_scale=self.step_scale)
        if not math.isfinite(self.step_scale):
            raise InvalidParameterError(f"step_scale must be finite, got {self.step_scale}")


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
    x is an n-vector and y an m-vector for the n x m estimator.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = estimator.matrix
    n_restarts, eps = config.n_restarts, config.eps
    # Restart k >= 1 starts along row k - 1: successive draws of one stream.
    starts = rng_stream(seed, 0).standard_normal((n_restarts - 1, h.shape[1])).T
    if x.shape != h.shape[:1] or y.shape != h.shape[1:]:
        raise InvalidDimensionError(f"estimator {h.shape} does not match x {x.shape}, y {y.shape}")
    r0 = np.repeat((h @ y - x)[:, None], n_restarts, axis=1)
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


def _pgd_perturb(h: np.ndarray, x: np.ndarray, y: np.ndarray, eps: float | np.ndarray,
                 n_steps: int) -> np.ndarray:
    """pgd_perturb_batch unchecked: no budget check, and a non-finite result is returned."""
    e = np.zeros_like(y)
    if not np.any(eps):
        return e
    r0 = np.matmul(h, y)
    r0 -= x
    for _ in _pgd_iterates(h, r0, e, eps, n_steps, _STEP_SCALE):
        pass
    return e


def pgd_perturb_batch(h: np.ndarray, x: np.ndarray, y: np.ndarray, eps: float | np.ndarray,
                      n_steps: int) -> np.ndarray:
    """Training-mode PGD on a whole minibatch at once, or on a stack of them.

    Columns of x (n x B) and y (m x B) are independent samples; each gets
    the single-run attack (start at zero, normalized steps of 2.5 eps /
    n_steps, projection) and the final iterate is returned, which is what
    the adversarial training gradient consumes: pgd_attack with
    n_restarts = 1 and the default step scale, up to best-iterate tracking.
    Leading axes of h (..., n, m), x and y stack independent runs; eps is
    then one radius or an array of per-run radii shaped to broadcast
    against (..., 1, 1), and each run's slice gets the bits of its own
    call.  It checks the budget, runs the core _pgd_perturb and raises
    AttackDivergenceError at a non-finite result.
    """
    _check_budget(eps, n_steps)
    e = _pgd_perturb(h, x, y, eps, n_steps)
    if not np.all(np.isfinite(e)):
        raise AttackDivergenceError(_DIVERGED)
    return e
