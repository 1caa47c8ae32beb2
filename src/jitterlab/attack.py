"""Projected gradient ascent for l2-bounded worst-case perturbations.

The attack maximizes ||f(y + e) - x||^2 over the ball ||e|| <= eps with
normalized-gradient steps

    e^{j+1} = P_{B(0, eps)}( e^j + step * De^j / ||De^j|| ),

step = step_scale * eps / n_steps, starting from e^0 = 0 (restart 0) and
optionally from uniformly random directions of radius restart_scale * eps.
For the linear family f(y) = H y the gradient is analytic,
De = 2 H' (H (y + e) - x), so no autodiff is needed.

The returned value is the best over all iterates of all restarts, never a
final-iterate regression; for linear estimators it is a lower bound on the
exact dual value, with equality (to ~1e-4 relative) at evaluation-grade
step/restart budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttackDivergenceError, InvalidParameterError
from .estimators import LinearEstimator
from .model import rng_stream


@dataclass(frozen=True)
class AttackConfig:
    """PGD budget: radius, step count/scale, restarts.

    n_restarts counts total runs including the deterministic start at 0;
    restart_scale fixes the radius (as a fraction of eps) of the random
    initial points used by restarts 1, 2, ...
    """

    eps: float
    n_steps: int
    step_scale: float = 2.5
    n_restarts: int = 1
    restart_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.eps >= 0:
            raise InvalidParameterError(f"eps must be >= 0, got {self.eps}")
        if self.n_steps < 1 or self.n_restarts < 1:
            raise InvalidParameterError("need n_steps >= 1 and n_restarts >= 1")
        if self.step_scale <= 0 or not (0.0 <= self.restart_scale <= 1.0):
            raise InvalidParameterError("need step_scale > 0 and restart_scale in [0, 1]")


def pgd_attack(
    estimator: LinearEstimator,
    x: np.ndarray,
    y: np.ndarray,
    config: AttackConfig,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Best perturbation found by projected gradient ascent.

    Returns (perturbation, value) with ||perturbation|| <= eps and value
    the max of the squared error over every iterate visited.  A zero
    gradient leaves the iterate unchanged for that step.
    """
    y = np.asarray(y, dtype=float)
    h = estimator.matrix
    r0 = h @ y - np.asarray(x, dtype=float)

    def value_and_grad(e: np.ndarray) -> tuple[float, np.ndarray]:
        resid = r0 + h @ e
        return float(resid @ resid), 2.0 * (h.T @ resid)

    m = y.shape[0]
    eps = config.eps

    base_value, _ = value_and_grad(np.zeros(m))
    if not np.isfinite(base_value):
        raise AttackDivergenceError("squared error non-finite at zero perturbation")
    best_e = np.zeros(m)
    best_value = base_value
    if eps == 0.0:
        return best_e, best_value

    step = config.step_scale * eps / config.n_steps
    rng = rng_stream(seed, 0)
    for restart in range(config.n_restarts):
        if restart == 0:
            e = np.zeros(m)
        else:
            direction = rng.standard_normal(m)
            norm = np.linalg.norm(direction)
            while norm == 0.0:  # probability-zero redraw guard
                direction = rng.standard_normal(m)
                norm = np.linalg.norm(direction)
            e = (config.restart_scale * eps / norm) * direction
        for _ in range(config.n_steps):
            value, grad = value_and_grad(e)
            if not np.isfinite(value):
                raise AttackDivergenceError("squared error non-finite at an iterate")
            if value > best_value:
                best_value = value
                best_e = e.copy()
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                e = e + (step / gnorm) * grad
                enorm = float(np.linalg.norm(e))
                if enorm > eps:
                    e *= eps / enorm
        value, _ = value_and_grad(e)
        if not np.isfinite(value):
            raise AttackDivergenceError("squared error non-finite at an iterate")
        if value > best_value:
            best_value = value
            best_e = e.copy()
    return best_e, best_value


def pgd_perturb_batch(
    h: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    n_steps: int,
    step_scale: float = 2.5,
) -> np.ndarray:
    """Training-mode PGD on a whole minibatch at once.

    Columns of x (n x B) and y (m x B) are independent samples; each gets
    the single-run attack (start at zero, normalized steps, projection) and
    the final iterate is returned, which is what the adversarial training
    gradient consumes.  Matches pgd_attack with n_restarts = 1 up to
    best-iterate tracking.
    """
    if not eps >= 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    if n_steps < 1:
        raise InvalidParameterError(f"need n_steps >= 1, got {n_steps}")
    e = np.zeros_like(y)
    if eps == 0.0:
        return e
    r0 = h @ y - x
    step = step_scale * eps / n_steps
    for k in range(n_steps):
        # Ascent direction H'(r0 + H e); the gradient's exact factor 2 cancels
        # in the normalisation, and H e is zero on the first step.
        grad = h.T @ (r0 if k == 0 else r0 + h @ e)
        gnorm = np.linalg.norm(grad, axis=0)
        grad *= np.where(gnorm > 0.0, step / np.where(gnorm > 0.0, gnorm, 1.0), 0.0)
        e += grad
        enorm = np.linalg.norm(e, axis=0)
        e *= np.where(enorm > eps, eps / np.where(enorm > 0.0, enorm, 1.0), 1.0)
    if not np.all(np.isfinite(e)):
        raise AttackDivergenceError("batch attack produced non-finite perturbations")
    return e
