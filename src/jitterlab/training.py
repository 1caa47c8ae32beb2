"""Gradient training of linear estimators under three objectives.

The estimator is a single linear layer H (n x m), trained on fresh
minibatches from the generative subspace model (infinite-data regime, so
comparisons against closed-form minimizers are not confounded by
overfitting).  Per-sample gradients of the squared error:

    standard     2 (H y - x) y'
    adversarial  2 (H yt - x) yt',  yt = y + PGD perturbation (training mode:
                 few steps, no restarts, start at zero)
    jittering    2 (H (y+w) - x) (y+w)',  fresh w ~ N(0, sigma_w^2 I)

Optimizers are implemented from scratch: plain SGD with momentum, and the
adaptive (Adam-style) rule with bias-corrected first/second moments, which
is the default at lr 1e-3.  Training starts from H = 0 and is
deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attack import pgd_perturb_batch
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    TrainingDivergenceError,
)
from .estimators import LinearEstimator
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _sub_seed, draw_sample_arrays, rng_stream
)
from .risk import certify

_OBJECTIVES = ("standard", "adversarial", "jittering")
_OPTIMIZERS = ("sgd", "adaptive")


@dataclass(frozen=True)
class TrainConfig:
    """Objective, optimizer, and budget for one training run.

    objective selects the gradient rule; eps feeds "adversarial" and
    sigma_w feeds "jittering" (each ignored otherwise).  attack_steps is
    the training-mode PGD budget.  symmetric_projection optionally maps H
    to (H + H')/2 after every step (square H only).
    """

    objective: str = "standard"
    eps: float = 0.0
    sigma_w: float = 0.0
    optimizer: str = "adaptive"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    batch_size: int = 50
    n_iterations: int = 20000
    seed: int = 0
    symmetric_projection: bool = False
    attack_steps: int = 3
    attack_step_scale: float = 2.5
    record_every: int = 100

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise InvalidParameterError(f"objective must be one of {_OBJECTIVES}")
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidParameterError(f"optimizer must be one of {_OPTIMIZERS}")
        if self.lr <= 0 or self.batch_size < 1 or self.n_iterations < 1:
            raise InvalidParameterError("need lr > 0, batch_size >= 1, n_iterations >= 1")
        if self.eps < 0 or self.sigma_w < 0:
            raise InvalidParameterError("eps and sigma_w must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidParameterError("momentum must lie in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidParameterError("beta1 and beta2 must lie in [0, 1)")
        if self.eps_hat <= 0:
            raise InvalidParameterError("eps_hat must be > 0")
        if self.attack_steps < 1 or self.record_every < 1:
            raise InvalidParameterError("attack_steps and record_every must be >= 1")


@dataclass(frozen=True)
class TrainTrace:
    """Recorded loss curve plus the trained estimator."""

    iterations: np.ndarray
    losses: np.ndarray
    estimator: LinearEstimator

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,loss\n")
            for it, loss in zip(self.iterations, self.losses):
                fh.write(f"{int(it)},{loss:.12g}\n")


def train(
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    config: TrainConfig,
) -> TrainTrace:
    """Run one training loop; returns the loss trace and final estimator.

    Loss values recorded are an exponential moving average (decay 0.99) of
    the minibatch objective, a stable running estimate of the population
    objective.  Divergence (non-finite loss) raises with the trace prefix
    attached to the exception as `.trace`.
    """
    if op.n != model.n or op.m != noise.m:
        raise InvalidDimensionError("operator dimensions do not match model/noise")
    n, m, d = model.n, noise.m, model.d
    batch = config.batch_size
    basis = model.basis
    a_mat = op.matrix
    c_scale = model.sigma_c / np.sqrt(d)
    z_scale = noise.per_coordinate_std

    h = np.zeros((n, m))
    vel = np.zeros_like(h)
    mom1 = np.zeros_like(h)
    mom2 = np.zeros_like(h)

    ema = None
    its: list[int] = []
    losses: list[float] = []
    for t in range(config.n_iterations):
        g = rng_stream(config.seed, t)
        c = c_scale * g.standard_normal((d, batch))
        z = z_scale * g.standard_normal((m, batch))
        x = basis @ c
        y = a_mat @ x + z

        if config.objective == "jittering":
            yt = y + config.sigma_w * g.standard_normal((m, batch))
        elif config.objective == "adversarial":
            yt = y + pgd_perturb_batch(
                h, x, y, config.eps, config.attack_steps, config.attack_step_scale
            )
        else:
            yt = y

        resid = h @ yt - x
        with np.errstate(over="ignore"):  # overflow IS the divergence signal
            loss = float((resid * resid).sum() / batch)
        if not np.isfinite(loss):
            exc = TrainingDivergenceError(f"non-finite loss at iteration {t}")
            exc.trace = TrainTrace(
                iterations=np.array(its), losses=np.array(losses),
                estimator=LinearEstimator.from_matrix(np.nan_to_num(h)),
            )
            raise exc
        ema = loss if ema is None else 0.99 * ema + 0.01 * loss
        if t % config.record_every == 0 or t == config.n_iterations - 1:
            its.append(t)
            losses.append(ema)

        grad = (2.0 / batch) * (resid @ yt.T)
        if config.optimizer == "sgd":
            vel = config.momentum * vel - config.lr * grad
            h = h + vel
        else:
            mom1 = config.beta1 * mom1 + (1.0 - config.beta1) * grad
            mom2 = config.beta2 * mom2 + (1.0 - config.beta2) * grad**2
            m1_hat = mom1 / (1.0 - config.beta1 ** (t + 1))
            m2_hat = mom2 / (1.0 - config.beta2 ** (t + 1))
            h = h - config.lr * m1_hat / (np.sqrt(m2_hat) + config.eps_hat)
        if config.symmetric_projection:
            if n != m:
                raise InvalidDimensionError("symmetric projection needs n = m")
            h = 0.5 * (h + h.T)

    return TrainTrace(
        iterations=np.array(its),
        losses=np.array(losses),
        estimator=LinearEstimator.from_matrix(h),
    )


@dataclass(frozen=True)
class SweepResult:
    """Robust-risk matrix over a (sigma_w, eps) grid, with per-eps argmins."""

    sigma_w_grid: np.ndarray
    eps_grid: np.ndarray
    risks: np.ndarray  # (len(sigma_w_grid), len(eps_grid))
    ci_low: np.ndarray
    ci_high: np.ndarray
    argmin_sigma_w: np.ndarray  # per eps
    n_samples: int

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sigma_w,eps,risk,ci_low,ci_high\n")
            for i, sw in enumerate(self.sigma_w_grid):
                for j, eps in enumerate(self.eps_grid):
                    fh.write(
                        f"{sw:.12g},{eps:.12g},{self.risks[i, j]:.12g},"
                        f"{self.ci_low[i, j]:.12g},{self.ci_high[i, j]:.12g}\n"
                    )


def sweep_jitter_levels(
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    eps_grid: np.ndarray,
    sigma_w_grid: np.ndarray,
    eval_samples: int,
    seed: int,
    base_config: TrainConfig | None = None,
) -> SweepResult:
    """Train one jittering estimator per sigma_w; evaluate on every eps.

    The evaluation set is drawn once, before any training, and every grid
    cell is certified on it (paired comparison), so the per-eps argmin
    over sigma_w is driven by estimator differences, not by independent
    Monte-Carlo noise.  Training seeds derive from `seed` per grid point;
    `base_config` carries every non-objective knob.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    sigma_w_grid = np.atleast_1d(np.asarray(sigma_w_grid, dtype=float))
    if eps_grid.size == 0 or sigma_w_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    base = base_config if base_config is not None else TrainConfig()
    x, y, _ = draw_sample_arrays(model, op, noise, eval_samples, _sub_seed(seed, 10**6))

    n_s, n_e = sigma_w_grid.size, eps_grid.size
    risks = np.empty((n_s, n_e))
    ci_low = np.empty((n_s, n_e))
    ci_high = np.empty((n_s, n_e))
    for i, sw in enumerate(sigma_w_grid):
        config = replace(
            base, objective="jittering", sigma_w=float(sw), seed=_sub_seed(seed, i)
        )
        try:
            report = certify(train(model, op, noise, config).estimator, x, y, eps_grid)
            risks[i], ci_low[i], ci_high[i] = report.values, report.ci_low, report.ci_high
        except Exception as exc:
            # Annotate with the grid coordinate, keeping the exception type.
            detail = f"sweep grid point sigma_w={sw} (row {i})"
            exc.args = tuple(list(exc.args) + [detail]) if exc.args else (detail,)
            raise
    argmin = sigma_w_grid[np.argmin(risks, axis=0)]
    return SweepResult(
        sigma_w_grid=sigma_w_grid,
        eps_grid=eps_grid,
        risks=risks,
        ci_low=ci_low,
        ci_high=ci_high,
        argmin_sigma_w=argmin,
        n_samples=int(eval_samples),
    )
