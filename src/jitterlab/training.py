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
deterministic given the config seed.  The loop works in place on buffers
allocated once per run and applies a diagonal operator as a row scaling;
both give the bits of the textbook loop.

Runs with distinct seeds are independent, so the drivers spread them over
forked workers with `_fork_map`; results do not depend on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .attack import pgd_perturb_batch
from .errors import InvalidParameterError, TrainingDivergenceError
from .estimators import LinearEstimator
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _check_triple, _sub_seed, draw_sample_arrays,
    rng_stream,
)
from .risk import RiskReport, certify

_OBJECTIVES = ("standard", "adversarial", "jittering")
_OPTIMIZERS = ("sgd", "adaptive")

# True while this process runs a _fork_map share; forked workers inherit it.
_mapping = False


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """fn over share in order, stopping at the first exception, which is returned."""
    values = []
    for item in share:
        try:
            values.append(fn(item))
        except Exception as exc:  # handed to _fork_map, which re-raises it
            return values, exc
    return values, None


def _fork_worker(fn, share: list, conn) -> None:
    conn.send(_run_share(fn, share))
    conn.close()


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items], split over this process and forked children.

    One process per CPU this process may run on, capped at the item count;
    process k takes items k, k + P, k + 2P, ... .  Only results and
    exceptions cross the pipes (pickled), so fn may be a closure over data
    the caller prepared before the call.  The exception of the first
    failing item in item order is raised, as the plain loop would raise it.
    Runs the plain loop on one CPU, for one item, where the platform has no
    CPU affinity or no fork start method, or when called from inside a share.
    """
    global _mapping
    items = list(items)
    # sched_getaffinity is Linux-only; elsewhere (macOS forks unsafely once its
    # system frameworks run threads) the loop stays serial.
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    procs = min(len(affinity(0)), len(items))
    if procs < 2 or _mapping:
        return [fn(item) for item in items]
    import multiprocessing  # lazily: only runs that fork pay for the import

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    # fork, not spawn: workers see fn's closure and its arrays copy-on-write,
    # with no re-import and no pickled inputs.
    ctx = multiprocessing.get_context("fork")
    workers = []
    shares = []
    _mapping = True
    try:
        for k in range(1, procs):
            recv, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_fork_worker, args=(fn, items[k::procs], send))
            worker.start()
            send.close()
            workers.append((worker, recv))
        shares.append(_run_share(fn, items[0::procs]))
        for worker, recv in workers:
            try:
                shares.append(recv.recv())
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"fork-map worker exited with code {worker.exitcode} before sending results"
                ) from None
    finally:
        _mapping = False
        for worker, recv in workers:
            if len(shares) < procs:
                worker.terminate()  # the map is failing: stop workers still running
            worker.join()
            recv.close()
    failures = [
        (k + len(values) * procs, exc) for k, (values, exc) in enumerate(shares) if exc is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (values, _) in enumerate(shares):
        results[k::procs] = values
    return results


@dataclass(frozen=True)
class TrainConfig:
    """Objective, optimizer, and budget for one training run.

    objective selects the gradient rule; eps feeds "adversarial" and
    sigma_w feeds "jittering" (each ignored otherwise).  attack_steps is
    the training-mode PGD budget.
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
    attack_steps: int = 3
    attack_step_scale: float = 2.5
    record_every: int = 100

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise InvalidParameterError(f"objective must be one of {_OBJECTIVES}")
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidParameterError(f"optimizer must be one of {_OPTIMIZERS}")
        finite = (self.eps, self.sigma_w, self.lr, self.eps_hat, self.attack_step_scale)
        if not np.all(np.isfinite(finite)):
            raise InvalidParameterError(
                "eps, sigma_w, lr, eps_hat and attack_step_scale must be finite"
            )
        if self.lr <= 0 or self.batch_size < 1 or self.n_iterations < 1:
            raise InvalidParameterError("need lr > 0, batch_size >= 1, n_iterations >= 1")
        if self.eps < 0 or self.sigma_w < 0:
            raise InvalidParameterError("eps and sigma_w must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidParameterError("momentum must lie in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidParameterError("beta1 and beta2 must lie in [0, 1)")
        if self.eps_hat <= 0 or self.attack_step_scale <= 0:
            raise InvalidParameterError("eps_hat and attack_step_scale must be > 0")
        if self.attack_steps < 1 or self.record_every < 1:
            raise InvalidParameterError("attack_steps and record_every must be >= 1")


@dataclass(frozen=True)
class TrainTrace:
    """Recorded loss curve plus the trained estimator."""

    iterations: np.ndarray
    losses: np.ndarray
    estimator: LinearEstimator


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
    _check_triple(model, op, noise)
    n, m, d = model.n, noise.m, model.d
    batch = config.batch_size
    basis = model.basis
    a_mat = op.matrix
    a_diag = np.diagonal(a_mat)
    row_scale = a_diag[:, None] if np.array_equal(a_mat, np.diag(a_diag)) else None
    c_scale = model.sigma_c / np.sqrt(d)
    z_scale = noise.per_coordinate_std
    jittering = config.objective == "jittering"

    # One draw per iteration fills c, z (and w) in the order of separate
    # (d, B), (m, B), (m, B) draws, so the stream is the same.
    draw = np.empty((d + m + (m if jittering else 0), batch))
    c, z, w = draw[:d], draw[d:d + m], draw[d + m:]
    x, y = np.empty((n, batch)), np.empty((m, batch))
    resid, sq = np.empty((n, batch)), np.empty((n, batch))
    h = np.zeros((n, m))
    grad, step, denom = np.empty_like(h), np.empty_like(h), np.empty_like(h)
    vel = np.zeros_like(h)
    mom1 = np.zeros_like(h)
    mom2 = np.zeros_like(h)

    ema = None
    its: list[int] = []
    losses: list[float] = []
    for t in range(config.n_iterations):
        rng_stream(config.seed, t).standard_normal(out=draw)
        c *= c_scale
        z *= z_scale
        np.matmul(basis, c, out=x)
        if row_scale is None:
            np.matmul(a_mat, x, out=y)
        else:
            # The zero off-diagonal terms add nothing to the matmul's sums.
            np.multiply(row_scale, x, out=y)
        y += z

        if jittering:
            w *= config.sigma_w
            w += y
            yt = w
        elif config.objective == "adversarial":
            yt = pgd_perturb_batch(
                h, x, y, config.eps, config.attack_steps, config.attack_step_scale
            )
            yt += y
        else:
            yt = y

        np.matmul(h, yt, out=resid)
        resid -= x
        with np.errstate(over="ignore"):  # overflow IS the divergence signal
            np.multiply(resid, resid, out=sq)
            loss = float(sq.sum() / batch)
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

        np.matmul(resid, yt.T, out=grad)
        grad *= 2.0 / batch
        if config.optimizer == "sgd":
            vel *= config.momentum
            grad *= config.lr
            vel -= grad
            h += vel
        else:
            mom1 *= config.beta1
            np.multiply(1.0 - config.beta1, grad, out=step)
            mom1 += step
            mom2 *= config.beta2
            np.multiply(grad, grad, out=step)
            step *= 1.0 - config.beta2
            mom2 += step
            np.divide(mom1, 1.0 - config.beta1 ** (t + 1), out=step)
            step *= config.lr
            np.divide(mom2, 1.0 - config.beta2 ** (t + 1), out=denom)
            np.sqrt(denom, out=denom)
            denom += config.eps_hat
            step /= denom
            h -= step

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
    `base_config` carries every non-objective knob.  The grid points
    train and certify in parallel, one forked worker per available CPU
    (`_fork_map`); the result does not depend on the worker count.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    sigma_w_grid = np.atleast_1d(np.asarray(sigma_w_grid, dtype=float))
    if eps_grid.size == 0 or sigma_w_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    base = base_config if base_config is not None else TrainConfig()
    configs = [
        replace(base, objective="jittering", sigma_w=float(sw), seed=_sub_seed(seed, i))
        for i, sw in enumerate(sigma_w_grid)
    ]
    x, y, _ = draw_sample_arrays(model, op, noise, eval_samples, _sub_seed(seed, 10**6))

    def train_and_certify(i: int) -> RiskReport:
        try:
            return certify(train(model, op, noise, configs[i]).estimator, x, y, eps_grid)
        except Exception as exc:
            # Annotate with the grid coordinate, keeping the exception type.
            detail = f"sweep grid point sigma_w={sigma_w_grid[i]} (row {i})"
            exc.args = tuple(list(exc.args) + [detail]) if exc.args else (detail,)
            raise

    reports = _fork_map(train_and_certify, range(sigma_w_grid.size))
    risks = np.array([report.values for report in reports])
    ci_low = np.array([report.ci_low for report in reports])
    ci_high = np.array([report.ci_high for report in reports])
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
