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
adaptive (Adam-style) rule with bias-corrected first/second moments at the
fixed decay rates 0.9 and 0.999 and denominator offset 1e-8, which is the
default at lr 1e-3.  Training starts from H = 0 and is
deterministic given the config seed.

One loop trains a stack of K runs in lockstep: runs under one noise model
whose configs differ only in seed, eps and sigma_w share every numpy call,
with H, the optimizer moments, the minibatch and the PGD iterates held as
(K, ., .) arrays.  Each run draws its own rng_stream(seed, t) into its
slice, from one generator per run rekeyed for each t (`_stream_series`),
and eps and sigma_w enter as per-run factors, so every run gets the bits
of its own loop; `train` is the K = 1 case.  A run at eps = 0 or
sigma_w = 0 is the standard objective bit for bit and trains in the
standard stack.  At sigma_z = 0 the noise z is all zeros, so unless the
jitter w (drawn after z) is needed, a run draws only its latents c, the
first d * B normals of its stream.  The loop works in place on buffers
allocated once per stack and applies a diagonal operator as a row
scaling; all of this gives the bits of the textbook loop.

Runs with distinct seeds are independent, so the drivers spread them over
forked workers with `_train_map`, each run under its own noise model:
each worker trains its share of the runs in stacks, then finishes
(certifies) them in order.  Results do not depend on the worker count.
"""

from __future__ import annotations

import functools
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .attack import pgd_perturb_batch
from .errors import AttackDivergenceError, InvalidParameterError, TrainingDivergenceError
from .estimators import LinearEstimator
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _check_triple, _stream_series, _sub_seed,
    draw_sample_arrays,
)
from .risk import RiskReport, _check_eval_samples, certify

_OBJECTIVES = ("standard", "adversarial", "jittering")
_OPTIMIZERS = ("sgd", "adaptive")
# The adaptive rule's first and second moment decay rates and denominator offset.
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8

# True while this process runs a _map_shares share; forked workers inherit it.
_mapping = False


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """fn over share in order, stopping at the first exception, which is returned."""
    values = []
    for item in share:
        try:
            values.append(fn(item))
        except Exception as exc:  # handed to _map_shares, which re-raises it
            return values, exc
    return values, None


def _run_whole(run_share, items: list) -> list:
    values, exc = run_share(items)
    if exc is not None:
        raise exc
    return values


def _fork_worker(run_share, share: list, conn) -> None:
    conn.send(run_share(share))
    conn.close()


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items], split over this process and forked children."""
    items = list(items)
    return _map_shares(lambda share: _run_share(lambda i: fn(items[i]), share), range(len(items)))


def _map_shares(run_share, order) -> list:
    """Results for items 0, ..., N - 1, in shares run by this process and forked children.

    order lists the N item indices.  One process per CPU this process may
    run on, capped at N; process k of P takes order[k::P], so items next to
    each other in order go to different processes.  run_share(share) gets
    a share's indices in ascending order and returns (values, exc): the
    results for a prefix of share, and the exception that stopped it there,
    or None.  Only results and exceptions cross the pipes (pickled), so
    run_share may be a closure over data the caller prepared before the
    call.  The exception of the first failing item in item order is
    raised, as the plain loop would raise it.  Runs all items as one share
    in this process on one CPU, for one item, where the platform has no CPU
    affinity or no fork start method, or when called from inside a share.
    """
    global _mapping
    order = list(order)
    # sched_getaffinity is Linux-only; elsewhere (macOS forks unsafely once its
    # system frameworks run threads) the loop stays serial.
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    procs = min(len(affinity(0)), len(order))
    if procs < 2 or _mapping:
        return _run_whole(run_share, sorted(order))
    import multiprocessing  # lazily: only runs that fork pay for the import

    if "fork" not in multiprocessing.get_all_start_methods():
        return _run_whole(run_share, sorted(order))
    # fork, not spawn: workers see run_share's closure and its arrays
    # copy-on-write, with no re-import and no pickled inputs.
    ctx = multiprocessing.get_context("fork")
    shares = [sorted(order[k::procs]) for k in range(procs)]
    workers = []
    done = []  # (values, exc) per share, this process's first
    _mapping = True
    try:
        for k in range(1, procs):
            recv, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_fork_worker, args=(run_share, shares[k], send))
            worker.start()
            send.close()
            workers.append((worker, recv))
        done.append(run_share(shares[0]))
        for worker, recv in workers:
            try:
                done.append(recv.recv())
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"fork-map worker exited with code {worker.exitcode} before sending results"
                ) from None
    finally:
        _mapping = False
        for worker, recv in workers:
            if len(done) < procs:
                worker.terminate()  # the map is failing: stop workers still running
            worker.join()
            recv.close()
    failures = [
        (share[len(values)], exc) for share, (values, exc) in zip(shares, done) if exc is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(order)
    for share, (values, _) in zip(shares, done):
        for i, value in zip(share, values):
            results[i] = value
    return results


@dataclass(frozen=True)
class TrainConfig:
    """Objective, optimizer, and budget for one training run.

    objective selects the gradient rule; eps feeds "adversarial" and
    sigma_w feeds "jittering" (each ignored otherwise).  attack_steps is
    the training-mode PGD budget, taken at pgd_perturb_batch's default step
    scale.
    """

    objective: str = "standard"
    eps: float = 0.0
    sigma_w: float = 0.0
    optimizer: str = "adaptive"
    lr: float = 1e-3
    momentum: float = 0.0
    batch_size: int = 50
    n_iterations: int = 20000
    seed: int = 0
    attack_steps: int = 3
    record_every: int = 100

    def __post_init__(self) -> None:
        for field in ("seed", "n_iterations", "batch_size", "attack_steps", "record_every"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidParameterError(f"{field} must be an int, got {value!r}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.objective not in _OBJECTIVES:
            raise InvalidParameterError(f"objective must be one of {_OBJECTIVES}")
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidParameterError(f"optimizer must be one of {_OPTIMIZERS}")
        if not np.all(np.isfinite((self.eps, self.sigma_w, self.lr))):
            raise InvalidParameterError("eps, sigma_w and lr must be finite")
        if self.lr <= 0 or self.batch_size < 1 or self.n_iterations < 1:
            raise InvalidParameterError("need lr > 0, batch_size >= 1, n_iterations >= 1")
        if self.eps < 0 or self.sigma_w < 0:
            raise InvalidParameterError("eps and sigma_w must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidParameterError("momentum must lie in [0, 1)")
        if self.attack_steps < 1 or self.record_every < 1:
            raise InvalidParameterError("attack_steps and record_every must be >= 1")


@dataclass(frozen=True)
class TrainTrace:
    """Recorded loss curve plus the trained estimator."""

    iterations: np.ndarray
    losses: np.ndarray
    estimator: LinearEstimator


def _stack_key(config: TrainConfig) -> TrainConfig:
    """What the runs of one lockstep stack share: every field but seed, eps and sigma_w.

    A run at eps = 0 (adversarial) or sigma_w = 0 (jittering) is the
    standard objective bit for bit, since yt = y + 0, so it keys as standard.
    """
    objective = config.objective
    if (objective, config.eps) == ("adversarial", 0.0) or (
        (objective, config.sigma_w) == ("jittering", 0.0)
    ):
        objective = "standard"
    return replace(config, objective=objective, seed=0, eps=0.0, sigma_w=0.0)


def _train_stack(
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    configs: list[TrainConfig],
) -> list[TrainTrace | Exception]:
    """Train runs with one _stack_key in lockstep: one outcome per config, in order.

    An outcome is the run's TrainTrace, or the exception that stopped it:
    TrainingDivergenceError at a non-finite loss, or AttackDivergenceError.
    When runs stop, the others train again without them, so each run's
    outcome is that of its own loop.
    """
    _check_triple(model, op, noise)
    config = _stack_key(configs[0])
    if any(_stack_key(other) != config for other in configs):
        raise InvalidParameterError("stacked runs may differ only in seed, eps and sigma_w")
    n, m, d = model.n, noise.m, model.d
    k, batch = len(configs), config.batch_size
    basis = model.basis
    a_mat = op.matrix
    a_diag = np.diagonal(a_mat)
    row_scale = a_diag[:, None] if np.array_equal(a_mat, np.diag(a_diag)) else None
    c_scale = model.sigma_c / np.sqrt(d)
    z_scale = noise.per_coordinate_std
    objective = config.objective
    steps = config.attack_steps
    sgd = config.optimizer == "sgd"
    eps = np.array([run.eps for run in configs])[:, None, None]
    sigma_w = np.array([run.sigma_w for run in configs])[:, None, None]
    streams = [_stream_series(run.seed, config.n_iterations) for run in configs]

    # One draw per run and iteration fills c, z (and w) in the order of
    # separate (d, B), (m, B), (m, B) draws, so the stream is the same.
    draw = np.empty((k, d + m + (m if objective == "jittering" else 0), batch))
    c, z, w = draw[:, :d], draw[:, d:d + m], draw[:, d + m:]
    # At sigma_z = 0, y + z is y: unless w (drawn after z) is needed, only c is drawn.
    noiseless = noise.sigma_z == 0.0 and objective != "jittering"
    fill = c if noiseless else draw
    x, y = np.empty((k, n, batch)), np.empty((k, m, batch))
    resid, sq = np.empty_like(x), np.empty_like(x)
    # H, then the SGD velocity or the two adaptive moments, one slice per run.
    h, *moments = np.zeros((2 if sgd else 3, k, n, m))
    grad, step = np.empty_like(h), np.empty_like(h)

    ema = None
    its: list[int] = []
    losses: list[list[float]] = [[] for _ in configs]
    stopped: dict[int, Exception] = {}  # stack position -> exception
    for t in range(config.n_iterations):
        for p, stream in enumerate(streams):
            next(stream).standard_normal(out=fill[p])
        c *= c_scale
        np.matmul(basis, c, out=x)
        if row_scale is None:
            np.matmul(a_mat, x, out=y)
        else:
            # The zero off-diagonal terms add nothing to the matmul's sums.
            np.multiply(row_scale, x, out=y)
        if not noiseless:
            z *= z_scale
            y += z

        if objective == "jittering":
            w *= sigma_w
            w += y
            yt = w
        elif objective == "adversarial":
            try:
                yt = pgd_perturb_batch(h, x, y, eps, steps)
            except AttackDivergenceError:
                # The failure belongs to the runs whose own attack fails.
                for p in range(k):
                    alone = slice(p, p + 1)
                    try:
                        pgd_perturb_batch(h[alone], x[alone], y[alone], eps[alone], steps)
                    except AttackDivergenceError as exc:
                        stopped[p] = exc
                if not stopped:
                    raise
                break
            yt += y
        else:
            yt = y

        np.matmul(h, yt, out=resid)
        resid -= x
        with np.errstate(over="ignore"):  # overflow IS the divergence signal
            np.multiply(resid, resid, out=sq)
            loss = sq.reshape(k, -1).sum(axis=1) / batch
        finite = np.isfinite(loss)
        if not finite.all():
            for p in np.flatnonzero(~finite):
                exc = TrainingDivergenceError(f"non-finite loss at iteration {t}")
                exc.trace = TrainTrace(
                    iterations=np.array(its), losses=np.array(losses[p]),
                    estimator=LinearEstimator.from_matrix(np.nan_to_num(h[p])),
                )
                stopped[int(p)] = exc
            break
        ema = loss if ema is None else 0.99 * ema + 0.01 * loss
        if t % config.record_every == 0 or t == config.n_iterations - 1:
            its.append(t)
            for history, value in zip(losses, ema.tolist()):
                history.append(value)

        np.matmul(resid, np.swapaxes(yt, -1, -2), out=grad)
        grad *= 2.0 / batch
        if sgd:
            (vel,) = moments
            vel *= config.momentum
            grad *= config.lr
            vel -= grad
            h += vel
        else:
            mom1, mom2 = moments
            mom1 *= _BETA1
            np.multiply(1.0 - _BETA1, grad, out=step)
            mom1 += step
            mom2 *= _BETA2
            np.multiply(grad, grad, out=step)
            step *= 1.0 - _BETA2
            mom2 += step
            np.divide(mom1, 1.0 - _BETA1 ** (t + 1), out=step)
            step *= config.lr
            denom = grad  # the gradient is spent: its buffer takes the denominator
            np.divide(mom2, 1.0 - _BETA2 ** (t + 1), out=denom)
            np.sqrt(denom, out=denom)
            denom += _EPS_HAT
            step /= denom
            h -= step

    if not stopped:
        return [
            TrainTrace(
                iterations=np.array(its), losses=np.array(losses[p]),
                estimator=LinearEstimator.from_matrix(h[p]),
            )
            for p in range(k)
        ]
    others = [run for p, run in enumerate(configs) if p not in stopped]
    rest = iter(_train_stack(model, op, noise, others) if others else [])
    return [stopped[p] if p in stopped else next(rest) for p in range(k)]


def _outcome(run: TrainTrace | Exception) -> TrainTrace:
    """The trace of a run, or its exception raised."""
    if isinstance(run, Exception):
        raise run
    return run


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
    (run,) = _train_stack(model, op, noise, [config])
    return _outcome(run)


# Most runs one lockstep stack trains.  A stack shares numpy's per-call
# overhead among its K runs, while its working set grows with K: an adaptive
# run at n = m = 100 keeps five n x m arrays (400 kB), so four runs about
# fill a 2 MB L2 cache.  At those sizes on one such core, the time per run
# and iteration fell by 5-19% from K = 1 to K = 4 and by less than 7% more,
# or rose, at K = 6 and 8.
_MAX_STACK = 4


def _train_runs(
    model: SubspaceModel,
    op: ForwardOperator,
    noises: list[NoiseModel],
    configs: list[TrainConfig],
) -> list[TrainTrace | Exception]:
    """One outcome per (noises[i], configs[i]), in order, as _train_stack gives them.

    Runs with one noise model and one _stack_key train together, split
    into the fewest stacks of at most _MAX_STACK runs, of nearly equal size.
    """
    groups: dict[tuple[NoiseModel, TrainConfig], list[int]] = {}
    for i, (noise, config) in enumerate(zip(noises, configs, strict=True)):
        groups.setdefault((noise, _stack_key(config)), []).append(i)
    outcomes: list = [None] * len(configs)
    for (noise, _), members in groups.items():
        n_stacks = -(-len(members) // _MAX_STACK)
        for j in range(n_stacks):
            stack = members[j::n_stacks]
            for i, run in zip(stack, _train_stack(model, op, noise, [configs[i] for i in stack])):
                outcomes[i] = run
    return outcomes


def _train_map(
    model: SubspaceModel,
    op: ForwardOperator,
    noises: list[NoiseModel],
    configs: list[TrainConfig],
    finish,
) -> list:
    """[finish(i, run) for each config i], over this process and forked children.

    run() returns the TrainTrace of train(model, op, noises[i], configs[i])
    or raises its exception, inside finish, which may annotate it.  The
    runs of each (noise model, stack key) are dealt round-robin over the
    processes, the deal going on from one key to the next, so every
    process gets a like share of each kind of run.  Each process trains its
    share with _train_runs, then finishes it in item order; the first
    failing item in item order raises, as the plain loop would (see
    _map_shares).
    """

    def run_share(share: list) -> tuple[list, Exception | None]:
        try:
            runs = _train_runs(
                model, op, [noises[i] for i in share], [configs[i] for i in share]
            )
        except Exception as exc:  # not one run's own failure: charged to the share's first item
            return [], exc
        return _run_share(
            lambda item: finish(item[0], functools.partial(_outcome, item[1])), zip(share, runs)
        )

    keys = [(noise, _stack_key(config)) for noise, config in zip(noises, configs, strict=True)]
    return _map_shares(run_share, sorted(range(len(configs)), key=lambda i: keys.index(keys[i])))


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
    training its share in lockstep stacks (`_train_map`); the result does
    not depend on the worker count.  eval_samples < 2 is rejected before
    any draw or training.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    sigma_w_grid = np.atleast_1d(np.asarray(sigma_w_grid, dtype=float))
    if eps_grid.size == 0 or sigma_w_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    _check_eval_samples(eval_samples)
    base = base_config if base_config is not None else TrainConfig()
    configs = [
        replace(base, objective="jittering", sigma_w=float(sw), seed=_sub_seed(seed, i))
        for i, sw in enumerate(sigma_w_grid)
    ]
    x, y, _ = draw_sample_arrays(model, op, noise, eval_samples, _sub_seed(seed, 10**6))

    def certify_row(i: int, run) -> RiskReport:
        try:
            return certify(run().estimator, x, y, eps_grid)
        except Exception as exc:
            # Annotate with the grid coordinate, keeping the exception type.
            detail = f"sweep grid point sigma_w={sigma_w_grid[i]} (row {i})"
            exc.args = tuple(list(exc.args) + [detail]) if exc.args else (detail,)
            raise

    reports = _train_map(model, op, [noise] * len(configs), configs, certify_row)
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
