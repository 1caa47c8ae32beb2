"""Gradient training of linear estimators under three objectives.

The estimator is a single linear layer H (n x m), trained on fresh
minibatches from the generative subspace model (infinite-data regime, so
comparisons against closed-form minimizers are not confounded by
overfitting).  Per-sample gradients of the squared error:

    standard     2 (H y - x) y'
    adversarial  2 (H yt - x) yt',  yt = y + PGD perturbation (training mode:
                 few steps, no restarts, start at zero)
    jittering    standard on y + w, fresh w ~ N(0, sigma_w^2 I): y + w = Ax + (z + w)
                 is one noise draw at per-coordinate variance sigma_z^2 / m + sigma_w^2

Optimizers are implemented from scratch: plain SGD with momentum, and the
adaptive (Adam-style) rule with bias-corrected first/second moments at the
fixed decay rates 0.9 and 0.999 and denominator offset 1e-8, which is the
default at lr 1e-3.  Training starts from H = 0 and is
deterministic given the config seed.

One loop trains a stack of K runs in lockstep: runs under one noise model
whose configs differ only in seed, eps and sigma_w share every numpy call,
with H, the optimizer moments, the minibatch and the PGD iterates held as
(K, ., .) arrays.  Each run draws its latents c and its noise into its
slice from its own two streams, rng_stream(seed, 0) and (seed, 1), read in
order across iterations, and eps and the noise scale enter as per-run
factors, so every run gets the bits of its own loop; `train` is the K = 1
case.  Since each variable has its own stream, a draw left out moves no
other: a jittering run is a standard run on noisier data and trains in the
standard stack, as does an adversarial run at eps = 0, and a run whose
noise scale is 0 draws no noise.  The loop works in place on buffers
allocated once per stack and applies a diagonal operator as a row
scaling; all of this gives the bits of the textbook loop.  A run whose
loss is not finite leaves the stack at that iteration; the others go on.

Runs with distinct seeds are independent, so `_train_map` spreads the
drivers' runs, each under its own noise model, over forked workers, one
per available CPU: each worker trains its share in stacks, then finishes
(certifies) it in order, while this process, which prepared the shared
inputs before the fork, only joins them.  Results do not depend on the
worker count.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from .attack import pgd_perturb_batch
from .errors import AttackDivergenceError, InvalidParameterError, TrainingDivergenceError
from .estimators import LinearEstimator
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _check_integer, _check_nonnegative, _check_positive,
    _check_triple, _sub_seed, draw_sample_arrays, rng_stream,
)
from .risk import RiskReport, _check_eval_samples, certify

_OBJECTIVES = ("standard", "adversarial", "jittering")
_OPTIMIZERS = ("sgd", "adaptive")
# The adaptive rule's first and second moment decay rates and denominator offset.
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8

# True inside a _map_shares call; forked workers inherit it.
_mapping = False


def _run_share(prepare, finish, share: list) -> tuple[list, Exception | None]:
    """finish(i, v) over share and prepare(share) in order: (values, first exception or None)."""
    values = []
    try:
        for i, value in zip(share, prepare(share), strict=True):
            values.append(finish(i, value))
    except Exception as exc:  # handed to _map_shares, which re-raises it
        return values, exc
    return values, None


def _fork_worker(prepare, finish, share: list, conn) -> None:
    conn.send(_run_share(prepare, finish, share))
    conn.close()


def _map_shares(prepare, finish, order) -> list:
    """Results for items 0, ..., N - 1, one share of them per forked worker.

    order lists the N item indices, dealt round-robin over P shares, so
    items next to each other in order go to different shares.  P is one
    per CPU this process may run on, capped at N; it is 1 on a platform
    with no CPU affinity or no fork start method, and when called from
    inside a share.  At P = 1 this process runs the one share; otherwise
    worker k runs order[k::P] and this process only forks and joins, so
    its peak memory is what it held before the call.  Each process calls
    prepare(share) once, on its share's indices in ascending order, for
    one value per item, then finish(i, value) per item in order, for item
    i's result; an exception from prepare is charged to the share's first
    item.  Only results and exceptions cross the pipes (pickled), so
    prepare and finish may be closures over data the caller prepared
    before the call, which the workers read copy-on-write.  The exception
    of the first failing item in item order is raised, as the plain loop
    would raise it.
    """
    global _mapping
    order = list(order)
    # sched_getaffinity is Linux-only; elsewhere (macOS forks unsafely once its
    # system frameworks run threads) the loop stays serial.
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    procs = 1 if _mapping else max(1, min(len(affinity(0)), len(order)))
    if procs > 1:
        import multiprocessing  # lazily: only runs that fork pay for the import

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, not spawn: workers see the closures and their arrays
            # copy-on-write, with no re-import and no pickled inputs.
            ctx = multiprocessing.get_context("fork")
        else:
            procs = 1
    shares = [sorted(order[k::procs]) for k in range(procs)]
    workers = []
    done = []  # (values, exc) per share, in share order
    outer, _mapping = _mapping, True
    try:
        if procs == 1:
            done.append(_run_share(prepare, finish, shares[0]))
        else:
            for share in shares:
                recv, send = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_fork_worker, args=(prepare, finish, share, send))
                worker.start()
                send.close()
                workers.append((worker, recv))
        for worker, recv in workers:
            try:
                done.append(recv.recv())
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"fork-map worker exited with code {worker.exitcode} before sending results"
                ) from None
    finally:
        _mapping = outer  # a nested call keeps the outer call's flag
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
    sigma_w feeds "jittering" as extra input noise (each ignored
    otherwise).  attack_steps is the training-mode PGD budget, taken at
    pgd_perturb_batch's default step scale.
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
        _check_integer(seed=self.seed, n_iterations=self.n_iterations,
                       batch_size=self.batch_size, attack_steps=self.attack_steps,
                       record_every=self.record_every)
        if self.objective not in _OBJECTIVES:
            raise InvalidParameterError(f"objective must be one of {_OBJECTIVES}")
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidParameterError(f"optimizer must be one of {_OPTIMIZERS}")
        if not np.all(np.isfinite((self.eps, self.sigma_w, self.lr))):
            raise InvalidParameterError("eps, sigma_w and lr must be finite")
        _check_nonnegative(seed=self.seed, eps=self.eps, sigma_w=self.sigma_w,
                           momentum=self.momentum)
        _check_positive(lr=self.lr, batch_size=self.batch_size, n_iterations=self.n_iterations,
                        attack_steps=self.attack_steps, record_every=self.record_every)
        if not self.momentum < 1.0:
            raise InvalidParameterError(f"momentum must be < 1, got {self.momentum}")


@dataclass(frozen=True)
class TrainTrace:
    """Recorded loss curve plus the trained estimator."""

    iterations: np.ndarray
    losses: np.ndarray
    estimator: LinearEstimator


def _stack_key(config: TrainConfig) -> TrainConfig:
    """What the runs of one lockstep stack share: every field but seed, eps and sigma_w.

    A jittering run is the standard objective on noisier data, and an
    adversarial run at eps = 0 is it bit for bit (yt = y + 0): both key as standard.
    """
    objective = config.objective
    if objective == "jittering" or (objective, config.eps) == ("adversarial", 0.0):
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
    AttackDivergenceError if its own attack fails, else TrainingDivergenceError
    at a non-finite loss.  A stopped run's slices leave the stack and the
    others go on, so each run's outcome is that of its own loop.
    """
    _check_triple(model, op, noise)
    config = _stack_key(configs[0])
    if any(_stack_key(other) != config for other in configs):
        raise InvalidParameterError("stacked runs must share one _stack_key")
    n, m, d = model.n, noise.m, model.d
    k, batch = len(configs), config.batch_size
    basis = model.basis
    c_scale = model.sigma_c / np.sqrt(d)
    adversarial = config.objective == "adversarial"
    steps = config.attack_steps
    sgd = config.optimizer == "sgd"
    eps = np.array([run.eps for run in configs])[:, None, None]
    # y + w = Ax + (z + w): a run's noise has per-coordinate variance sigma_z^2 / m
    # + sigma_w^2, with sigma_w = 0 unless it jitters (sqrt(s^2) is s exactly).  Run
    # p draws c into its slice from rng_stream(seed, 0) and, at a non-zero scale,
    # z from (seed, 1); a slice that draws nothing stays 0.
    sigma_w = [run.sigma_w if run.objective == "jittering" else 0.0 for run in configs]
    z_scale = np.sqrt(noise.per_coordinate_std**2 + np.square(sigma_w))[:, None, None]
    c = np.empty((k, d, batch))
    z = np.zeros((k, m, batch)) if z_scale.any() else None
    streams = [
        [rng_stream(run.seed, j) for j in range(2 if scale else 1)]
        for run, scale in zip(configs, z_scale.ravel())
    ]
    x, y = np.empty((k, n, batch)), np.empty((k, m, batch))
    resid, sq = np.empty_like(x), np.empty_like(x)
    # H, then the SGD velocity or the two adaptive moments, one slice per run.
    h, *moments = np.zeros((2 if sgd else 3, k, n, m))
    grad, step = np.empty_like(h), np.empty_like(h)

    live = list(range(k))  # the config index of each slice
    outcomes: list[TrainTrace | Exception | None] = [None] * k
    ema = None
    its: list[int] = []
    losses: list[list[float]] = [[] for _ in configs]
    for t in range(config.n_iterations):
        for p, run_streams in enumerate(streams):
            for buf, gen in zip((c, z), run_streams):
                gen.standard_normal(out=buf[p])
        c *= c_scale
        np.matmul(basis, c, out=x)
        op.apply(x, out=y)
        if z is not None:
            z *= z_scale
            y += z

        if adversarial:
            try:
                yt = pgd_perturb_batch(h, x, y, eps, steps)
            except AttackDivergenceError as exc:
                # Each slice is its own call's result; a non-finite one stops its run below.
                yt = exc.perturbation
                for p in np.flatnonzero(~np.isfinite(yt).all(axis=(1, 2))):
                    outcomes[live[p]] = AttackDivergenceError(*exc.args)
            yt += y
        else:
            yt = y

        np.matmul(h, yt, out=resid)
        resid -= x
        with np.errstate(over="ignore"):  # overflow IS the divergence signal
            np.multiply(resid, resid, out=sq)
            loss = sq.reshape(len(live), -1).sum(axis=1) / batch
        finite = np.isfinite(loss)
        if not finite.all():
            for p in np.flatnonzero(~finite):
                if outcomes[live[p]] is None:
                    exc = TrainingDivergenceError(f"non-finite loss at iteration {t}")
                    exc.trace = TrainTrace(
                        iterations=np.array(its), losses=np.array(losses[live[p]]),
                        estimator=LinearEstimator.from_matrix(np.nan_to_num(h[p])),
                    )
                    outcomes[live[p]] = exc
            keep = np.flatnonzero(finite)
            live, streams = [live[p] for p in keep], [streams[p] for p in keep]
            if not live:
                break
            h, eps, z_scale, c, z, x, y, yt, resid, sq, loss, ema, *moments = (
                None if a is None else a[keep]
                for a in (h, eps, z_scale, c, z, x, y, yt, resid, sq, loss, ema, *moments)
            )
            grad, step = np.empty_like(h), np.empty_like(h)
        ema = loss if ema is None else 0.99 * ema + 0.01 * loss
        if t % config.record_every == 0 or t == config.n_iterations - 1:
            its.append(t)
            for i, value in zip(live, ema.tolist()):
                losses[i].append(value)

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

    for p, i in enumerate(live):
        outcomes[i] = TrainTrace(
            iterations=np.array(its), losses=np.array(losses[i]),
            estimator=LinearEstimator.from_matrix(h[p]),
        )
    return outcomes


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
    """[finish(i, run) for each config i], over forked children (see _map_shares).

    run() returns the TrainTrace of train(model, op, noises[i], configs[i])
    or raises its exception, inside finish, which may annotate it.  The
    runs of each (noise model, stack key) are dealt round-robin over the
    processes, the deal going on from one key to the next, so every
    process gets a like share of each kind of run.  Each process trains its
    share with _train_runs, _map_shares' prepare, then finishes it in item
    order; the first failing item in item order raises (see _map_shares).
    """
    keys = [(noise, _stack_key(config)) for noise, config in zip(noises, configs, strict=True)]
    return _map_shares(
        lambda share: _train_runs(
            model, op, [noises[i] for i in share], [configs[i] for i in share]
        ),
        lambda i, run: finish(i, functools.partial(_outcome, run)),
        sorted(range(len(configs)), key=lambda i: keys.index(keys[i])),
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
    training its share in lockstep stacks (`_train_map`); the result does
    not depend on the worker count.  eval_samples < 2, an empty grid and a
    negative or NaN grid value are rejected before any draw or training.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    sigma_w_grid = np.atleast_1d(np.asarray(sigma_w_grid, dtype=float))
    if eps_grid.size == 0 or sigma_w_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    _check_nonnegative(eps_grid=eps_grid, sigma_w_grid=sigma_w_grid)
    _check_eval_samples(eval_samples)
    base = base_config if base_config is not None else TrainConfig()
    configs = [
        replace(base, objective="jittering", sigma_w=float(sw), seed=_sub_seed(seed, i))
        for i, sw in enumerate(sigma_w_grid)
    ]
    x, y = draw_sample_arrays(model, op, noise, eval_samples, _sub_seed(seed, 10**6))[:2]

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
