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

Optimizers are implemented from scratch: plain SGD, and the
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
attack result or loss is not finite stops at that iteration, its outcome
recorded; its slice stays in the stack, masked, and the others go on.

Runs with distinct seeds are independent, so `_train_map`, the one path
from the drivers' runs to their certified risks, spreads them, each under
its own noise model, over forked workers, one per available CPU: each
worker trains its share in stacks, then certifies it in order on the
evaluation sets it draws itself, one held at a time, while this process
only forks and joins them.  Results do not depend on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .attack import _DIVERGED, _pgd_perturb
from .errors import AttackDivergenceError, InvalidParameterError, TrainingDivergenceError
from .estimators import LinearEstimator
from .model import (
    ForwardOperator, NoiseModel, SubspaceModel, _check_count, _check_nonnegative, _check_positive,
    _check_triple, _sub_seed, draw_sample_arrays, rng_stream,
)
from .risk import RiskReport, certify

_OBJECTIVES = ("standard", "adversarial", "jittering")
_OPTIMIZERS = ("sgd", "adaptive")
# The adaptive rule's first and second moment decay rates and denominator offset.
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8
_RECORD_EVERY = 100  # iterations between two recorded points of a run's loss curve


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
    with no CPU affinity or no fork start method.  At P = 1 this process
    runs the one share; otherwise worker k runs order[k::P] and this
    process only forks and joins, so its peak memory is what it held
    before the call.  Each process calls prepare(share) once, on its
    share's indices in ascending order, for one value per item, then
    finish(i, value) per item in order, for item i's result; an exception
    from prepare is charged to the share's first item.  Neither maps again:
    a call from inside a share would fork P workers of its own.  Only
    results and exceptions cross the pipes (pickled), so prepare and
    finish may be closures over data the caller prepared before the call,
    which the workers read copy-on-write.  The exception of the first
    failing item in item order is raised, as the plain loop would raise it.
    """
    order = list(order)
    # sched_getaffinity is Linux-only; elsewhere (macOS forks unsafely once its
    # system frameworks run threads) the loop stays serial.
    affinity = getattr(os, "sched_getaffinity", lambda pid: {0})
    procs = max(1, min(len(affinity(0)), len(order)))
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
    sigma_w feeds "jittering" as extra input noise, and a non-zero one is
    rejected under any other objective.  attack_steps is the training-mode
    PGD budget, taken at pgd_perturb_batch's fixed step scale.
    """

    objective: str = "standard"
    eps: float = 0.0
    sigma_w: float = 0.0
    optimizer: str = "adaptive"
    lr: float = 1e-3
    batch_size: int = 50
    n_iterations: int = 20000
    seed: int = 0
    attack_steps: int = 3

    def __post_init__(self) -> None:
        _check_count(0, seed=self.seed)
        _check_count(1, n_iterations=self.n_iterations, batch_size=self.batch_size,
                     attack_steps=self.attack_steps)
        if self.objective not in _OBJECTIVES:
            raise InvalidParameterError(f"objective must be one of {_OBJECTIVES}")
        if self.optimizer not in _OPTIMIZERS:
            raise InvalidParameterError(f"optimizer must be one of {_OPTIMIZERS}")
        if not np.all(np.isfinite((self.eps, self.sigma_w, self.lr))):
            raise InvalidParameterError("eps, sigma_w and lr must be finite")
        _check_nonnegative(eps=self.eps, sigma_w=self.sigma_w)
        _check_positive(lr=self.lr)
        for field, reader in (("eps", "adversarial"), ("sigma_w", "jittering")):
            if getattr(self, field) and self.objective != reader:
                raise InvalidParameterError(f"{field} is read only by objective {reader!r}")


@dataclass(frozen=True)
class TrainTrace:
    """Recorded loss curve plus the trained estimator."""

    iterations: np.ndarray
    losses: np.ndarray
    estimator: LinearEstimator


def _stack_key(config: TrainConfig) -> TrainConfig:
    """What the runs of one lockstep stack share: every field but seed, eps and sigma_w.

    A jittering run is the standard objective on noisier data, and an
    adversarial run at eps = 0 is it bit for bit (yt = y + 0): both key as
    standard.  Only an adversarial run has a non-zero eps (TrainConfig's rule).
    """
    objective = "adversarial" if config.eps else "standard"
    return replace(config, objective=objective, seed=0, eps=0.0, sigma_w=0.0)


@np.errstate(over="ignore", invalid="ignore")  # a stopped slice's inf and NaN stay quiet
def _train_stack(
    model: SubspaceModel,
    op: ForwardOperator,
    noise: NoiseModel,
    configs: list[TrainConfig],
) -> list[TrainTrace | Exception]:
    """Train runs with one _stack_key in lockstep: one outcome per config, in order.

    An outcome is the run's TrainTrace, or the exception that stopped it:
    AttackDivergenceError if its own attack fails, else TrainingDivergenceError
    at a non-finite loss, recorded at that iteration.  A stopped run's
    slices stay in the stack, masked: their inf and NaN arithmetic goes on
    quietly and feeds no other slice, and the loop ends once every run has
    an outcome, so each run's outcome is that of its own loop.  The attack
    core runs unchecked: TrainConfig has checked eps and attack_steps.
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
    sigma_w = [run.sigma_w for run in configs]
    z_scale = np.sqrt(noise.per_coordinate_std**2 + np.square(sigma_w))[:, None, None]
    c = np.empty((k, d, batch))
    z = np.zeros((k, m, batch)) if z_scale.any() else None
    streams = [
        [rng_stream(run.seed, j) for j in range(2 if scale else 1)]
        for run, scale in zip(configs, z_scale.ravel())
    ]
    x, y = np.empty((k, n, batch)), np.empty((k, m, batch))
    resid, sq = np.empty_like(x), np.empty_like(x)
    # H, then the two adaptive moments, one slice per run.
    h, *moments = np.zeros((1 if sgd else 3, k, n, m))
    grad, step = np.empty_like(h), np.empty_like(h)

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
            yt = _pgd_perturb(h, x, y, eps, steps)
            for p in np.flatnonzero(~np.isfinite(yt).all(axis=(1, 2))):
                outcomes[p] = outcomes[p] or AttackDivergenceError(_DIVERGED)
            yt += y
        else:
            yt = y

        np.matmul(h, yt, out=resid)
        resid -= x
        np.multiply(resid, resid, out=sq)
        loss = sq.reshape(k, -1).sum(axis=1) / batch
        for p in np.flatnonzero(~np.isfinite(loss)):
            if outcomes[p] is None:
                exc = TrainingDivergenceError(f"non-finite loss at iteration {t}")
                exc.trace = TrainTrace(
                    iterations=np.array(its), losses=np.array(losses[p]),
                    estimator=LinearEstimator.from_matrix(np.nan_to_num(h[p])),
                )
                outcomes[p] = exc
        if all(outcomes):
            break
        ema = loss if ema is None else 0.99 * ema + 0.01 * loss
        if t % _RECORD_EVERY == 0 or t == config.n_iterations - 1:
            its.append(t)
            for run, curve, value in zip(outcomes, losses, ema.tolist()):
                if run is None:
                    curve.append(value)

        np.matmul(resid, np.swapaxes(yt, -1, -2), out=grad)
        grad *= 2.0 / batch
        if sgd:
            grad *= config.lr
            h -= grad
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

    return [
        run or TrainTrace(iterations=np.array(its), losses=np.array(curve),
                          estimator=LinearEstimator.from_matrix(matrix))
        for run, curve, matrix in zip(outcomes, losses, h)
    ]


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

    Loss values, recorded every _RECORD_EVERY iterations and at the last,
    are an exponential moving average (decay 0.99) of the minibatch loss,
    a stable estimate of the population objective.  Divergence (non-finite
    loss) raises with the trace prefix attached to the exception as `.trace`.
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
    runs: list[tuple[NoiseModel, TrainConfig, object, int]],
    eval_samples: int,
) -> list[tuple[RiskReport, float]]:
    """(certify report, ||H||_F) per run (noise, config, radii, set_seed), over forked children.

    Run i trains as train(model, op, noise, config) would, in _train_runs'
    stacks (_map_shares' prepare), and is certified at radii on
    draw_sample_arrays(model, op, noise, eval_samples, set_seed).  The runs
    of each (noise model, stack key) are dealt round-robin over the
    processes (see _map_shares), the deal going on from one key to the
    next, so every process gets a like share of each kind of run.  A
    process certifies its share in item order and draws a set when it
    first certifies a run of that set, dropping the one it held: listed
    set by set, the runs let each process hold one set and draw each once.
    An exception from training or certifying run i gets one more arg
    naming the run; the first failing item in item order raises.
    """
    _check_count(2, eval_samples=eval_samples)
    keys = [(noise, _stack_key(config)) for noise, config, _, _ in runs]
    held = {}  # this process's one evaluation set, by (noise model, set seed)

    def certify_run(i: int, outcome: TrainTrace | Exception) -> tuple[RiskReport, float]:
        noise, config, radii, set_seed = runs[i]
        try:
            estimator = _outcome(outcome).estimator
            if (noise, set_seed) not in held:
                held.clear()  # free the last set before this one is drawn
                held[noise, set_seed] = draw_sample_arrays(
                    model, op, noise, eval_samples, set_seed
                )[:2]
            return certify(estimator, *held[noise, set_seed], radii), estimator.frobenius_norm()
        except Exception as exc:  # keeps its type; the map raises it
            exc.args += (f"run {i}: {config.objective} seed={config.seed} eps={config.eps} "
                         f"sigma_w={config.sigma_w}",)
            raise

    return _map_shares(
        lambda share: _train_runs(
            model, op, [runs[i][0] for i in share], [runs[i][1] for i in share]
        ),
        certify_run,
        sorted(range(len(runs)), key=lambda i: keys.index(keys[i])),
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

    Every grid cell is certified on one evaluation set (paired comparison),
    so the per-eps argmin over sigma_w is driven by estimator differences,
    not by independent Monte-Carlo noise.  Training seeds derive from
    `seed` per grid point; `base_config` carries every non-objective knob.
    The grid points train and certify through `_train_map`, in parallel
    over one forked worker per available CPU; the result does not depend on
    the worker count.  eval_samples < 2, an empty grid and a negative or
    NaN grid value are rejected before any draw or training.
    """
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    sigma_w_grid = np.atleast_1d(np.asarray(sigma_w_grid, dtype=float))
    if eps_grid.size == 0 or sigma_w_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    _check_nonnegative(eps_grid=eps_grid, sigma_w_grid=sigma_w_grid)
    base = replace(base_config or TrainConfig(), objective="jittering", eps=0.0)
    runs = [
        (noise, replace(base, sigma_w=float(sw), seed=_sub_seed(seed, i)),
         eps_grid, _sub_seed(seed, 10**6))
        for i, sw in enumerate(sigma_w_grid)
    ]
    reports = [report for report, _ in _train_map(model, op, runs, eval_samples)]
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
