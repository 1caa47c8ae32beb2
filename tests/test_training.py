import multiprocessing
import os

import numpy as np
import pytest

from jitterlab.attack import pgd_perturb_batch
from jitterlab.errors import InvalidParameterError, TrainingDivergenceError
from jitterlab.estimators import (
    jitter_level_for_eps,
    jittering_denoiser_alpha,
    mmse_estimator,
)
from jitterlab.estimators import LinearEstimator
from jitterlab.model import NoiseModel, make_diagonal_operator, make_subspace, rng_stream
from jitterlab.training import (
    SweepResult, TrainConfig, TrainTrace, _fork_map, sweep_jitter_levels, train,
)


def _setup(n=20, d=8, sigma_c=1.0, sigma_z=0.4, spectrum="identity", seed=1):
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=0.8)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    return model, op, noise


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainConfig(objective="bogus")
    with pytest.raises(InvalidParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(InvalidParameterError):
        TrainConfig(objective="adversarial", eps=-0.1)


@pytest.mark.parametrize("field", ["eps", "sigma_w", "lr", "eps_hat", "attack_step_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(InvalidParameterError):
        TrainConfig(**{field: value})


def test_standard_training_converges_to_mmse():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="standard", n_iterations=15000, seed=3)
    trace = train(model, op, noise, cfg)
    target = mmse_estimator(model, op, noise)
    assert np.max(np.abs(trace.estimator.matrix - target.matrix)) <= 0.02


def test_jittering_training_converges_to_closed_form_alpha():
    model, op, noise = _setup()
    sw = 0.25
    cfg = TrainConfig(objective="jittering", sigma_w=sw, n_iterations=15000, seed=4)
    trace = train(model, op, noise, cfg)
    alpha = jittering_denoiser_alpha(model.sigma_c, noise.sigma_z, model.d, model.n, sw)
    target = alpha * model.basis @ model.basis.T
    assert np.max(np.abs(trace.estimator.matrix - target)) <= 0.02 * max(alpha, 1.0)


def test_training_deterministic():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="adversarial", eps=0.2, n_iterations=500, seed=7)
    a = train(model, op, noise, cfg)
    b = train(model, op, noise, cfg)
    assert np.array_equal(a.estimator.matrix, b.estimator.matrix)
    assert np.array_equal(a.losses, b.losses)


def test_trace_records_ema_losses():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="standard", n_iterations=1000, record_every=100, seed=2)
    trace = train(model, op, noise, cfg)
    assert trace.iterations[0] == 0
    assert trace.iterations[-1] == 999
    assert len(trace.iterations) == len(trace.losses)
    # loss decreases from the zero-estimator starting point
    assert trace.losses[-1] < trace.losses[0]


def test_divergence_raises_with_partial_trace():
    # plain SGD with an absurd step blows up geometrically
    model, op, noise = _setup()
    cfg = TrainConfig(
        objective="standard", optimizer="sgd", lr=1e3, n_iterations=2000, seed=0
    )
    with pytest.raises(TrainingDivergenceError) as exc_info:
        train(model, op, noise, cfg)
    assert hasattr(exc_info.value, "trace")


def test_sgd_optimizer_also_converges():
    model, op, noise = _setup()
    cfg = TrainConfig(
        objective="standard", optimizer="sgd", lr=0.05, momentum=0.9,
        n_iterations=15000, seed=5,
    )
    trace = train(model, op, noise, cfg)
    target = mmse_estimator(model, op, noise)
    assert np.max(np.abs(trace.estimator.matrix - target.matrix)) <= 0.03


def test_adversarial_training_shrinks_harder_than_standard():
    model, op, noise = _setup()
    std = train(model, op, noise, TrainConfig(objective="standard", n_iterations=8000, seed=8))
    adv = train(
        model, op, noise,
        TrainConfig(objective="adversarial", eps=0.5, n_iterations=8000, seed=8),
    )
    assert adv.estimator.frobenius_norm() < std.estimator.frobenius_norm()


def test_sweep_shapes_and_zero_eps_argmin():
    model, op, noise = _setup(n=16, d=6)
    eps_grid = np.array([0.0, 0.25])
    sw_grid = np.array([0.0, 0.15, 0.3])
    base = TrainConfig(objective="jittering", n_iterations=4000, lr=1e-3)
    res = sweep_jitter_levels(model, op, noise, eps_grid, sw_grid, 400, 0, base_config=base)
    assert res.risks.shape == (3, 2)
    assert res.ci_low.shape == (3, 2) and res.ci_high.shape == (3, 2)
    assert np.all(res.ci_low <= res.risks) and np.all(res.risks <= res.ci_high)
    # at eps=0 any jitter only hurts: argmin must sit at sigma_w = 0
    assert res.argmin_sigma_w[0] == 0.0


def test_sweep_csv(tmp_path):
    res = SweepResult(
        sigma_w_grid=np.array([0.0, 0.1]),
        eps_grid=np.array([0.0]),
        risks=np.array([[1.0], [2.0]]),
        ci_low=np.array([[0.9], [1.9]]),
        ci_high=np.array([[1.1], [2.1]]),
        argmin_sigma_w=np.array([0.0]),
        n_samples=10,
    )
    path = str(tmp_path / "sweep.csv")
    res.to_csv(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "sigma_w,eps,risk,ci_low,ci_high"
    assert len(lines) == 3


def test_jitter_noise_shares_stream_with_batch():
    # jittering at sigma_w=0 must reproduce the standard run bit for bit
    model, op, noise = _setup()
    a = train(model, op, noise, TrainConfig(objective="standard", n_iterations=400, seed=9))
    b = train(
        model, op, noise,
        TrainConfig(objective="jittering", sigma_w=0.0, n_iterations=400, seed=9),
    )
    assert np.max(np.abs(a.estimator.matrix - b.estimator.matrix)) < 1e-12


def _reference_train(model, op, noise, config):
    # The textbook loop: separate draws, dense A, out-of-place optimizer steps.
    n, m, d = model.n, noise.m, model.d
    batch = config.batch_size
    h, vel, mom1, mom2 = (np.zeros((n, m)) for _ in range(4))
    for t in range(config.n_iterations):
        g = rng_stream(config.seed, t)
        c = model.sigma_c / np.sqrt(d) * g.standard_normal((d, batch))
        z = noise.per_coordinate_std * g.standard_normal((m, batch))
        x = model.basis @ c
        y = op.matrix @ x + z
        if config.objective == "jittering":
            yt = y + config.sigma_w * g.standard_normal((m, batch))
        elif config.objective == "adversarial":
            yt = y + pgd_perturb_batch(
                h, x, y, config.eps, config.attack_steps, config.attack_step_scale
            )
        else:
            yt = y
        grad = (2.0 / batch) * ((h @ yt - x) @ yt.T)
        if config.optimizer == "sgd":
            vel = config.momentum * vel - config.lr * grad
            h = h + vel
        else:
            mom1 = config.beta1 * mom1 + (1.0 - config.beta1) * grad
            mom2 = config.beta2 * mom2 + (1.0 - config.beta2) * grad**2
            m1_hat = mom1 / (1.0 - config.beta1 ** (t + 1))
            m2_hat = mom2 / (1.0 - config.beta2 ** (t + 1))
            h = h - config.lr * m1_hat / (np.sqrt(m2_hat) + config.eps_hat)
    return h


@pytest.mark.parametrize("spectrum", ["identity", "linear-decay"])
@pytest.mark.parametrize("optimizer", ["adaptive", "sgd"])
@pytest.mark.parametrize("objective", ["standard", "adversarial", "jittering"])
def test_train_bit_identical_to_reference_loop(spectrum, optimizer, objective):
    model, op, noise = _setup(n=12, d=4, spectrum=spectrum)
    cfg = TrainConfig(
        objective=objective, eps=0.3, sigma_w=0.2, optimizer=optimizer,
        lr=1e-3 if optimizer == "adaptive" else 0.02, momentum=0.5,
        batch_size=9, n_iterations=60, seed=6,
    )
    h = train(model, op, noise, cfg).estimator.matrix
    assert np.array_equal(h, _reference_train(model, op, noise, cfg))


def _pid_of(item):
    return item, os.getpid()


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_fork_map_matches_plain_loop_in_order(monkeypatch):
    _two_cpus(monkeypatch)
    items = list(range(7))
    square = lambda i: np.arange(i) ** 2  # a closure cannot be pickled, only forked
    got = _fork_map(square, items)
    assert len(got) == len(items)
    for a, b in zip(got, [square(i) for i in items]):
        assert np.array_equal(a, b)
    pairs = _fork_map(_pid_of, items)
    assert [item for item, _ in pairs] == items
    # item k runs in process k mod 2: the parent takes the even items
    assert {pid for item, pid in pairs if item % 2 == 0} == {os.getpid()}
    assert {pid for item, pid in pairs if item % 2 == 1} - {os.getpid()}
    assert multiprocessing.active_children() == []


def _diverge(item, failing):
    if item in failing:
        exc = TrainingDivergenceError(f"item {item}")
        exc.trace = TrainTrace(
            iterations=np.array([0, item]), losses=np.array([1.0, 2.0]),
            estimator=LinearEstimator.from_matrix(np.full((2, 3), float(item))),
        )
        raise exc
    return item


@pytest.mark.parametrize("failing", [{3, 4}, {2, 5}, {5}], ids=["worker-first", "parent-first", "worker-only"])
def test_fork_map_raises_first_failing_item(monkeypatch, failing):
    _two_cpus(monkeypatch)
    first = min(failing)
    with pytest.raises(TrainingDivergenceError, match=f"item {first}$") as info:
        _fork_map(lambda item: _diverge(item, failing), range(8))
    trace = info.value.trace
    assert np.array_equal(trace.iterations, [0, first])
    assert np.array_equal(trace.estimator.matrix, np.full((2, 3), float(first)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity", ["one-cpu", "absent"])
def test_fork_map_single_cpu_runs_in_process(monkeypatch, affinity):
    if affinity == "absent":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _fork_map(_pid_of, range(5)) == [(i, os.getpid()) for i in range(5)]


def test_fork_map_reports_a_dead_worker(monkeypatch):
    _two_cpus(monkeypatch)

    def die_on_odd(item):
        if item % 2:
            os._exit(3)
        return item

    with pytest.raises(ChildProcessError, match="code 3"):
        _fork_map(die_on_odd, range(4))
    assert multiprocessing.active_children() == []


def test_fork_map_nested_call_runs_in_process(monkeypatch):
    _two_cpus(monkeypatch)

    def inner_pids(item):
        return os.getpid(), {pid for _, pid in _fork_map(_pid_of, range(4))}

    outer = _fork_map(inner_pids, range(4))
    assert len({pid for pid, _ in outer}) == 2
    for pid, inner in outer:
        assert inner == {pid}
    assert multiprocessing.active_children() == []
