import numpy as np
import pytest

from jitterlab.errors import InvalidParameterError, TrainingDivergenceError
from jitterlab.estimators import (
    jitter_level_for_eps,
    jittering_denoiser_alpha,
    mmse_estimator,
)
from jitterlab.model import NoiseModel, make_diagonal_operator, make_subspace
from jitterlab.training import SweepResult, TrainConfig, sweep_jitter_levels, train


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
