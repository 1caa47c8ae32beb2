import numpy as np
import pytest

from jitterlab.errors import InvalidDimensionError, InvalidParameterError
from jitterlab.estimators import (
    LinearEstimator,
    conjectured_robust_estimator,
    optimal_jittering_estimator,
    ridge_estimator,
)
from jitterlab.model import (
    ForwardOperator,
    NoiseModel,
    SubspaceModel,
    _philox_keys,
    _stream_series,
    draw_latents,
    draw_sample_arrays,
    make_diagonal_operator,
    make_subspace,
    rng_stream,
)
from jitterlab.risk import jittering_risk_closed_form
from jitterlab.training import TrainConfig, train


def test_make_subspace_orthonormal():
    model = make_subspace(30, 10, 1.5, seed=0)
    gram = model.basis.T @ model.basis
    assert np.max(np.abs(gram - np.eye(10))) < 1e-12
    assert model.n == 30 and model.d == 10


def test_make_subspace_deterministic():
    a = make_subspace(25, 7, 1.0, seed=42)
    b = make_subspace(25, 7, 1.0, seed=42)
    assert np.array_equal(a.basis, b.basis)
    c = make_subspace(25, 7, 1.0, seed=43)
    assert not np.array_equal(a.basis, c.basis)


def test_subspace_rejects_non_orthonormal():
    bad = np.ones((6, 2))
    with pytest.raises(InvalidParameterError):
        SubspaceModel(basis=bad, sigma_c=1.0)


def test_subspace_rejects_wide_basis():
    with pytest.raises(InvalidDimensionError):
        make_subspace(5, 9, 1.0, seed=0)


def test_signal_energy_matches_sigma_c_sq():
    # E||x||^2 = sigma_c^2; check within 5 standard errors
    model = make_subspace(40, 12, 2.0, seed=1)
    X, _, _ = draw_sample_arrays(
        model, make_diagonal_operator(40, "identity"), NoiseModel(m=40, sigma_z=0.0),
        20000, 5,
    )
    energies = np.sum(X**2, axis=0)
    se = energies.std(ddof=1) / np.sqrt(energies.size)
    assert abs(energies.mean() - 4.0) < 5 * se


def test_noise_energy_matches_sigma_z_sq():
    model = make_subspace(40, 12, 0.0, seed=1)
    _, Y, _ = draw_sample_arrays(
        model, make_diagonal_operator(40, "identity"), NoiseModel(m=40, sigma_z=0.7),
        20000, 5,
    )
    energies = np.sum(Y**2, axis=0)
    se = energies.std(ddof=1) / np.sqrt(energies.size)
    assert abs(energies.mean() - 0.49) < 5 * se


def test_draw_latents_prefix_stability():
    # a longer draw starts with the shorter draw
    model = make_subspace(20, 6, 1.0, seed=3)
    noise = NoiseModel(m=20, sigma_z=0.3)
    c_short, z_short = draw_latents(model, noise, 10, 9)
    c_long, z_long = draw_latents(model, noise, 300, 9)
    assert np.array_equal(c_long[:, :10], c_short)
    assert np.array_equal(z_long[:, :10], z_short)


def test_rng_stream_path_separation():
    a = rng_stream(0, 1).standard_normal(4)
    b = rng_stream(0, 2).standard_normal(4)
    assert not np.array_equal(a, b)
    a2 = rng_stream(0, 1).standard_normal(4)
    assert np.array_equal(a, a2)


@pytest.mark.parametrize("seed", [5, 2**32 + 9, 2**140 + 3], ids=["1-word", "2-words", "5-words"])
def test_philox_keys_are_the_seed_sequence_keys(seed):
    # Seeds of 1, 2 and 5 uint32 words: padded to the pool, and past it.
    ts = [0, 1, 4095, 2**32 - 1]
    keys = _philox_keys(seed, ts)
    assert keys.shape == (4, 2) and keys.dtype == np.uint64
    gen = rng_stream(seed, 0)
    state = gen.bit_generator.state
    for t, key in zip(ts, keys):
        expected = np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(2, np.uint64)
        assert np.array_equal(key, expected)
        gen.standard_normal(3)  # leave the generator mid-stream before the reset
        state["state"]["key"] = key
        gen.bit_generator.state = state
        assert np.array_equal(gen.standard_normal(20), rng_stream(seed, t).standard_normal(20))
    with pytest.raises(InvalidParameterError):
        _philox_keys(seed, [2**32])


def test_stream_series_draws_each_iterations_stream():
    count = 4100  # crosses the key chunk at t = 4096
    draws = {}
    for t, gen in enumerate(_stream_series(11, count)):
        if t in (0, 1, 4095, 4096, count - 1):
            draws[t] = gen.standard_normal(7)
    assert t == count - 1
    for t, values in draws.items():
        assert np.array_equal(values, rng_stream(11, t).standard_normal(7))


def test_draw_sample_arrays_consistency():
    model = make_subspace(15, 5, 1.0, seed=2)
    op = make_diagonal_operator(15, "linear-decay")
    noise = NoiseModel(m=15, sigma_z=0.3)
    x, y, c = draw_sample_arrays(model, op, noise, 4, 8)
    assert (x.shape, y.shape, c.shape) == ((15, 4), (15, 4), (5, 4))
    assert np.array_equal(x, model.basis @ c)
    z = y - op.matrix @ x
    assert z.shape == (noise.m, 4)


def test_identity_operator():
    op = make_diagonal_operator(12, "identity")
    assert np.array_equal(op.matrix, np.eye(12))


def test_linear_decay_spectrum():
    op = make_diagonal_operator(4, "linear-decay")
    assert np.allclose(np.diag(op.matrix), [1.0, 0.75, 0.5, 0.25])


def test_geometric_spectrum():
    op = make_diagonal_operator(3, "geometric", ratio=0.5)
    assert np.allclose(np.diag(op.matrix), [0.5, 0.25, 0.125])


def test_geometric_requires_valid_ratio():
    with pytest.raises(InvalidParameterError):
        make_diagonal_operator(3, "geometric", ratio=1.5)
    with pytest.raises(InvalidParameterError):
        make_diagonal_operator(3, "geometric", ratio=0.0)


def test_unknown_operator_kind():
    with pytest.raises(InvalidParameterError):
        make_diagonal_operator(3, "fourier")


def test_au_svd_reconstructs_product():
    model = make_subspace(18, 6, 1.0, seed=4)
    op = make_diagonal_operator(18, "geometric", ratio=0.8)
    w, lam, v = op.au_svd(model)
    assert np.all(np.diff(lam) <= 1e-15)
    prod = w @ np.diag(lam) @ v
    assert np.max(np.abs(prod - op.matrix @ model.basis)) < 1e-8
    assert np.max(np.abs(w.T @ w - np.eye(6))) < 1e-10
    assert np.max(np.abs(v @ v.T - np.eye(6))) < 1e-10


def test_noise_model_validation():
    with pytest.raises(InvalidParameterError):
        NoiseModel(m=10, sigma_z=-0.1)
    with pytest.raises(InvalidDimensionError):
        NoiseModel(m=0, sigma_z=0.1)


def test_operator_model_dimension_mismatch():
    model = make_subspace(10, 3, 1.0, seed=0)
    op = make_diagonal_operator(12, "identity")
    with pytest.raises(InvalidDimensionError):
        op.au_svd(model)


_TRIPLE_CALLERS = {
    "draw_sample_arrays": lambda model, op, noise: draw_sample_arrays(model, op, noise, 3, 0),
    "train": lambda model, op, noise: train(model, op, noise, TrainConfig(n_iterations=1)),
    "ridge_estimator": lambda model, op, noise: ridge_estimator(model, op, noise, 0.1),
    "optimal_jittering_estimator":
        lambda model, op, noise: optimal_jittering_estimator(model, op, noise, 0.1),
    "conjectured_robust_estimator":
        lambda model, op, noise: conjectured_robust_estimator(model, op, noise, 0.1),
    # the estimator has the model's n rows and the noise's m columns, so only
    # the operator can be at fault
    "jittering_risk_closed_form": lambda model, op, noise: jittering_risk_closed_form(
        LinearEstimator.from_matrix(np.zeros((model.n, noise.m))), model, op, noise, 0.1
    ),
}


@pytest.mark.parametrize("caller", sorted(_TRIPLE_CALLERS))
@pytest.mark.parametrize("op_n, noise_m", [(7, 7), (6, 5)], ids=["op.n!=n", "op.m!=m"])
def test_every_triple_caller_rejects_mismatched_dimensions(caller, op_n, noise_m):
    model = make_subspace(6, 2, 1.0, seed=0)
    op = make_diagonal_operator(op_n, "linear-decay")
    noise = NoiseModel(m=noise_m, sigma_z=0.1)
    with pytest.raises(InvalidDimensionError):
        _TRIPLE_CALLERS[caller](model, op, noise)


def test_au_svd_cache_never_serves_a_dead_model():
    # Models created and dropped in turn free their bases, and CPython hands
    # the freed ids to later arrays; the cache must not confuse them.
    op = make_diagonal_operator(20, "linear-decay")
    for s in range(200):
        model = make_subspace(20, 5, 1.0, seed=s)
        _, lam, _ = op.au_svd(model)
        expect = np.linalg.svd(op.matrix @ model.basis, compute_uv=False)
        assert np.max(np.abs(lam - expect)) < 1e-12
        del model
    held, _ = op._svd_held  # one (basis, factors) pair: the last model's
    assert np.array_equal(held, make_subspace(20, 5, 1.0, seed=199).basis)


def test_au_svd_alternating_live_models_get_their_own_factors():
    op = make_diagonal_operator(12, "geometric", ratio=0.9)
    models = [make_subspace(12, 4, 1.0, seed=s) for s in (1, 2)]
    for model in models * 3:
        w, lam, v = op.au_svd(model)
        assert np.max(np.abs((w * lam) @ v - op.matrix @ model.basis)) < 1e-12


def test_au_svd_cache_returns_same_factors_for_live_model():
    op = make_diagonal_operator(12, "geometric", ratio=0.9)
    model = make_subspace(12, 4, 1.0, seed=1)
    first = op.au_svd(model)
    assert all(a is b for a, b in zip(first, op.au_svd(model)))
