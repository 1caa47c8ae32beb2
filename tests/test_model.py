import tracemalloc

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
    _CHUNK,
    ForwardOperator,
    NoiseModel,
    SubspaceModel,
    _draw_latent_set,
    draw_latents,
    draw_sample_arrays,
    make_diagonal_operator,
    make_subspace,
    rng_stream,
)
from jitterlab.risk import best_jitter_level_analytic, jittering_risk_closed_form
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


def _full_chunk_latents(model, noise, count, seed):
    # The reference draw: chunk j's stream gives all of C's rows, then all
    # of Z's, each one (rows, 4096) draw sliced to the chunk.
    c, z = np.empty((model.d, count)), np.empty((noise.m, count))
    for start in range(0, count, 4096):
        size = min(4096, count - start)
        g = rng_stream(seed, start // 4096)
        c[:, start:start + size] = (model.sigma_c / np.sqrt(model.d)) * g.standard_normal(
            (model.d, 4096))[:, :size]
        z[:, start:start + size] = noise.per_coordinate_std * g.standard_normal(
            (noise.m, 4096))[:, :size]
    return c, z


_DRAW_OPERATORS = {
    "identity": lambda: make_diagonal_operator(12, "identity"),
    "linear-decay": lambda: make_diagonal_operator(12, "linear-decay"),
    "geometric": lambda: make_diagonal_operator(12, "geometric", 0.7),
    "dense-9x12": lambda: ForwardOperator(np.random.default_rng(5).standard_normal((9, 12))),
}


@pytest.mark.parametrize("operator", sorted(_DRAW_OPERATORS))
@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193])
def test_draw_keeps_its_bits(operator, count):
    # d = 10 and m = 12 or 9 are not multiples of the row block, and the
    # counts end a chunk one short, exactly, or one or two chunks and one over.
    model = make_subspace(12, 10, 1.3, seed=4)
    op = _DRAW_OPERATORS[operator]()
    noise = NoiseModel(m=op.m, sigma_z=0.7)
    c_ref, z_ref = _full_chunk_latents(model, noise, count, 11)
    c, z = draw_latents(model, noise, count, 11)
    assert np.array_equal(c, c_ref) and np.array_equal(z, z_ref)
    x, y, c = draw_sample_arrays(model, op, noise, count, 11)
    assert np.array_equal(c, c_ref)
    assert np.array_equal(x, model.basis @ c)
    assert np.array_equal(y, op.matrix @ x + z_ref)


def test_operator_diagonal_is_set_only_for_a_square_diagonal_matrix():
    for spectrum in ("identity", "linear-decay", "geometric"):
        op = make_diagonal_operator(6, spectrum, 0.7)
        assert np.array_equal(op.diagonal, np.diagonal(op.matrix))
        with pytest.raises(ValueError):
            op.diagonal[0] = 2.0
    off_diagonal = np.diag(np.arange(1.0, 7.0))
    off_diagonal[0, 5] = 1e-300
    for matrix in (off_diagonal, np.eye(6)[:5], np.eye(6)[:, :5]):
        assert ForwardOperator(matrix).diagonal is None


def test_draw_holds_its_arrays_and_one_row_block():
    # No m x N noise array and no chunk-wide temporary: at N = 10 000 the
    # full noise array alone would be 7.6 MiB.
    model = make_subspace(100, 50, 1.0, seed=0)
    op = make_diagonal_operator(100, "linear-decay")
    noise = NoiseModel(m=100, sigma_z=0.2)
    tracemalloc.start()
    try:
        x, y, c = draw_sample_arrays(model, op, noise, 10000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + y.nbytes + c.nbytes + 2**20


@pytest.mark.parametrize("count", [4095, 4096, 4097, 4100, 4351, 8193, 10000])
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_latent_set_is_the_full_draw_bit_for_bit(kind, count):
    # Each chunk block is projected on its own; a narrow last block joins the
    # one before, where OpenBLAS would round its own products unlike the full ones.
    model = make_subspace(100, 50, 1.0, seed=0)
    if kind == "diagonal":
        op = make_diagonal_operator(100, "linear-decay")
    else:
        op = ForwardOperator(np.random.default_rng(1).standard_normal((80, 100)))
    noise = NoiseModel(m=op.m, sigma_z=0.2)
    _, y, c = draw_sample_arrays(model, op, noise, count, 3)
    c_latent, wy = _draw_latent_set(model, op, noise, count, 3)
    assert np.array_equal(c_latent, c)
    assert np.array_equal(wy, op.au_svd(model)[0].T @ y)


def test_latent_set_holds_its_arrays_and_one_chunk_buffer():
    # No x or y: at N = 10 000 those two alone would take 15.3 MiB.
    model = make_subspace(100, 50, 1.0, seed=0)
    op = make_diagonal_operator(100, "linear-decay")
    noise = NoiseModel(m=100, sigma_z=0.2)
    tracemalloc.start()
    try:
        c, wy = _draw_latent_set(model, op, noise, 10000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= c.nbytes + wy.nbytes + noise.m * _CHUNK * 8 + 2**20


def test_rng_stream_path_separation():
    a = rng_stream(0, 1).standard_normal(4)
    b = rng_stream(0, 2).standard_normal(4)
    assert not np.array_equal(a, b)
    a2 = rng_stream(0, 1).standard_normal(4)
    assert np.array_equal(a, a2)


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
    "_draw_latent_set": lambda model, op, noise: _draw_latent_set(model, op, noise, 3, 0),
    "train": lambda model, op, noise: train(model, op, noise, TrainConfig(n_iterations=1)),
    "ridge_estimator": lambda model, op, noise: ridge_estimator(model, op, noise, 0.1),
    "optimal_jittering_estimator":
        lambda model, op, noise: optimal_jittering_estimator(model, op, noise, 0.1),
    "conjectured_robust_estimator":
        lambda model, op, noise: conjectured_robust_estimator(model, op, noise, 0.1),
    "best_jitter_level_analytic":
        lambda model, op, noise: best_jitter_level_analytic(model, op, noise, 0.1),
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
