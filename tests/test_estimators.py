import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jitterlab.estimators as estimators
from jitterlab.errors import (
    EvaluationError,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRegimeError,
)
from jitterlab.estimators import (
    LinearEstimator,
    _increasing_root,
    conjectured_robust_estimator,
    jitter_level_for_eps,
    jittering_denoiser_alpha,
    mmse_estimator,
    optimal_jittering_estimator,
    optimal_robust_alpha,
    optimal_robust_denoiser,
    ridge_estimator,
)
from jitterlab.model import NoiseModel, make_diagonal_operator, make_subspace


def _setup(n=30, d=10, sigma_c=1.0, sigma_z=0.5, spectrum="identity", seed=0):
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=0.8)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    return model, op, noise


# frozen by independent grid minimization of (eps*s + sqrt(sc^2(s-1)^2 + sz^2(d/n)s^2))^2
ALPHA_ORACLE = 0.6813302005651865


def test_alpha_frozen_oracle():
    assert abs(optimal_robust_alpha(1.0, 0.4, 1, 1, 0.5) - ALPHA_ORACLE) < 1e-12


def test_alpha_zero_eps_is_wiener():
    # alpha(0) = sigma_c^2 / (sigma_c^2 + sigma_z^2 d/n)
    assert abs(optimal_robust_alpha(1.0, 0.4, 1, 1, 0.0) - 1 / 1.16) < 1e-12
    assert abs(optimal_robust_alpha(1.0, 1.2, 1, 1, 0.0) - 1 / 2.44) < 1e-12


def test_alpha_zero_noise():
    # noiseless: no shrinkage below the collapse radius, zero above
    assert optimal_robust_alpha(1.0, 0.0, 1, 1, 0.0) == 1.0
    assert optimal_robust_alpha(1.0, 0.0, 1, 1, 0.5) == 1.0
    assert optimal_robust_alpha(1.0, 0.0, 1, 1, 1.0) == 0.0


def test_alpha_large_eps_collapses_to_zero():
    assert optimal_robust_alpha(1.0, 0.4, 1, 1, 1.0) == 0.0
    assert optimal_robust_alpha(1.0, 0.4, 1, 1, 1.2) == 0.0
    assert optimal_robust_alpha(2.0, 0.1, 5, 20, 2.5) == 0.0


def test_alpha_matches_grid_argmin():
    # independent oracle: scan the scalar objective on a fine grid + refine
    rng = np.random.default_rng(123)
    for _ in range(30):
        sigma_c = rng.uniform(0.3, 3.0)
        sigma_z = rng.uniform(0.0, 2.0)
        ratio = rng.uniform(0.1, 1.0)  # d/n
        eps = rng.uniform(0.0, 0.95) * sigma_c
        alpha = optimal_robust_alpha(sigma_c, sigma_z, 1, 1, eps * 0 + eps) if ratio == 1 else None
        d, n = 1, 1
        nu2 = sigma_z**2 * ratio

        def g(s):
            return (eps * s + np.sqrt(sigma_c**2 * (s - 1) ** 2 + nu2 * s**2)) ** 2

        grid = np.linspace(0.0, 1.0, 20001)
        k = int(np.argmin(g(grid)))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        fine = np.linspace(lo, hi, 20001)
        s_star = fine[int(np.argmin(g(fine)))]
        # map ratio through the d/n slots
        got = optimal_robust_alpha(sigma_c, sigma_z * np.sqrt(ratio), 1, 1, eps)
        assert abs(got - s_star) < 1e-6


def test_alpha_monotone_decreasing_in_eps():
    grid = np.linspace(0.0, 0.99, 40)
    vals = [optimal_robust_alpha(1.0, 0.4, 50, 100, e) for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_optimal_robust_denoiser_structure():
    model, op, noise = _setup()
    est = optimal_robust_denoiser(model, noise, 0.3)
    alpha = optimal_robust_alpha(model.sigma_c, noise.sigma_z, model.d, model.n, 0.3)
    expect = alpha * (model.basis @ model.basis.T)
    assert np.max(np.abs(est.matrix - expect)) < 1e-12
    assert np.allclose(est.singular_values, alpha)


def test_optimal_robust_denoiser_rejects_non_square():
    model = make_subspace(12, 4, 1.0, seed=0)
    noise = NoiseModel(m=10, sigma_z=0.1)
    with pytest.raises(InvalidDimensionError):
        optimal_robust_denoiser(model, noise, 0.1)


# frozen by independent algebra: sigma_w^2 d = (eps^2 sz^2 d/n + sz sqrt(d/n) sc eps
#   sqrt(sc^2 - eps^2 + sz^2 d/n)) / (sc^2 - eps^2) at sc=1, sz=0.4, d/n=1, eps=0.5
SIGMA_W_ORACLE = 0.5547225616268481


def test_jitter_level_frozen_oracle():
    assert abs(jitter_level_for_eps(1.0, 0.4, 1, 1, 0.5) - SIGMA_W_ORACLE) < 1e-12


def test_jitter_level_zero_at_zero_eps():
    assert jitter_level_for_eps(1.0, 0.4, 50, 100, 0.0) == 0.0


def test_jitter_level_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        jitter_level_for_eps(1.0, 0.4, 1, 1, 1.0)


def test_jitter_alpha_equivalence_identity():
    # alpha_j(sigma_w(eps)) == alpha_r(eps) exactly, across the regime
    for eps in np.linspace(0.0, 0.99, 50):
        sw = jitter_level_for_eps(1.0, 0.4, 50, 100, float(eps))
        aj = jittering_denoiser_alpha(1.0, 0.4, 50, 100, sw)
        ar = optimal_robust_alpha(1.0, 0.4, 50, 100, float(eps))
        assert abs(aj - ar) < 1e-10


def test_jittering_alpha_closed_form():
    # alpha_j = sc^2 / (sc^2 + sz^2 d/n + sw^2 d)
    got = jittering_denoiser_alpha(1.0, 0.4, 50, 100, 0.1)
    assert abs(got - 1.0 / (1.0 + 0.16 * 0.5 + 0.01 * 50)) < 1e-14


def test_optimal_jittering_estimator_identity_op_matches_alpha():
    model, op, noise = _setup()
    sw = 0.2
    est = optimal_jittering_estimator(model, op, noise, sw)
    alpha = jittering_denoiser_alpha(model.sigma_c, noise.sigma_z, model.d, model.n, sw)
    assert np.max(np.abs(est.matrix - alpha * model.basis @ model.basis.T)) < 1e-12


def test_optimal_jittering_estimator_normal_equations():
    # independent oracle: H must solve H (A Sxx A' + (sz^2/m + sw^2) I) = Sxx A'
    model, op, noise = _setup(spectrum="linear-decay", sigma_z=0.3)
    sw = 0.15
    est = optimal_jittering_estimator(model, op, noise, sw)
    sxx = (model.sigma_c**2 / model.d) * (model.basis @ model.basis.T)
    cov_y = op.matrix @ sxx @ op.matrix.T + (noise.sigma_z**2 / noise.m + sw**2) * np.eye(noise.m)
    lhs = est.matrix @ cov_y
    rhs = sxx @ op.matrix.T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mmse_is_zero_jitter():
    model, op, noise = _setup(spectrum="geometric", seed=3)
    a = mmse_estimator(model, op, noise)
    b = optimal_jittering_estimator(model, op, noise, 0.0)
    assert np.array_equal(a.matrix, b.matrix)


@st.composite
def _noisier_training(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, n))
    spectrum = draw(st.sampled_from(["identity", "linear-decay", "geometric"]))
    ratio = draw(st.floats(0.3, 1.0))
    sigma_c = draw(st.floats(0.1, 5.0))
    sigma_z = draw(st.floats(0.0, 2.0))
    sigma_z_train = sigma_z * draw(st.floats(1.0, 3.0)) + draw(st.floats(0.0, 1.0))
    return n, d, spectrum, ratio, sigma_c, sigma_z, sigma_z_train, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_noisier_training())
def test_noisier_training_data_is_jittering(case):
    # Standard training at sigma_z_train >= sigma_z minimizes the jittering
    # objective at sigma_w^2 = (sigma_z_train^2 - sigma_z^2)/m: the MMSE
    # estimator of the noisier model is that jittering estimator.
    n, d, spectrum, ratio, sigma_c, sigma_z, sigma_z_train, seed = case
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=ratio)
    trained = mmse_estimator(model, op, NoiseModel(m=n, sigma_z=sigma_z_train)).matrix
    sigma_w = math.sqrt((sigma_z_train**2 - sigma_z**2) / n)
    jittered = optimal_jittering_estimator(model, op, NoiseModel(m=n, sigma_z=sigma_z), sigma_w)
    scale = np.max(np.abs(jittered.matrix))
    assert np.max(np.abs(trained - jittered.matrix)) <= 1e-12 * scale


def test_ridge_matches_jittering_estimator():
    # regularizer sigma_w^2 reproduces the jittering solution exactly
    rng = np.random.default_rng(5)
    for k in range(20):
        n = int(rng.integers(6, 16))
        d = int(rng.integers(1, n // 2 + 2))
        spectrum = ["identity", "linear-decay", "geometric"][k % 3]
        model = make_subspace(n, d, float(rng.uniform(0.5, 2.0)), seed=k)
        op = make_diagonal_operator(n, spectrum, ratio=0.8)
        noise = NoiseModel(m=n, sigma_z=float(rng.uniform(0.0, 1.0)))
        sw = float(rng.uniform(0.0, 0.8))
        rid = ridge_estimator(model, op, noise, sw**2)
        jit = optimal_jittering_estimator(model, op, noise, sw)
        assert np.max(np.abs(rid.matrix - jit.matrix)) < 1e-10


def test_conjectured_reduces_to_closed_form_at_identity():
    for sigma_z, eps in [(0.3, 0.2), (0.5, 0.4), (0.8, 0.7), (0.1, 0.05)]:
        model, op, noise = _setup(sigma_z=sigma_z)
        est, prof = conjectured_robust_estimator(model, op, noise, eps)
        alpha = optimal_robust_alpha(model.sigma_c, sigma_z, model.d, model.n, eps)
        assert np.max(np.abs(prof.sigma_i - alpha)) < 1e-7
        assert np.max(np.abs(est.matrix - alpha * model.basis @ model.basis.T)) < 1e-7


def test_conjectured_profile_constraint():
    model, op, noise = _setup(spectrum="linear-decay", sigma_z=0.4)
    est, prof = conjectured_robust_estimator(model, op, noise, 0.3)
    assert np.all(prof.sigma_i >= 0)
    assert np.all(prof.sigma_i**2 <= prof.lambda_star + 1e-10)
    # shrinks harder than the standard estimator
    std = mmse_estimator(model, op, noise)
    assert est.frobenius_norm() < std.frobenius_norm()


def test_conjectured_rejects_nonpositive_eps():
    model, op, noise = _setup()
    with pytest.raises(InvalidParameterError):
        conjectured_robust_estimator(model, op, noise, 0.0)


def test_conjectured_collapses_to_zero_at_huge_eps():
    # past the collapse radius the lambda problem is minimized at 0 and H = 0
    model, op, noise = _setup(spectrum="linear-decay")
    est, prof = conjectured_robust_estimator(model, op, noise, 100.0)
    assert np.max(np.abs(est.matrix)) == 0.0
    assert np.all(prof.sigma_i == 0.0)


def test_from_factors_sorts_descending():
    rng = np.random.default_rng(2)
    q1, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    est = LinearEstimator.from_factors(q1, np.array([0.1, 0.9, 0.5]), q2.T)
    assert np.allclose(est.singular_values, [0.9, 0.5, 0.1])
    assert est.sigma_max == pytest.approx(0.9)


def test_from_matrix_svd_consistency():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((6, 9))
    est = LinearEstimator.from_matrix(h)
    rebuilt = est.left @ np.diag(est.singular_values) @ est.right
    assert np.max(np.abs(rebuilt - h)) < 1e-12
    assert est.sigma_max == pytest.approx(np.linalg.norm(h, 2))


def test_apply_matches_matrix_product():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((5, 7))
    est = LinearEstimator.from_matrix(h)
    y = rng.standard_normal((7, 4))
    assert np.max(np.abs(est.apply(y) - h @ y)) < 1e-12


def test_root_finder_interior_root():
    # g = 2 (t - 2), the derivative of (t - 2)^2 + 3
    assert abs(_increasing_root(lambda t: 2.0 * (t - 2.0)) - 2.0) <= 4e-16 * 2.0


def test_root_finder_far_and_tiny_roots():
    # the bracket doubles or halves from t = 1 to reach either
    for root in (1e7, 1e-30):
        got = _increasing_root(lambda t: math.atan(t / root - 1.0))
        assert abs(got - root) <= 1e-15 * root


def test_root_finder_returns_zero_when_the_slope_starts_nonnegative():
    assert _increasing_root(lambda t: 1.0 + t) == 0.0
    assert _increasing_root(lambda t: t) == 0.0


def test_root_finder_lands_on_a_jump():
    # the derivative of |t - 0.25|: the minimizer is the kink
    got = _increasing_root(lambda t: -1.0 if t < 0.25 else 1.0)
    assert got == 0.25


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_root_finder_rejects_a_non_finite_derivative(bad):
    with pytest.raises(EvaluationError, match="not finite"):
        _increasing_root(lambda t: bad)
    with pytest.raises(EvaluationError, match="not finite"):
        _increasing_root(lambda t: bad if t > 3.0 else -1.0)


def test_root_finder_raises_without_a_sign_change():
    with pytest.raises(EvaluationError, match="stays negative"):
        _increasing_root(lambda t: -1.0)


def test_root_finder_non_convergence_raises(monkeypatch):
    model, op, noise = _setup(spectrum="linear-decay")
    conjectured_robust_estimator(model, op, noise, 0.3)  # converges under the normal budget
    monkeypatch.setattr(estimators, "_ROOT_MAX_ITER", 2)
    with pytest.raises(EvaluationError, match="still open"):
        conjectured_robust_estimator(model, op, noise, 0.3)
