import math
import tracemalloc

import numpy as np
import pytest

import jitterlab.risk
from jitterlab.errors import (
    DegenerateInputError, EvaluationError, InvalidDimensionError, InvalidParameterError,
)
from jitterlab.estimators import (
    LinearEstimator,
    conjectured_robust_estimator,
    jitter_level_for_eps,
    mmse_estimator,
    optimal_jittering_estimator,
    optimal_robust_alpha,
    optimal_robust_denoiser,
)
from jitterlab.experiments import _latent
from jitterlab.model import (
    ForwardOperator, NoiseModel, draw_sample_arrays, make_diagonal_operator, make_subspace,
)
from jitterlab.risk import (
    _CERTIFY_COLUMNS,
    CI_SCALE,
    RiskReport,
    _mean_ci,
    best_jitter_level_analytic,
    certify,
    dual_values_batch,
    inner_max_dual,
    jittering_risk_closed_form,
    residuals,
    robust_risk_exact,
    robust_risk_mode_form,
    standard_risk_closed_form,
    worst_case_perturbation_projection,
)
from jitterlab.training import TrainConfig, train


def _setup(n=24, d=8, sigma_c=1.0, sigma_z=0.5, spectrum="identity", seed=0):
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=0.8)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    return model, op, noise


def test_dual_identity_estimator_closed_form():
    # H = I: worst case is e aligned with v, value (||v|| + eps)^2
    est = LinearEstimator.from_matrix(np.eye(5))
    v = np.array([1.0, 2.0, 0.0, -1.0, 0.5])
    got = inner_max_dual(est, v, 0.3)
    expect = (np.linalg.norm(v) + 0.3) ** 2
    assert abs(got - expect) < 1e-9


def test_dual_scaled_identity():
    # H = gamma I: value (||v|| + gamma*eps)^2
    est = LinearEstimator.from_matrix(0.6 * np.eye(4))
    v = np.array([0.3, -0.4, 1.0, 0.2])
    got = inner_max_dual(est, v, 0.5)
    expect = (np.linalg.norm(v) + 0.6 * 0.5) ** 2
    assert abs(got - expect) < 1e-9


def test_dual_zero_eps_is_norm_squared():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 6))
    est = LinearEstimator.from_matrix(h)
    v = rng.standard_normal(6)
    assert inner_max_dual(est, v, 0.0) == pytest.approx(np.sum(v**2))


def test_dual_zero_estimator():
    est = LinearEstimator.from_matrix(np.zeros((4, 4)))
    v = np.array([1.0, 0.0, 2.0, 0.0])
    assert inner_max_dual(est, v, 0.7) == pytest.approx(5.0)


def test_dual_against_brute_force_sphere():
    # low-dimensional brute force over the ball boundary
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 2))
    est = LinearEstimator.from_matrix(h)
    v = rng.standard_normal(2)
    eps = 0.8
    theta = np.linspace(0, 2 * np.pi, 400001)
    e = eps * np.vstack([np.cos(theta), np.sin(theta)])
    vals = np.sum((v[:, None] + h @ e) ** 2, axis=0)
    brute = vals.max()
    got = inner_max_dual(est, v, eps)
    assert got >= brute - 1e-9
    assert got <= brute + 1e-4


def test_dual_monotone_in_eps():
    rng = np.random.default_rng(4)
    est = LinearEstimator.from_matrix(rng.standard_normal((5, 5)))
    v = rng.standard_normal(5)
    vals = [inner_max_dual(est, v, e) for e in np.linspace(0, 2, 15)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_dual_batch_matches_scalar():
    rng = np.random.default_rng(5)
    for trial in range(4):
        n_rows = int(rng.integers(3, 9))
        n_cols = int(rng.integers(3, 9))
        h = rng.standard_normal((n_rows, n_cols))
        est = LinearEstimator.from_matrix(h)
        V = rng.standard_normal((n_rows, 12))
        eps = float(rng.uniform(0.05, 1.5))
        batch = dual_values_batch(est, V, eps)
        scal = np.array([inner_max_dual(est, V[:, i], eps) for i in range(12)])
        assert np.max(np.abs(batch - scal) / np.maximum(scal, 1e-12)) < 1e-9


def test_dual_batch_rank_deficient():
    # singular H with zero modes exercises the v-perp path
    rng = np.random.default_rng(6)
    h = np.zeros((6, 6))
    h[:3, :3] = rng.standard_normal((3, 3))
    est = LinearEstimator.from_matrix(h)
    V = rng.standard_normal((6, 8))
    batch = dual_values_batch(est, V, 0.4)
    scal = np.array([inner_max_dual(est, V[:, i], 0.4) for i in range(8)])
    assert np.max(np.abs(batch - scal)) < 1e-9


def test_worst_case_projection_attains_dual():
    model, op, noise = _setup(n=30, d=10, sigma_z=0.4)
    for eps in (0.1, 0.3, 0.6):
        den = optimal_robust_denoiser(model, noise, eps)
        alpha = float(den.singular_values[0])
        for s in range(3):
            from jitterlab.model import rng_stream

            g = rng_stream(11, s)
            c = g.standard_normal(10) * (1.0 / np.sqrt(10))
            z = g.standard_normal(30) * (0.4 / np.sqrt(30))
            x = model.basis @ c
            v = den.apply(x + z) - x
            e = worst_case_perturbation_projection(alpha, model, c, z, eps)
            assert np.linalg.norm(e) == pytest.approx(eps)
            attained = float(np.sum((v + den.apply(e)) ** 2))
            dual = inner_max_dual(den, v, eps)
            assert abs(attained - dual) < 1e-10


def test_worst_case_projection_degenerate_direction():
    model, _, _ = _setup()
    with pytest.raises(DegenerateInputError):
        worst_case_perturbation_projection(
            1.0, model, np.zeros(model.d), np.zeros(model.n), 0.3
        )


def test_standard_risk_closed_form_values():
    # alpha=1, sigma_z=0: perfect reconstruction
    assert standard_risk_closed_form(1.0, 1.0, 0.0, 5, 10) == 0.0
    # alpha=0: all signal energy lost
    assert standard_risk_closed_form(0.0, 1.3, 0.7, 5, 10) == pytest.approx(1.69)
    # at the optimal alpha the robust-optimal standard risk has a closed form
    sc, sz, d, n = 1.0, 0.4, 50, 100
    for eps in (0.1, 0.4, 0.7):
        a = optimal_robust_alpha(sc, sz, d, n, eps)
        got = standard_risk_closed_form(a, sc, sz, d, n)
        expect = sc**2 * sz**2 * (d / n) / (sc**2 + sz**2 * d / n - eps**2)
        assert abs(got - expect) < 1e-10


def test_standard_risk_monotone_in_eps():
    # robustness-accuracy trade-off: standard risk of the eps-optimal
    # estimator strictly increases with eps
    sc, sz, d, n = 1.0, 0.4, 50, 100
    vals = [
        standard_risk_closed_form(optimal_robust_alpha(sc, sz, d, n, e), sc, sz, d, n)
        for e in np.linspace(0.0, 0.95, 20)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_jittering_risk_closed_form_matches_monte_carlo():
    model, op, noise = _setup(n=20, d=6, sigma_z=0.5, spectrum="linear-decay")
    sw = 0.3
    est = optimal_jittering_estimator(model, op, noise, sw)
    cf = jittering_risk_closed_form(est, model, op, noise, sw)
    g = np.random.default_rng(12)
    N = 100000
    C = g.standard_normal((model.d, N)) * (model.sigma_c / np.sqrt(model.d))
    X = model.basis @ C
    Z = g.standard_normal((noise.m, N)) * (noise.sigma_z / np.sqrt(noise.m))
    W = g.standard_normal((noise.m, N)) * sw
    R = est.apply(op.matrix @ X + Z + W) - X
    vals = np.sum(R**2, axis=0)
    se = vals.std(ddof=1) / np.sqrt(N)
    assert abs(vals.mean() - cf) < 5 * se


def test_jittering_estimator_is_stationary_point():
    # the closed-form jittering estimator minimizes the jittering risk:
    # any perturbation of H increases the closed-form objective
    model, op, noise = _setup(n=15, d=5, sigma_z=0.4, spectrum="geometric")
    sw = 0.25
    est = optimal_jittering_estimator(model, op, noise, sw)
    base = jittering_risk_closed_form(est, model, op, noise, sw)
    rng = np.random.default_rng(9)
    for _ in range(5):
        pert = 1e-3 * rng.standard_normal(est.matrix.shape)
        bumped = LinearEstimator.from_matrix(est.matrix + pert)
        assert jittering_risk_closed_form(bumped, model, op, noise, sw) > base


def test_mode_form_matches_conjecture_objective():
    model, op, noise = _setup(n=24, d=8, sigma_z=0.4, spectrum="linear-decay")
    eps = 0.35
    est, prof = conjectured_robust_estimator(model, op, noise, eps)
    w, lam, v = op.au_svd(model)
    value, lam_star = robust_risk_mode_form(
        prof.sigma_i, lam, model.sigma_c, noise.sigma_z, model.d, noise.m, eps
    )
    assert lam_star == pytest.approx(prof.lambda_star, rel=1e-6, abs=1e-8)
    # cross-check against a Monte-Carlo evaluation of the same estimator
    rep = robust_risk_exact(est, model, op, noise, eps, 4000, seed=3)
    se = (rep.ci_high[0] - rep.values[0]) / CI_SCALE
    assert abs(rep.values[0] - value) < 5 * se


def test_mode_form_identity_matches_alpha_closed_form():
    sc, sz, d, n = 1.0, 0.4, 50, 100
    eps = 0.45
    alpha = optimal_robust_alpha(sc, sz, d, n, eps)
    value, _ = robust_risk_mode_form(
        np.full(d, alpha), np.ones(d), sc, sz, d, n, eps
    )
    expect = (eps * alpha + np.sqrt(standard_risk_closed_form(alpha, sc, sz, d, n))) ** 2
    assert abs(value - expect) / expect < 1e-9


def test_robust_risk_exact_zero_eps_matches_standard_risk():
    model, op, noise = _setup(n=30, d=10, sigma_z=0.5)
    alpha = 0.7
    est = LinearEstimator.from_matrix(alpha * model.basis @ model.basis.T)
    rep = robust_risk_exact(est, model, op, noise, 0.0, 20000, seed=4)
    cf = standard_risk_closed_form(alpha, model.sigma_c, noise.sigma_z, model.d, model.n)
    se = (rep.ci_high[0] - rep.values[0]) / CI_SCALE
    assert abs(rep.values[0] - cf) < 5 * se


def test_certify_curve_monotone_and_shared_draw():
    model, op, noise = _setup(n=20, d=6, sigma_z=0.4)
    est = mmse_estimator(model, op, noise)
    grid = np.array([0.0, 0.2, 0.4, 0.8])
    x, y, _ = draw_sample_arrays(model, op, noise, 500, 5)
    rep = certify(est, x, y, grid)
    assert np.all(np.diff(rep.values) > 0)
    # paired draws: the eps=0 entry of the curve equals a direct eps=0 report
    single = robust_risk_exact(est, model, op, noise, 0.0, 500, seed=5)
    assert rep.values[0] == pytest.approx(single.values[0])


def _certify_estimator(kind, model, op, noise):
    n, m = model.n, noise.m
    if kind == "dense-trained":
        return train(model, op, noise, TrainConfig(n_iterations=40, seed=2)).estimator
    if kind == "factored-closed-form":
        return optimal_jittering_estimator(model, op, noise, 0.3)
    return LinearEstimator.from_factors(np.zeros((n, 0)), np.zeros(0), np.zeros((0, m)))


@pytest.mark.parametrize("kind", ["dense-trained", "factored-closed-form", "rank-0"])
def test_certify_equals_residual_dual_ci(kind):
    model, op, noise = _setup(n=16, d=5, sigma_z=0.4, spectrum="linear-decay")
    est = _certify_estimator(kind, model, op, noise)
    grid = np.array([0.0, 0.1, 0.35, 1.0])
    # below one certify block, exactly one, and 2.5 blocks (a ragged tail)
    for n_samples in (300, _CERTIFY_COLUMNS, 5 * _CERTIFY_COLUMNS // 2):
        x, y, _ = draw_sample_arrays(model, op, noise, n_samples, 7)
        rep = certify(est, x, y, grid)
        v = residuals(est, model, op, noise, n_samples, 7)
        ref = np.array([_mean_ci(dual_values_batch(est, v, float(e))) for e in grid])
        assert rep.values.tolist() == ref[:, 0].tolist()
        assert rep.ci_low.tolist() == ref[:, 1].tolist()
        assert rep.ci_high.tolist() == ref[:, 2].tolist()
        assert rep.eps_grid.tolist() == grid.tolist()
        assert rep.n_samples == n_samples


@pytest.mark.parametrize("setting", ["linear-decay-16x5", "dense-9x12-d10"])
def test_latent_certification_equals_certification_in_n_space(setting):
    # gap certifies B = U'HW on (c, W'y).  At m = 9 < d = 10, k = 9 and the
    # part of c outside range(V') is the latent residual's v_perp.
    if setting == "linear-decay-16x5":
        model, op, noise = _setup(n=16, d=5, sigma_z=0.4, spectrum="linear-decay")
    else:
        model = make_subspace(12, 10, 1.0, seed=3)
        op = ForwardOperator(np.random.default_rng(5).standard_normal((9, 12)))
        noise = NoiseModel(m=9, sigma_z=0.4)
    x, y, c = draw_sample_arrays(model, op, noise, 3000, 7)
    wy = op.au_svd(model)[0].T @ y
    grid = np.array([0.0, 0.1, 0.35, 1.0])
    for est in (
        mmse_estimator(model, op, noise),
        optimal_jittering_estimator(model, op, noise, 0.3),
        conjectured_robust_estimator(model, op, noise, 0.35)[0],
    ):
        rep, latent = certify(est, x, y, grid), certify(_latent(est, model, op), c, wy, grid)
        for field in ("values", "ci_low", "ci_high"):
            np.testing.assert_allclose(getattr(latent, field), getattr(rep, field), rtol=1e-12, atol=0)
    with pytest.raises(InvalidParameterError, match="orthonormal"):
        _latent(_certify_estimator("dense-trained", model, op, noise), model, op)


def test_certify_never_holds_a_full_residual():
    model, op, noise = _setup(n=100, d=50, sigma_z=0.2, spectrum="linear-decay")
    est = optimal_jittering_estimator(model, op, noise, 0.3)
    x, y, _ = draw_sample_arrays(model, op, noise, 10000, 3)
    tracemalloc.start()
    try:
        certify(est, x, y, np.linspace(0.0, 0.5, 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes  # one n x N float64 array, 7.6 MiB


@pytest.mark.parametrize("n_samples", [1025, 1026, 1100, 1279, 1535, 1536, 2049])
def test_certify_folds_a_one_column_tail(monkeypatch, n_samples):
    # A last block narrower than 512 columns joins the block before it.  On
    # its own, OpenBLAS may round a narrow tail's products unlike the full
    # ones, and numpy sums a (k, 1) block pairwise, so its duals would differ
    # in their last bits from one unblocked pass.
    model, op, noise = _setup(n=100, d=50, sigma_z=0.2, spectrum="linear-decay")
    est = optimal_jittering_estimator(model, op, noise, 0.3)
    x, y = draw_sample_arrays(model, op, noise, n_samples, 3)[:2]
    grid = [0.1, 0.3, 0.5]
    seen = []

    def recording(estimator, v, eps):
        out = dual_values_batch(estimator, v, eps)
        seen.append(out)
        return out

    monkeypatch.setattr(jitterlab.risk, "dual_values_batch", recording)
    certify(est, x, y, grid)
    v = est.apply(y) - x
    unblocked = np.array([dual_values_batch(est, v, eps) for eps in grid])
    assert np.array_equal(np.concatenate(seen, axis=1), unblocked)


def test_dual_batch_grid_rows_equal_scalar_calls():
    # One projection serves every radius; each row keeps its scalar call's bits.
    rng = np.random.default_rng(8)
    h = np.zeros((6, 6))
    h[:4, :4] = rng.standard_normal((4, 4))
    v = rng.standard_normal((6, 40))
    grid = np.array([0.0, 0.2, 0.7, 0.2])
    for est in (LinearEstimator.from_matrix(h), LinearEstimator.from_matrix(np.zeros((6, 6)))):
        out = dual_values_batch(est, v, grid)
        assert out.shape == (4, 40)
        assert np.array_equal(out, np.array([dual_values_batch(est, v, eps) for eps in grid]))
    assert dual_values_batch(est, v[:, :0], grid).shape == (4, 0)
    assert dual_values_batch(est, v, 0.2).shape == (40,)
    with pytest.raises(InvalidParameterError):
        dual_values_batch(est, v, [0.1, -0.1])
    with pytest.raises(InvalidDimensionError):
        dual_values_batch(est, v, grid[:, None])


def test_certify_rejects_non_finite_input():
    # NaN fails both `val < 0` and `lo > val`, so only a finiteness check
    # catches it; at eps > 0 it stops the secular solve first, and is still
    # named a bad input.
    model, op, noise = _setup(n=10, d=3)
    est = mmse_estimator(model, op, noise)
    x, y, _ = draw_sample_arrays(model, op, noise, 20, 1)
    x[0, 3] = np.nan
    for radii in ([0.0], [0.1], [0.0, 0.1]):
        with pytest.raises(InvalidParameterError, match="finite"):
            certify(est, x, y, radii)


@pytest.mark.parametrize("radii", [[0.0], [0.1]])
def test_certify_overflow_on_a_finite_set_is_an_evaluation_error(radii):
    # A finite but huge H overflows the residual energies: the set is fine,
    # the result is not, at every radius and with no RuntimeWarning (which
    # the pytest configuration turns into an error).
    model, op, noise = _setup(n=6, d=3)
    x, y, _ = draw_sample_arrays(model, op, noise, 20, 1)
    with pytest.raises(EvaluationError):
        certify(LinearEstimator.from_matrix(1e200 * np.eye(6)), x, y, radii)


@pytest.mark.parametrize("shape", [(0, 6), (6, 0)], ids=["no-rows", "no-columns"])
def test_certify_rejects_an_estimator_with_no_rows_or_columns(shape):
    # With no rows, H y is empty, so a NaN in y reached no statistic and the
    # set certified as risk 0; a dimension below 1 is a bad dimension.
    n, m = shape
    x, y = np.zeros((n, 4)), np.full((m, 4), np.nan)
    with pytest.raises(InvalidDimensionError, match="must be an int >= 1, got 0"):
        certify(LinearEstimator.from_matrix(np.zeros(shape)), x, y, [0.0])


def test_certify_rejects_mismatched_or_short_input():
    model, op, noise = _setup(n=10, d=3)
    est = mmse_estimator(model, op, noise)
    x, y, _ = draw_sample_arrays(model, op, noise, 20, 1)
    for bad_x, bad_y in (
        (np.vstack([x, x[:1]]), y),  # extra signal row
        (x, y[:-1]),  # missing measurement row
        (x[:, :-1], y),  # unpaired columns
        (x[:, 0], y[:, 0]),  # single vectors, not column blocks
    ):
        with pytest.raises(InvalidDimensionError):
            certify(est, bad_x, bad_y, [0.1])
    with pytest.raises(InvalidParameterError):
        certify(est, x[:, :1], y[:, :1], [0.1])
    with pytest.raises(InvalidParameterError):
        certify(est, x, y, [0.1, -0.2])


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_dual_rejects_residuals_of_the_wrong_length(eps):
    # A 7-vector against a 20 x 20 estimator: at eps = 0 it used to return
    # ||v||^2, at eps > 0 numpy's bare ValueError.
    est = LinearEstimator.from_matrix(np.diag(np.linspace(1.0, 0.1, 20)))
    v = np.ones(7)
    with pytest.raises(InvalidDimensionError):
        dual_values_batch(est, v[:, None], eps)
    with pytest.raises(InvalidDimensionError):
        inner_max_dual(est, v, eps)


def test_ci_is_066_scaled_standard_error():
    model, op, noise = _setup()
    est = mmse_estimator(model, op, noise)
    v = residuals(est, model, op, noise, 300, 8)
    vals = dual_values_batch(est, v, 0.3)
    rep = robust_risk_exact(est, model, op, noise, 0.3, 300, seed=8)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert rep.values[0] == pytest.approx(vals.mean())
    assert rep.ci_high[0] - rep.values[0] == pytest.approx(CI_SCALE * se)
    assert rep.values[0] - rep.ci_low[0] == pytest.approx(CI_SCALE * se)


def test_ci_coverage_near_two_thirds():
    # 66% CI from the 0.954-sigma normal quantile: coverage of the true
    # mean should land near 2/3 over repeated draws
    rng = np.random.default_rng(77)
    true_mean = 3.0
    hits = 0
    reps = 600
    for _ in range(reps):
        x = rng.exponential(true_mean, size=200)  # skewed, CLT still fine
        m = x.mean()
        se = x.std(ddof=1) / np.sqrt(x.size)
        if m - CI_SCALE * se <= true_mean <= m + CI_SCALE * se:
            hits += 1
    assert 0.60 <= hits / reps <= 0.72


def test_risk_report_validation():
    with pytest.raises(InvalidParameterError):
        RiskReport(
            eps_grid=np.array([0.0]),
            values=np.array([1.0]),
            ci_low=np.array([1.2]),  # ci_low > value
            ci_high=np.array([1.3]),
            n_samples=10,
        )


@pytest.mark.parametrize("field", ["values", "ci_low", "ci_high"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_risk_report_rejects_non_finite(field, bad):
    arrays = {"values": [1.0, 2.0], "ci_low": [0.9, 1.9], "ci_high": [1.1, 2.1]}
    arrays[field] = [arrays[field][0], bad]
    with pytest.raises(InvalidParameterError):
        RiskReport(eps_grid=np.array([0.0, 0.5]), n_samples=10, **arrays)


def test_best_jitter_level_at_identity_is_the_closed_form():
    # Criterion 6's grid: at A = I the robust denoiser is a jittering
    # denoiser, so the scan must land on jitter_level_for_eps.
    for sigma_c in (0.7, 1.0, 2.0):
        for sigma_z in (0.1, 0.5, 1.0):
            for d, n in ((10, 20), (50, 100), (16, 16)):
                model = make_subspace(n, d, sigma_c, seed=1)
                op = make_diagonal_operator(n, "identity")
                noise = NoiseModel(m=n, sigma_z=sigma_z)
                for eps_frac in (0.2, 0.5, 0.8):
                    eps = eps_frac * sigma_c
                    sw, _ = best_jitter_level_analytic(model, op, noise, eps)
                    expect = jitter_level_for_eps(sigma_c, sigma_z, d, n, eps)
                    assert abs(sw - expect) <= 1e-9 * expect


def test_best_jitter_level_collapses_to_the_zero_estimator():
    # Past the collapse radius the mode-form risk only falls as sigma_w grows:
    # the infimum is the zero map, reached as sigma_w -> inf.
    model = make_subspace(20, 10, 1.0, seed=0)
    op = make_diagonal_operator(20, "geometric", ratio=0.5)
    noise = NoiseModel(m=20, sigma_z=0.2)
    assert best_jitter_level_analytic(model, op, noise, 0.3) == (math.inf, 1.0)
    jit = optimal_jittering_estimator(model, op, noise, math.inf)
    assert np.all(jit.matrix == 0.0)
    _, profile = conjectured_robust_estimator(model, op, noise, 0.3)
    assert profile.lambda_star == 0.0


def test_noiseless_denoising_keeps_every_mode():
    # sigma_z = 0, A = I: H = U U' has risk eps^2.  The conjectured dual
    # F(lam) = lam eps^2 + sum_i s2 (1 - min(1, lam lam_i^2)) has its kinks
    # at lam = 1, the minimizer; every jitter level adds risk, and at s = 0
    # every mode weight of the mode-form dual is 0, its hard case.
    model = make_subspace(20, 10, 1.0, seed=1)
    op = make_diagonal_operator(20, "identity")
    noise = NoiseModel(m=20, sigma_z=0.0)
    for eps in (0.05, 0.3, 0.9):
        _, prof = conjectured_robust_estimator(model, op, noise, eps)
        assert abs(prof.lambda_star - 1.0) <= 1e-12
        assert np.max(np.abs(prof.sigma_i - 1.0)) <= 1e-12
        sw, risk = best_jitter_level_analytic(model, op, noise, eps)
        assert sw == 0.0
        assert abs(risk - eps**2) <= 1e-12 * eps**2


def test_best_jitter_scan_brackets_near_the_root(monkeypatch):
    # The scan solves in units of the jitter variance that halves the
    # weakest mode's shrinkage, where s* = sigma_w*^2 sits, instead of
    # halving down from s = 1.  gap's default setting and eps grid: 291
    # mode-form solves over the 15 scans, against 394 when bracketing from 1.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return robust_risk_mode_form(*args, **kwargs)

    monkeypatch.setattr("jitterlab.risk.robust_risk_mode_form", counting)
    model = make_subspace(100, 50, 1.0, seed=0)
    op = make_diagonal_operator(100, "linear-decay")
    noise = NoiseModel(m=100, sigma_z=0.2)
    for eps in np.linspace(0.0, 0.5, 16)[1:]:
        best_jitter_level_analytic(model, op, noise, float(eps))
    assert len(calls) <= 320
