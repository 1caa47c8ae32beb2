"""Property tests for the robust-risk duals and the estimator invariants on them.

Examples are generated from a seed plus a few shape parameters, so each
case is cheap to build and shrinks to a small reproducer.  Budgets are
small and the example sequence is fixed, so the module adds a few
seconds to the suite and never flakes.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jitterlab.risk as risk
from jitterlab.attack import AttackConfig, pgd_attack, pgd_perturb_batch
from jitterlab.errors import EvaluationError
from jitterlab.estimators import (
    LinearEstimator,
    _jittering_shrinkage,
    conjectured_robust_estimator,
    optimal_jittering_estimator,
    ridge_estimator,
)
from jitterlab.model import ForwardOperator, NoiseModel, make_diagonal_operator, make_subspace
from jitterlab.risk import (
    best_jitter_level_analytic,
    dual_values_batch,
    inner_max_dual,
    jittering_risk_closed_form,
    robust_risk_mode_form,
)

_FAST = settings(max_examples=25, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
radii = st.floats(0.01, 3.0)
# Zero or a usable radius; far below 1e-90 the Newton step underflows and raises.
budgets = st.one_of(st.just(0.0), st.floats(1e-6, 4.0))


def _orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _estimator(rng, n_rows, n_cols, spectrum):
    k = len(spectrum)
    return LinearEstimator.from_factors(
        _orthonormal(rng, n_rows, k), np.asarray(spectrum, float), _orthonormal(rng, n_cols, k).T
    )


@_FAST
@given(seeds, st.integers(1, 7), st.integers(1, 7), radii)
def test_batch_dual_equals_scalar_dual(seed, n_rows, n_cols, eps):
    rng = np.random.default_rng(seed)
    est = LinearEstimator.from_matrix(rng.standard_normal((n_rows, n_cols)))
    v = rng.standard_normal((n_rows, 9))
    batch = dual_values_batch(est, v, eps)
    scalar = np.array([inner_max_dual(est, v[:, j], eps) for j in range(9)])
    assert np.max(np.abs(batch - scalar) / scalar) < 1e-12


def _golden_section_min(f, a, b, steps=200):
    """Least value a golden-section search on [a, b] sees of a convex f."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    best = min(f(a), f(b), fc, fd)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
        best = min(best, fc, fd)
    return best


@_FAST
@given(seeds, st.integers(1, 7), radii)
def test_dual_matches_golden_section_reference(seed, n, eps):
    # A golden-section search, which solved these duals before the secular
    # solver, minimizes the same objective independently.  The minimizer
    # lies in [lo, lo + ||S vt|| / eps], where ||p(lam)|| <= eps.
    rng = np.random.default_rng(seed)
    est = LinearEstimator.from_matrix(rng.standard_normal((n, n)))
    v = rng.standard_normal(n)
    s2 = est.singular_values**2
    vt2 = (est.left.T @ v) ** 2

    def objective(lam):
        with np.errstate(divide="ignore"):
            return lam * eps**2 + float(np.sum(np.where(vt2 == 0.0, 0.0, vt2 / (1 - s2 / lam))))

    lo = float(s2[0])
    ref = _golden_section_min(objective, lo, lo + math.sqrt(float(s2 @ vt2)) / eps)
    ref += max(float(v @ v) - float(vt2.sum()), 0.0)
    got = inner_max_dual(est, v, eps)
    assert got <= ref * (1 + 1e-13)
    assert got >= ref * (1 - 1e-9)


@_FAST
@given(seeds, st.integers(2, 6), radii)
def test_attacks_never_exceed_dual(seed, n, eps):
    rng = np.random.default_rng(seed)
    est = LinearEstimator.from_matrix(rng.standard_normal((n, n)))
    x = rng.standard_normal((n, 5))
    y = rng.standard_normal((n, 5))
    duals = dual_values_batch(est, est.apply(y) - x, eps)
    e = pgd_perturb_batch(est.matrix, x, y, eps, n_steps=20)
    batch_vals = np.sum((est.apply(y + e) - x) ** 2, axis=0)
    assert np.all(batch_vals <= duals * (1 + 1e-12))
    cfg = AttackConfig(eps=eps, n_steps=60, n_restarts=2)
    _, val = pgd_attack(est, x[:, 0], y[:, 0], cfg, seed=seed % 1000)
    assert val <= duals[0] * (1 + 1e-12)


@_FAST
@given(seeds, st.integers(1, 6), st.lists(budgets, min_size=2, max_size=6))
def test_dual_monotone_in_eps(seed, n, grid):
    rng = np.random.default_rng(seed)
    est = LinearEstimator.from_matrix(rng.standard_normal((n, n)))
    v = rng.standard_normal((n, 4))
    vals = np.array([dual_values_batch(est, v, eps) for eps in sorted(grid)])
    assert np.all(np.diff(vals, axis=0) >= -1e-12 * vals[1:])


def _circle_max(h, v, eps, points=400001):
    theta = np.linspace(0.0, 2.0 * np.pi, points)
    e = eps * np.vstack([np.cos(theta), np.sin(theta)])
    return float(np.max(np.sum((v[:, None] + h @ e) ** 2, axis=0)))


@_FAST
@given(
    seeds,
    st.floats(0.1, 2.0),
    st.floats(0.0, 0.99),
    st.floats(-6.0, 1.0),
    st.booleans(),
    radii,
)
def test_dual_matches_2d_brute_force(seed, s_top, ratio, log_scale, hard, eps):
    # hard=True zeroes the coefficient on the top left singular vector; small
    # scales then put the maximizer on the boundary lam = s_top^2.
    rng = np.random.default_rng(seed)
    est = _estimator(rng, 2, 2, [s_top, ratio * s_top])
    vt = 10.0**log_scale * rng.standard_normal(2)
    if hard:
        vt[0] = 0.0
    v = est.left @ vt
    brute = _circle_max(est.matrix, v, eps)
    got = inner_max_dual(est, v, eps)
    assert got >= brute * (1 - 1e-12)
    assert got <= brute * (1 + 1e-6)


def test_hard_case_boundary_value():
    # H = diag(2, 1), v = (0, 0.3), eps = 0.5: ||p(4)|| = 0.1 <= eps, so
    # lam* = 4 and the maximum is 4 * 0.25 + 0.09 * 4 / 3 = 1.12 exactly.
    est = LinearEstimator.from_factors(np.eye(2), np.array([2.0, 1.0]), np.eye(2))
    v = np.array([0.0, 0.3])
    assert inner_max_dual(est, v, 0.5) == pytest.approx(1.12, rel=1e-14)


@_FAST
@given(
    seeds,
    st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]),
    st.integers(1, 4),
    st.floats(1e-3, 1.0),
    radii,
)
def test_clustered_top_singular_values(seed, spread, n_top, scale, eps):
    # Collapsed estimators have several near-equal top singular values.
    rng = np.random.default_rng(seed)
    n = 6
    left, right = _orthonormal(rng, n, n), _orthonormal(rng, n, n).T
    tail = scale * rng.uniform(0.0, 0.5, n - n_top)
    est = LinearEstimator.from_factors(
        left, np.concatenate([scale * (1.0 - spread * np.arange(n_top)), tail]), right
    )
    exact = LinearEstimator.from_factors(
        left, np.concatenate([np.full(n_top, scale), tail]), right
    )
    v = scale * rng.standard_normal((n, 6))
    got = dual_values_batch(est, v, eps)
    # Clustered values perturb H by at most spread * scale per mode.
    ref = dual_values_batch(exact, v, eps)
    assert np.max(np.abs(got - ref) / ref) <= 1e-10 + 8 * spread
    upper = (np.linalg.norm(v, axis=0) + scale * eps) ** 2
    assert np.all(got <= upper * (1 + 1e-12))
    cfg = AttackConfig(eps=eps, n_steps=300, n_restarts=2, step_scale=25.0)
    x = np.zeros(n)
    y = np.linalg.lstsq(est.matrix, v[:, 0], rcond=None)[0]
    residual = est.apply(y) - x
    _, val = pgd_attack(est, x, y, cfg, seed=0)
    dual0 = inner_max_dual(est, residual, eps)
    assert dual0 * (1 - 1e-3) <= val <= dual0 * (1 + 1e-12)


@_FAST
@given(
    seeds,
    st.integers(1, 8),
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 2.0),
    st.booleans(),
)
def test_mode_form_lambda_solves_secular_equation(seed, k, sigma_c, sigma_z, eps, exact_top):
    rng = np.random.default_rng(seed)
    d, m = k + 2, k + 4
    lam_i = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    sigma_i = rng.uniform(0.0, 2.0, k)
    if exact_top:
        # Numerator 0 on the top mode when sigma_z = 0: the hard case.
        top = int(np.argmax(sigma_i))
        sigma_i[top] = 1.0 / lam_i[top]
    value, lam = robust_risk_mode_form(sigma_i, lam_i, sigma_c, sigma_z, d, m, eps)
    num = (sigma_i * lam_i - 1.0) ** 2 * sigma_c**2 / d + sigma_i**2 * sigma_z**2 / m
    s2 = sigma_i**2
    top2 = s2.max()
    assert lam >= top2
    keep = s2 * num > 0
    gap = lam - s2[keep]
    p_norm = np.sqrt(np.sum(s2[keep] * num[keep] / gap**2))
    tail = (d - k) * sigma_c**2 / d
    assert value == pytest.approx(
        lam * eps**2 + np.sum(num[keep] * lam / gap) + np.sum(num[~keep]) + tail, rel=1e-12
    )
    if lam == top2:
        assert p_norm <= eps * (1 + 1e-9)
    else:
        # lam - max s2 carries an absolute rounding error of a few ulp(lam).
        slack = 1e-9 + 8 * np.finfo(float).eps * lam / (lam - top2)
        assert abs(p_norm - eps) <= slack * eps


@_FAST
@given(seeds, st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.floats(0.1, 2.0),
       st.floats(0.0, 1.0))
@example(0, 6, 4, 2, 1.0, 0.5)  # a wide operator: A U has k = 2 < d = 4 modes
def test_mode_form_at_zero_eps_is_the_standard_risk(seed, n, d, m, sigma_c, sigma_z):
    # At eps = 0 the bound of an aligned estimator H = (U V') diag(sigma) W'
    # is its exact standard risk: the sum of the per-mode numerators, plus
    # sigma_c^2/d for each of the d - k modes A U does not observe.
    d = min(d, n)
    rng = np.random.default_rng(seed)
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = ForwardOperator(rng.standard_normal((m, n)))
    noise = NoiseModel(m=m, sigma_z=sigma_z)
    w, lam, v = op.au_svd(model)
    sigma = rng.uniform(0.0, 2.0, lam.size)
    s2, z2 = sigma_c**2 / d, sigma_z**2 / m
    num = (sigma * lam - 1.0) ** 2 * s2 + sigma**2 * z2
    value, lam_star = robust_risk_mode_form(sigma, lam, sigma_c, sigma_z, d, m, 0.0)
    assert (value, lam_star) == (float(num.sum() + (d - lam.size) * s2), 0.0)
    est = LinearEstimator.from_factors(model.basis @ v.T, sigma, w.T)
    assert value == pytest.approx(jittering_risk_closed_form(est, model, op, noise, 0.0), rel=1e-12)


spectra = st.sampled_from(["identity", "linear-decay", "geometric"])


@_FAST
@given(
    seeds,
    st.integers(1, 12),
    st.integers(1, 12),
    spectra,
    st.floats(0.3, 1.0),
    st.floats(0.5, 2.0),
    st.floats(0.05, 1.2),
    st.floats(0.0, 1.5),
)
def test_ridge_equals_jittering(seed, n, d, spectrum, ratio, sigma_c, sigma_z, sigma_w):
    # Jittering at level sigma_w is ridge regression at weight sigma_w^2;
    # ridge solves dense normal equations, jittering uses the A U modes.
    d = min(d, n)
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=ratio)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    rid = ridge_estimator(model, op, noise, sigma_w**2)
    jit = optimal_jittering_estimator(model, op, noise, sigma_w)
    assert np.max(np.abs(rid.matrix - jit.matrix)) <= 1e-10


@_FAST
@given(
    seeds,
    st.integers(1, 10),
    st.integers(1, 10),
    st.sampled_from(["linear-decay", "geometric"]),
    st.floats(0.3, 0.95),
    st.floats(0.5, 2.0),
    st.floats(0.05, 1.0),
    st.floats(0.05, 0.6),
)
def test_conjectured_risk_at_most_best_jitter_risk(
    seed, n, d, spectrum, ratio, sigma_c, sigma_z, eps_rel
):
    # The conjectured shrinkage minimizes the mode-form risk over every
    # per-mode profile, and each jitter level gives one such profile.
    d = min(d, n)
    eps = eps_rel * sigma_c
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=ratio)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    _, profile = conjectured_robust_estimator(model, op, noise, eps)
    conj, _ = robust_risk_mode_form(
        profile.sigma_i, profile.lambda_i, sigma_c, sigma_z, d, n, eps
    )
    _, jit = best_jitter_level_analytic(model, op, noise, eps)
    assert conj <= jit * (1 + 1e-12)


@_FAST
@given(
    seeds,
    st.integers(1, 10),
    st.integers(1, 10),
    st.sampled_from(["identity", "linear-decay", "geometric"]),
    st.floats(0.3, 0.95),
    st.floats(0.5, 2.0),
    st.floats(0.05, 1.0),
    st.floats(0.05, 0.6),
)
def test_best_jitter_level_beats_a_brute_force_grid(
    seed, n, d, spectrum, ratio, sigma_c, sigma_z, eps_rel
):
    # No jitter level on a 2001-point grid has less mode-form risk than
    # the level the scan returns (inf stands for the zero estimator).
    d = min(d, n)
    eps = eps_rel * sigma_c
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=ratio)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    _, lam, _ = op.au_svd(model)

    def risk_at(sigma_w):
        sigma = _jittering_shrinkage(model, noise, lam, sigma_w)
        return robust_risk_mode_form(sigma, lam, sigma_c, sigma_z, d, n, eps)[0]

    sw_star, risk = best_jitter_level_analytic(model, op, noise, eps)
    grid_min = min(risk_at(sw) for sw in np.linspace(0.0, 2.0 * sigma_c, 2001))
    assert risk <= grid_min * (1 + 1e-12)
    assert risk == (sigma_c**2 if math.isinf(sw_star) else risk_at(sw_star))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seeds,
    st.integers(1, 16),
    st.integers(2, 40),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    st.floats(-6.0, 2.0),
    st.floats(1e-3, 4.0),
)
# Two cases whose lone first column takes other bits when summed as a (k, 1) block.
@example(5, 9, 3, False, False, 1.0, 0.0, 0.5)
@example(14, 12, 3, False, False, 1.0, 0.0, 0.5)
def test_secular_start_and_active_set(seed, k, n_cols, ties, hard, zero_frac, log_scale, eps):
    # The Newton start is left of the root, and a column's iterates do not
    # depend on the columns solved beside it.  zero_frac = 1 zeroes every
    # column but the first, which is then the only one still moving.
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.05, 2.0, k)
    s2 = rng.choice(levels[:2], k) if ties else levels
    a = 10.0**log_scale * rng.standard_normal((k, n_cols)) ** 2
    a[:, 1:][rng.random((k, n_cols - 1)) < zero_frac] = 0.0
    if hard:
        a[s2 == s2.max()] = 0.0
    starts = []

    def recording(mu, gap, w):
        if not starts:
            starts.append(mu.copy())
        return secular_terms(mu, gap, w)

    secular_terms = risk._secular_terms
    # Twin columns converge together, so no column of `twins` is ever solved alone.
    twins = np.repeat(a, 2, axis=1)
    with mock.patch.object(risk, "_secular_terms", recording):
        values, lam = risk._secular_min(s2, twins, eps)
    mu0, gap = starts[0], (s2.max() - s2)[:, None]
    p_norm = np.sqrt((s2[:, None] * twins / (mu0 + gap) ** 2).sum(axis=0))
    assert np.all((p_norm >= eps * (1 - 1e-12)) | (mu0 == risk._MU_FLOOR))
    subsets = [np.arange(0, 2 * n_cols, 2)]
    subsets += [rng.choice(2 * n_cols, size=size, replace=False) for size in (2, n_cols + 1)]
    for cols in subsets:
        sub_values, sub_lam = risk._secular_min(s2, twins[:, cols], eps)
        assert np.array_equal(sub_values, values[cols]) and np.array_equal(sub_lam, lam[cols])


def test_non_convergence_raises(monkeypatch):
    rng = np.random.default_rng(0)
    est = LinearEstimator.from_matrix(rng.standard_normal((8, 8)))
    v = rng.standard_normal((8, 20))
    dual_values_batch(est, v, 0.5)  # converges under the normal budget
    monkeypatch.setattr(risk, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(EvaluationError, match="did not converge"):
        dual_values_batch(est, v, 0.5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_residual_raises():
    est = LinearEstimator.from_matrix(np.diag([1.0, 0.5]))
    with pytest.raises(EvaluationError):
        inner_max_dual(est, np.array([np.nan, 1.0]), 0.3)
    with pytest.raises(EvaluationError):
        dual_values_batch(est, np.array([[1.0, np.inf], [0.0, 1.0]]), 0.3)
