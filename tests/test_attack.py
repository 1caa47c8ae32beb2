import numpy as np
import pytest

from jitterlab.attack import AttackConfig, pgd_attack, pgd_perturb_batch
from jitterlab.errors import AttackDivergenceError, InvalidParameterError
from jitterlab.estimators import LinearEstimator, optimal_robust_denoiser
from jitterlab.model import NoiseModel, make_subspace, rng_stream
from jitterlab.risk import inner_max_dual


def _case(seed, n=8):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    est = LinearEstimator.from_matrix(h)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    eps = float(rng.uniform(0.1, 1.0))
    return est, x, y, eps


# (eps, n_steps) budgets that both entry points reject up front.
_BAD_BUDGETS = [
    (-0.1, 10),
    (float("nan"), 10),
    (float("inf"), 10),
    (0.1, 0),
    (0.1, 1.5),
    (0.1, 2.5),
    (0.1, 0.5),
    (0.1, True),
]


def test_attack_config_validation():
    for eps, n_steps in _BAD_BUDGETS:
        with pytest.raises(InvalidParameterError):
            AttackConfig(eps=eps, n_steps=n_steps)
    for step_scale in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="step_scale"):
            AttackConfig(eps=0.1, n_steps=10, step_scale=step_scale)
    for n_restarts in (0, 2.5, True):
        with pytest.raises(InvalidParameterError, match="n_restarts"):
            AttackConfig(eps=0.1, n_steps=10, n_restarts=n_restarts)
    for n_steps in (1.5, True):
        with pytest.raises(InvalidParameterError, match="n_steps must be an int"):
            AttackConfig(eps=0.1, n_steps=n_steps)


def test_attack_feasible_and_improves():
    est, x, y, eps = _case(0)
    cfg = AttackConfig(eps=eps, n_steps=100, n_restarts=3)
    e, val = pgd_attack(est, x, y, cfg, seed=1)
    assert np.linalg.norm(e) <= eps + 1e-12
    base = float(np.sum((est.apply(y) - x) ** 2))
    assert val >= base - 1e-12


def test_attack_never_exceeds_dual():
    # travel budget is n_steps * step_scale * eps / n_steps = step_scale * eps,
    # so oracle-grade evaluation needs a larger multiplier than the
    # training default 2.5
    for seed in range(10):
        est, x, y, eps = _case(seed)
        cfg = AttackConfig(eps=eps, n_steps=500, n_restarts=10, step_scale=25.0)
        e, val = pgd_attack(est, x, y, cfg, seed=seed)
        v = est.apply(y) - x
        dual = inner_max_dual(est, v, eps)
        assert val <= dual + 1e-9
        assert val >= 0.999 * dual


def test_attack_aligns_with_closed_form_direction():
    # for H = alpha U U' the maximizer is the projected residual direction
    model = make_subspace(12, 4, 1.0, seed=2)
    noise = NoiseModel(m=12, sigma_z=0.4)
    den = optimal_robust_denoiser(model, noise, 0.5)
    alpha = float(den.singular_values[0])
    g = rng_stream(3, 0)
    c = g.standard_normal(4) * 0.5
    z = g.standard_normal(12) * 0.1
    x = model.basis @ c
    y = x + z
    direction = model.basis @ ((alpha - 1.0) * c + alpha * (model.basis.T @ z))
    direction /= np.linalg.norm(direction)
    cfg = AttackConfig(eps=0.5, n_steps=400, n_restarts=5)
    e, _ = pgd_attack(den, x, y, cfg, seed=4)
    cos = float(e @ direction) / np.linalg.norm(e)
    assert cos > 0.999


def test_attack_deterministic():
    est, x, y, eps = _case(5)
    cfg = AttackConfig(eps=eps, n_steps=50, n_restarts=4)
    e1, v1 = pgd_attack(est, x, y, cfg, seed=9)
    e2, v2 = pgd_attack(est, x, y, cfg, seed=9)
    assert np.array_equal(e1, e2) and v1 == v2


def test_attack_zero_estimator_stays_at_zero_value():
    est = LinearEstimator.from_matrix(np.zeros((4, 4)))
    x = np.array([1.0, 2.0, 0.0, 0.0])
    y = np.zeros(4)
    cfg = AttackConfig(eps=0.5, n_steps=20)
    e, val = pgd_attack(est, x, y, cfg, seed=0)
    assert val == pytest.approx(5.0)


def test_attack_divergence_detected():
    # finite H and y whose squared error overflows to inf
    est = LinearEstimator.from_matrix(np.full((3, 3), 1e200))
    cfg = AttackConfig(eps=0.5, n_steps=5)
    with np.errstate(over="ignore"), pytest.raises(AttackDivergenceError):
        pgd_attack(est, np.zeros(3), np.full(3, 1e200), cfg, seed=0)


def test_perturb_batch_feasible_and_effective():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((6, 6)) * 0.4
    x = rng.standard_normal((6, 32))
    y = rng.standard_normal((6, 32))
    eps = 0.3
    e = pgd_perturb_batch(h, x, y, eps, n_steps=3)
    norms = np.linalg.norm(e, axis=0)
    assert np.all(norms <= eps + 1e-12)
    base = np.sum((h @ y - x) ** 2, axis=0)
    attacked = np.sum((h @ (y + e) - x) ** 2, axis=0)
    assert np.all(attacked >= base - 1e-10)


def test_perturb_batch_matches_single_attack_gradient_path():
    # 1 step, no restarts: batch and single-sample paths take the same step
    rng = np.random.default_rng(13)
    h = rng.standard_normal((5, 5))
    est = LinearEstimator.from_matrix(h)
    x = rng.standard_normal((5, 1))
    y = rng.standard_normal((5, 1))
    eps = 0.4
    e_batch = pgd_perturb_batch(h, x, y, eps, n_steps=1)
    cfg = AttackConfig(eps=eps, n_steps=1, n_restarts=1)
    e_single, _ = pgd_attack(est, x[:, 0], y[:, 0], cfg, seed=0)
    # both move eps*2.5 along the normalized gradient from zero, then project
    assert np.max(np.abs(e_batch[:, 0] - e_single)) < 1e-10


def _reference_perturb_batch(h, x, y, eps, n_steps):
    # The textbook loop: full gradient 2 H'(H(y + e) - x), out-of-place updates,
    # steps of 2.5 eps / n_steps.
    e = np.zeros_like(y)
    r0 = h @ y - x
    step = 2.5 * eps / n_steps
    for _ in range(n_steps):
        grad = 2.0 * (h.T @ (r0 + h @ e))
        gnorm = np.linalg.norm(grad, axis=0)
        e = e + grad * np.where(gnorm > 0.0, step / np.where(gnorm > 0.0, gnorm, 1.0), 0.0)
        enorm = np.linalg.norm(e, axis=0)
        e = e * np.where(enorm > eps, eps / np.where(enorm > 0.0, enorm, 1.0), 1.0)
    return e


@pytest.mark.parametrize("n_steps", [1, 3, 7])
def test_perturb_batch_bit_identical_to_reference_loop(n_steps):
    rng = np.random.default_rng(17 + n_steps)
    h = rng.standard_normal((7, 5))
    x = rng.standard_normal((7, 40))
    y = rng.standard_normal((5, 40))
    y[:, 0] = np.linalg.lstsq(h, x[:, 0], rcond=None)[0]  # a (near) zero-residual column
    for eps in (0.05, 0.6, 3.0):
        e = pgd_perturb_batch(h, x, y, eps, n_steps)
        assert np.array_equal(e, _reference_perturb_batch(h, x, y, eps, n_steps))
    # A stack of runs, each with its own H, minibatch and radius (one of them
    # zero), gets the bits of each run's own loop.
    runs = [
        (h * s, x + s, y - s, eps) for s, eps in ((1.0, 0.05), (0.5, 0.6), (2.0, 0.0), (1.5, 3.0))
    ]
    hs, xs, ys, radii = (np.stack(part) for part in zip(*runs))
    e = pgd_perturb_batch(hs, xs, ys, radii[:, None, None], n_steps)
    for k, (hk, xk, yk, eps) in enumerate(runs):
        assert np.array_equal(e[k], _reference_perturb_batch(hk, xk, yk, eps, n_steps))


def test_perturb_batch_rejects_nan_eps():
    # and every other budget AttackConfig rejects
    rng = np.random.default_rng(3)
    h, x, y = rng.standard_normal((4, 4)), rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    for eps, n_steps in _BAD_BUDGETS:
        with pytest.raises(InvalidParameterError):
            pgd_perturb_batch(h, x, y, eps, n_steps)


def _reference_pgd_attack(est, x, y, config, seed):
    # The single-sample loop: one restart after another, each restart's
    # direction a fresh standard_normal(m) draw, scalar best-iterate tracking.
    h = est.matrix
    r0 = h @ y - x

    def value_and_grad(e):
        resid = r0 + h @ e
        return float(resid @ resid), 2.0 * (h.T @ resid)

    m, eps = y.shape[0], config.eps
    best_e = np.zeros(m)
    best_value, _ = value_and_grad(best_e)
    if eps == 0.0:
        return best_e, best_value
    step = config.step_scale * eps / config.n_steps
    rng = rng_stream(seed, 0)
    for restart in range(config.n_restarts):
        if restart == 0:
            e = np.zeros(m)
        else:
            direction = rng.standard_normal(m)
            e = (eps / np.linalg.norm(direction)) * direction
        for _ in range(config.n_steps):
            value, grad = value_and_grad(e)
            if value > best_value:
                best_value, best_e = value, e.copy()
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                e = e + (step / gnorm) * grad
                enorm = float(np.linalg.norm(e))
                if enorm > eps:
                    e *= eps / enorm
        value, _ = value_and_grad(e)
        if value > best_value:
            best_value, best_e = value, e.copy()
    return best_e, best_value


@pytest.mark.parametrize("step_scale", [2.5, 25.0])
def test_attack_matches_reference_loop(step_scale):
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n, m = rng.integers(2, 9, size=2)
        est = LinearEstimator.from_matrix(rng.standard_normal((n, m)))
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        eps = 0.0 if seed == 0 else float(rng.uniform(0.05, 2.0))
        cfg = AttackConfig(eps=eps, n_steps=int(rng.integers(1, 201)),
                           n_restarts=int(rng.integers(1, 9)), step_scale=step_scale)
        e, val = pgd_attack(est, x, y, cfg, seed=seed)
        _, ref = _reference_pgd_attack(est, x, y, cfg, seed=seed)
        assert val == pytest.approx(ref, rel=1e-12)
        assert np.linalg.norm(e) <= eps * (1 + 1e-12)
        assert val == pytest.approx(float(np.sum((est.apply(y + e) - x) ** 2)), rel=1e-12)


@pytest.mark.parametrize("n_restarts, m", [(2, 1), (5, 7), (9, 40)])
def test_restart_block_rows_are_successive_draws(n_restarts, m):
    block = rng_stream(4, 0).standard_normal((n_restarts - 1, m))
    rng = rng_stream(4, 0)
    for row in block:
        assert np.array_equal(row, rng.standard_normal(m))
