"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s; under
plain pytest the per-test PASSED/FAILED status carries the same
information).  Monte-Carlo checks pin every seed, so they are exact
reproductions, not flaky statistical gambles; sample counts are chosen so
the 66% intervals honestly reflect the known finite-d systematics.
"""

import time

import numpy as np
import pytest

import jitterlab as jl
from jitterlab.training import _train_map

D, N_AMBIENT = 50, 100


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())


def test_criterion_1_alpha_matches_grid_argmin():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        sigma_c = float(rng.uniform(0.3, 3.0))
        sigma_z = float(rng.uniform(0.0, 2.0))
        ratio = float(rng.uniform(0.05, 1.0))  # d/n
        eps = float(rng.uniform(0.0, 1.2)) * sigma_c
        nu2 = sigma_z**2 * ratio

        def g(s):
            return (eps * s + np.sqrt(sigma_c**2 * (s - 1.0) ** 2 + nu2 * s**2)) ** 2

        grid = np.linspace(0.0, 1.0, 20001)
        k = int(np.argmin(g(grid)))
        fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, 20000)], 20001)
        k2 = int(np.argmin(g(fine)))
        finest = np.linspace(fine[max(k2 - 1, 0)], fine[min(k2 + 1, 20000)], 2001)
        s_star = float(finest[int(np.argmin(g(finest)))])
        got = jl.optimal_robust_alpha(sigma_c, sigma_z * np.sqrt(ratio), 1, 1, eps)
        worst = max(worst, abs(got - s_star))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _report("1 alpha-crosscheck", ok, f"worst|dalpha|={worst:.2e} t={elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_jitter_alpha_round_trip():
    t0 = time.time()
    worst = 0.0
    for sigma_c, sigma_z, d, n in [(1.0, 0.4, 50, 100), (2.0, 1.0, 10, 40), (0.7, 0.0, 5, 5)]:
        for eps in np.linspace(0.0, 0.99 * sigma_c, 50):
            sw = jl.jitter_level_for_eps(sigma_c, sigma_z, d, n, float(eps))
            aj = jl.jittering_denoiser_alpha(sigma_c, sigma_z, d, n, sw)
            ar = jl.optimal_robust_alpha(sigma_c, sigma_z, d, n, float(eps))
            worst = max(worst, abs(aj - ar))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report("2 jitter-round-trip", ok, f"worst|dalpha|={worst:.2e} t={elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_pgd_reaches_dual():
    t0 = time.time()
    worst_ratio = 1.0
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        h = rng.standard_normal((8, 8))
        est = jl.LinearEstimator.from_matrix(h)
        v = rng.standard_normal(8)
        eps = float(rng.uniform(0.1, 1.0))
        dual = jl.inner_max_dual(est, v, eps)
        cfg = jl.AttackConfig(eps=eps, n_steps=500, n_restarts=10, step_scale=25.0)
        # x = -v, y = 0 makes the residual equal v
        _, val = jl.pgd_attack(est, -v, np.zeros(8), cfg, seed=k)
        assert val <= dual + 1e-9
        worst_ratio = min(worst_ratio, val / dual)
    elapsed = time.time() - t0
    ok = worst_ratio >= 0.999 and elapsed < 30.0
    _report("3 pgd-duality", ok, f"worst_ratio={worst_ratio:.6f} t={elapsed:.1f}s")
    assert worst_ratio >= 0.999
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_4_trained_risks_match_closed_form():
    t0 = time.time()
    sigma_c, sigma_z = 1.0, 0.4 * np.sqrt(2.0)
    model = jl.make_subspace(N_AMBIENT, D, sigma_c, seed=0)
    op = jl.make_diagonal_operator(N_AMBIENT, "identity")
    noise = jl.NoiseModel(m=N_AMBIENT, sigma_z=sigma_z)
    eps_grid = np.linspace(0.0, 0.7, 8)
    n_eval = 200
    # The 16 independent runs go through _train_map: each worker trains its
    # share of them in lockstep stacks.
    configs = [
        jl.TrainConfig(objective="adversarial", eps=float(eps), lr=1e-4, n_iterations=30000,
                       seed=100 + j)
        for j, eps in enumerate(eps_grid)
    ] + [
        jl.TrainConfig(
            objective="jittering",
            sigma_w=jl.jitter_level_for_eps(sigma_c, sigma_z, D, N_AMBIENT, float(eps)),
            lr=1e-4, n_iterations=30000, seed=200 + j,
        )
        for j, eps in enumerate(eps_grid)
    ]
    trained = _train_map(
        model, op, [noise] * len(configs), configs, lambda i, run: run().estimator
    )
    all_ok = True
    lines = []
    for j, eps in enumerate(eps_grid):
        eps = float(eps)
        alpha = jl.optimal_robust_alpha(sigma_c, sigma_z, D, N_AMBIENT, eps)
        cf = (eps * alpha + np.sqrt(
            jl.standard_risk_closed_form(alpha, sigma_c, sigma_z, D, N_AMBIENT))) ** 2
        ra = jl.robust_risk_exact(trained[j], model, op, noise, eps, n_eval, seed=0)
        rj = jl.robust_risk_exact(trained[8 + j], model, op, noise, eps, n_eval, seed=0)
        overlap = ra.ci_low[0] <= rj.ci_high[0] and rj.ci_low[0] <= ra.ci_high[0]
        cf_in_adv = ra.ci_low[0] <= cf <= ra.ci_high[0]
        cf_in_jit = rj.ci_low[0] <= cf <= rj.ci_high[0]
        all_ok = all_ok and overlap and cf_in_adv and cf_in_jit
        lines.append(
            f"eps={eps:.2f} adv={ra.values[0]:.4f} jit={rj.values[0]:.4f} cf={cf:.4f}"
        )
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 600.0
    _report("4 equivalence-reproduction", ok, f"t={elapsed:.0f}s " + "; ".join(lines))
    assert all_ok
    assert elapsed < 600.0


def test_criterion_5_collapse_past_transition():
    t0 = time.time()
    sigma_c = float(np.sqrt(50.0))
    sigma_z = 5.0  # sigma_z / sqrt(n) = 0.5
    model = jl.make_subspace(N_AMBIENT, D, sigma_c, seed=0)
    op = jl.make_diagonal_operator(N_AMBIENT, "identity")
    noise = jl.NoiseModel(m=N_AMBIENT, sigma_z=sigma_z)
    eps = float(np.sqrt(1.2) * sigma_c)
    trace = jl.train(model, op, noise, jl.TrainConfig(
        objective="adversarial", eps=eps, n_iterations=20000, seed=5))
    h_frob = trace.estimator.frobenius_norm()
    rep = jl.robust_risk_exact(trace.estimator, model, op, noise, eps, 400, seed=1)
    risk = float(rep.values[0])
    elapsed = time.time() - t0
    frob_ok = h_frob <= 0.05 * np.sqrt(D)
    risk_ok = 0.95 * sigma_c**2 <= risk <= 1.05 * sigma_c**2
    ok = frob_ok and risk_ok and elapsed < 300.0
    _report("5 transition-collapse", ok,
            f"h_frob={h_frob:.4f} risk={risk:.2f} target={sigma_c**2:.0f} t={elapsed:.0f}s")
    assert frob_ok
    assert risk_ok
    assert elapsed < 300.0


def test_criterion_6_conjecture_matches_closed_form_at_identity():
    t0 = time.time()
    worst = 0.0
    for sigma_c in (0.7, 1.0, 2.0):
        for sigma_z in (0.1, 0.5, 1.0):
            for d, n in ((10, 20), (50, 100), (16, 16)):
                model = jl.make_subspace(n, d, sigma_c, seed=1)
                op = jl.make_diagonal_operator(n, "identity")
                noise = jl.NoiseModel(m=n, sigma_z=sigma_z)
                for eps_frac in (0.2, 0.5, 0.8):
                    eps = eps_frac * sigma_c
                    est, prof = jl.conjectured_robust_estimator(model, op, noise, eps)
                    w, lam, v = op.au_svd(model)
                    value, _ = jl.robust_risk_mode_form(
                        prof.sigma_i, lam, sigma_c, sigma_z, d, n, eps)
                    alpha = jl.optimal_robust_alpha(sigma_c, sigma_z, d, n, eps)
                    cf = (eps * alpha + np.sqrt(jl.standard_risk_closed_form(
                        alpha, sigma_c, sigma_z, d, n))) ** 2
                    worst = max(worst, abs(value - cf) / cf)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report("6 conjecture-consistency", ok, f"worst_rel={worst:.2e} t={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_7_gap_ordering_with_strict_gap():
    t0 = time.time()
    model = jl.make_subspace(N_AMBIENT, D, 1.0, seed=0)
    op = jl.make_diagonal_operator(N_AMBIENT, "linear-decay")
    noise = jl.NoiseModel(m=N_AMBIENT, sigma_z=0.2)
    n_eval = 2000
    ordering_ok = True
    strict_gap = False
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5):
        std = jl.mmse_estimator(model, op, noise)
        sw_star, _ = jl.best_jitter_level_analytic(model, op, noise, eps)
        jit = jl.optimal_jittering_estimator(model, op, noise, sw_star)
        conj, _ = jl.conjectured_robust_estimator(model, op, noise, eps)
        ci = {}
        for tag, est in (("std", std), ("jit", jit), ("conj", conj)):
            v = jl.residuals(est, model, op, noise, n_eval, 3)
            vals = jl.dual_values_batch(est, v, eps)
            mean = float(vals.mean())
            half = jl.CI_SCALE * float(vals.std(ddof=1)) / np.sqrt(n_eval)
            ci[tag] = (mean - half, mean, mean + half)
        ordering_ok = ordering_ok and ci["conj"][1] <= ci["jit"][2] and ci["jit"][1] <= ci["std"][2]
        strict_gap = strict_gap or ci["conj"][2] < ci["jit"][0]
    elapsed = time.time() - t0
    ok = ordering_ok and strict_gap and elapsed < 600.0
    _report("7 gap-ordering", ok, f"strict_gap={strict_gap} t={elapsed:.0f}s")
    assert ordering_ok
    assert strict_gap
    assert elapsed < 600.0


def test_criterion_8_ridge_equals_jittering():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(5, 14))
        d = int(rng.integers(1, n + 1))
        spectrum = ["identity", "linear-decay", "geometric"][k % 3]
        model = jl.make_subspace(n, d, float(rng.uniform(0.5, 2.0)), seed=k)
        op = jl.make_diagonal_operator(n, spectrum, ratio=float(rng.uniform(0.3, 1.0)))
        noise = jl.NoiseModel(m=n, sigma_z=float(rng.uniform(0.0, 1.2)))
        sw = float(rng.uniform(0.0, 1.0))
        rid = jl.ridge_estimator(model, op, noise, sw**2)
        jit = jl.optimal_jittering_estimator(model, op, noise, sw)
        worst = max(worst, float(np.max(np.abs(rid.matrix - jit.matrix))))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report("8 ridge-identity", ok, f"worst|dH|={worst:.2e} t={elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_9_sweep_argmin_matches_theory():
    t0 = time.time()
    sigma_c, sigma_z = 1.0, 0.4 * np.sqrt(2.0)
    model = jl.make_subspace(N_AMBIENT, D, sigma_c, seed=0)
    op = jl.make_diagonal_operator(N_AMBIENT, "identity")
    noise = jl.NoiseModel(m=N_AMBIENT, sigma_z=sigma_z)
    eps_grid = np.array([0.2, 0.35, 0.5, 0.65])
    theory = np.array([
        jl.jitter_level_for_eps(sigma_c, sigma_z, D, N_AMBIENT, float(e)) for e in eps_grid
    ])
    top = 1.4 * float(theory.max())
    sw_grid = np.linspace(0.0, top, 8)
    cell = float(sw_grid[1] - sw_grid[0])
    base = jl.TrainConfig(objective="jittering", n_iterations=20000, lr=1e-3)
    res = jl.sweep_jitter_levels(model, op, noise, eps_grid, sw_grid, 2000, 0, base_config=base)
    devs = np.abs(res.argmin_sigma_w - theory)
    elapsed = time.time() - t0
    ok = bool(np.all(devs <= cell + 1e-12)) and elapsed < 900.0
    _report("9 sweep-calibration", ok,
            f"max|dev|={devs.max():.4f} cell={cell:.4f} t={elapsed:.0f}s")
    assert np.all(devs <= cell + 1e-12)
    assert elapsed < 900.0
