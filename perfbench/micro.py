"""Isolated per-call timings of single library functions at fixed sizes.

    python3 perfbench/micro.py SEED

Sizes: n = m = 100, d = 50, minibatch 50, N = 10000 evaluation samples and
a rank-50 estimator with distinct singular values for the dual.  Each
metric is the median over repeats of the time of one call (one iteration
for `train_<objective>`).  Prints one JSON object {metric: value}.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import jitterlab as jl

N, D, BATCH, EVAL_N, EPS = 100, 50, 50, 10000, 0.3
TRAIN_ITERS = 100


def _per_call(fn, repeats: int, inner: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def measure(seed: int) -> dict[str, float]:
    model = jl.make_subspace(N, D, 1.0, seed)
    identity = jl.make_diagonal_operator(N, "identity")
    decay = jl.make_diagonal_operator(N, "linear-decay")
    noise = jl.NoiseModel(m=N, sigma_z=0.2)
    out: dict[str, float] = {}

    out["micro.model.draw_latents.ms"] = 1e3 * _per_call(
        lambda: jl.draw_latents(model, noise, EVAL_N, seed), 7
    )
    for objective, knob in (("standard", {}), ("jittering", {"sigma_w": 0.05}),
                            ("adversarial", {"eps": EPS})):
        cfg = jl.TrainConfig(objective=objective, n_iterations=TRAIN_ITERS, seed=seed, **knob)
        out[f"micro.training.train_{objective}.us"] = 1e6 / TRAIN_ITERS * _per_call(
            lambda: jl.train(model, identity, noise, cfg), 3
        )

    h = jl.optimal_robust_denoiser(model, noise, EPS).matrix
    x, y, _ = jl.draw_sample_arrays(model, identity, noise, BATCH, seed)
    out["micro.attack.pgd_perturb_batch.us"] = 1e6 * _per_call(
        lambda: jl.pgd_perturb_batch(h, x, y, EPS, 3), 7, inner=50
    )

    est, _ = jl.conjectured_robust_estimator(model, decay, noise, EPS)
    v = jl.residuals(est, model, decay, noise, EVAL_N, seed)
    out["micro.risk.dual_values_batch.ms"] = 1e3 * _per_call(
        lambda: jl.dual_values_batch(est, v, EPS), 3
    )
    v0 = v[:, 0].copy()
    out["micro.risk.inner_max_dual.us"] = 1e6 * _per_call(
        lambda: jl.inner_max_dual(est, v0, EPS), 7, inner=10
    )
    out["micro.estimators.conjectured_robust_estimator.ms"] = 1e3 * _per_call(
        lambda: jl.conjectured_robust_estimator(model, decay, noise, EPS), 7, inner=5
    )
    out["micro.experiments.best_jitter_level_analytic.ms"] = 1e3 * _per_call(
        lambda: jl.best_jitter_level_analytic(model, decay, noise, EPS), 5
    )
    return out


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))
