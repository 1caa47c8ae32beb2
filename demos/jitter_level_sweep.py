#!/usr/bin/env python3
"""Sweeping the jitter level recovers the theoretical optimum empirically.

Trains one jitter estimator per sigma_w on a grid, certifies each against
perturbations of radius eps with the exact inner maximization (one shared
evaluation draw, so the curve is paired), and compares the empirical
argmin against the analytic matched level sigma_w(eps).  Prints its table
only; `jitterlab sweep --out FILE` writes the sweep as a CSV.
"""

import numpy as np

import jitterlab as jl

N, D = 100, 50
SIGMA_C = 1.0
SIGMA_Z = 0.4 * np.sqrt(2.0)
EPS = 0.5
N_GRID = 8
N_EVAL = 2000


def main():
    model = jl.make_subspace(N, D, SIGMA_C, seed=0)
    op = jl.make_diagonal_operator(N, "identity")
    noise = jl.NoiseModel(m=N, sigma_z=SIGMA_Z)

    sw_theory = jl.jitter_level_for_eps(SIGMA_C, SIGMA_Z, D, N, EPS)
    sw_grid = np.linspace(0.0, 1.4 * sw_theory, N_GRID)
    print(f"eps = {EPS}, theoretical best jitter level = {sw_theory:.4f}")
    print(f"sweeping {N_GRID} levels in [0, {sw_grid[-1]:.4f}]"
          f" ({N_GRID} trainings, takes a minute) ...")
    print()

    base = jl.TrainConfig(objective="jittering", n_iterations=20000)
    res = jl.sweep_jitter_levels(
        model, op, noise, np.array([EPS]), sw_grid, N_EVAL, 0, base_config=base)

    risks = res.risks[:, 0]
    best = int(np.argmin(risks))
    print(f"{'sigma_w':>9} {'robust risk':>12}")
    for i, sw in enumerate(sw_grid):
        marker = "  <- empirical argmin" if i == best else ""
        print(f"{sw:9.4f} {risks[i]:12.4f}{marker}")
    print()
    print(f"empirical argmin sigma_w = {sw_grid[best]:.4f}")
    print(f"analytic level           = {sw_theory:.4f}")
    print(f"grid spacing             = {sw_grid[1] - sw_grid[0]:.4f}")

    print()
    print("for the full (sigma_w, eps) matrix as a CSV with its config header,")
    print("run: jitterlab sweep --out sweep.csv")


if __name__ == "__main__":
    main()
