#!/usr/bin/env python3
"""Beyond denoising, jitter training is good but no longer optimal.

For a forward operator with a decaying spectrum, three estimators are
compared at each perturbation budget:

  * the standard MMSE estimator (ignores the adversary),
  * the best jitter-trained estimator (jitter level tuned analytically),
  * the conjectured robust estimator (per-mode shrinkage from the dual).

All three are certified with the exact inner maximization on a shared
evaluation draw, so the comparison is paired.  The conjectured estimator
should sit strictly below the jitter curve once eps is large enough, and
both should beat the standard estimator by a widening margin.
"""

import jitterlab as jl

N, D = 100, 50
SIGMA_C = 1.0
SIGMA_Z = 0.2
EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
N_EVAL = 2000
OUT = "general_operator_gap.csv"


def main():
    model = jl.make_subspace(N, D, SIGMA_C, seed=0)
    op = jl.make_diagonal_operator(N, "linear-decay")
    noise = jl.NoiseModel(m=N, sigma_z=SIGMA_Z)
    print(f"linear-decay operator, n={N}, d={D}, sigma_z={SIGMA_Z}")
    print()
    print(f"{'eps':>5} {'standard':>10} {'jitter':>10} {'conjectured':>12}  best sigma_w")

    x, y, _ = jl.draw_sample_arrays(model, op, noise, N_EVAL, 3)
    std = jl.mmse_estimator(model, op, noise)
    rows = []
    for eps in EPS_GRID:
        sw_star, _ = jl.best_jitter_level_analytic(model, op, noise, eps)
        jit = jl.optimal_jittering_estimator(model, op, noise, sw_star)
        conj, _ = jl.conjectured_robust_estimator(model, op, noise, eps)

        risks = {}
        for tag, est in (("std", std), ("jit", jit), ("conj", conj)):
            report = jl.certify(est, x, y, eps)
            mean = float(report.values[0])
            risks[tag] = (mean, float(report.ci_high[0]) - mean)
        print(f"{eps:5.2f} {risks['std'][0]:10.4f} {risks['jit'][0]:10.4f}"
              f" {risks['conj'][0]:12.4f}  {sw_star:.4f}")
        rows.append((eps, risks["std"], risks["jit"], risks["conj"], sw_star))

    last = rows[-1]
    rel = (last[2][0] - last[3][0]) / last[3][0]
    print(f"\nat eps = {last[0]}: jitter exceeds the conjectured optimum by {100 * rel:.1f}%")

    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("eps,risk_standard,half_standard,risk_jitter,half_jitter,"
                 "risk_conjectured,half_conjectured,sigma_w_star\n")
        for eps, s, j, c, sw in rows:
            fh.write(f"{eps:.12g},{s[0]:.12g},{s[1]:.12g},{j[0]:.12g},{j[1]:.12g},"
                     f"{c[0]:.12g},{c[1]:.12g},{sw:.12g}\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
