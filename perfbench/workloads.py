"""The benchmark's workloads: one jitterlab CLI command each, at a fixed size.

Each workload is one CLI subcommand with fixed arguments; only the config
`seed` varies.  The benchmark seed is folded onto the seeds that have a
stored reference CSV (`refs/<workload>/seed-<k>.csv`), so every run can be
checked against a reference made from the same inputs.
"""

from __future__ import annotations

import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Seeds 0..REF_SEEDS-1 have stored reference outputs.
REF_SEEDS = 16

# Training workloads run at a reduced, fixed budget so that one run fits
# several repeats of the command; the sizes never change with --seconds.
_TRAIN_ARGS = ["--n-iterations", "300", "--eval-samples", "1000"]

# name -> (CLI subcommand, extra arguments); README.md says why each was chosen.
WORKLOADS: dict[str, tuple[str, list[str]]] = {
    "certify-gap": ("gap", []),
    "train-equivalence": ("equivalence", _TRAIN_ARGS),
    "collapse-large-eps": ("large-eps", _TRAIN_ARGS),
}


def config_seed(seed: int) -> int:
    """Config seed used for benchmark seed `seed`."""
    return seed % REF_SEEDS


def cli_args(workload: str, seed: int, out: Path) -> list[str]:
    """Arguments for `jitterlab.cli.main` running `workload` at benchmark `seed`."""
    command, extra = WORKLOADS[workload]
    return [command, *extra, "--seed", str(config_seed(seed)), "--out", str(out)]


def reference_path(workload: str, seed: int) -> Path:
    return REFS_DIR / workload / f"seed-{config_seed(seed)}.csv"


def pinned_env() -> dict[str, str]:
    """Environment for a jitterlab child: source tree on the path, one BLAS thread."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env
