"""Regenerate the reference CSVs the benchmark checks its outputs against.

    python3 perfbench/make_refs.py

Runs each workload's CLI command once per reference seed with BLAS pinned
to one thread and writes `perfbench/refs/<workload>/seed-<k>.csv`.  Only
regenerate on purpose: a change that moves the references must say why.
"""

from __future__ import annotations

import subprocess
import sys

from workloads import REF_SEEDS, ROOT, WORKLOADS, cli_args, pinned_env, reference_path


def main() -> int:
    env = pinned_env()
    for workload in WORKLOADS:
        for seed in range(REF_SEEDS):
            out = reference_path(workload, seed)
            out.parent.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, "-m", "jitterlab.cli", *cli_args(workload, seed, out)]
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            print(f"wrote {out.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
