"""Print every benchmark metric by name, with units and check verdicts.

    python3 perfbench/report.py [--seed N]

Runs `run.py` for each workload for BENCHMARK.json's run_seconds, untraced
(end-to-end metrics) and traced (per-layer metrics), echoes what each run
prints, and ends with one table of wall_s, setup_s, peak_rss_mb and
failed_frac per workload.  Exits 1 if any run fails its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    table = []
    all_correct = True
    for workload in WORKLOADS:
        row = {"workload": workload}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"  correct = {result['correct']}\n", flush=True)
            if trace == 0:
                row.update({k: v["value"] for k, v in result["metrics"].items()})
                row["failed_frac"] = result["failed"] / result["attempted"]
        table.append(row)

    columns = ("wall_s", "setup_s", "peak_rss_mb", "failed_frac")
    print(f"{'workload':<20}" + "".join(f"{c:>14}" for c in columns))
    for row in table:
        cells = "".join(
            f"{row[c]:>14.6g}" if c in row else f"{'-':>14}" for c in columns
        )
        print(f"{row['workload']:<20}{cells}")
    print("all output checks pass" if all_correct else "SOME OUTPUT CHECKS FAIL")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
