"""jitterlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI command as a child process, one at a time (a
closed loop with a single client), with BLAS pinned to one thread, and
checks every CSV it writes against the stored reference.

--trace 0 repeats the command until the next repeat would end after S
seconds, with set-up probes (the child stops on entry into the experiment
driver) before the first repeat and after each one, and reports medians:
  wall_s       spawn to exit of one command
  setup_s      spawn to entry into the experiment driver (probes and runs)
  peak_rss_mb  maximum resident memory of one command

--trace 1 runs the command once plain and once with the span tracer, then
the isolated per-call block (micro.py), and reports the per-layer metrics.
The traced CSV must be byte-identical to the plain one.

Earlier lines of standard output describe the machine and the run; the
last line is one JSON object {correct, attempted, failed, metrics}, where
attempted and failed count CSV rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_csv
from tracer import DRIVER
from workloads import (
    BENCH_DIR,
    BLAS_THREAD_VARS,
    ROOT,
    WORKLOADS,
    cli_args,
    config_seed,
    pinned_env,
    reference_path,
)

WORK = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 3  # before the first repeat and after each one

# Metric names and units are declared once, in BENCHMARK.json; this file
# only computes the values.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer metric suffixes that report a span's work count.
_WORK_FIELDS = ("samples", "evals", "columns", "bytes", "iterations")


@dataclass
class Spawn:
    """One child process: timing, resources and what it reported."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    setup_s: float | None
    stderr: str


def spawn(argv: list[str], env: dict[str, str], side: Path) -> Spawn:
    """Run argv to exit; time it from just before spawn and read its rusage."""
    side.unlink(missing_ok=True)
    err_path = side.with_suffix(".stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = None
    if side.is_file():
        entry = json.loads(side.read_text(encoding="utf-8")).get("entry")
        setup_s = entry - t0 if entry is not None else None
    return Spawn(
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        setup_s=setup_s,
        stderr=err_path.read_text(encoding="utf-8"),
    )


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.env = pinned_env()
        self.reference = reference_path(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.verdicts: list[str] = []

    def cli(self, mode: str, tag: str) -> tuple[Spawn, Path]:
        out = WORK / f"{tag}.csv"
        out.unlink(missing_ok=True)
        side = WORK / f"{tag}.json"
        Path(f"{side}.spans").unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(side), "--",
                *cli_args(self.workload, self.seed, out)]
        result = spawn(argv, self.env, side)
        if result.setup_s is None:
            raise SystemExit(
                f"{self.workload}: child never reached the experiment driver "
                f"(exit {result.code}):\n{result.stderr}"
            )
        return result, out

    def checked(self, mode: str, tag: str) -> tuple[Spawn, Path]:
        """Run the command and check its CSV; a failed exit fails every row."""
        result, out = self.cli(mode, tag)
        expected, failed, verdict = check_csv(self.workload, out, self.reference)
        if result.code != 0:
            failed, verdict = expected, f"exit code {result.code}: {result.stderr.strip()}"
        self.attempted += expected
        self.failed += failed
        self.verdicts.append(f"{tag}: {verdict}")
        return result, out


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups: list[float] = []

    def probe() -> None:
        # Probes are spread over the run so that set-up samples see the
        # same machine load as the repeats do.
        setups.extend(bench.cli("probe", "probe")[0].setup_s for _ in range(SETUP_PROBES))

    runs: list[Spawn] = []
    start = time.monotonic()
    probe()
    while True:
        result, _ = bench.checked("run", f"run{len(runs)}")
        runs.append(result)
        probe()
        elapsed = time.monotonic() - start
        if elapsed + max(r.wall_s for r in runs) > seconds:
            break
    setups += [r.setup_s for r in runs]
    values = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    diagnostics = {
        "repeats": len(runs),
        "setup_samples": len(setups),
        "run.cpu_s": statistics.median(r.cpu_s for r in runs),
        "wall_s_all": [r.wall_s for r in runs],
    }
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    return metrics, diagnostics


def span_totals(spans: list[list]) -> tuple[dict[str, dict[str, float]], float]:
    """Per-name totals from raw spans [name, start, end, parent, work, tag],
    and the time covered by the outermost layer spans.

    busy_s counts only the outermost span of a name, so a recursive call
    (the scalar solver inside the jitter-level scan) is not counted twice;
    self_s subtracts the direct children's spans.  A tagged span (`train`,
    tagged with its objective) also counts toward `<name>.<tag>`.
    """
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]
    outer = ("cli.main", DRIVER)

    def ancestors(i: int):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    totals: dict[str, dict[str, float]] = {}
    covered = 0.0
    for i, (name, _, _, _, work, tag) in enumerate(spans):
        names_above = list(ancestors(i))
        for key in (name, f"{name}.{tag}") if tag else (name,):
            t = totals.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
            t["calls"] += 1
            t["work"] += work
            t["self_s"] += dur[i] - children[i]
            if name not in names_above:
                t["busy_s"] += dur[i]
        if name not in outer and all(n in outer for n in names_above):
            covered += dur[i]
    return totals, covered


def layer_value(metric: str, totals: dict[str, dict[str, float]]) -> float:
    """Value of a per-layer metric `<span name>.<field>`; an uncalled span gives 0."""
    prefix, _, field = metric.rpartition(".")
    t = totals.get(prefix, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
    if field in ("calls", "busy_s", "self_s"):
        return t[field]
    if field in _WORK_FIELDS:
        return t["work"]
    if field == "evals_per_call":
        return t["work"] / t["calls"] if t["calls"] else 0.0
    per_unit = {"ns_per_sample": 1e9, "iter_us": 1e6}.get(field)
    if per_unit is None:
        raise KeyError(f"no rule computes per-layer metric {metric}")
    return per_unit * t["busy_s"] / t["work"] if t["work"] else 0.0


def measure_layers(bench: Bench) -> tuple[dict, dict]:
    plain, plain_csv = bench.checked("run", "plain")
    traced, traced_csv = bench.checked("trace", "traced")
    identical = (
        plain_csv.is_file() and traced_csv.is_file()
        and plain_csv.read_bytes() == traced_csv.read_bytes()
    )
    bench.verdicts.append(
        "traced CSV " + ("byte-identical to plain CSV" if identical else "DIFFERS from plain CSV")
    )
    spans_file = json.loads((WORK / "traced.json.spans").read_text(encoding="utf-8"))
    totals, covered = span_totals(spans_file["spans"])
    direct = {
        "trace.span_coverage": covered / traced.wall_s,
        "run.wall_s": plain.wall_s,
        "run.cpu_s": plain.cpu_s,
        "run.traced_wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.csv_identical": int(identical),
    }
    micro = subprocess.run(
        [sys.executable, str(BENCH_DIR / "micro.py"), str(config_seed(bench.seed))],
        env=bench.env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    direct.update(json.loads(micro.stdout.splitlines()[-1]))
    metrics = {
        m["name"]: (direct[m["name"]] if m["name"] in direct else layer_value(m["name"], totals),
                    m["unit"])
        for m in SPEC["per_layer"]
    }
    diagnostics = {"missing_targets": spans_file["missing"], "csv_identical": identical}
    return metrics, diagnostics


def machine_block(env: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="jitterlab benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed)
    if not (ROOT / "src" / "jitterlab" / "cli.py").is_file():
        print(f"no jitterlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not bench.reference.is_file():
        print(f"missing reference {bench.reference}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    bench.cli("probe", "warmup")  # compiles bytecode; not timed
    if args.trace:
        metrics, diagnostics = measure_layers(bench)
    else:
        metrics, diagnostics = measure_end_to_end(bench, args.seconds)

    print("machine " + json.dumps(machine_block(bench.env)))
    print(f"workload {args.workload} seed {args.seed} "
          f"(config seed {config_seed(args.seed)}) trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} rows)")
    print("  diagnostics " + json.dumps(diagnostics))
    for verdict in bench.verdicts:
        print(f"  check {verdict}")
    correct = bench.failed == 0 and diagnostics.get("csv_identical", True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
