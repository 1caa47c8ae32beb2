"""Run one jitterlab CLI command in this process and report its timing marks.

    python3 perfbench/child.py MODE SIDE_JSON -- CLI_ARGS...

MODE is `run` (plain), `probe` (stop on entry into the experiment driver,
so only set-up is paid) or `trace` (run with the span tracer installed).
The side file receives the CLOCK_MONOTONIC time of driver entry, which the
parent compares with its own clock at spawn; in `trace` mode the spans go
to SIDE_JSON + ".spans".  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


class _Probe(Exception):
    pass


def main(argv: list[str]) -> int:
    mode, side_path, sep, *cli_args = argv
    if mode not in ("run", "probe", "trace") or sep != "--":
        raise SystemExit("usage: child.py run|probe|trace SIDE_JSON -- CLI_ARGS...")
    from jitterlab import cli, experiments

    command = cli_args[0]
    driver = experiments.COMMAND_FUNCS[command]
    marks: dict = {}
    tracer = None
    if mode == "trace":
        from tracer import DRIVER, Tracer

        tracer = Tracer()
        tracer.install()
        driver = tracer.wrap(driver, DRIVER)

    def entry(cfg: dict):
        marks["entry"] = time.monotonic()
        if mode == "probe":
            raise _Probe
        return driver(cfg)

    experiments.COMMAND_FUNCS[command] = entry
    try:
        code = cli.main(cli_args)
    except _Probe:
        code = 0
    finally:
        # Written even when the CLI raises, so the parent still learns
        # whether set-up reached the driver.
        if tracer is not None:
            tracer.dump(side_path + ".spans")
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
