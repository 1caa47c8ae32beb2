"""Command-line entry point.

Subcommands: alpha-curve, equivalence, gap, large-eps, sweep.  Each takes
--config (flat key=value file), --out, --seed, and one override flag per
config key; precedence is defaults < config file < flags.  On success the
command writes its CSV artifact(s) and exits 0.  On failure a single JSON
line {"error": ..., "detail": ...} goes to stderr and the exit code is
nonzero; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, JitterlabError
from .experiments import COMMAND_FUNCS, COMMANDS, KEY_SPECS, parse_config_file, resolve_config


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitterlab",
        description="Worst-case-robust linear estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        cmd = sub.add_parser(command, help=f"run the {command} experiment")
        cmd.add_argument("--config", default=None, help="key=value config file")
        for key, help_text in KEY_SPECS.items():
            if key == "out":
                cmd.add_argument("--out", required=True, help=help_text)
            else:
                # raw strings here; typed parsing happens in resolve_config
                cmd.add_argument(_flag_name(key), dest=key, default=None, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config is not None:
            raw.update(parse_config_file(args.config))
        for key in KEY_SPECS:
            value = getattr(args, key, None)
            if value is not None:
                raw[key] = value
        if not raw.get("out"):
            raise ConfigError("--out is required")
        cfg = resolve_config(args.command, raw)
        COMMAND_FUNCS[args.command](cfg)
        return 0
    except JitterlabError as exc:
        # One readable detail: a failing training run's exception carries
        # the run's name as a second arg (see training._train_map).
        line = {"error": type(exc).__name__, "detail": "; ".join(map(str, exc.args))}
        print(json.dumps(line), file=sys.stderr)
        return 1
    except OSError as exc:
        line = {"error": "OSError", "detail": str(exc)}
        print(json.dumps(line), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
