"""Command-line entry point: generate | simulate | ingest | analyze.

Exit codes: 0 success, 2 configuration error, 3 infeasible routing
instance, 4 backend cap exceeded.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .experiment import (ConfigError, ExperimentConfig, cmd_analyze,
                         cmd_generate, cmd_ingest, cmd_simulate, load_config,
                         run_config)
from .routing import RoutingInfeasible
from .simulator import SimulatorCapError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_BACKEND_CAP = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssbv",
        description="Single-shot Bernstein-Vazirani speedup pipeline")
    _add_global_flags(parser, after_command=False)
    after = argparse.ArgumentParser(add_help=False)
    _add_global_flags(after, after_command=True)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("generate", "write routed circuit files"),
                      ("simulate", "run the trajectory backend"),
                      ("analyze", "TTS curves, exponent fits, report, plot files")):
        p = sub.add_parser(name, help=doc, parents=[after])
        _add_overrides(p)
    p = sub.add_parser("ingest", help="validate external count files",
                       parents=[after])
    p.add_argument("paths", nargs="+", help="count files or directories")
    return parser


def _add_global_flags(p: argparse.ArgumentParser, after_command: bool) -> None:
    """--config, --seed and --out, before or after the subcommand.

    After it they default to SUPPRESS, so an absent flag keeps the value
    parsed before the subcommand.
    """
    unset = argparse.SUPPRESS if after_command else None
    p.add_argument("--config", default=unset, help="experiment config file")
    p.add_argument("--seed", type=int, default=unset,
                   help="override the master seed, in [0, 2**64)")
    p.add_argument("--out", default=argparse.SUPPRESS if after_command
                   else "ssbv-run", help="output directory")


def _add_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--oracles", dest="oracle_mode",
                   choices=["representative", "all"])
    p.add_argument("--layout", help="chain | heavy-hex-27 | file:<path>")
    p.add_argument("--profile", help="montreal | cairo | noiseless | <path>")
    p.add_argument("--blacklist", help="comma-separated physical nodes")
    p.add_argument("--dd", help="none | ur<n>, n even >= 4 (ur4, ur14, ur18)")
    p.add_argument("--dd-pulse-duration", type=int, dest="dd_pulse_duration_dt")
    p.add_argument("--dd-fallback", dest="dd_fallback",
                   choices=["ladder", "idle"])
    p.add_argument("--collection", choices=["direct", "reduced"])
    p.add_argument("--setup", choices=["reduced", "standard"])
    p.add_argument("--shots", type=int)


def _config_from_args(args) -> ExperimentConfig:
    """The --config file, else for analyze the run's own config, else the
    defaults; then the flags."""
    if args.config:
        config = load_config(args.config)
    else:
        config = ((args.command == "analyze" and run_config(args.out))
                  or ExperimentConfig())
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    return replace(config, **overrides)  # validation raises ConfigError


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            manifest = cmd_ingest(args.paths, args.out)
            print(f"ingested; manifest at {manifest}")
            return EXIT_OK
        config = _config_from_args(args)
        if args.command == "generate":
            manifest = cmd_generate(config, args.out)
            print(f"circuits written; manifest at {manifest}")
        elif args.command == "simulate":
            manifest = cmd_simulate(config, args.out)
            print(f"tables written; manifest at {manifest}")
        elif args.command == "analyze":
            sys.stdout.write(cmd_analyze(config, args.out).report_text)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RoutingInfeasible as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SimulatorCapError as exc:
        print(f"backend cap: {exc}", file=sys.stderr)
        return EXIT_BACKEND_CAP


if __name__ == "__main__":
    raise SystemExit(main())
