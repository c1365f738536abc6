"""Command line front end.

oia-sim run <experiment>   run a registered experiment, write its CSV
oia-sim list               show the registry
oia-sim threshold          print one designed threshold value

Exit codes: 0 on success, 2 for configuration or usage errors, 3 for
runtime numerical or output errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigError, OddBitSplit, OiaSimError, ShapeMismatch,
                     UnknownExperiment)
from .harness import (EXPERIMENTS, THRESHOLD_METHODS, design_threshold,
                      load_config_file, make_config, run_experiment)


def _cmd_run(args) -> int:
    overrides = load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out is not None:
        overrides["output_path"] = args.out
    cfg = make_config(args.experiment, overrides)
    rows = run_experiment(cfg, workers=args.workers)
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return 0


def _cmd_list(args) -> int:
    for name, spec in EXPERIMENTS.items():
        print(f"{name:24s} {spec.description}")
    return 0


def _cmd_threshold(args) -> int:
    if not 1 <= args.K <= sys.float_info.max:
        raise ConfigError(f"--K must lie in [1, {sys.float_info.max:.4g}], got {args.K}")
    print("%.9g" % design_threshold(args.method, args.K, args.d))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oia-sim",
        description="Monte Carlo experiments for opportunistic interference "
                    "alignment with 1-bit feedback")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("experiment", help="experiment name (see 'oia-sim list')")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--seed", type=int, help="override the rng seed")
    run.add_argument("--trials", type=int, help="override the trial count")
    run.add_argument("--out", help="override the output CSV path")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the trial loop (default 1, "
                          "capped at the CPUs this process may use)")
    run.set_defaults(func=_cmd_run)

    lst = sub.add_parser("list", help="list registered experiments")
    lst.set_defaults(func=_cmd_list)

    thr = sub.add_parser("threshold", help="print one designed threshold")
    thr.add_argument("--d", type=int, required=True, help="streams per user")
    thr.add_argument("--K", type=int, required=True, help="users per cell")
    thr.add_argument("--method", required=True, choices=THRESHOLD_METHODS)
    thr.set_defaults(func=_cmd_threshold)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownExperiment, ShapeMismatch, OddBitSplit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OiaSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
