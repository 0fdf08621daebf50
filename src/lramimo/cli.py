"""Command-line front end: simulate, equiv-suite, compare-reduction."""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import checks
from .sim import SimConfig, compare_reduction_targets, emit_results, run_monte_carlo


def _check_args(args) -> None:
    """Raise ValueError on a count below 1, a negative seed or an --out/--json path that names no file."""
    for flag, least in (("workers", 1), ("instances", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ValueError(f"--{flag} must be >= {least}, got {value}")
    for flag in ("out", "json"):
        path = getattr(args, flag, None)
        folder = os.path.dirname(path or "") or "."
        if path is not None and (path == "" or os.path.isdir(path) or not os.path.isdir(folder)):
            raise ValueError(f"--{flag} {path!r} is not a file in an existing directory")


def _config_from_args(args) -> SimConfig:
    """The --config file with --seed applied.

    Raises OSError or ValueError on bad input.
    """
    with open(args.config) as fh:
        config = SimConfig.from_dict(json.load(fh))
    seed = getattr(args, "seed", None)
    return config if seed is None else replace(config, seed=seed)


def _cmd_simulate(args) -> int:
    result = run_monte_carlo(args.sim_config, workers=args.workers)
    emit_results(result, args.out)
    for p in result.points:
        print(
            f"{p.spec_id:24s} snr={p.snr_db:6.2f} dB  symbols={p.symbols:10d}  "
            f"errors={p.errors:8d}  ser={p.ser:.6e} +- {p.ci95:.2e}"
        )
    clipped = {k: v for k, v in result.clipped.items() if v}
    if clipped:
        print(f"clipped decisions: {clipped}")
    print(f"wrote {args.out} ({result.meta['wall_clock_s']:.1f} s)")
    return 0


def _cmd_equiv_suite(args) -> int:
    report = checks.equivalence_suite(n_instances=args.instances, seed=args.seed)
    ok = report.within()
    for key, name, tol in checks.TOLERANCES:
        value = getattr(report, key)
        if isinstance(value, int):
            line = f"{name:32s} {value:12d}  (allowed {tol})"
        else:
            line = f"{name:32s} {value:12.3e}  (allowed {tol:.0e})"
        print(line)
    print("equivalence suite:", "PASS" if ok else "FAIL")
    if args.json:
        summary = {
            "seed": args.seed,
            "instances": args.instances,
            "verdict": "PASS" if ok else "FAIL",
            "residuals": {
                key: {"max": getattr(report, key), "tolerance": tol}
                for key, _, tol in checks.TOLERANCES
            },
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if ok else 1


def _cmd_compare_reduction(args) -> int:
    comparison = compare_reduction_targets(args.sim_config, workers=args.workers)
    if args.out:
        emit_results(comparison.result, args.out)
    print("SER delta (reduce original matrix minus reduce augmented matrix):")
    for d in comparison.deltas:
        print(
            f"  snr={d.snr_db:6.2f} dB  original={d.ser_original:.6e}  "
            f"augmented={d.ser_augmented:.6e}  delta={d.delta:+.6e} +- {d.ci95:.2e}"
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lramimo",
        description="Lattice-reduction-aided MIMO equalization simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo SER sweep")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--out", default="results.csv", help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes, at most one per trial")
    p_sim.set_defaults(func=_cmd_simulate)

    p_eq = sub.add_parser(
        "equiv-suite",
        help="verify successive augmented-matrix filters against closed forms",
    )
    p_eq.add_argument("--instances", type=int, default=1000)
    p_eq.add_argument("--seed", type=int, default=20260823)
    p_eq.add_argument("--json", default=None, help="also write the residual maxima to this JSON file")
    p_eq.set_defaults(func=_cmd_equiv_suite)

    p_cmp = sub.add_parser(
        "compare-reduction",
        help="paired run of original- vs augmented-matrix reduction targets",
    )
    p_cmp.add_argument("--config", required=True, help="JSON config file")
    p_cmp.add_argument("--out", default=None, help="optional output CSV path")
    p_cmp.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.set_defaults(func=_cmd_compare_reduction)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Bad input gets one line and exit code 2 before any work; run errors propagate.
    try:
        _check_args(args)
        if getattr(args, "config", None) is not None:
            args.sim_config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"lramimo {args.command}: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
