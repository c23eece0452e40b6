"""Command-line entry point.

Subcommands: `validate` (the acceptance-check registry of
`psdalign.checks`, with `--tolerance-scale` applied to its upper bounds),
`plan` (shift alignment planning), `sweep-mse` and `sweep-dl` (Monte-Carlo
sweeps over observation lengths, both pilot schemes, CSV outputs).

Exit codes: 0 success, 1 check or runtime failure, 2 usage/config errors.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import yaml

from . import pilots, simkit
from .checks import run_checks
from .config import ExperimentConfig, dump_config, load_config
from .simkit import atomic_write_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="psdalign",
        description="PSD-aligned pilot design, MMSE estimation, and link-level sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("validate", "run the acceptance checks at their stated tolerances"),
        ("plan", "compute and print the shift alignment plan"),
        ("sweep-mse", "Monte-Carlo nMSE/processing-gain sweep over P"),
        ("sweep-dl", "Monte-Carlo downlink sum-spectral-efficiency sweep over P"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="YAML config path (defaults to built-in scenario)")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--jobs", type=int, help="parallel trial workers")
        p.add_argument("--tolerance-scale", type=float, help="scale the upper bounds of the validate checks")
    return parser


def _load(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    flags = {"seed": args.seed, "jobs": args.jobs, "tolerance_scale": args.tolerance_scale}
    overrides = {name: value for name, value in flags.items() if value is not None}
    return replace(config, **overrides) if overrides else config


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(config, out_dir):
    checks = run_checks(config.tolerance_scale)
    n_pass = sum(c.ok for c in checks)
    report = "".join(c.line() + "\n" for c in checks) + f"{n_pass}/{len(checks)} checks passed\n"
    print(report, end="")
    atomic_write_text(os.path.join(out_dir, "report.txt"), report)
    return EXIT_OK if n_pass == len(checks) else EXIT_FAIL


# ---------------------------------------------------------------------------
# plan


def _cmd_plan(config, out_dir):
    try:
        plan = simkit.alignment_plan(config)
    except pilots.PlanInfeasibleError as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        if math.isfinite(exc.width_deficit):
            print(f"width deficit: {exc.width_deficit:.6f} cycles", file=sys.stderr)
        return EXIT_FAIL
    sup = plan.supports()
    print(f"alignment plan: {plan.K} users, P={plan.P}")
    print(f"{'user':>4} {'F':>10} {'shift':>12} {'tau/P':>10} {'support':>24} {'gap_next':>10}")
    for k in range(plan.K):
        lo, hi = sup[k]
        nxt = sup[(k + 1) % plan.K]
        gap = (nxt[0] - hi) % 1.0
        print(
            f"{k:>4} {plan.dopplers[k]:>10.5f} {plan.shifts[k]:>12.3f} "
            f"{plan.shifts[k] / plan.P:>10.5f} [{lo:>+10.5f},{hi:>+10.5f}] {gap:>10.5f}"
        )
    doc = plan.to_dict()
    # shift_cycles drops straight into the pilots.shifts config key
    doc["shift_cycles"] = [s / plan.P for s in plan.shifts]
    atomic_write_text(os.path.join(out_dir, "plan.yaml"), yaml.safe_dump(doc, sort_keys=False))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _sweep(config, out_dir, downlink):
    if not config.sweep_lengths:
        print("empty sweep axis: run.sweep_lengths has no entries", file=sys.stderr)
        return EXIT_USAGE
    # both schemes report at every P: reject a baseline that cannot run before any trial does
    try:
        aligned, hadamard = (replace(config, scheme=scheme) for scheme in ("psd_align", "hadamard"))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    runner = simkit.run_downlink if downlink else simkit.run_uplink
    results, baseline = [], None
    for P in config.sweep_lengths:
        try:
            results.append(runner(aligned, P=P))
        except pilots.PlanInfeasibleError as exc:
            print(f"aborting sweep: {exc}", file=sys.stderr)
            return EXIT_FAIL
        # the baseline's window is one slot per user whatever P, and its seeds
        # carry that length: one run serves every sweep length
        if baseline is None:
            baseline = runner(hadamard, P=P)
        results.append(baseline)
    simkit.write_mse_csv(results, os.path.join(out_dir, "mse.csv"))
    simkit.write_gain_csv(results, os.path.join(out_dir, "gain.csv"))
    if downlink:
        simkit.write_dlse_csv(results, os.path.join(out_dir, "dlse.csv"))
    simkit.write_aggregate_dat(results, os.path.join(out_dir, "aggregate.dat"))
    simkit.write_manifest(config, results, os.path.join(out_dir, "manifest.json"))
    print(f"wrote {'dl ' if downlink else ''}sweep outputs to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _load(args)
    except ValueError as exc:  # a ConfigError, or a flag value the config rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "config-used.yaml"), dump_config(config))
    try:
        if args.command == "validate":
            return _cmd_validate(config, args.out)
        if args.command == "plan":
            return _cmd_plan(config, args.out)
        if args.command == "sweep-mse":
            return _sweep(config, args.out, downlink=False)
        if args.command == "sweep-dl":
            return _sweep(config, args.out, downlink=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
