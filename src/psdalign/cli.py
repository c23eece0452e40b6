"""Command-line entry point.

Subcommands: `validate` (analytic and statistical cross-check suite),
`plan` (shift alignment planning), `sweep-mse` and `sweep-dl` (Monte-Carlo
sweeps over observation lengths, both pilot schemes, CSV outputs).

Exit codes: 0 success, 1 check or runtime failure, 2 usage/config errors.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml
from scipy.linalg import toeplitz

from . import estimation, pilots, simkit
from .config import ConfigError, ExperimentConfig, dump_config, load_config
from .fading import DopplerSpectrum, build_covariance, clarke_autocorrelation, synthesize_realization
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
        ("validate", "run the analytic/statistical cross-check suite"),
        ("plan", "compute and print the shift alignment plan"),
        ("sweep-mse", "Monte-Carlo nMSE/processing-gain sweep over P"),
        ("sweep-dl", "Monte-Carlo downlink sum-spectral-efficiency sweep over P"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="YAML config path (defaults to built-in scenario)")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--jobs", type=int, help="parallel trial workers")
        p.add_argument("--tolerance-scale", type=float, help="scale all check tolerances")
    return parser


def _load(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    flags = {"seed": args.seed, "jobs": args.jobs, "tolerance_scale": args.tolerance_scale}
    overrides = {name: value for name, value in flags.items() if value is not None}
    return replace(config, **overrides) if overrides else config


# ---------------------------------------------------------------------------
# validate


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    target: float
    ok: bool

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name:<44s} measured={self.measured:12.5e}  target<{self.target:.3e}"


def _bounded(name, measured, bound):
    return Check(name, measured, bound, measured < bound)


def run_validation_checks(config):
    """The cross-check suite behind `psdalign validate`."""
    ts = config.tolerance_scale
    checks = []

    for alpha in (0.05, 0.2, 1.0, 5.0):
        noise = alpha / (math.pi * 0.01)
        quad = estimation.asymptotic_mse(DopplerSpectrum.clarke(0.01), 1.0, noise)
        closed = estimation.clarke_closed_form(alpha)
        checks.append(_bounded(f"limit_integral_vs_closed_form[a={alpha}]", abs(quad - closed), 1e-6 * ts))

    boundary = abs(estimation.clarke_closed_form(1.0) - (1.0 - 2.0 / math.pi))
    checks.append(_bounded("closed_form_boundary_value", boundary, 1e-12 * ts))
    for eps in (-1e-6, 1e-6):
        diff = abs(estimation.clarke_closed_form(1.0 + eps) - (1.0 - 2.0 / math.pi))
        checks.append(_bounded(f"closed_form_branch[a=1{eps:+.0e}]", diff, 1e-4 * ts))

    for alpha, bound in ((0.1, 0.2), (0.01, 0.02)):
        exact, series = estimation.taylor_check(alpha)
        checks.append(_bounded(f"taylor_residual[a={alpha}]", abs(exact - series) / alpha**3, bound * ts))

    F, snr = 0.002, 1.0
    checks.append(
        _bounded("small_alpha_value", abs(estimation.small_alpha_mse(F, snr) - 0.004), 1e-15 * ts)
    )
    rel = abs(estimation.clarke_closed_form(math.pi * F) / 0.004 - 1.0)
    checks.append(_bounded("small_alpha_vs_closed_form", rel, 0.01 * ts))
    gain = estimation.processing_gain_db(F, snr)
    checks.append(_bounded("processing_gain_value", abs(gain - 10 * math.log10(249)), 1e-6 * ts))

    residuals = []
    for P in (256, 512, 1024):
        R = toeplitz(clarke_autocorrelation(F, np.arange(P)))
        d = np.exp(2j * np.pi * (P // 2) * np.arange(P) / P)
        residuals.append(pilots.orthogonality_residual(R, R, d))
    mono = all(b < a for a, b in zip(residuals, residuals[1:]))
    checks.append(Check("orthogonality_residual_monotone", float(not mono), 1.0, mono))
    checks.append(_bounded("orthogonality_residual_final[P=1024]", residuals[-1], 8e-3 * ts))

    checks.append(_synthesis_autocorr_check(ts))
    checks.append(_orthogonality_principle_check(ts))
    return checks


def _synthesis_autocorr_check(ts, P=512, M=32, seeds=4, max_lag=5):
    """Monte-Carlo: synthesized sample autocorrelation vs the analytic values."""
    F = 0.002
    cov = build_covariance(DopplerSpectrum.clarke(F), P)
    prods = {v: [] for v in range(1, max_lag + 1)}
    for seed in range(seeds):
        h = synthesize_realization(cov, M, seed=(9000, seed)).samples
        for v in prods:
            prods[v].append((h[:-v] * np.conj(h[v:])).real.ravel())
    worst = 0.0
    for v, chunks in prods.items():
        x = np.concatenate(chunks)
        se = x.std(ddof=1) / math.sqrt(P * 2 * F * 2 * M * seeds)  # effective dof
        z = abs(x.mean() - clarke_autocorrelation(F, v)) / se
        worst = max(worst, z / 3.0)
    return Check("synthesis_autocorrelation_3se", worst, 1.0 * ts, worst < 1.0 * ts)


def _orthogonality_principle_check(ts, P=16, draws=500):
    """Monte-Carlo: the MMSE error is uncorrelated with the observation."""
    cov = build_covariance(DopplerSpectrum.clarke(0.05), P)
    scene = estimation.UplinkScene(
        users=(
            estimation.UplinkUser(1.0, pilots.fft_pilot(0, P), cov),
            estimation.UplinkUser(1.0, pilots.fft_pilot(P // 2, P), cov),
        ),
        noise_var=1.0,
    )
    rng = np.random.default_rng(77)
    R = cov.toeplitz()
    L = np.linalg.cholesky(R + 1e-12 * np.eye(P))
    acc = np.zeros((P, P), dtype=complex)
    acc2 = np.zeros((P, P))
    for _ in range(draws):
        h = np.stack([L @ ((rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2)) for _ in range(2)])
        w = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2)
        y = sum(scene.users[k].pilot.values * h[k] for k in range(2)) + w
        eps = h[0] - estimation.mmse_estimate(y, scene, 0)
        outer = np.outer(eps, np.conj(y))
        acc += outer
        acc2 += np.abs(outer) ** 2
    mean = acc / draws
    var = acc2 / draws - np.abs(mean) ** 2
    se = np.sqrt(np.maximum(var, 1e-300) / draws)
    worst = float(np.max(np.abs(mean) / se)) / 4.0
    return Check("mmse_orthogonality_principle_4se", worst, 1.0 * ts, worst < 1.0 * ts)


def _cmd_validate(config, out_dir):
    checks = run_validation_checks(config)
    lines = [c.line() for c in checks]
    n_fail = sum(not c.ok for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    atomic_write_text(os.path.join(out_dir, "report.txt"), report)
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


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
    print(f"alignment plan: {plan.K} users, P={plan.P}, guard={plan.guard:g}")
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
    # both schemes run at every P: reject a baseline that cannot run before any trial does
    try:
        configs = [replace(config, scheme=scheme) for scheme in ("psd_align", "hadamard")]
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    runner = simkit.run_downlink if downlink else simkit.run_uplink
    results = []
    for P in config.sweep_lengths:
        for cfg in configs:
            try:
                results.append(runner(cfg, P=P))
            except pilots.PlanInfeasibleError as exc:
                print(f"aborting sweep: {exc}", file=sys.stderr)
                return EXIT_FAIL
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
    except ConfigError as exc:
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
