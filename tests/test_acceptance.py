"""Acceptance suite: one test per shipped claim, each printing its PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria 1-6, 9, 10a and 10b are the registry of `psdalign.checks`,
which `psdalign validate` runs too, each at its stated tolerance; the suite
runs the registry once, in the `registry_run` session fixture. Criteria 7,
8 and 10c need the heavy default-scenario Monte-Carlo runs, shared through a
session fixture, or files on disk, and stay here.
"""

import numpy as np

from psdalign.checks import REGISTRY
from psdalign.simkit import ExperimentConfig, run_uplink, write_manifest, write_mse_csv


def report(number, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} ({title}): {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def registry_test(criterion):
    """The test of one registry criterion: print each check's line, then assert them all."""

    def test(registry_run):
        checks = registry_run.by_criterion[criterion.__name__]
        for check in checks:
            print(check.line())
        failed = [check.name for check in checks if not check.ok]
        assert not failed, f"{criterion.__name__} failed: {failed}"

    return test


# one test per registry criterion, named test_<criterion>
globals().update({f"test_{criterion.__name__}": registry_test(criterion) for criterion in REGISTRY})


def test_criterion_07_interference_free_equivalence(default_scenario_runs):
    cfg, aligned, _ = default_scenario_runs
    assert cfg.trials >= 200 and aligned.P == 4096 and cfg.antennas == 16
    ref = aligned.nmse_model  # single-user interference-free trace/P
    worst_model = max(abs(e - ref) / ref for e in aligned.nmse_empirical)
    worst_formula = max(abs(e - 0.004) / 0.004 for e in aligned.nmse_empirical)
    ok = worst_model < 0.10 and worst_formula < 0.10
    report(
        7,
        "contamination dodged",
        ok,
        f"max dev from interference-free value {worst_model:.2%}, from 0.004 {worst_formula:.2%} (< 10%)",
    )


def test_criterion_08_baseline_ordering(default_scenario_runs):
    _, aligned, conventional = default_scenario_runs
    nmse_gap_ok = min(conventional.nmse_empirical) - max(
        h + e for h, e in zip(aligned.nmse_halfwidth, aligned.nmse_empirical)
    ) > max(conventional.nmse_halfwidth)
    dl_gap = aligned.dl_se_sum - conventional.dl_se_sum
    dl_ok = dl_gap > aligned.dl_se_halfwidth + conventional.dl_se_halfwidth
    report(
        8,
        "conventional baseline ordering",
        nmse_gap_ok and dl_ok,
        f"nMSE {np.mean(conventional.nmse_empirical):.4f} > {np.mean(aligned.nmse_empirical):.4f}; "
        f"DL SE {conventional.dl_se_sum:.2f} < {aligned.dl_se_sum:.2f} (gap {dl_gap:.2f}, CIs "
        f"{conventional.dl_se_halfwidth:.2f}/{aligned.dl_se_halfwidth:.2f})",
    )


def test_criterion_10c_determinism(tmp_path):
    cfg = ExperimentConfig(
        users=4, shifts="auto", observation_length=128, sweep_lengths=(128,), antennas=2, trials=5
    )
    payloads = []
    for name in ("one", "two"):
        runs = [run_uplink(cfg, P=128)]
        write_mse_csv(runs, tmp_path / f"{name}.csv")
        write_manifest(cfg, runs, tmp_path / f"{name}.json")
        payloads.append(
            (tmp_path / f"{name}.csv").read_bytes() + (tmp_path / f"{name}.json").read_bytes()
        )
    ok = payloads[0] == payloads[1]
    report(10, "deterministic replay", ok, "repeated run with the same manifest is byte-identical")
