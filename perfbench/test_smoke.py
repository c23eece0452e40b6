"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload path, untraced and traced, checks that every metric
BENCHMARK.json names is emitted with its unit, and that corrupted or raising
ops are counted as failed.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

TINY = {
    "dl_circulant_p4096": {"sweep_lengths": (512,), "trials": 16},
    "ul_circulant_short": {"sweep_lengths": (512, 1024), "trials": 8},
    "dl_exact_p1024": {"sweep_lengths": (256,), "trials": 16},
    "plan_mixed_doppler": {"users": 6, "P": 1024, "residual_P": 128},
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json(bench):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_end_to_end_metrics(name, bench, tmp_path):
    ledger, metrics, samples = run.measure(tiny(name), SEED, 0, str(tmp_path))
    assert ledger.failed == 0 and ledger.attempted >= 2 * run.MIN_SAMPLES
    assert samples["setup_s"] >= run.MIN_SETUP_SAMPLES
    doc = json.loads(run.result_line(ledger, metrics, run.END_TO_END, True))
    assert doc["correct"] is True
    for metric in bench["end_to_end"]:
        entry = doc["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_per_layer_metrics(name, bench, tmp_path):
    trace_path = str(tmp_path / "trace.json")
    ledger, metrics, _, covered = run.measure_traced(tiny(name), SEED, 0, str(tmp_path / "ops"), trace_path)
    assert ledger.failed == 0 and covered
    doc = json.loads(run.result_line(ledger, metrics, run.PER_LAYER, covered))
    assert set(doc["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for metric in bench["per_layer"]:
        entry = doc["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and math.isfinite(entry["value"])
    assert run.MIN_TRACE_COVERAGE <= doc["metrics"]["trace.coverage"]["value"] <= 1.0
    with open(trace_path) as fh:
        assert json.load(fh)["spans"]
    # wrappers are removed after the traced run
    assert workloads.cli.main.__module__ == "psdalign.cli"


def test_untraced_layers_fail_the_coverage_gate(monkeypatch, tmp_path):
    import tracing

    # with the planning layers left untraced, their time is left to the root span
    kept = tuple(b for b in tracing.BOUNDARIES if not b[0].startswith(("psdalign.pilots", "psdalign.fading")))
    monkeypatch.setattr(tracing, "BOUNDARIES", kept)
    trace_path = str(tmp_path / "trace.json")
    ledger, metrics, _, covered = run.measure_traced(
        tiny("plan_mixed_doppler"), SEED, 0, str(tmp_path / "ops"), trace_path
    )
    assert ledger.failed == 0 and not covered
    assert metrics["trace.coverage"] < run.MIN_TRACE_COVERAGE
    assert json.loads(run.result_line(ledger, metrics, run.PER_LAYER, covered))["correct"] is False


def _nan_first_aligned(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("psd_align,"))
    fields = lines[i].split(",")
    fields[3] = "nan"
    lines[i] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _swap_schemes(path):
    with open(path) as fh:
        text = fh.read()
    text = text.replace("psd_align,", "@,").replace("hadamard,", "psd_align,").replace("@,", "hadamard,")
    with open(path, "w") as fh:
        fh.write(text)


@pytest.mark.parametrize("corrupt", [_nan_first_aligned, _swap_schemes])
def test_corrupted_output_counts_as_failed_op(corrupt, monkeypatch, tmp_path):
    real_main = workloads.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        corrupt(os.path.join(argv[argv.index("--out") + 1], "mse.csv"))
        return code

    monkeypatch.setattr(workloads.cli, "main", corrupting_main)
    ledger, _, _ = run.measure(tiny("ul_circulant_short"), SEED, 0, str(tmp_path))
    assert ledger.attempted > 0 and ledger.failed == ledger.attempted
    assert json.loads(run.result_line(ledger, {}, {}, True))["correct"] is False


def test_raising_op_counts_as_failed_op(monkeypatch, tmp_path):
    def raising(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.pilots, "plan_alignment", raising)
    workload = tiny("plan_mixed_doppler")
    ledger = run.Ledger(str(tmp_path))
    ledger.run(lambda d: workload.op(SEED, 0, d))
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_reference_values_are_compared_at_the_reference_seed(monkeypatch, tmp_path):
    workload = tiny("ul_circulant_short")
    run_cfg = workload.run_config(workloads.REFERENCE_SEED, workload.trials)
    workload.run_program(run_cfg, str(tmp_path))
    outputs = workloads.read_outputs(str(tmp_path), workload.downlink)
    assert workload.check(str(tmp_path), run_cfg) == []  # no stored entry for this config

    def entries(scale):
        runs = [dict(r, nmse=[v * scale for v in r["nmse"]]) for r in outputs]
        return {workload.name: [{"run": run_cfg, "runs": runs}]}

    monkeypatch.setattr(workloads, "_reference_entries", lambda: entries(1.0 + 1e-9))
    assert workload.check(str(tmp_path), run_cfg) == []
    monkeypatch.setattr(workloads, "_reference_entries", lambda: entries(1.0 + 1e-4))
    assert workload.check(str(tmp_path), run_cfg)


def _run_script(cwd, env=None, workload="ul_circulant_short"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=False)


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout


def test_refuses_more_blas_threads_than_cores():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(run.nproc() + 1))
    proc = _run_script(ROOT, env)
    assert proc.returncode == 2 and "refusing" in proc.stderr
