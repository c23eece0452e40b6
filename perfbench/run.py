"""psdalign benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; psdalign is imported from ./src.
Ops run back to back (the next starts when the previous returns) for at
least S seconds. Every op's output is checked; failures are counted.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced ops and reports the per-layer metrics. Lines before the last describe
the environment and sample counts; the last line is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit codes: 0 result printed, 2 refused (no source tree, BLAS threads above
the core count, bad arguments).
"""

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_runs")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every run measures at least this many samples of each kind, even past --seconds
MIN_SAMPLES = 2
MIN_SETUP_SAMPLES = 4
MIN_TRACED_SAMPLES = 1
# a traced op fails unless the layer spans (the root span excluded) account
# for this share of the op's time, as the workload's own clock measures it
MIN_TRACE_COVERAGE = 0.9

END_TO_END = {
    "op_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit. "<span>.s" is the span's inclusive time per op, "<span>.self_s"
# its self time; other names are counters per op. *_computed values are
# derived from array shapes, not measured.
PER_LAYER = {
    "linalg.cho_factor.s": "s",
    "linalg.cho_factor.calls": "count",
    "linalg.cho_factor.flops_computed": "flop",
    "linalg.cho_factor.bytes_computed": "B",
    "linalg.cho_solve.s": "s",
    "linalg.cho_solve.calls": "count",
    "linalg.cho_solve.flops_computed": "flop",
    "linalg.circulant.s": "s",
    "simkit.run_experiment.self_s": "s",
    "simkit.write_csv.s": "s",
    "simkit.write_csv.bytes": "B",
    "fading.complex_normal.s": "s",
    "fading.complex_normal.calls": "count",
    "fading.complex_normal.draws": "count",
    "fading.build_covariance.s": "s",
    "fading.toeplitz.s": "s",
    "fading.synthesis_nodes.s": "s",
    "fading.synthesis_nodes.nodes": "count",
    "estimation.error_covariance.s": "s",
    "estimation.asymptotic_mse.s": "s",
    "estimation.asymptotic_mse.calls": "count",
    "quadrature.oscillatory_nodes.s": "s",
    "quadrature.adaptive_gl.s": "s",
    "quadrature.fixed_gl.calls": "count",
    "bessel.j0.points": "count",
    "pilots.plan_alignment.s": "s",
    "pilots.shift_orthogonal.s": "s",
    "pilots.shift_orthogonal.calls": "count",
    "pilots.orthogonality_residual.s": "s",
    "pilots.fft_pilot.s": "s",
    "config.load_config.s": "s",
    "cli.main.self_s": "s",
    "bench.op.self_s": "s",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count of each loaded OpenBLAS, queried from the library itself."""
    counts = {}
    for package in ("numpy", "scipy"):
        libs = os.path.join(os.path.dirname(os.path.dirname(importlib.import_module(package).__file__)), f"{package}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    counts[f"{package}:{os.path.basename(path)}"] = fn()
                    break
    if not counts:  # not an OpenBLAS build: trust the environment
        counts = {var: int(os.environ[var]) for var in BLAS_THREAD_VARS if var in os.environ}
    return counts


def environment(workload, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
        sha = proc.stdout.strip() or sha
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "git_sha": sha,
    }


class Ledger:
    """Runs ops one after another, each in its own output directory, and counts failures."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0

    def run(self, op):
        """op(out_dir) -> Outcome; returns the op's elapsed time."""
        import workloads

        out_dir = os.path.join(self.work_dir, f"op{self.attempted}")
        outcome = workloads.attempt(lambda: op(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            print(f"op {self.attempted - 1} failed: {'; '.join(outcome.problems[:3])}", file=sys.stderr)
        return outcome.elapsed


def measure(workload, seed, seconds, work_dir):
    """End-to-end metrics from full ops and their base variants (trials: 1 / two users).

    Base and full ops alternate, base first and last, so every full op has a
    base op on either side: a slow spell of the machine tends to hit all three
    and cancels in the difference. Set-up samples are spread over the run the
    same way. For the Monte-Carlo workloads they are the base ops, topped up
    after the loop to MIN_SETUP_SAMPLES; the planning workload starts a fresh
    process after every base op but the first, and loops until it has
    MIN_SETUP_SAMPLES.
    """
    ledger = Ledger(work_dir)
    base, full, fresh = [], [], []
    fresh_needed = MIN_SETUP_SAMPLES if workload.setup_in_fresh_process else 0

    def run_base(i):
        base.append(ledger.run(lambda d: workload.op(seed, i, d, full=False)))

    run_base(0)
    start = time.perf_counter()
    i = 0
    while not (
        time.perf_counter() - start >= seconds and len(full) >= MIN_SAMPLES and len(fresh) >= fresh_needed
    ):
        full.append(ledger.run(lambda d: workload.op(seed, i, d)))
        i += 1
        run_base(i)
        if workload.setup_in_fresh_process:
            fresh.append(ledger.run(lambda d: workload.setup_op(seed, i, d)))
    setup = fresh if workload.setup_in_fresh_process else base
    while len(setup) < MIN_SETUP_SAMPLES:
        i += 1
        run_base(i)
    extra_s = [f - (base[j] + base[j + 1]) / 2.0 for j, f in enumerate(full)]
    metrics = {
        "op_s": statistics.median(full),
        "trials_per_s": statistics.median(workload.extra_units / e for e in extra_s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"op_s": len(full), "base_op_s": len(base), "setup_s": len(setup)}
    return ledger, metrics, samples


def layer_value(name, summary):
    if name.endswith(".self_s"):
        return summary["self"].get(name[: -len(".self_s")], 0.0)
    if name.endswith(".s"):
        return summary["total"].get(name[: -len(".s")], 0.0)
    return summary["counters"].get(name, 0.0)


def measure_traced(workload, seed, seconds, work_dir, trace_path):
    """Per-layer metrics: untraced and traced full ops alternate; medians per op.

    Also returns whether the layer spans cover at least MIN_TRACE_COVERAGE of
    every traced op.
    """
    import tracing

    ledger = Ledger(work_dir)
    tracer = tracing.Tracer()
    untraced, traced, traced_elapsed = [], [], []
    start = time.perf_counter()
    index = 0
    while not (time.perf_counter() - start >= seconds and len(traced) >= MIN_TRACED_SAMPLES):
        i = index
        untraced.append(ledger.run(lambda d: workload.op(seed, i, d)))
        with tracer.installed():
            traced_elapsed.append(ledger.run(lambda d: workload.op(seed, i, d, timed=tracer.op(i))))
        traced.append(i)
        index += 1
    tracer.write(trace_path)

    summaries = [tracer.op_summary(i) for i in traced]
    # share of each traced op, timed by the workload's clock, that the layer
    # spans account for: their self times, the root span's excluded
    coverage = [
        sum(t for name, t in s["self"].items() if name != tracing.ROOT_SPAN) / elapsed
        for s, elapsed in zip(summaries, traced_elapsed)
    ]
    covered = min(coverage) >= MIN_TRACE_COVERAGE
    if not covered:
        print(f"layer spans cover only {min(coverage):.3f} of a traced op", file=sys.stderr)
    metrics = {
        name: statistics.median(layer_value(name, s) for s in summaries)
        for name in PER_LAYER
        if not name.startswith("trace.")
    }
    traced_s = statistics.median(s["wall"] for s in summaries)
    untraced_s = statistics.median(untraced)
    metrics["trace.op_s"] = traced_s
    metrics["trace.untraced_op_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.coverage"] = statistics.median(coverage)
    samples = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    return ledger, metrics, samples, covered


def result_line(ledger, metrics, units, correct):
    return json.dumps(
        {
            "correct": bool(correct and ledger.failed == 0),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "psdalign", "__init__.py")):
        print(f"no psdalign source tree under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cores = nproc()
    requested = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
    if any(not value.isdigit() or int(value) > cores for value in requested.values()):
        print(f"refusing to run: BLAS threads {requested} exceed nproc={cores}", file=sys.stderr)
        return 2
    # one BLAS thread unless the caller sets more: a second thread spinning
    # against a busy neighbour on a shared machine slows small solves several
    # fold. BLAS reads the setting when numpy and scipy load, so they are
    # imported only after this.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import logging

    import psdalign
    import workloads

    if not os.path.abspath(psdalign.__file__).startswith(SRC + os.sep):
        print(f"psdalign imported from {psdalign.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    if max(env["blas_threads"].values(), default=0) > cores:
        print(f"refusing to run: BLAS threads {env['blas_threads']} exceed nproc={cores}", file=sys.stderr)
        return 2
    # the circulant-model eigenvalue clamp warning fires by design on every op
    logging.getLogger("psdalign").setLevel(logging.ERROR)

    workload = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            ledger, metrics, samples, covered = measure_traced(
                workload, args.seed, args.seconds, work_dir, trace_path
            )
            units = PER_LAYER
            env["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            ledger, metrics, samples = measure(workload, args.seed, args.seconds, work_dir)
            units, covered = END_TO_END, True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["reference_seed"] = workloads.REFERENCE_SEED
    env["held_out_seed"] = workloads.HELD_OUT_SEED
    print("env " + json.dumps(env))
    print("samples " + json.dumps(samples))
    print(result_line(ledger, metrics, units, covered))
    return 0


if __name__ == "__main__":
    sys.exit(main())
