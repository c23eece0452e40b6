"""Print every metric of every benchmark workload, by name and unit.

    python3 perfbench/report.py [--seed N]

For each workload in BENCHMARK.json this runs perfbench/run.py twice, one
process at a time, for BENCHMARK.json's run_seconds: --trace 0 for the
end-to-end metrics and --trace 1 for the per-layer metrics. The seed
defaults to the reference seed. Exits 1 when any run fails or reports an
incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_SEED = 20260810  # workloads.REFERENCE_SEED; not imported, to keep numpy out of this process


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None, []
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    args = parser.parse_args()

    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result, preamble = run_once(name, args.seed, bench["run_seconds"], trace)
            if result is None:
                ok = False
                continue
            ok &= result["correct"]
            print(f"== {name} --trace {trace} (seed {args.seed})")
            for line in preamble:
                print(f"   {line}")
            failed_frac = result["failed"] / result["attempted"]
            print(
                f"   correct={result['correct']}  ops failed {result['failed']}/{result['attempted']}"
                f" = {failed_frac:.3g}"
            )
            for metric, entry in result["metrics"].items():
                print(f"   {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
