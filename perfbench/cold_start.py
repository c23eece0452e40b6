"""Time to first result in a fresh process: import psdalign, then one plan op.

The planning workload measures its set-up time by running this script:

    python3 perfbench/cold_start.py '{"workload": {...PlanWorkload fields}, "seed": N, "index": I}'

It prints {"elapsed": seconds, "problems": [...]} as its last line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    doc = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import workloads  # imports psdalign, numpy and scipy: part of the measured set-up

    workload = workloads.PlanWorkload(**doc["workload"])
    outcome = workloads.attempt(lambda: workload.op(doc["seed"], doc["index"]))
    elapsed = time.perf_counter() - START
    print(json.dumps({"elapsed": elapsed, "problems": list(outcome.problems)}))


if __name__ == "__main__":
    main()
