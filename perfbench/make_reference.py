"""Regenerate reference.json: the outputs of every Monte-Carlo workload at
the reference seed, for the full op and for its trials: 1 variant.

    python3 perfbench/make_reference.py

Ops run at the reference seed compare their per-user nMSE and downlink
sum-SE with these values. Regenerate only for a change that is meant to
alter the simulated numbers, and say so in that change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    doc = {}
    out_dir = os.path.join(ROOT, ".perfbench_runs", "reference")
    for workload in workloads.WORKLOADS.values():
        if not isinstance(workload, workloads.SweepWorkload):
            continue
        entries = []
        for trials in (1, workload.trials):
            run = workload.run_config(workloads.REFERENCE_SEED, trials)
            _, code = workload.run_program(run, out_dir)
            if code != 0:
                raise SystemExit(f"{workload.name}: psdalign exited with {code}")
            entries.append({"run": run, "runs": workloads.read_outputs(out_dir, workload.downlink)})
            shutil.rmtree(out_dir)
        doc[workload.name] = entries
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
