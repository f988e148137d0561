#!/usr/bin/env python3
"""Regenerate ``steady_reference.json``: steady-open's expected outputs.

Run from the repository root when a change alters the model on purpose
(and says so)::

    python3 perfbench/make_reference.py

It runs the steady-open input of every seed ``0 .. STEADY_INPUTS-1``
and writes their simulated outputs as exact ``repr`` text.
"""

import json
import sys

from workloads import (
    SRC,
    STEADY_DURATION,
    STEADY_INPUTS,
    STEADY_NODES,
    STEADY_RATE,
    STEADY_REFERENCE,
    SteadyOpenWorkload,
    steady_outputs,
)


def main():
    sys.path.insert(0, SRC)
    workload = SteadyOpenWorkload(0)
    workload.setup()
    outputs = {}
    for seed in range(STEADY_INPUTS):
        outputs[str(seed)] = steady_outputs(workload.run_once(seed))
        print(f"seed {seed}: {outputs[str(seed)]['jobs_completed']} jobs",
              file=sys.stderr)
    document = {
        "workload": "steady-open",
        "input": {"policy": "static", "partition_size": 1,
                  "nodes": STEADY_NODES, "topology": "mesh",
                  "rate": STEADY_RATE, "duration": STEADY_DURATION,
                  "collect_jobs": False},
        "outputs": outputs,
    }
    with open(STEADY_REFERENCE, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
