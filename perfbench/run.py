#!/usr/bin/env python3
"""Repository benchmark: simulator host time, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig3-matmul --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's fixed input for ``--seconds`` and
reports the end-to-end metrics (medians over the passes of the run):

- ``wall_s``: host seconds for one pass over the fixed input;
- ``jobs_per_s``: simulated jobs completed per host second;
- ``setup_s``: a fresh interpreter's ``import repro`` plus the
  workload's first ``MulticomputerSystem.build()`` (median of
  :data:`SETUP_SAMPLES` interpreters);
- ``peak_rss_mb``: the process's memory high-water mark.

Host seconds are scaled to the reference host speed, operation by
operation, with the calibration loop of ``hostspeed.py``.

``--trace 1`` runs one untraced pass, then one pass under ``cProfile``,
and reports the per-layer split (see ``layers.py``) with the model's
exact counters.  End-to-end numbers never come from the traced pass.

Every operation's simulated outputs are checked against the committed
references, and every model counter must repeat exactly between passes
of the same input; a mismatch fails the operation.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; progress and errors go to standard error.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S, calibrate
from layers import LAYERS, Split
from workloads import (
    FIGURES_CSV,
    HERE,
    SRC,
    WORKLOAD_NAMES,
    BuildRecorder,
    make_workload,
)

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SETUP_SAMPLES = 7


#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``).
PER_LAYER = tuple(
    (f"{layer}.{metric}", unit, "lower")
    for layer in LAYERS
    for metric, unit in (("self_s", "s"), ("calls_in", "count"))
) + (
    ("sim.events", "count", "lower"),
    ("sim.handoffs", "count", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("transputer.cpu.dispatches", "count", "lower"),
    ("transputer.cpu.preemptions", "count", "lower"),
    ("transputer.cpu.execute_calls", "count", "lower"),
    ("transputer.memory.allocs", "count", "lower"),
    ("transputer.memory.buffer_acquires", "count", "lower"),
    ("transputer.memory.wait_sim_s", "sim_s", "lower"),
    ("transputer.link.transmits", "count", "lower"),
    ("transputer.link.queue_sim_s", "sim_s", "lower"),
    ("comm.sends", "count", "lower"),
    ("comm.messages", "count", "lower"),
    ("comm.bytes", "B", "lower"),
    ("core.submits", "count", "lower"),
    ("core.admits", "count", "lower"),
    ("core.local_executes", "count", "lower"),
    ("workload.arrivals", "count", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("obs.decisions", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (only steady-open reads it)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes until this many seconds "
                             "have elapsed (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sum_counters(ops):
    total = {}
    for op in ops:
        for counters in op.counters:
            for key, value in counters.items():
                total[key] = total.get(key, 0) + value
    return total


def check_repeats(reference_ops, ops):
    """Fail every op whose counters differ from the same op's earlier run.

    The model is deterministic, so a differing counter is
    nondeterminism, never noise.
    """
    for ref, op in zip(reference_ops, ops):
        if not (ref.counters and op.counters) or ref.counters == op.counters:
            continue
        for i, (a, b) in enumerate(zip(ref.counters, op.counters)):
            diff = sorted(k for k in a if a[k] != b.get(k))
            if diff:
                key = diff[0]
                op.errors.append(f"nondeterminism: {op.name} run {i} "
                                 f"counter {key} {b.get(key)!r} != {a[key]!r}")
                break
        else:
            op.errors.append(f"nondeterminism: {op.name} made "
                             f"{len(op.counters)} runs, not "
                             f"{len(ref.counters)}")


def setup_seconds(name):
    """Median cold-start seconds over fresh interpreters."""
    samples = []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, probe, name],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def scaled_seconds(ops):
    """A pass's host seconds at the reference host speed."""
    return sum(op.wall_s * REFERENCE_S / op.cal_s for op in ops)


def measure(workload, recorder, seconds):
    """End-to-end metrics: repeat the fixed input for ``seconds``."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = workload.run_pass(recorder, calibrate)
        if passes:
            check_repeats(passes[0], ops)
        passes.append(ops)
        print(f"pass {len(passes)}: {scaled_seconds(ops):.3f} s scaled, "
              f"{sum(op.wall_s for op in ops):.3f} s host", file=sys.stderr)
    walls = [scaled_seconds(ops) for ops in passes]
    rates = [sum(op.jobs for op in ops) / wall
             for wall, ops in zip(walls, passes)]
    metrics = {
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(rates),
        "setup_s": setup_seconds(workload.name),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [op for ops in passes for op in ops], metrics


def trace(workload, recorder):
    """Per-layer metrics from one untraced and one traced pass."""
    t0 = time.perf_counter()
    plain_ops = workload.run_pass(recorder)
    plain_wall = time.perf_counter() - t0

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        traced_ops = workload.run_pass(recorder)
    finally:
        profiler.disable()
    traced_wall = time.perf_counter() - t0
    check_repeats(plain_ops, traced_ops)

    split = Split(profiler.getstats(), SRC)
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = split.self_s[layer]
        metrics[f"{layer}.calls_in"] = split.calls_in[layer]
    metrics.update(_sum_counters(traced_ops))
    events = metrics["sim.events"]
    metrics["sim.ns_per_event"] = (split.self_s["sim"] / events * 1e9
                                   if events else 0.0)
    metrics["transputer.cpu.execute_calls"] = split.calls(
        "repro.transputer.cpu", "execute")
    metrics["core.submits"] = (
        split.calls("repro.core.super_scheduler", "submit")
        + split.calls("repro.core.super_scheduler", "submit_batch"))
    metrics["core.admits"] = split.calls("repro.core.partition_scheduler",
                                         "admit")
    metrics["core.local_executes"] = split.calls(
        "repro.core.local_scheduler", "execute")
    metrics["workload.arrivals"] = split.calls("repro.workload.arrivals",
                                               "generate")
    metrics["trace.coverage"] = sum(split.self_s.values()) / traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    for layer in sorted(LAYERS, key=split.self_s.get, reverse=True):
        print(f"{layer:>18} {split.self_s[layer]:8.3f} s "
              f"{split.self_s[layer] / traced_wall:6.1%}", file=sys.stderr)
    print(f"{'unattributed':>18} {split.unattributed_s:8.3f} s; traced "
          f"{traced_wall:.3f} s vs {plain_wall:.3f} s untraced",
          file=sys.stderr)
    return plain_ops + traced_ops, metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    missing = [p for p in (os.path.join(SRC, "repro"), FIGURES_CSV)
               if not os.path.exists(p)]
    if missing:
        print(f"perfbench: run from a repository checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = make_workload(args.workload, args.seed)
    workload.setup()
    workload.load_reference()
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    with BuildRecorder() as recorder:
        if args.trace:
            ops, values = trace(workload, recorder)
        else:
            ops, values = measure(workload, recorder, args.seconds)
    errors = [e for op in ops for e in op.errors]
    for message in errors[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": sum(op.runs for op in ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
