"""The benchmark's workloads, their fixed inputs and their output checks.

A workload runs in *passes*.  One pass executes the workload's whole
fixed input once; it is a list of *operations*, and every operation is
one or more ``run_batch``/``run_open`` calls (a *run*).  The benchmark
times each operation, reads the model's public counters after it, and
checks its simulated outputs against a committed reference:

- figure cells against ``results/figures_paper.csv`` (the same
  6-decimal text the figure CSV holds);
- ``steady-open`` against ``steady_reference.json`` in this directory
  (``repr`` of every float, so the comparison is byte-exact).

Every workload imports the modules it needs in :meth:`setup`, so a cold
``setup`` in a fresh interpreter is exactly the start-up cost a user
pays (``setup_probe.py`` times it).
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIGURES_CSV = os.path.join(ROOT, "results", "figures_paper.csv")
STEADY_REFERENCE = os.path.join(HERE, "steady_reference.json")

#: steady-open input: offered load rho=0.8 on 4 nodes of 2 jobs/s each
#: (mean demand 1.65e5 ops at 3.3e5 ops/s), ~8k jobs per run.
STEADY_NODES = 4
STEADY_RATE = 0.8 * STEADY_NODES * 2.0
STEADY_DURATION = 1_250.0
#: Runs per pass: ~64k jobs.
STEADY_STREAMS = 8
#: ``--seed n`` selects input seeds ``(n + k) % STEADY_INPUTS`` for
#: ``k < STEADY_STREAMS``; the reference file holds the outputs of
#: every input seed.
STEADY_INPUTS = 16


class BuildRecorder:
    """Collects every ``MulticomputerSystem`` built while installed.

    Wraps the public ``build`` method from outside the package, so the
    benchmark can read each run's public counters without any hook
    inside ``src/``.  The wrapper costs one extra call per run.
    """

    def __init__(self):
        self.systems = []
        self._original = None

    def __enter__(self):
        from repro.core.system import MulticomputerSystem

        original = MulticomputerSystem.build
        systems = self.systems

        def build(system):
            systems.append(system)
            return original(system)

        self._original = original
        MulticomputerSystem.build = build
        return self

    def __exit__(self, *exc):
        from repro.core.system import MulticomputerSystem

        MulticomputerSystem.build = self._original
        return None

    def take(self):
        """The systems built since the last call, and forget them."""
        systems = list(self.systems)
        self.systems.clear()
        return systems


def system_counters(system):
    """Model counters of one finished run, from its public stats.

    The simulator is deterministic, so every value repeats exactly for
    the same input and the same code.
    """
    env = system.env
    c = {
        "sim.events": env.events_processed,
        "sim.handoffs": env.handoffs,
        "transputer.cpu.dispatches": 0,
        "transputer.cpu.preemptions": 0,
        "transputer.memory.allocs": 0,
        "transputer.memory.buffer_acquires": 0,
        "transputer.memory.wait_sim_s": 0.0,
        "transputer.link.transmits": 0,
        "transputer.link.queue_sim_s": 0.0,
        "comm.sends": 0,
        "comm.messages": 0,
        "comm.bytes": 0,
        "obs.trace_events": 0,
        "obs.decisions": 0,
    }
    for node in system.nodes.values():
        c["transputer.cpu.dispatches"] += node.cpu.stats.dispatches
        c["transputer.cpu.preemptions"] += node.cpu.stats.preemptions
        for mmu in (node.memory, node.mailbox_memory):
            c["transputer.memory.allocs"] += mmu.stats.total_allocs
            c["transputer.memory.wait_sim_s"] += mmu.stats.total_wait_time
        c["transputer.memory.buffer_acquires"] += node.buffers.stats.grants
        c["transputer.memory.wait_sim_s"] += node.buffers.stats.total_wait_time
        for link in node.links.values():
            c["transputer.link.transmits"] += link.stats.transfers
            c["transputer.link.queue_sim_s"] += link.stats.queue_time
    for part in system.partitions:
        c["comm.sends"] += part.network.stats.messages_sent
        c["comm.messages"] += part.network.stats.messages_delivered
        c["comm.bytes"] += part.network.stats.bytes_sent
    if system.telemetry is not None:
        recorder = system.telemetry.recorder
        c["obs.trace_events"] += len(recorder) + recorder.dropped
    if system.decisions is not None:
        c["obs.decisions"] += system.decisions.total
    return c


class Op:
    """Outcome of one operation: its runs, timing, counters and errors.

    ``wall_s`` is host seconds; ``cal_s`` is the mean of the host-speed
    calibrations run just before and just after it (``None`` when the
    pass was not calibrated).
    """

    __slots__ = ("name", "runs", "jobs", "wall_s", "cal_s", "counters",
                 "errors")

    def __init__(self, name):
        self.name = name
        self.runs = 0
        self.jobs = 0
        self.wall_s = 0.0
        self.cal_s = None
        self.counters = []
        self.errors = []

    @property
    def failed(self):
        return self.runs if self.errors else 0


class Workload:
    """Base: time each operation of a pass and read its counters."""

    name = ""

    def setup(self):
        """Import what the workload runs and build its first system."""
        raise NotImplementedError

    def load_reference(self):
        raise NotImplementedError

    def operations(self):
        """``[(name, callable), ...]``: the fixed input of one pass."""
        raise NotImplementedError

    def check(self, name, output):
        """Error messages for one operation's simulated output."""
        raise NotImplementedError

    def jobs_of(self, output, runs):
        raise NotImplementedError

    def run_pass(self, recorder, calibrate=None):
        """Execute the fixed input once; returns its list of :class:`Op`.

        With ``calibrate``, it runs before the first operation and after
        every operation, outside the timed intervals.
        """
        ops = []
        cal = calibrate() if calibrate else None
        for name, call in self.operations():
            op = Op(name)
            recorder.take()
            output = None
            t0 = time.perf_counter()
            try:
                output = call()
            except Exception as exc:  # noqa: BLE001 - a failed run is data
                traceback.print_exc(file=sys.stderr)
                op.errors.append(f"raised {type(exc).__name__}: {exc}")
            op.wall_s = time.perf_counter() - t0
            if calibrate:
                after = calibrate()
                op.cal_s = (cal + after) / 2.0
                cal = after
            systems = recorder.take()
            op.runs = max(len(systems), 1)
            if output is not None:
                op.errors.extend(self.check(name, output))
                op.jobs = self.jobs_of(output, op.runs)
                op.counters = [system_counters(s) for s in systems]
            ops.append(op)
        return ops


def _read_figure_reference():
    rows = {}
    with open(FIGURES_CSV, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["figure"]), int(row["partition_size"]),
                   row["topology"], row["policy"])
            rows[key] = row
    return rows


#: Simulated fields of a figure cell, as ``results/figures_paper.csv``
#: prints them.
CELL_FIELDS = ("mean_response_time", "makespan", "memory_wait",
               "cpu_utilization")


class FigureWorkload(Workload):
    """The mesh column of a paper-scale figure grid.

    The full 32-cell grid takes ~15 s, too long to repeat within one
    run, so a pass runs every partition size (1, 2, 4, 8, 16) under both
    policy families on the mesh topology (p = 1 has no links and is
    listed under linear): 10 cells and 15 ``run_batch`` calls.
    ``observed`` turns on telemetry, the decision ledger and the kernel
    profiler, as the ``profile``, ``decisions`` and ``hotspots``
    commands do.
    """

    def __init__(self, name, figure, observed=False):
        self.name = name
        self.figure = figure
        self.observed = observed
        self.reference = None
        self.tasks = None

    def setup(self):
        from repro.core import MulticomputerSystem, StaticSpaceSharing, \
            SystemConfig
        from repro.experiments.config import ExperimentScale, figure_spec
        from repro.experiments.runner import enumerate_cells, run_cell

        self._run_cell = run_cell
        self.scale = ExperimentScale.paper()
        spec = figure_spec(self.figure)
        self.tasks = [t for t in enumerate_cells(spec, self.scale)
                      if t["topology"] == "mesh" or t["partition_size"] == 1]
        self.batch_jobs = self.scale.num_small + self.scale.num_large
        first = self.tasks[0]
        config = SystemConfig(num_nodes=16, topology=first["topology"],
                              telemetry=self.observed,
                              decisions=self.observed)
        system = MulticomputerSystem(
            config, StaticSpaceSharing(first["partition_size"]))
        if self.observed:
            from repro.obs.kernelprof import (
                kernel_profile,
                validate_kernelprof,
            )

            self._kernel_profile = kernel_profile
            self._validate_kernelprof = validate_kernelprof
            with kernel_profile():
                system.build()
        else:
            system.build()
        return system

    def load_reference(self):
        self.reference = _read_figure_reference()

    def _cell_op(self, task):
        if not self.observed:
            return lambda: self._run_cell(scale=self.scale, **task)

        def observed_cell():
            # As ``hotspots`` does for a figure: run under the kernel
            # profiler, then build and validate its document.
            with self._kernel_profile() as kp:
                cell = self._run_cell(scale=self.scale, telemetry_sink=[],
                                      decisions_sink=[], **task)
            self._validate_kernelprof(kp.document())
            return cell

        return observed_cell

    def operations(self):
        return [(f"{t['partition_size']}{t['topology'][0].upper()}"
                 f":{t['policy_kind']}", self._cell_op(t))
                for t in self.tasks]

    def check(self, name, cell):
        key = (cell.figure, cell.partition_size, cell.topology, cell.policy)
        row = self.reference.get(key)
        if row is None:
            return [f"cell {key} is not in {FIGURES_CSV}"]
        errors = []
        if row["label"] != cell.label:
            errors.append(f"{name}: label {cell.label!r} != {row['label']!r}")
        for field in CELL_FIELDS:
            got = f"{getattr(cell, field):.6f}"
            if got != row[field]:
                errors.append(f"{name}: {field} {got} != {row[field]}")
        return errors

    def jobs_of(self, cell, runs):
        return runs * self.batch_jobs


def steady_outputs(result):
    """Simulated outputs of one steady-open run, as exact text."""
    snap = result.snapshot
    out = {
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "mean_response_time": result.mean_response_time,
        "std_response_time": result.std_response_time,
        "max_response_time": result.max_response_time,
        "mean_wait_time": result.mean_wait_time,
        "p50": result.percentile_response(50),
        "p99": result.percentile_response(99),
        "makespan": snap.makespan,
        "mean_cpu_utilization": snap.mean_cpu_utilization,
        "messages": snap.messages,
        "bytes_sent": snap.bytes_sent,
    }
    for key, value in sorted(result.steady.items()):
        out[f"steady.{key}"] = value
    return {k: repr(v) for k, v in out.items()}


class SteadyOpenWorkload(Workload):
    """Open Poisson arrivals on a 4-node mesh under static p = 1.

    One operation is one ``run_open(collect_jobs=False)`` call through
    ``steady_cell``, the engine of the ``steady`` command, with a
    streaming sink: ~8k jobs in 1,250 simulated seconds.  A pass is
    :data:`STEADY_STREAMS` such runs on consecutive input seeds, ~64k
    jobs; short runs let the host-speed calibration bracket each one.
    """

    name = "steady-open"

    def __init__(self, seed):
        self.input_seeds = [(seed + k) % STEADY_INPUTS
                            for k in range(STEADY_STREAMS)]
        self.reference = None

    def setup(self):
        from repro.core import MulticomputerSystem, StaticSpaceSharing, \
            SystemConfig
        from repro.experiments.steady import steady_cell

        self._steady_cell = steady_cell
        system = MulticomputerSystem(
            SystemConfig(num_nodes=STEADY_NODES, topology="mesh"),
            StaticSpaceSharing(1))
        system.build()
        return system

    def load_reference(self):
        with open(STEADY_REFERENCE) as fh:
            outputs = json.load(fh)["outputs"]
        self.reference = {f"open:seed{k}": outputs[str(k)]
                          for k in self.input_seeds}

    def run_once(self, input_seed):
        return self._steady_cell("static", STEADY_RATE, STEADY_DURATION,
                                 nodes=STEADY_NODES, topology="mesh",
                                 seed=input_seed)

    def operations(self):
        return [(f"open:seed{k}", lambda k=k: self.run_once(k))
                for k in self.input_seeds]

    def check(self, name, result):
        expected = self.reference[name]
        got = steady_outputs(result)
        return [f"{name}: {k} {got.get(k)} != {v}"
                for k, v in expected.items() if got.get(k) != v] + \
               [f"{name}: unexpected output {k}"
                for k in got if k not in expected]

    def jobs_of(self, result, runs):
        return result.jobs_completed


WORKLOAD_NAMES = ("fig3-matmul", "fig5-sort", "steady-open", "fig4-observed")


def make_workload(name, seed):
    """The named workload; only ``steady-open`` reads the seed."""
    if name == "fig3-matmul":
        return FigureWorkload(name, 3)
    if name == "fig5-sort":
        return FigureWorkload(name, 5)
    if name == "fig4-observed":
        return FigureWorkload(name, 4, observed=True)
    if name == "steady-open":
        return SteadyOpenWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOAD_NAMES)}")
