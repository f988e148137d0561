"""Golden run documents: whole-model behaviour pinned byte for byte.

Each fixture under ``tests/golden/`` is the serialised outcome of one
small, deterministic model run:

- ``figure3-cell`` — a closed figure-3 matmul cell under time-sharing
  (CPU dispatch with context-switch overhead, quantum slicing and
  high-priority preemption, message transport, pooled events);
- ``steady-smoke`` — an open Poisson steady-state run (streaming
  statistics, arrival generation, admission);
- ``gang-cell`` — a gang-scheduled batch, the only path that parks a
  running slice through ``Cpu.pause_tag`` / ``resume_tag``.

Any change to the kernel's event ordering, the CPU dispatch machine or
event recycling that is visible in a trajectory changes one of these
documents.  The documents carry no job names (those come from a
process-global counter), so they are identical across interpreters and
independent of which runs came first.

Regenerate the fixtures after a deliberate model change with::

    PYTHONPATH=src python -m tests.test_golden_documents
"""

import dataclasses
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


def _rounded(value):
    # Means and utilisations are built with the built-in sum(), whose
    # float rounding changed in Python 3.12 (compensated summation), so
    # the last bits are interpreter-dependent.  Twelve significant
    # digits keep the documents portable; any change to a trajectory
    # still moves digits well above that.
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _dumps(doc):
    return json.dumps(_rounded(doc), sort_keys=True, indent=1,
                      default=repr) + "\n"


def _figure_cell_doc():
    from repro.experiments import ExperimentScale, run_cell

    scale = ExperimentScale(
        "tiny", num_small=2, num_large=1,
        matmul_small=16, matmul_large=32,
        sort_small=256, sort_large=512,
        partition_sizes=(1, 4), topologies=("linear",),
    )
    cell = run_cell(3, "matmul", "fixed", 4, "linear", "timesharing", scale)
    return _dumps(dataclasses.asdict(cell))


def _steady_smoke_doc():
    from repro.experiments.steady import steady_cell

    result = steady_cell("static", rate=4.0, duration=30.0, nodes=4, seed=3)
    return _dumps({
        "arrived": result.jobs_arrived,
        "completed": result.jobs_completed,
        "mean": result.mean_response_time,
        "steady": result.steady,
        "summary": result.summary,
    })


def _gang_cell_doc():
    from repro.core import GangScheduling, MulticomputerSystem, SystemConfig
    from repro.experiments.serialization import result_to_dict
    from repro.workload import standard_batch
    from tests.conftest import ideal_transputer

    config = SystemConfig(num_nodes=4, topology="linear",
                          transputer=ideal_transputer())
    # The fixed architecture puts four processes on each node, so the
    # descheduled job's running slice is a plain quantum slice that only
    # ``pause_tag`` itself can cut short.
    batch = standard_batch("matmul", architecture="fixed", num_small=3,
                           num_large=1, small_size=24, large_size=48)
    system = MulticomputerSystem(config, GangScheduling(4, gang_slot=0.02))
    doc = result_to_dict(system.run_batch(batch))
    for job in doc["jobs"]:
        del job["name"]
    doc["cpus"] = {str(node_id): dataclasses.asdict(node.cpu.stats)
                   for node_id, node in sorted(system.nodes.items())}
    return _dumps(doc)


DOCUMENTS = {
    "figure3-cell": _figure_cell_doc,
    "steady-smoke": _steady_smoke_doc,
    "gang-cell": _gang_cell_doc,
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_run_document_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert DOCUMENTS[name]() == expected


def test_gang_cell_parks_running_slices(monkeypatch):
    """The gang fixture must keep exercising the mid-slice park path:
    ``pause_tag`` preempting a running slice of the descheduled job,
    which then parks instead of re-queueing."""
    from repro.transputer.cpu import Cpu

    parked = []
    finish_low = Cpu._finish_low

    def spy(self, elapsed, preempted):
        if preempted and self._running.tag in self._paused:
            parked.append(self._running.tag)
        return finish_low(self, elapsed, preempted)

    monkeypatch.setattr(Cpu, "_finish_low", spy)
    _gang_cell_doc()
    assert parked


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in DOCUMENTS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(make())
        print(f"wrote {path}")
