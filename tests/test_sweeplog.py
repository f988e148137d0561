"""Tests for sweep meta-observability: the JSONL event stream, the
terminal heartbeat, and the executor observer hooks."""

import io
import json

import pytest

from repro.experiments import ExperimentScale, figure_spec
from repro.experiments.cli import main as cli_main
from repro.experiments.parallel import run_figure_parallel
from repro.experiments.runner import run_figure
from repro.obs import Heartbeat, MultiObserver, SweepLog, read_segments
from repro.obs.sweeplog import SCHEMA, SweepObserver, _task_fields


def tiny_scale(**overrides):
    params = dict(
        num_small=2, num_large=1,
        matmul_small=16, matmul_large=32,
        sort_small=256, sort_large=512,
        partition_sizes=(1, 4), topologies=("linear",),
    )
    params.update(overrides)
    return ExperimentScale("tiny", **params)


TASK = {"figure": 4, "partition_size": 4, "topology": "linear",
        "policy_kind": "static"}


def test_task_fields_reconstruct_cell_label():
    fields = _task_fields(TASK)
    assert fields == {"figure": 4, "label": "4L", "policy": "static",
                      "topology": "linear", "partition_size": 4}


# -- the JSONL stream ----------------------------------------------------
def test_sweep_log_round_trips_through_reader():
    buf = io.StringIO()
    log = SweepLog(buf)
    log.sweep_started(3, jobs=2)
    log.cell_finished(0, TASK, wall_s=0.5, attempts=1, worker=1234,
                      events_per_sec=1000.0)
    log.cell_retry(1, TASK, RuntimeError("flaky"))
    log.cell_failed(1, TASK, RuntimeError("broken"), attempts=2)
    log.cell_finished(2, TASK, wall_s=1.5)
    log.sweep_finished()

    [segment] = read_segments(buf.getvalue().splitlines(), SCHEMA)
    events = [segment["meta"], *segment["records"], segment["finish"]]
    assert [e["ev"] for e in events] == [
        "sweep.start", "cell.finish", "cell.retry", "cell.error",
        "cell.finish", "sweep.finish"]
    start, finish = events[0], events[-1]
    assert start["schema"] == SCHEMA
    assert start["total"] == 3 and start["jobs"] == 2
    assert events[1]["wall_s"] == 0.5
    assert events[1]["worker"] == 1234
    assert events[1]["events_per_sec"] == 1000.0
    assert events[3]["error"] == "broken" and events[3]["attempts"] == 2
    assert finish["ok"] == 2 and finish["failed"] == 1
    # Slowest-cells ranking, longest wall first.
    assert [s["wall_s"] for s in finish["slowest"]] == [1.5, 0.5]
    # Every record carries monotone elapsed host time.
    ts = [e["t"] for e in events]
    assert ts == sorted(ts) and all(t >= 0 for t in ts)


def test_sweep_log_survives_consecutive_sweeps(tmp_path):
    """One observer, several sweeps (--figure all): each sweep is its
    own start/finish segment with fresh totals, and the stream stays
    open until close().

    Regression: sweep_finished used to close the file, crashing the
    second figure's sweep."""
    path = tmp_path / "sweep.jsonl"
    log = SweepLog(path)
    for _figure in range(2):
        log.sweep_started(1, jobs=1)
        log.cell_finished(0, TASK, wall_s=0.1)
        log.sweep_finished()
    log.close()
    log.close()  # idempotent
    segments = read_segments(path, SCHEMA)
    assert [[s["meta"]["ev"], *(r["ev"] for r in s["records"]),
             s["finish"]["ev"]] for s in segments] == [
        ["sweep.start", "cell.finish", "sweep.finish"]] * 2
    # Per-segment totals, not cumulative across sweeps.
    finals = [s["finish"] for s in segments]
    assert all(e["ok"] == 1 and len(e["slowest"]) == 1 for e in finals)


def test_read_sweep_log_rejects_malformed_streams(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        read_segments([], SCHEMA)
    with pytest.raises(ValueError, match="not JSON"):
        read_segments(['{"ev": "sweep.start"}', "not json"], SCHEMA)
    with pytest.raises(ValueError, match="missing 'ev'"):
        read_segments(['{"schema": "repro-sweep/1"}'], SCHEMA)
    with pytest.raises(ValueError, match="sweep.start"):
        read_segments(['{"ev": "cell.finish"}'], SCHEMA)
    # Wrong schema version on the start event is rejected too, with the
    # registry's uniform wrong-schema message.
    with pytest.raises(ValueError, match="unsupported sweep log schema"):
        read_segments([json.dumps({"ev": "sweep.start",
                                   "schema": "repro-sweep/999"})], SCHEMA)
    # A sweep whose segment never closes (a killed process) is rejected.
    start = json.dumps({"ev": "sweep.start", "schema": SCHEMA,
                        "total": 0, "jobs": 1})
    with pytest.raises(ValueError, match="mid-segment"):
        read_segments([start], SCHEMA)
    # And the path form works.
    path = tmp_path / "sweep.jsonl"
    path.write_text(start + "\n" + json.dumps(
        {"ev": "sweep.finish", "ok": 0, "failed": 0}) + "\n")
    assert read_segments(path, SCHEMA)[0]["meta"]["total"] == 0


# -- executor integration ------------------------------------------------
class Recorder(SweepObserver):
    def __init__(self):
        self.calls = []

    def sweep_started(self, total, jobs=1):
        self.calls.append(("start", total, jobs))

    def cell_finished(self, index, task, wall_s=None, attempts=1,
                      worker=None, events_per_sec=None):
        self.calls.append(("finish", index, _task_fields(task)["label"],
                           wall_s, worker))

    def cell_failed(self, index, task, error, attempts):
        self.calls.append(("failed", index))

    def sweep_finished(self):
        self.calls.append(("end",))


@pytest.mark.parametrize("jobs", [1, 2])
def test_observer_sees_every_cell_in_enumeration_order(jobs):
    rec = Recorder()
    spec = figure_spec(4)
    if jobs == 1:
        cells = run_figure(spec, tiny_scale(), observer=rec)
    else:
        cells = run_figure_parallel(spec, tiny_scale(), jobs=jobs,
                                    observer=rec)
    assert rec.calls[0] == ("start", len(cells), jobs)
    assert rec.calls[-1] == ("end",)
    finishes = [c for c in rec.calls if c[0] == "finish"]
    assert [f[1] for f in finishes] == list(range(len(cells)))
    assert [f[2] for f in finishes] == [c.label for c in cells]
    # Host wall-clock is measured for every cell; workers are reported
    # by the pool executor.
    assert all(f[3] > 0 for f in finishes)
    if jobs > 1:
        assert all(isinstance(f[4], int) for f in finishes)


def test_observer_results_match_unobserved_run():
    spec = figure_spec(4)
    plain = run_figure(spec, tiny_scale())
    observed = run_figure(spec, tiny_scale(), observer=Recorder())
    assert observed == plain


def test_multi_observer_fans_out():
    a, b = Recorder(), Recorder()
    multi = MultiObserver([a, None, b])
    multi.sweep_started(2, jobs=1)
    multi.cell_finished(0, TASK, wall_s=0.1)
    multi.cell_failed(1, TASK, RuntimeError("x"), attempts=2)
    multi.sweep_finished()
    assert a.calls == b.calls
    assert [c[0] for c in a.calls] == ["start", "finish", "failed", "end"]


# -- heartbeat -----------------------------------------------------------
def test_heartbeat_renders_progress_and_ranking():
    buf = io.StringIO()
    hb = Heartbeat(stream=buf, min_interval=0.0)
    hb.sweep_started(2, jobs=1)
    hb.cell_finished(0, TASK, wall_s=0.25)
    hb.cell_finished(1, dict(TASK, policy_kind="timesharing"), wall_s=0.75)
    hb.sweep_finished()
    text = buf.getvalue()
    assert "\r  sweep 0/2" in text
    assert "sweep 2/2" in text
    assert "ETA" in text
    assert text.count("\n") == 2  # final newline + ranking line
    assert "slowest cells: 4L [timesharing] 0.75s, 4L [static] 0.25s" in text


def test_heartbeat_shows_failures():
    buf = io.StringIO()
    hb = Heartbeat(stream=buf, min_interval=0.0)
    hb.sweep_started(2, jobs=1)
    hb.cell_failed(0, TASK, RuntimeError("x"), attempts=2)
    assert "(1 FAILED)" in buf.getvalue()


def test_heartbeat_silent_when_never_started():
    buf = io.StringIO()
    Heartbeat(stream=buf).sweep_finished()
    assert buf.getvalue() == ""


# -- CLI wiring ----------------------------------------------------------
def test_cli_sweep_log_and_heartbeat(capsys, tmp_path):
    log_path = tmp_path / "sweep.jsonl"
    assert cli_main(["--figure", "6", "--scale", "smoke", "--jobs", "2",
                     "--sweep-log", str(log_path), "--heartbeat"]) == 0
    [segment] = read_segments(log_path, SCHEMA)
    events = [segment["meta"], *segment["records"], segment["finish"]]
    # Figure 6 smoke: p=1 one topology + p=4,16 on two topologies,
    # two policies each = 10 cells, all succeeding.
    assert events[0] == {"ev": "sweep.start", "schema": SCHEMA,
                         "total": 10, "jobs": 2, "t": events[0]["t"]}
    finishes = [e for e in events if e["ev"] == "cell.finish"]
    assert len(finishes) == 10
    assert all(e["wall_s"] > 0 for e in finishes)
    assert all(e["figure"] == 6 for e in finishes)
    assert events[-1]["ok"] == 10 and events[-1]["failed"] == 0
    assert len(events[-1]["slowest"]) == 5
    err = capsys.readouterr().err
    assert "sweep 10/10" in err
    assert "slowest cells:" in err


def test_cli_stdout_is_byte_identical_with_and_without_observers(
        capsys, tmp_path):
    """The acceptance criterion: observers cost nothing on stdout."""
    import re

    def strip_timing(text):
        # The "(1.2s)" per-figure timing is host wall-clock and varies
        # between any two runs, observed or not.
        return re.sub(r"\(\d+\.\d+s\)", "(Xs)", text)

    assert cli_main(["--figure", "6", "--scale", "smoke",
                     "--no-heartbeat"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli_main(["--figure", "6", "--scale", "smoke", "--heartbeat",
                     "--sweep-log", str(tmp_path / "s.jsonl")]) == 0
    observed = capsys.readouterr()
    assert strip_timing(observed.out) == strip_timing(plain.out)
    assert observed.err != ""
