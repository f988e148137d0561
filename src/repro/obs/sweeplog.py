"""Live sweep meta-observability: JSONL event stream + heartbeat.

Long ``--jobs N`` figure sweeps used to be silent until the final
table.  This module watches the sweep *itself* (not the simulation): an
observer receives structured callbacks from the grid executors —
sweep start, per-cell finish/retry/error, sweep finish — and renders
them as

- :class:`SweepLog` — one JSON object per line (``repro-sweep/1``),
  with per-cell host wall-clock, worker pid, and trace events/sec, for
  machines (:func:`repro.obs.schemas.read_segments` round-trips it);
- :class:`Heartbeat` — a single self-overwriting terminal line with
  completed/total cells, the running completion rate, and an ETA, plus
  a slowest-cells ranking when the sweep finishes.  It writes to
  ``stderr`` only, so stdout (tables, CSVs) stays byte-identical with
  or without it.

Observers are strictly host-side: they never touch the simulation, and
the executors skip every hook when no observer is installed, so a sweep
without one runs exactly the code it ran before.
"""

from __future__ import annotations

import sys
import time

from repro.obs.schemas import SegmentLog

#: Sweep-log schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-sweep/1"

#: Entries in the slowest-cells ranking of the final summary.
DEFAULT_RANKING = 5


def _task_fields(task):
    """The identifying fields of a cell task dict, JSON-ready."""
    return {
        "figure": task.get("figure"),
        "label": (f"{task.get('partition_size')}"
                  f"{str(task.get('topology', '?'))[:1].upper()}"),
        "policy": task.get("policy_kind"),
        "topology": task.get("topology"),
        "partition_size": task.get("partition_size"),
    }


class SweepObserver:
    """No-op base class: the callbacks a sweep emits, in order.

    ``index`` is the cell's position in enumeration order; ``task`` is
    the :func:`repro.experiments.runner.run_cell` kwargs dict of the
    cell.  Completion callbacks arrive in enumeration order (the
    executors reduce in that order), so ``index`` is monotone.
    """

    def sweep_started(self, total, jobs=1):
        """The sweep begins: ``total`` cells on ``jobs`` workers."""

    def cell_finished(self, index, task, wall_s=None, attempts=1,
                      worker=None, events_per_sec=None):
        """One cell completed (after ``attempts`` submissions)."""

    def cell_retry(self, index, task, error):
        """A cell's submission failed and is being retried."""

    def cell_failed(self, index, task, error, attempts):
        """A cell failed permanently (a structured CellError follows)."""

    def sweep_finished(self):
        """The sweep is over (regardless of failures)."""

    def close(self):
        """Release resources; no further sweeps will be observed.

        Distinct from :meth:`sweep_finished` because one observer may
        watch several consecutive sweeps (``--figure all`` runs one per
        figure)."""


class MultiObserver(SweepObserver):
    """Fan every callback out to several observers."""

    def __init__(self, observers):
        self.observers = [o for o in observers if o is not None]

    def sweep_started(self, total, jobs=1):
        for o in self.observers:
            o.sweep_started(total, jobs=jobs)

    def cell_finished(self, index, task, wall_s=None, attempts=1,
                      worker=None, events_per_sec=None):
        for o in self.observers:
            o.cell_finished(index, task, wall_s=wall_s, attempts=attempts,
                            worker=worker, events_per_sec=events_per_sec)

    def cell_retry(self, index, task, error):
        for o in self.observers:
            o.cell_retry(index, task, error)

    def cell_failed(self, index, task, error, attempts):
        for o in self.observers:
            o.cell_failed(index, task, error, attempts)

    def sweep_finished(self):
        for o in self.observers:
            o.sweep_finished()

    def close(self):
        for o in self.observers:
            o.close()


class SweepLog(SweepObserver):
    """Write the sweep's lifecycle as a ``repro-sweep/1`` segment log.

    ``target`` is a path or an open text stream (see
    :class:`~repro.obs.schemas.SegmentLog`).  Each sweep is one
    ``sweep.start`` … ``sweep.finish`` segment, the finish carrying
    totals and the slowest-cells ranking; ``--figure all`` writes one
    segment per figure.  Every record ends with ``t``, host seconds
    since the current sweep started.
    """

    def __init__(self, target, ranking=DEFAULT_RANKING):
        self._log = SegmentLog(target, SCHEMA)
        self._ranking = ranking
        self._t0 = None
        self._ok = 0
        self._failed = 0
        self._walls = []  # (wall_s, label, policy, figure)

    # -- internals -------------------------------------------------------
    def _elapsed(self):
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return time.perf_counter() - self._t0

    def _stamped(self, record):
        record["t"] = round(self._elapsed(), 6)
        return record

    # -- observer callbacks ---------------------------------------------
    def sweep_started(self, total, jobs=1):
        self._t0 = time.perf_counter()
        self._ok = 0
        self._failed = 0
        self._walls = []
        self._log.start(self._stamped({"total": total, "jobs": jobs}))

    def cell_finished(self, index, task, wall_s=None, attempts=1,
                      worker=None, events_per_sec=None):
        self._ok += 1
        rec = {"ev": "cell.finish", "i": index, **_task_fields(task),
               "attempts": attempts}
        if wall_s is not None:
            rec["wall_s"] = round(wall_s, 6)
            self._walls.append((wall_s, rec["label"], rec["policy"],
                                rec["figure"]))
        if worker is not None:
            rec["worker"] = worker
        if events_per_sec is not None:
            rec["events_per_sec"] = round(events_per_sec, 1)
        self._log.write(self._stamped(rec))

    def cell_retry(self, index, task, error):
        self._log.write(self._stamped({
            "ev": "cell.retry", "i": index, **_task_fields(task),
            "error": str(error)}))

    def cell_failed(self, index, task, error, attempts):
        self._failed += 1
        self._log.write(self._stamped({
            "ev": "cell.error", "i": index, **_task_fields(task),
            "error": str(error), "attempts": attempts}))

    def sweep_finished(self):
        slowest = sorted(self._walls, reverse=True)[:self._ranking]
        self._log.finish(self._stamped({
            "ok": self._ok, "failed": self._failed,
            "wall_s": round(self._elapsed(), 6),
            "slowest": [
                {"label": label, "policy": policy, "figure": figure,
                 "wall_s": round(wall, 6)}
                for wall, label, policy, figure in slowest
            ],
        }))

    def close(self):
        self._log.close()


class Heartbeat(SweepObserver):
    """Self-overwriting progress line + final slowest-cells ranking.

    Rendering goes to ``stream`` (default ``stderr``) and is throttled
    to one repaint per ``min_interval`` host seconds; the final state
    and the ranking always render.  ETA comes from the running rate
    (completed cells over elapsed time) — cells are similar enough in
    cost for that to be honest, and it needs no lookahead.
    """

    def __init__(self, stream=None, min_interval=0.2,
                 ranking=DEFAULT_RANKING):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._ranking = ranking
        self._total = 0
        self._done = 0
        self._failed = 0
        self._t0 = None
        self._last_paint = -1e9
        self._walls = []
        self._dirty = False

    def _paint(self, force=False):
        now = time.perf_counter()
        if not force and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        elapsed = now - (self._t0 or now)
        rate = self._done / elapsed if elapsed > 0 else 0.0
        remaining = self._total - self._done - self._failed
        eta = remaining / rate if rate > 0 else float("inf")
        eta_s = f"{eta:5.1f}s" if eta != float("inf") else "    ?"
        line = (f"\r  sweep {self._done + self._failed}/{self._total} "
                f"cells  {rate:5.2f} cells/s  ETA {eta_s}")
        if self._failed:
            line += f"  ({self._failed} FAILED)"
        self.stream.write(line)
        self.stream.flush()
        self._dirty = True

    def sweep_started(self, total, jobs=1):
        self._total = total
        self._done = 0
        self._failed = 0
        self._walls = []
        self._t0 = time.perf_counter()
        self._paint(force=True)

    def cell_finished(self, index, task, wall_s=None, attempts=1,
                      worker=None, events_per_sec=None):
        self._done += 1
        if wall_s is not None:
            fields = _task_fields(task)
            self._walls.append((wall_s, fields["label"], fields["policy"]))
        self._paint(force=self._done + self._failed == self._total)

    def cell_failed(self, index, task, error, attempts):
        self._failed += 1
        self._paint(force=True)

    def sweep_finished(self):
        if not self._dirty:
            return
        self._paint(force=True)
        self.stream.write("\n")
        slowest = sorted(self._walls, reverse=True)[:self._ranking]
        if slowest:
            ranked = ", ".join(f"{label} [{policy}] {wall:.2f}s"
                               for wall, label, policy in slowest)
            self.stream.write(f"  slowest cells: {ranked}\n")
        self.stream.flush()
        self._dirty = False
