"""Decision ledger: why-tracing for every scheduling choice.

The profiler (:mod:`repro.obs.profile`) explains *where* each job's
response time went; this module explains *which scheduling decision put
it there*.  When enabled (``SystemConfig(decisions=True)``) a
:class:`DecisionLedger` is attached to the environment as
``env.decisions`` before any component is built — the same
construction-time binding contract as telemetry (GUIDE §15) — and every
scheduler layer reports its choices:

* **SuperScheduler** — admissions (which partition, round-robin index),
  placements (chosen partition plus the alternatives rejected and why),
  dynamic sizing (policy inputs and the chosen size), and one *deferral*
  record per stalled dispatch round (reason + queue depth).
* **PartitionScheduler** — launches (process count, quantum, placement
  offset), multiprogramming-limit pends, gang rotations.
* **LocalScheduler / Cpu** — dispatches, quantum arming mode
  (contended ``quantum`` vs ``extended``) and per-slice outcomes
  (``block_yield`` / ``quantum_expiry`` / ``preempted``).

Two cost tiers keep the overhead ceiling (≤5 %, enforced by test):
job-granular scheduler choices get full ring records (category
``"sched.decision"``, shared with the telemetry recorder when telemetry
is on so trace and decision events interleave in one buffer); per-slice
CPU outcomes are **exact counters only** — two dict operations per
slice, immune to ring eviction.

The causal payoff is :func:`queued_decomposition`: each job's
``queued`` attribution bucket is decomposed over the deferral decisions
that produced it, using the same time-axis-partition discipline as the
profiler, with the segment widths summing back to the bucket exactly
(the final segment is assigned the residual).

Records stream to a ``repro-decisions/1`` JSONL, one segment per run
via :meth:`DecisionLedger.write_segment`, in the segmented grammar of
:class:`~repro.obs.schemas.SegmentLog` /
:func:`~repro.obs.schemas.read_segments`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import Histogram
from repro.trace.recorder import TraceRecorder

#: Decisions-stream schema identifier; bump on incompatible changes.
SCHEMA = "repro-decisions/1"

#: Trace category shared by every ledger ring record.
CATEGORY = "sched.decision"

#: Ring capacity when the ledger owns its recorder (telemetry off).
DEFAULT_CAPACITY = 200_000


class DecisionLedger:
    """Exact decision counters plus a ring of job-granular records.

    ``counts`` maps ``(layer, kind, reason)`` to an exact tally that
    never loses precision to ring eviction; :attr:`total` and
    :attr:`deferrals` are O(1) cumulative totals the steady sink
    snapshots per window.  Ring records go to ``recorder`` — pass the
    telemetry recorder to share one buffer, or leave ``None`` for a
    private ring.
    """

    __slots__ = ("env", "recorder", "owns_recorder", "counts", "total",
                 "deferrals", "depth_hist", "meta")

    def __init__(self, env, capacity=DEFAULT_CAPACITY, recorder=None):
        self.env = env
        if recorder is None:
            recorder = TraceRecorder(capacity=capacity)
            self.owns_recorder = True
        else:
            self.owns_recorder = False
        self.recorder = recorder
        self.counts = {}
        self.total = 0
        self.deferrals = 0
        #: Queue depth observed at each deferral decision.
        self.depth_hist = Histogram("decisions.deferral_depth")
        self.meta = {}

    # -- recording -------------------------------------------------------
    def bump(self, key):
        """Exact counter increment; the hot-path tier (no ring record).

        ``key`` is a ``(layer, kind, reason)`` tuple.  The hottest call
        sites (per CPU slice, per burst) keep theirs as module constants
        instead of building a fresh tuple per call.
        """
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        self.total += 1

    def record(self, layer, kind, reason, subject, **detail):
        """Counter bump plus a ring record for job-granular decisions."""
        self.bump((layer, kind, reason))
        self.recorder.record(self.env.now, CATEGORY, subject,
                             layer=layer, kind=kind, reason=reason, **detail)

    def defer(self, layer, subject, reason, queue_len, **detail):
        """Record one stalled dispatch round (deferral decision)."""
        self.deferrals += 1
        self.depth_hist.observe(queue_len)
        self.record(layer, "defer", reason, subject,
                    queue_len=queue_len, **detail)

    # -- queries ---------------------------------------------------------
    def decision_events(self):
        """The surviving ring records, oldest first."""
        return [e for e in self.recorder if e.category == CATEGORY]

    def counts_sorted(self):
        """``[(layer, kind, reason, n), ...]`` sorted for stable output."""
        return [(l, k, r, n)
                for (l, k, r), n in sorted(self.counts.items())]

    def write_segment(self, log, **meta):
        """Stream the ledger as one segment of a ``repro-decisions/1``
        :class:`~repro.obs.schemas.SegmentLog`."""
        log.start(meta)
        for e in self.decision_events():
            log.write({"ev": "decision", "t": e.time, "subject": e.subject,
                       **e.detail})
        log.finish(self.summary())

    def summary(self):
        """Exact totals for run reports and the JSONL finish record."""
        events = len(self.decision_events())
        return {
            "decisions": self.total,
            "deferrals": self.deferrals,
            "events": events,
            "dropped": self.recorder.dropped,
            "deferral_depth": {
                "count": self.depth_hist.count,
                "mean": self.depth_hist.mean,
                "max": self.depth_hist.max,
            },
            "counts": [list(row) for row in self.counts_sorted()],
        }


def attach_ledger(env, capacity=None, telemetry=None):
    """Build a ledger on ``env.decisions``, sharing telemetry's ring.

    Call *before* constructing nodes/schedulers (the construction-time
    binding contract): hot components snapshot ``env.decisions`` into a
    local slot when built.
    """
    recorder = telemetry.recorder if telemetry is not None else None
    led = DecisionLedger(env, capacity=capacity or DEFAULT_CAPACITY,
                         recorder=recorder)
    env.decisions = led
    return led


# ---------------------------------------------------------------------------
# Queued-bucket decomposition (the obs.profile linkage)
# ---------------------------------------------------------------------------

def queued_decomposition(events):
    """Decompose each job's ``queued`` bucket over deferral decisions.

    ``events`` is any iterable of trace events containing the ``job.*``
    lifecycle marks and the ledger's ``sched.decision`` records (the
    shared recorder provides both).  For each job the window
    ``[submitted, dispatched]`` is cut at every super-scheduler deferral
    time inside it; each elementary segment is attributed to the latest
    deferral decision at or before its start (within the window), or to
    ``"unattributed"`` when none exists — which the tests assert never
    happens on complete traces, because every submission either
    dispatches immediately (zero-width window) or records a deferral at
    submit time.

    Exactness discipline: ``total`` is the same single float subtraction
    the profiler uses for the ``queued`` bucket, and the *last* segment
    width is assigned the residual ``total - sum(earlier widths)`` so
    the widths always sum back to the bucket exactly.

    Returns ``{job_id: {"name", "t0", "t1", "total", "by_reason",
    "segments", "deferrals"}}``.
    """
    defer_times = []
    marks = {}
    names = {}
    for e in events:
        cat = e.category
        if cat == CATEGORY:
            d = e.detail
            if d.get("layer") == "super" and d.get("kind") == "defer":
                defer_times.append((e.time, d.get("reason", "?")))
        elif cat in ("job.submitted", "job.dispatched"):
            jid = e.detail.get("job")
            if jid is None:
                continue
            marks.setdefault(jid, {}).setdefault(cat, e.time)
            names[jid] = e.subject
    defer_times.sort(key=lambda tr: tr[0])

    out = {}
    for jid, m in sorted(marks.items()):
        if "job.submitted" not in m or "job.dispatched" not in m:
            continue
        t0 = m["job.submitted"]
        t1 = m["job.dispatched"]
        total = t1 - t0  # identical floats to the profiler's bucket
        entry = {
            "name": names.get(jid, f"job{jid}"),
            "t0": t0, "t1": t1, "total": total,
            "by_reason": {}, "segments": [], "deferrals": 0,
        }
        out[jid] = entry
        if total <= 0.0:
            continue
        inside = [(t, r) for t, r in defer_times if t0 <= t <= t1]
        entry["deferrals"] = len(inside)
        cuts = sorted({t0, t1} | {t for t, _r in inside if t0 < t < t1})
        # Latest deferral at or before each segment start attributes it.
        segs = []
        for i in range(len(cuts) - 1):
            a, b = cuts[i], cuts[i + 1]
            reason = "unattributed"
            for t, r in inside:
                if t > a:
                    break
                reason = r
            segs.append([a, b, reason])
        # Merge consecutive same-reason segments, then assign the final
        # width as the residual so the sum is exact by construction.
        merged = []
        for a, b, reason in segs:
            if merged and merged[-1][2] == reason:
                merged[-1][1] = b
            else:
                merged.append([a, b, reason])
        widths = [b - a for a, b, _ in merged]
        if widths:
            widths[-1] = total - math.fsum(widths[:-1])
        by_reason = entry["by_reason"]
        for (a, b, reason), w in zip(merged, widths):
            by_reason[reason] = by_reason.get(reason, 0.0) + w
            entry["segments"].append(
                {"t0": a, "t1": b, "reason": reason, "width": w})
    return out


def check_decomposition(decomp, profiles, rel_tol=1e-9):
    """Verify the linkage invariant against a profile's jobs.

    For every job present in both: the decomposition total must equal
    the profiler's ``queued`` bucket exactly (same subtraction), the
    per-reason masses must sum back to the total within ``rel_tol``
    (time-axis-partition discipline), and no mass may be
    ``unattributed``.  Raises ``ValueError`` on the first violation;
    returns the number of jobs checked.
    """
    jobs = getattr(profiles, "jobs", profiles)
    by_id = {jp.job_id: jp for jp in jobs}
    checked = 0
    for jid, entry in decomp.items():
        jp = by_id.get(jid)
        if jp is None:
            continue
        bucket = jp.buckets.get("queued")
        if bucket is None:
            continue
        checked += 1
        if entry["total"] != bucket:
            raise ValueError(
                f"{entry['name']}: decomposition total {entry['total']!r} "
                f"!= queued bucket {bucket!r}")
        mass = math.fsum(entry["by_reason"].values())
        scale = max(abs(bucket), 1.0)
        if abs(mass - bucket) > rel_tol * scale:
            raise ValueError(
                f"{entry['name']}: reasons sum to {mass!r} but queued "
                f"bucket is {bucket!r}")
        if entry["by_reason"].get("unattributed"):
            raise ValueError(
                f"{entry['name']}: {entry['by_reason']['unattributed']!r}s "
                f"of queued time has no covering deferral decision")
    return checked


# ---------------------------------------------------------------------------
# Per-policy decision tables
# ---------------------------------------------------------------------------

def decision_table(entries):
    """Aggregate ``(label, policy, ledger)`` entries into per-policy rows.

    Returns a list of dict rows (sorted by policy) with exact decision
    counts, deferral stats, and the quantum-expiry vs block-yield ratio.
    """
    by_policy = {}
    for _label, policy, led in entries:
        row = by_policy.get(policy)
        if row is None:
            row = by_policy[policy] = {
                "policy": policy, "decisions": 0, "deferrals": 0,
                "launches": 0, "block_yield": 0, "quantum_expiry": 0,
                "preempted": 0, "depth_max": 0.0, "depth_total": 0.0,
                "depth_count": 0, "dropped": 0,
            }
        row["decisions"] += led.total
        row["deferrals"] += led.deferrals
        row["dropped"] += led.recorder.dropped
        row["depth_total"] += led.depth_hist.total
        row["depth_count"] += led.depth_hist.count
        row["depth_max"] = max(row["depth_max"], led.depth_hist.max)
        for (layer, kind, reason), n in led.counts.items():
            if kind == "launch":
                row["launches"] += n
            elif layer == "cpu" and kind == "slice":
                if reason in row:
                    row[reason] += n
    rows = []
    for policy in sorted(by_policy):
        row = by_policy[policy]
        row["depth_mean"] = (row["depth_total"] / row["depth_count"]
                             if row["depth_count"] else 0.0)
        ends = row["block_yield"] + row["quantum_expiry"]
        row["expiry_ratio"] = (row["quantum_expiry"] / ends) if ends else 0.0
        rows.append(row)
    return rows


def format_decision_table(rows):
    """Render :func:`decision_table` rows as an aligned text table."""
    header = (f"{'policy':<12} {'decisions':>9} {'defers':>7} "
              f"{'depth':>7} {'launch':>7} {'yield':>8} {'expiry':>8} "
              f"{'preempt':>8} {'exp%':>6}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['policy']:<12} {r['decisions']:>9} {r['deferrals']:>7} "
            f"{r['depth_mean']:>7.2f} {r['launches']:>7} "
            f"{r['block_yield']:>8} {r['quantum_expiry']:>8} "
            f"{r['preempted']:>8} {100.0 * r['expiry_ratio']:>5.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL stream (repro-decisions/1)
# ---------------------------------------------------------------------------

def _check_decisions_record(record, segment):
    """``repro-decisions/1`` rules for one body or finish record.

    Decision times must not regress within a segment and every decision
    names its layer, kind and reason.  The finish record's ``counts``
    rows must sum to its exact ``decisions`` total, which may exceed
    the streamed line count (ring drops, counter-only CPU slices) but
    never fall below it.
    """
    records = segment["records"]
    if record["ev"] == "decision":
        t = record.get("t")
        if not isinstance(t, (int, float)):
            raise ValueError("decision has no numeric t")
        if records and t < records[-1]["t"]:
            raise ValueError(f"decision time {t} regresses below "
                             f"{records[-1]['t']}")
        for key in ("layer", "kind", "reason"):
            if not isinstance(record.get(key), str):
                raise ValueError(f"decision missing {key!r}")
        return
    for key in ("decisions", "deferrals", "dropped"):
        if not isinstance(record.get(key), int) or record[key] < 0:
            raise ValueError(f"finish missing non-negative {key!r}")
    counts = record.get("counts")
    if not isinstance(counts, list) or any(
            not (isinstance(row, list) and len(row) == 4
                 and isinstance(row[3], int))
            for row in counts):
        raise ValueError("finish counts must be [layer, kind, reason, n] "
                         "rows")
    total = sum(row[3] for row in counts)
    if total != record["decisions"]:
        raise ValueError(f"finish counts sum to {total} but decisions "
                         f"is {record['decisions']}")
    if record["decisions"] < len(records):
        raise ValueError(f"finish reports {record['decisions']} decisions "
                         f"but the segment streamed {len(records)}")
