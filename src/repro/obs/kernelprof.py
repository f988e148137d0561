"""Kernel self-profiler: where the *simulator itself* spends its time.

Every other observability layer in :mod:`repro.obs` looks at the
*simulated* multicomputer — simulated seconds, simulated queues.  This
module profiles the Python engine executing the simulation: real
wall-clock per event type, callback-site cost, agenda (event heap)
pressure, resource-queue and network-hop activity, and (optionally)
allocation attribution.  It is the measurement baseline that makes
kernel optimisation work gateable: a hot-path rewrite must move these
numbers, not vibes.

Usage::

    from repro.obs.kernelprof import kernel_profile

    with kernel_profile() as kp:
        system = MulticomputerSystem(config, policy)
        system.run_batch(batch)
    doc = kp.document()          # the repro-kernelprof/1 JSON document
    print(format_kernelprof(doc))

Design contract:

- **Zero-cost when off.**  The profiler installs itself into a
  process-global slot (:func:`repro.sim.environment.set_kernel_profiler`)
  that every :class:`~repro.sim.environment.Environment` captures at
  construction.  With no profiler installed the event loop pays one
  attribute load per call — the same guard discipline as telemetry —
  and the simulated trajectory is byte-identical either way, because
  the profiler only reads host clocks and updates host-side tallies.
- **Low overhead when on.**  Even one dict operation per event costs a
  measurable fraction of the cheapest whole events, so the hot path
  pays one countdown per sampling gap.  Everything attributable is
  *sampled*: when the countdown expires the event lands in one of two
  alternating streams — step-timed (per-type attribution, agenda
  depth) or callback-timed (per-callsite attribution) — with gaps
  drawn from a deterministic PRNG so periodic event patterns cannot
  alias with the sampling grid.  Exact totals come from identities
  that need no per-event hook: events from ``events_processed``
  deltas, agenda pushes from heap accounting (pops + still-queued),
  loop time from one clock pair per :meth:`Environment.run` call.
  Allocation tracing (``tracemalloc``) is opt-in because it roughly
  doubles allocation cost.  The enabled overhead is asserted below 5 %
  on the smoke scenario by the test suite.
- **Attribution is exhaustive.**  Kernel time is *measured* exactly
  (loop-level clocks) and distributed over event types by their
  sampled timing shares, so the per-type breakdown sums to the
  measured kernel time by construction — :func:`validate_kernelprof`
  enforces ≥ 90 % agreement (float rounding aside) and the CI smoke
  job checks it on a real run.  Per-type event counts are the exact
  event total apportioned by sampled frequency (largest-remainder, so
  they sum to the total exactly); types rarer than the sampling rate
  may be missing from the breakdown, which is the standard sampling
  trade-off.  Bare callback entries (``env.call_in`` / ``env.kick``)
  report as one event type, ``Callback``; their callback sites carry
  the method's qualified name like any other callback.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc

from repro.obs.metrics import Histogram, log_boundaries
from repro.sim import environment as _environment

#: Document schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-kernelprof/1"

#: Agenda/queue depth bucket upper bounds (1 .. 10^6 in quarter-decade
#: steps) — the same :func:`log_boundaries` geometry as every other
#: histogram in the metrics registry, so depth distributions from
#: different runs merge exactly.
DEPTH_BOUNDARIES = log_boundaries(0, 6, 4)

#: Step/callback timing happens on one event in this many (default).
#: A sampled step costs roughly a microsecond (clock reads, histogram
#: update, callsite naming), so at 1/64 per stream the expected cost is
#: ~2 % of even the cheapest event mixes while a smoke-sized run still
#: collects thousands of samples.
DEFAULT_SAMPLE_EVERY = 64

#: A throughput time-series point is cut every this many events.
DEFAULT_TIMELINE_EVERY = 8192

#: Keys every ``repro-kernelprof/1`` document must carry.
_REQUIRED_KEYS = (
    "schema", "wall_s", "kernel_s", "coverage", "events",
    "events_per_sec", "environments", "sample_every", "sampled_events",
    "callback_sampled_events", "event_types", "callback_sites", "agenda",
    "queues", "counters", "timeline", "allocations",
)

_AGENDA_KEYS = ("pushes", "pops", "max_depth", "p50_depth", "p99_depth",
                "depth_samples")

_NS = 1e-9


_DIGITS = str.maketrans("", "", "0123456789")


def _strip_digits(name):
    """Group process names by dropping instance digits: ``pkt12.3`` → ``pkt.``.

    ``str.translate`` with a deletion table runs in C — this is called
    from the sampled callback-timing stream, where a per-character
    Python loop would dominate the very cost being measured.
    """
    return name.translate(_DIGITS) or "?"


def _site_name(callback):
    """Stable attribution label for one callback.

    Plain functions and classmethods report their qualified name
    (``Condition._check``, ``_StopSimulation.callback``); a bound method
    of a named object — in practice :class:`~repro.sim.events.Process`
    resumptions — additionally carries its digit-stripped name group, so
    ``Process._resume[job-mm]`` separates one job family's resumptions
    from another's without exploding cardinality.  (Packet transit shows
    up as ``_PacketWalker.*`` sites since the fast-path pass replaced
    per-packet processes with callback walkers — see GUIDE §15.)
    """
    qual = getattr(callback, "__qualname__", None) or type(callback).__name__
    obj = getattr(callback, "__self__", None)
    if obj is not None and not isinstance(obj, type):
        name = getattr(obj, "name", None)
        if isinstance(name, str):
            return f"{qual}[{_strip_digits(name)}]"
    return qual


class KernelProfiler:
    """Low-overhead self-profiler of the discrete-event kernel.

    Create one, :meth:`start` it (or use the :func:`kernel_profile`
    context manager), run simulations, :meth:`stop` it, then read
    :meth:`document` / :meth:`summary`.  One profiler aggregates across
    every environment created while it is installed — a figure sweep's
    many per-cell environments land in one breakdown.

    Parameters
    ----------
    sample_every:
        Average number of events between two samples of the same
        stream: one stream times whole steps (per-type attribution +
        agenda depth), the alternating other times individual callbacks
        (callsite attribution).  Gaps are drawn from a deterministic
        PRNG (mean ``sample_every / 2`` between consecutive samples) so
        a model whose event pattern repeats with some fixed period can
        never hide a type from the sampler.  ``1`` samples every event,
        still alternating the two streams.  The first event is always
        sampled, so any run with events has a non-empty breakdown.
    timeline_every:
        Cut an events/sec time-series point every this many events
        (``0``/``None`` disables the timeline; marks land on sampled
        events, so the spacing is approximate).
    memory:
        Enable sampled ``tracemalloc`` + ``gc`` allocation attribution.
        Off by default: tracing allocations costs far more than the
        <5 % profiling budget.
    memory_top:
        How many top allocation sites to keep when ``memory`` is on.
    """

    def __init__(self, sample_every=DEFAULT_SAMPLE_EVERY,
                 timeline_every=DEFAULT_TIMELINE_EVERY, memory=False,
                 memory_top=15):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.timeline_every = timeline_every or 0
        self.memory = memory
        self.memory_top = memory_top
        #: Environments that captured this profiler at construction (or
        #: were attached explicitly), each with its events-processed
        #: baseline.  Held strongly: the exact event and push totals are
        #: computed from each one's counters (see :attr:`pops` /
        #: :attr:`pushes`) — a drained environment is a few hundred
        #: bytes, so even a many-hundred-cell sweep retains next to
        #: nothing.
        self._envs = []    # [env, events_processed baseline, handoffs baseline]
        self._pending_baseline = 0   # events already queued at attach()
        # -- hot-path state (touched from Environment.run / step) --
        self._countdown = 1         # events until the next sample;
        #                             1 so the first event is sampled
        self._stream = 0            # 0: step-timed next, 1: callbacks
        self._rng = 0x6b43a9b5      # LCG state (fixed seed)
        self._gap_limit = max(1, sample_every - 1)
        self._sampled = 0           # events with step timing
        self._cb_sampled = 0        # events with callback timing
        self.kernel_ns = 0          # measured run()-loop wall-clock
        self._types = {}   # type name -> [samples, callbacks, sampled_ns]
        self._sites = {}   # callback site -> [count, ns]
        self.max_depth = 0          # peak depth seen at sampled steps
        self._depth_hist = Histogram("kernel.agenda_depth",
                                     boundaries=DEPTH_BOUNDARIES)
        #: Next timeline mark, in units of step-timed samples (the mark
        #: check rides the sampled stream so the fast path never sees it).
        self._next_mark = (max(1, timeline_every // sample_every)
                           if timeline_every else float("inf"))
        # -- cold state -------------------------------------------------
        self._final_pops = None     # totals frozen by stop()
        self._final_pushes = None
        self._final_handoffs = None
        self._counters = {}
        self._queue_hists = {}
        self.timeline = []
        self._allocations = None
        self._t0 = None
        self._t1 = None
        self._mark_events = 0
        self._mark_ns = None
        self._prev = None
        self._started = False
        self._gc0 = 0
        self._owns_tracemalloc = False

    # -- lifecycle -------------------------------------------------------
    def start(self):
        """Install into the process-global slot and start the clocks."""
        if self._started:
            raise RuntimeError("profiler already started")
        self._started = True
        self._prev = _environment.set_kernel_profiler(self)
        if self.memory:
            self._owns_tracemalloc = not tracemalloc.is_tracing()
            if self._owns_tracemalloc:
                tracemalloc.start()
            self._gc0 = sum(s["collections"] for s in gc.get_stats())
        self._t0 = self._mark_ns = time.perf_counter_ns()
        return self

    def stop(self):
        """Uninstall, freeze the totals, and detach (idempotent).

        The exact totals are snapshot here and the profiler detaches
        from its environments, so running one of them again after the
        block neither skews this document nor keeps paying the hooks.
        """
        if not self._started:
            return self
        self._started = False
        self._t1 = time.perf_counter_ns()
        _environment.set_kernel_profiler(self._prev)
        self._final_pops = self.pops
        self._final_pushes = self.pushes
        self._final_handoffs = self.handoffs
        for env, _base, _hbase in self._envs:
            if env.kernel_profiler is self:
                env.kernel_profiler = None
        if self.timeline_every and self.pops > self._mark_events:
            self._mark(self._t1)
        if self.memory:
            self._capture_allocations()
            if self._owns_tracemalloc:
                tracemalloc.stop()
        return self

    def attach(self, env):
        """Attach to an environment created before :meth:`start`."""
        env.kernel_profiler = self
        # Its agenda may already hold events this profiler never saw
        # pushed; baseline them out of the push accounting.
        self._pending_baseline += len(env._queue)
        self._register(env)
        return env

    def _register(self, env):
        self._envs.append((env, env.events_processed, env.handoffs))

    @property
    def environments(self):
        """Environments profiled (created under, or attached to, this)."""
        return len(self._envs)

    @property
    def pops(self):
        """Exact events processed, from ``events_processed`` deltas.

        The event loop already counts every pop for its own budget
        guards, so the profiler reads those counters instead of keeping
        a duplicate one in the hot path.
        """
        if self._final_pops is not None:
            return self._final_pops
        return sum(env.events_processed - base
                   for env, base, _hbase in self._envs)

    @property
    def handoffs(self):
        """Exact events dispatched by direct handoff (never enqueued).

        Read from each environment's ``handoffs`` counter, like
        :attr:`pops`.  A handed-off event counts in ``events_processed``
        but never touches the agenda heap, so these are subtracted from
        the push/pop accounting below.
        """
        if self._final_handoffs is not None:
            return self._final_handoffs
        return sum(env.handoffs - hbase for env, _base, hbase in self._envs)

    @property
    def pushes(self):
        """Agenda pushes, by accounting rather than a per-push hook.

        Every event pushed onto an agenda is either popped by the loop
        or still queued, so ``pushes = heap pops + still-queued`` (minus
        the events already queued when an environment was attached
        mid-run), where heap pops are the processed events that were not
        dispatched by direct handoff.  Counting this way keeps
        :meth:`Environment.schedule` completely unhooked — the
        scheduling fast path costs the same profiled or not.
        """
        if self._final_pushes is not None:
            return self._final_pushes
        pending = sum(len(env._queue) for env, _base, _hbase in self._envs)
        return self.pops - self.handoffs + pending - self._pending_baseline

    # -- hot-path recording (called from the event loop) -----------------
    # The countdown and per-type bookkeeping live inline in
    # Environment.run / step / _step_timed / _step_callbacks_timed —
    # method-call overhead there would blow the <5% budget.  Only the
    # sampled, amortised entry points live here.
    def record_callback(self, callback, ns):
        """One individually-timed callback (sampled events only)."""
        site = _site_name(callback)
        rec = self._sites.get(site)
        if rec is None:
            rec = self._sites[site] = [0, 0]
        rec[0] += 1
        rec[1] += ns

    # -- model-layer hooks (resources, comm) -----------------------------
    def count(self, name, n=1):
        """Bump a named kernel counter (resource grants, packet hops…)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def depth(self, name, value):
        """Observe a queue depth into the named shared-geometry histogram."""
        hist = self._queue_hists.get(name)
        if hist is None:
            hist = self._queue_hists[name] = Histogram(
                name, boundaries=DEPTH_BOUNDARIES)
        hist.observe(value)

    # -- timeline / allocations ------------------------------------------
    def _mark(self, now):
        """Close the current throughput chunk into the timeline."""
        pops = self.pops
        chunk_events = pops - self._mark_events
        chunk_s = (now - self._mark_ns) * _NS
        entry = {
            "elapsed_s": (now - self._t0) * _NS,
            "events": pops,
            "events_per_sec": (chunk_events / chunk_s if chunk_s > 0
                               else 0.0),
        }
        if self.memory and tracemalloc.is_tracing():
            current, _peak = tracemalloc.get_traced_memory()
            entry["traced_kb"] = current / 1024.0
            entry["gc_collections"] = (
                sum(s["collections"] for s in gc.get_stats()) - self._gc0
            )
        self.timeline.append(entry)
        self._mark_events = pops
        self._mark_ns = now
        self._next_mark = self._sampled + max(
            1, self.timeline_every // self.sample_every)

    def _capture_allocations(self):
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        top = snapshot.statistics("lineno")[:self.memory_top]
        self._allocations = {
            "enabled": True,
            "traced_kb": current / 1024.0,
            "peak_kb": peak / 1024.0,
            "gc_collections": (sum(s["collections"]
                                   for s in gc.get_stats()) - self._gc0),
            "top": [
                {
                    "site": (f"{stat.traceback[0].filename}"
                             f":{stat.traceback[0].lineno}"),
                    "size_kb": stat.size / 1024.0,
                    "count": stat.count,
                }
                for stat in top
            ],
        }

    # -- output ----------------------------------------------------------
    def document(self):
        """The full ``repro-kernelprof/1`` JSON-serialisable document.

        The totals — events, pushes, pops, kernel seconds — are exact.
        Per-type numbers are sampled estimates: event counts are the
        exact total apportioned by sampled frequency (largest-remainder,
        so they sum to the total exactly), callback counts scale each
        type's sampled callbacks-per-event by its estimated count, and
        per-type seconds distribute the exactly measured kernel loop
        time by the sampled step-timing shares (falling back to
        frequency shares on runs too small to have produced nonzero
        timings), so the breakdown sums to ``kernel_s`` by construction.
        Event types and callback sites are emitted hottest-first (JSON
        objects preserve insertion order), so readers get the ranked
        breakdown without re-sorting.
        """
        end = self._t1 if self._t1 is not None else time.perf_counter_ns()
        wall_s = (end - self._t0) * _NS if self._t0 is not None else 0.0
        kernel_s = self.kernel_ns * _NS
        events = self.pops

        sampled_ns = sum(rec[2] for rec in self._types.values())
        sampled_total = sum(rec[0] for rec in self._types.values())

        def type_share(rec):
            if sampled_ns > 0:
                return rec[2] / sampled_ns
            return rec[0] / sampled_total  # no timings: frequency weight

        # Largest-remainder apportionment of the exact event total over
        # the sampled frequencies: integer counts that sum to `events`.
        counts = {}
        if sampled_total:
            remainders = []
            floored = 0
            for name, rec in self._types.items():
                quota = events * rec[0] / sampled_total
                counts[name] = int(quota)
                floored += int(quota)
                remainders.append((quota - int(quota), name))
            for _frac, name in sorted(remainders, reverse=True)[
                    :events - floored]:
                counts[name] += 1

        event_types = {}
        for name, rec in sorted(
                self._types.items(),
                key=lambda kv: (-type_share(kv[1]), kv[0])):
            share = type_share(rec)
            count = counts.get(name, 0)
            event_types[name] = {
                "count": count,
                "callbacks": (round(count * rec[1] / rec[0])
                              if rec[0] else 0),
                "s": kernel_s * share,
                "share": share,
            }
        sampled_ns = sum(ns for _n, ns in self._sites.values()) or 1
        callback_sites = {
            site: {
                "count": n,
                "s": ns * _NS,
                "share": ns / sampled_ns,
            }
            for site, (n, ns) in sorted(
                self._sites.items(), key=lambda kv: -kv[1][1])
        }
        hist = self._depth_hist
        return {
            "schema": SCHEMA,
            "wall_s": wall_s,
            "kernel_s": kernel_s,
            "coverage": kernel_s / wall_s if wall_s > 0 else 0.0,
            "events": events,
            "events_per_sec": events / kernel_s if kernel_s > 0 else 0.0,
            "environments": self.environments,
            "sample_every": self.sample_every,
            "sampled_events": self._sampled,
            "callback_sampled_events": self._cb_sampled,
            "event_types": event_types,
            "callback_sites": callback_sites,
            "agenda": {
                "pushes": self.pushes,
                "pops": events - self.handoffs,
                "handoffs": self.handoffs,
                "max_depth": self.max_depth,
                "p50_depth": hist.quantile(0.5),
                "p99_depth": hist.quantile(0.99),
                "depth_samples": hist.count,
            },
            "queues": {name: h.to_dict()
                       for name, h in sorted(self._queue_hists.items())},
            "counters": dict(sorted(self._counters.items())),
            "timeline": list(self.timeline),
            "allocations": (self._allocations
                            if self._allocations is not None
                            else {"enabled": False}),
        }

    def summary(self, top=8):
        """Compact per-run summary for BENCH documents.

        The subset a trajectory point needs to say *where* kernel time
        went: totals, agenda pressure, and the top-``top`` event types.
        """
        doc = self.document()
        types = dict(list(doc["event_types"].items())[:top])
        return {
            "kernel_s": doc["kernel_s"],
            "coverage": doc["coverage"],
            "events": doc["events"],
            "events_per_sec": doc["events_per_sec"],
            "pushes": doc["agenda"]["pushes"],
            "handoffs": doc["agenda"]["handoffs"],
            "max_agenda_depth": doc["agenda"]["max_depth"],
            "p99_agenda_depth": doc["agenda"]["p99_depth"],
            "event_types": {
                name: {"count": rec["count"], "s": rec["s"],
                       "share": rec["share"]}
                for name, rec in types.items()
            },
        }

    def __repr__(self):
        return (f"<KernelProfiler events={self.pops} "
                f"kernel_s={self.kernel_ns * _NS:.3f} "
                f"types={len(self._types)}>")


class kernel_profile:
    """Context manager: profile every environment created in the block.

    ::

        with kernel_profile() as kp:
            run_figure(spec, scale)
        doc = kp.document()

    Accepts :class:`KernelProfiler`'s keyword arguments.  On exit the
    previously installed profiler (usually none) is restored, so blocks
    nest and exceptions cannot leave the process-global slot populated.
    """

    def __init__(self, **kwargs):
        self.profiler = KernelProfiler(**kwargs)

    def __enter__(self):
        return self.profiler.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.profiler.stop()
        return None


# ---------------------------------------------------------------------------
# Document validation / IO
# ---------------------------------------------------------------------------

def validate_kernelprof(doc):
    """Validate a ``repro-kernelprof/1`` document; returns it.

    Checks the schema tag, required keys, and the core accounting
    invariants: per-type counts sum to the event total, and the
    per-type wall-clock breakdown sums to at least 90 % of the measured
    kernel time (it is 100 % by construction; the slack absorbs float
    rounding in serialised documents).  Raises ``ValueError`` on any
    violation — truncated or hand-edited documents must not pass a CI
    gate silently.
    """
    if not isinstance(doc, dict):
        raise ValueError("kernelprof document must be a JSON object")
    from repro.obs.schemas import check_schema

    check_schema(doc.get("schema"), SCHEMA, "kernelprof")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ValueError(f"kernelprof document missing {key!r}")
    agenda = doc["agenda"]
    for key in _AGENDA_KEYS:
        if key not in agenda:
            raise ValueError(f"kernelprof agenda section missing {key!r}")
    types = doc["event_types"]
    if not isinstance(types, dict):
        raise ValueError("event_types must be an object")
    for name, rec in types.items():
        for key in ("count", "callbacks", "s", "share"):
            if key not in rec:
                raise ValueError(
                    f"event type {name!r} record missing {key!r}")
    events = doc["events"]
    if events > 0 and not types:
        raise ValueError(
            f"{events} events processed but the per-event-type "
            f"breakdown is empty"
        )
    type_count = sum(rec["count"] for rec in types.values())
    if type_count != events:
        raise ValueError(
            f"event_types counts sum to {type_count}, but {events} "
            f"events were processed"
        )
    kernel_s = doc["kernel_s"]
    type_s = sum(rec["s"] for rec in types.values())
    if kernel_s > 0 and not (0.9 * kernel_s <= type_s
                             <= kernel_s * (1 + 1e-6)):
        raise ValueError(
            f"event-type breakdown sums to {type_s:.6f}s but measured "
            f"kernel time is {kernel_s:.6f}s (must cover >= 90%)"
        )
    # Handed-off events are processed without touching the heap, so
    # heap pops + handoffs must equal the processed-event total.  The
    # ``handoffs`` key is absent from pre-handoff documents, where
    # pops == events held directly.
    if agenda["pops"] + agenda.get("handoffs", 0) != events:
        raise ValueError(
            f"agenda pops ({agenda['pops']}) plus handoffs "
            f"({agenda.get('handoffs', 0)}) disagree with processed "
            f"events ({events})"
        )
    return doc


def load_kernelprof(path):
    """Load and validate a ``repro-kernelprof/1`` document from disk."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return validate_kernelprof(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Exports / rendering
# ---------------------------------------------------------------------------

def kernel_collapsed_lines(doc):
    """Render a kernelprof document as collapsed-stack lines.

    Same format as :func:`repro.obs.profile.collapsed_lines` (integer
    microsecond counts), so the output opens directly in speedscope or
    ``flamegraph.pl``.  Two stack families: ``kernel;dispatch;<Type>``
    carries the exhaustive per-event-type wall-clock, and
    ``kernel;callbacks;<site>`` carries the sampled per-callsite times
    scaled up by the measured sampling rate (events per
    callback-sampled event) to estimate their full-run magnitude.
    """
    agg = {}
    for name, rec in doc["event_types"].items():
        micros = int(round(rec["s"] * 1e6))
        if micros > 0:
            agg[f"kernel;dispatch;{name}"] = micros
    cb_sampled = doc.get("callback_sampled_events", 0)
    scale = doc["events"] / cb_sampled if cb_sampled else 0.0
    for site, rec in doc["callback_sites"].items():
        micros = int(round(rec["s"] * scale * 1e6))
        if micros > 0:
            agg[f"kernel;callbacks;{site}"] = micros
    return [f"{stack} {count}" for stack, count in sorted(agg.items())]


def write_kernelprof(doc, path):
    """Write a validated kernelprof document as JSON."""
    validate_kernelprof(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def format_kernelprof(doc, top=12):
    """Human-readable ranked hot-path report of one kernelprof document."""
    lines = []
    lines.append(
        f"kernel: {doc['events']} events in {doc['kernel_s']:.3f}s "
        f"({doc['events_per_sec']:,.0f} events/s; "
        f"{doc['coverage']:.0%} of the {doc['wall_s']:.3f}s window; "
        f"{doc['environments']} environment(s))"
    )
    agenda = doc["agenda"]
    lines.append(
        f"agenda: {agenda['pushes']} pushes, {agenda['pops']} pops, "
        f"{agenda.get('handoffs', 0)} handoffs, "
        f"depth max {agenda['max_depth']} "
        f"p50 {agenda['p50_depth']:g} p99 {agenda['p99_depth']:g}"
    )
    lines.append("")
    lines.append(f"{'rank':>4}  {'event type':<18} {'events':>9} "
                 f"{'callbacks':>9} {'time':>9} {'share':>7}")
    for rank, (name, rec) in enumerate(
            list(doc["event_types"].items())[:top], start=1):
        lines.append(
            f"{rank:>4}  {name:<18} {rec['count']:>9} "
            f"{rec['callbacks']:>9} {rec['s']:>8.3f}s {rec['share']:>6.1%}"
        )
    sites = list(doc["callback_sites"].items())[:top]
    if sites:
        lines.append("")
        lines.append(f"callback sites (~1/{doc['sample_every']} of events, "
                     f"{doc['callback_sampled_events']} events timed):")
        for site, rec in sites:
            lines.append(f"  {site:<34} {rec['count']:>7}x "
                         f"{rec['s'] * 1e3:>9.3f}ms {rec['share']:>6.1%}")
    if doc["counters"]:
        lines.append("")
        lines.append("counters: " + ", ".join(
            f"{name}={value}" for name, value in doc["counters"].items()))
    for name, hist in doc["queues"].items():
        lines.append(f"  {name}: n={hist['count']} p50={hist['p50']:g} "
                     f"p99={hist['p99']:g} max={hist['max']:g}")
    alloc = doc["allocations"]
    if alloc.get("enabled"):
        lines.append("")
        lines.append(
            f"allocations: {alloc['traced_kb']:.0f} KiB live, "
            f"{alloc['peak_kb']:.0f} KiB peak, "
            f"{alloc['gc_collections']} gc collections"
        )
        for entry in alloc["top"][:top]:
            lines.append(f"  {entry['site']:<52} "
                         f"{entry['size_kb']:>9.1f} KiB "
                         f"({entry['count']} blocks)")
    return "\n".join(lines)
