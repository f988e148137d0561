"""The simulation environment: clock, agenda, and event loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from sys import getrefcount
from time import perf_counter_ns
from types import MethodType

from repro.sim.events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)
from repro.sim.exceptions import EmptySchedule, SimulationError

#: Process-global kernel self-profiler (see
#: :mod:`repro.obs.kernelprof`).  Environments capture it at
#: construction time, so installing a profiler before building a system
#: profiles every environment the run creates — without threading a
#: parameter through every layer.  ``None`` means profiling is off and
#: the event loop takes its unobserved fast path.
_KERNEL_PROFILER = None

#: Agenda keys pack ``(priority, sequence)`` into one integer:
#: ``(priority << _PRIORITY_SHIFT) | seq``.  With priorities limited to
#: URGENT (0) and NORMAL (1) and the monotone sequence far below 2**56
#: for any feasible run, integer comparison of the packed key is
#: exactly the lexicographic comparison of the old ``(priority, seq)``
#: tuple tail — same total order, one less tuple slot per entry and one
#: comparison instead of up to two during heap sifts.
_PRIORITY_SHIFT = 56
_SEQ_MASK = (1 << _PRIORITY_SHIFT) - 1
_NORMAL_BASE = NORMAL << _PRIORITY_SHIFT

#: Maximum nesting depth of direct handoffs (see
#: :meth:`Environment.handoff`).  Each handoff dispatches its waiters on
#: the Python call stack instead of through the agenda; long completion
#: chains (a CPU slice resuming a process that completes another slice,
#: …) therefore consume stack frames.  Past this depth handoff falls
#: back to ordinary scheduling, bounding stack growth without changing
#: behaviour.
_HANDOFF_LIMIT = 64

#: Class of a *bare* agenda entry: a bound method scheduled by
#: :meth:`Environment.call_in` or :meth:`Environment.kick` in place of an
#: event, and called with its agenda key.  The run loops tell the two
#: kinds of entry apart by this one class-identity test.
_BARE = MethodType

#: Event-type name under which the kernel profiler files bare entries.
_BARE_TYPE = "Callback"

#: :meth:`Environment._dispatch` limit for "until the agenda empties": a
#: pop count never reaches it.  An int, not ``None``, because the loop
#: tests it every event and an int ``!=`` is cheaper than one on None.
_UNBOUNDED = -1


def set_kernel_profiler(profiler):
    """Install (or, with ``None``, clear) the process-global profiler.

    Returns the previously installed profiler so callers can restore
    it — :func:`repro.obs.kernelprof.kernel_profile` uses this to nest
    and to guarantee deactivation on exit.  Only environments created
    *after* installation pick the profiler up; attach it to an existing
    environment with :meth:`KernelProfiler.attach`.
    """
    global _KERNEL_PROFILER
    previous = _KERNEL_PROFILER
    _KERNEL_PROFILER = profiler
    return previous


def active_kernel_profiler():
    """The currently installed process-global kernel profiler, if any."""
    return _KERNEL_PROFILER


class _StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`."""

    def __init__(self, event):
        super().__init__(event)
        self.event = event

    @classmethod
    def callback(cls, event):
        raise cls(event)


#: The one stop-callback object :meth:`Environment.run` parks on its
#: ``until`` event.  A single shared bound method (rather than a fresh
#: one per ``run`` call) lets :meth:`Environment.handoff` refuse to
#: dispatch a stop synchronously with an identity-fast membership test.
_STOP_CB = _StopSimulation.callback


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment maintains the simulated clock (:attr:`now`) and an
    agenda of triggered events ordered by ``(time, priority, sequence)``
    — stored as ``(time, packed_key, event)`` heap entries, where the
    packed key folds priority and sequence into one integer (see
    ``_PRIORITY_SHIFT``).  Processing an event runs its callbacks, which
    typically resume waiting processes, which trigger further events,
    and so on.  An entry may also hold a bare bound method in place of
    the event (see :meth:`call_in`); processing it calls the method with
    the entry's key.

    Determinism: the monotone sequence number guarantees FIFO processing
    of same-time, same-priority events, so repeated runs of the same
    model produce identical traces.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (default ``0.0``).
    """

    def __init__(self, initial_time=0.0):
        self._now = initial_time
        # heap of (time, (priority << 56) | seq, event or bound method)
        self._queue = []
        self._seq = count()
        self._active_process = None
        #: Number of events processed so far (useful for budget guards
        #: and performance reporting).  Includes direct handoffs — a
        #: handed-off event's callbacks ran, so it was processed; see
        #: :attr:`handoffs` for how many skipped the agenda.
        self.events_processed = 0
        #: Events completed via :meth:`handoff` (no agenda round-trip).
        #: The kernel profiler derives exact heap pops as
        #: ``events_processed - handoffs``.
        self.handoffs = 0
        #: True while the callback currently being dispatched is the
        #: *last* (or only) callback of its event — the only position
        #: from which :meth:`handoff` may dispatch synchronously without
        #: reordering the event's remaining callbacks.  Maintained by
        #: every dispatch loop.
        self._tail_ok = True
        self._handoff_depth = 0
        #: Optional :class:`repro.obs.Telemetry` sink for this run.
        #: ``None`` means telemetry is off; instrumentation sites guard
        #: on it, so recording costs nothing when disabled.
        self.telemetry = None
        #: Optional :class:`repro.obs.decisions.DecisionLedger` recording
        #: scheduling choices.  ``None`` means the ledger is off; every
        #: recording site guards on it (hot components snapshot it at
        #: construction), so decisions cost nothing when disabled.
        self.decisions = None
        self._free_timeouts = []
        #: Optional :class:`repro.obs.kernelprof.KernelProfiler`
        #: measuring the *host* cost of this environment's event loop.
        #: Captured from the process-global slot at construction;
        #: ``run`` and ``step`` guard on it once per call.
        self.kernel_profiler = kp = _KERNEL_PROFILER
        if kp is not None:
            kp._register(self)

    # -- introspection ---------------------------------------------------
    @property
    def now(self):
        """The current simulated time."""
        return self._now

    @property
    def active_process(self):
        """The process currently being advanced, if any."""
        return self._active_process

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event factories ---------------------------------------------------
    def event(self):
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` that fires after ``delay``.

        Timeouts dominate most models' event mix, so this is the hottest
        allocation site in the kernel: when the free list has a recycled
        instance, reinitialise it inline (same validation and scheduling
        as ``Timeout.__init__``) instead of allocating.
        """
        free = self._free_timeouts
        if free:
            if delay < 0 or delay != delay:
                raise ValueError(f"invalid delay {delay}")
            event = free.pop()
            event.delay = delay
            event.callbacks = []
            event._value = value
            event._defused = False
            heappush(self._queue,
                     (self._now + delay, _NORMAL_BASE | next(self._seq),
                      event))
            return event
        return Timeout(self, delay, value)

    def call_in(self, delay, callback):
        """Schedule the bound method ``callback`` to run after ``delay``.

        For model code that never yields the timer, this does what
        ``timeout(delay).callbacks.append(callback)`` does without the
        event: the agenda holds the bound method itself as a NORMAL
        entry, and the run loop calls it as ``callback(key)``.  Returns
        ``key``, the entry's agenda key, which is unique, so a caller can
        recognise (and ignore) an entry it has since abandoned.  Same
        delay validation as :meth:`timeout`, and the sequence number is
        drawn at the call as ``timeout`` draws its own, so entries of
        both kinds share one same-time FIFO order.
        """
        if delay < 0 or delay != delay:
            raise ValueError(f"invalid delay {delay}")
        key = _NORMAL_BASE | next(self._seq)
        heappush(self._queue, (self._now + delay, key, callback))
        return key

    def kick(self, callback):
        """Schedule the bound method ``callback`` to run once, urgently,
        at the current time.

        Starts processes and callback-driven state machines (see
        :class:`~repro.comm.network.Network`).  Pushes a bare URGENT
        entry (the packed key is the bare sequence number); the run loop
        calls ``callback(key)``.  Returns the key.
        """
        key = next(self._seq)
        heappush(self._queue, (self._now, key, callback))
        return key

    def process(self, generator, name=None):
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Condition that succeeds once all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Condition that succeeds once any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event, priority=NORMAL, delay=0.0):
        """Place a triggered ``event`` on the agenda after ``delay``.

        Deliberately unhooked: the kernel profiler derives push counts
        from the heap identity (every push is eventually popped or
        still queued) and samples agenda depth at timed steps, so the
        scheduling fast path costs the same profiled or not.
        """
        heappush(self._queue,
                 (self._now + delay,
                  (priority << _PRIORITY_SHIFT) | next(self._seq), event))

    def handoff(self, event, value=None):
        """Succeed ``event``; run its callbacks now if ordering permits.

        The direct-handoff fast path: when a completion is the last
        thing the currently dispatched callback does (*tail position*)
        and nothing else on the agenda is due at the current time,
        scheduling the event and popping it as the very next step is
        observably identical to dispatching its callbacks right here —
        same callback order, same clock — but costs a heap push, a heap
        pop and a loop iteration.  This method takes the shortcut when
        every guard holds and falls back to ordinary scheduling
        otherwise, so callers never depend on it for correctness.

        Guards (all conservative):

        - the caller must be in tail position, i.e. the loop's
          :attr:`_tail_ok` flag is set — a handoff from a non-final
          callback of a multi-callback event would run the waiters
          before the event's remaining callbacks;
        - the agenda must be empty or its head strictly in the future —
          a same-time entry was sequenced earlier and must run first;
        - the nesting depth must be under ``_HANDOFF_LIMIT`` (handoffs
          consume Python stack);
        - none of the callbacks may be :meth:`run`'s stop callback —
          raising ``_StopSimulation`` mid-model-code would skip the
          caller's remaining work;
        - the event must have callbacks at all (a fire-and-forget event
          must still be *processed* later for ``triggered``/``processed``
          semantics, so it takes the agenda).

        A handed-off event counts in :attr:`events_processed` (its
        callbacks ran) and in :attr:`handoffs` (it skipped the heap), so
        throughput metrics and agenda accounting both stay exact.
        """
        if event._value is not PENDING:
            raise SimulationError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        queue = self._queue
        callbacks = event.callbacks
        if (callbacks and self._tail_ok
                and self._handoff_depth < _HANDOFF_LIMIT
                and (not queue or queue[0][0] > self._now)
                and _STOP_CB not in callbacks):
            event.callbacks = None
            self.events_processed += 1
            self.handoffs += 1
            self._handoff_depth += 1
            try:
                n = len(callbacks)
                if n == 1:
                    callbacks[0](event)
                else:
                    self._tail_ok = False
                    n -= 1
                    for callback in callbacks[:n]:
                        callback(event)
                    self._tail_ok = True
                    callbacks[n](event)
            finally:
                self._handoff_depth -= 1
            return event
        heappush(queue,
                 (self._now, _NORMAL_BASE | next(self._seq), event))
        return event

    def step(self):
        """Process the next scheduled event.

        Under the kernel self-profiler the common case pays only a
        countdown decrement; when the countdown expires the step is
        taken by :meth:`_step_sampled` instead.  The profiler only reads
        host clocks and updates its own tallies, so the simulated
        trajectory is the same either way.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        kp = self.kernel_profiler
        if kp is not None:
            k = kp._countdown - 1
            if k <= 0:
                return self._step_sampled(kp)
            kp._countdown = k
        self._dispatch(1)

    def _dispatch(self, limit):
        """The event loop: pop and dispatch up to ``limit`` entries.

        ``_UNBOUNDED`` runs until the agenda is empty.  Per-event
        attribute loads are hoisted into locals.  The event
        counter is accumulated locally and flushed in the ``finally``
        (once per consumed event, even when a callback raises); the
        profiler reads it only between calls.  Handoffs count
        themselves (see :meth:`handoff`), not toward ``limit``.
        """
        queue = self._queue
        pop = heappop
        refs = getrefcount
        free_timeouts = self._free_timeouts
        timeout_cls = Timeout
        bare = _BARE
        n = 0
        try:
            while n != limit:
                try:
                    self._now, key, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events") from None
                n += 1
                cls = event.__class__
                if cls is bare:
                    # A bare entry is its own single callback, so the
                    # tail flag stays True, as for a one-callback event.
                    event(key)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                # Tail-flag discipline (here and in the callback-timed
                # step): the flag is True while the callback being
                # dispatched is the last of its event, which is what
                # licenses :meth:`handoff`'s shortcut.  The
                # single-callback case — the overwhelming majority —
                # leaves the flag untouched (it is True between events).
                ncb = len(callbacks)
                if ncb == 1:
                    callbacks[0](event)
                elif ncb:
                    self._tail_ok = False
                    ncb -= 1
                    for callback in callbacks[:ncb]:
                        callback(event)
                    self._tail_ok = True
                    callbacks[ncb](event)
                # Pool a Timeout for :meth:`timeout` only when this loop
                # holds the sole references (local + probe argument ==
                # 2): no model code kept a handle, so reuse cannot be
                # observed.  A Timeout is always ok: no failure check.
                if cls is timeout_cls:
                    if refs(event) == 2:
                        event._value = None
                        free_timeouts.append(event)
                elif not event._ok and not event._defused:
                    # Unhandled failure: surface it, don't pass silently.
                    raise event._value
        finally:
            self.events_processed += n

    def _step_sampled(self, kp):
        """One sampled step: draw the next gap, alternate the streams.

        All per-type attribution is *sampled*, because even one dict
        operation per event costs a measurable fraction of the cheapest
        whole events.  A sampled event lands in one of two alternating
        streams — a step-timed stream (dispatch clocked, attributed to
        the event's type; agenda depth observed) and a callback-timed
        stream (each callback clocked individually for callsite
        attribution) — kept separate so clock reads never pollute each
        other.  Exact totals come from elsewhere: events from
        ``events_processed`` deltas, pushes from heap accounting, loop
        time from :meth:`run`'s clocks.
        """
        # Deterministic 31-bit LCG (glibc constants — small ints keep
        # the arithmetic cheap): randomised gaps mean a model whose
        # event stream repeats with period p can never line up with the
        # sampling so that one event type soaks up every sample.  Mean
        # gap == sample_every / 2 per draw, and the two streams
        # alternate, so each stream samples roughly one event in
        # sample_every.
        rng = (kp._rng * 1103515245 + 12345) & 0x7FFFFFFF
        kp._rng = rng
        kp._countdown = 1 + (rng >> 16) % kp._gap_limit
        if kp._stream == 0:
            kp._stream = 1
            return self._step_timed(kp)
        kp._stream = 0
        return self._step_callbacks_timed(kp)

    def _step_timed(self, kp):
        """Sampled step: time one dispatch, charge the event's type."""
        queue = self._queue
        depth = len(queue)  # pre-pop agenda depth
        if not depth:
            raise EmptySchedule("no scheduled events")
        if depth > kp.max_depth:
            kp.max_depth = depth
        kp._depth_hist.observe(depth)
        kp._sampled += 1
        rec = self._charge(kp, queue[0][2])[0]
        t0 = perf_counter_ns()
        try:
            self._dispatch(1)
        finally:
            # finally: a raising callback still gets its time charged.
            t1 = perf_counter_ns()
            rec[2] += t1 - t0
            if kp.timeline_every and kp._sampled >= kp._next_mark:
                kp._mark(t1)

    def _step_callbacks_timed(self, kp):
        """Sampled step: time each callback, charge its callsite."""
        try:
            self._now, key, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        self.events_processed += 1
        kp._cb_sampled += 1
        callbacks = self._charge(kp, event)[1]
        if event.__class__ is _BARE:
            arg = key
        else:
            arg, event.callbacks = event, None
        last = len(callbacks) - 1
        if last > 0:
            self._tail_ok = False
        for i, callback in enumerate(callbacks):
            if i == last:
                self._tail_ok = True
            c0 = perf_counter_ns()
            callback(arg)
            kp.record_callback(callback, perf_counter_ns() - c0)
        if arg is event and not event._ok and not event._defused:
            raise event._value

    @staticmethod
    def _charge(kp, entry):
        """Count a sampled entry under its type: ``(record, callbacks)``.

        A bare entry is its own one callback, filed under ``Callback``."""
        if entry.__class__ is _BARE:
            name, callbacks = _BARE_TYPE, (entry,)
        else:
            name, callbacks = entry.__class__.__name__, entry.callbacks
        rec = kp._types.get(name)
        if rec is None:
            rec = kp._types[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += len(callbacks)
        return rec, callbacks

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the agenda is empty;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed, then
            return its value (re-raising its exception if it failed).
        """
        if until is not None:
            if not isinstance(until, Event):
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                until = Event(self)
                until._ok = True
                until._value = None
                # URGENT so the deadline fires before same-time NORMAL
                # model events (URGENT == 0, so the packed key is the
                # bare sequence number).  The sequence number comes from
                # the same monotone counter as every other agenda entry:
                # a hard-coded sentinel (e.g. -1) could tie with another
                # same-time deadline and fall through to comparing the
                # Event objects themselves, breaking the class's
                # determinism guarantee.
                heappush(self._queue, (at, next(self._seq), until))
            elif until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_STOP_CB)

        # When profiling, the whole event loop is timed here — two clock
        # reads per run() call instead of two per event — which is what
        # lets the per-event hooks stay cheap enough for the <5%
        # overhead budget (per-type timings are sampled and extrapolated
        # against this exactly measured total).
        kp = self.kernel_profiler
        t0 = perf_counter_ns() if kp is not None else 0
        try:
            if kp is None:
                self._dispatch(_UNBOUNDED)
            else:
                # Chunks of ``countdown - 1`` plain pops, each followed
                # by one sampled step.  A chunk cut short carries
                # ``countdown - pops`` (pops = events - handoffs), so
                # the same events are sampled as by :meth:`step`.
                while True:
                    k = kp._countdown - 1
                    if k > 0:
                        pops = self.events_processed - self.handoffs
                        try:
                            self._dispatch(k)
                        finally:
                            kp._countdown -= (self.events_processed
                                              - self.handoffs - pops)
                    self._step_sampled(kp)
        except _StopSimulation as stop:
            ev = stop.event
            if ev._ok:
                return ev._value
            raise ev._value from None
        except EmptySchedule:
            if until is not None and until.callbacks is not None:
                raise SimulationError(
                    "simulation ran out of events before `until` fired"
                ) from None
            return None
        finally:
            if kp is not None:
                kp.kernel_ns += perf_counter_ns() - t0

    def run_all(self, max_events=None):
        """Run until the agenda is empty, optionally bounding event count.

        Returns the number of events processed during this call.  A
        ``max_events`` bound turns runaway models into a diagnosable
        :class:`SimulationError` instead of a hang.  The bound is checked
        before every step, so a model without direct handoffs stops
        after exactly ``max_events`` events; a step whose callbacks hand
        off further completions (see :meth:`handoff`) can carry the
        count past the bound by those.
        """
        start = self.events_processed
        kp = self.kernel_profiler
        step = self.step
        t0 = perf_counter_ns() if kp is not None else 0
        try:
            while self._queue:
                if (max_events is not None
                        and self.events_processed - start >= max_events):
                    raise SimulationError(f"exceeded {max_events} events")
                step()
        finally:
            if kp is not None:
                kp.kernel_ns += perf_counter_ns() - t0
        return self.events_processed - start

    def __repr__(self):
        return f"<Environment now={self._now} queued={len(self._queue)}>"
