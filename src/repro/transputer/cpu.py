"""The T805 hardware processor scheduler.

The Transputer maintains two ready queues in hardware:

- **High priority** — processes run to completion (or until they block).
  The simulator uses this level for system work: the communication
  software's per-hop store-and-forward handling and the scheduling
  machinery itself.
- **Low priority** — processes are round-robin time-shared.  The
  hardware default quantum is ~2 ms; the paper's local schedulers set
  their own per-process quantum to implement the RR-job rule
  ``Q = (P/T) * q``.  When a high-priority process becomes ready, a
  running low-priority slice is preempted at once and *the unfinished
  part of its quantum is lost* (it re-queues at the back).  One known
  deviation from the hardware: a high-priority arrival while a
  low-priority dispatch is still paying its context-switch overhead
  does not preempt — the low slice then runs its whole quantum before
  the high-priority work gets the CPU.  A second deviation has the same
  root cause: :meth:`Cpu.pause_tag` does not see a request that is
  paying its context-switch overhead, so gang scheduling's pause lets
  that request run a slice (its whole burst, if it is alone) while its
  job is descheduled.  Both are pinned as expected failures in
  ``tests/test_transputer_cpu.py``.

The public operation is :meth:`Cpu.execute`: submit a burst of
``work_seconds`` of computation at a priority (and optional per-request
quantum) and receive an event that fires when the burst has accumulated
that much CPU time.

Implementation note — event economy.  Naively emitting one event per
quantum makes big simulations needlessly slow, so when a low-priority
burst is the *only* runnable work the dispatcher grants it its entire
remaining time in one slice; any arrival interrupts the slice and the
elapsed time is credited.  This is behaviourally identical to quantum
slicing (round-robin among one process is that process running) but
collapses thousands of events into one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim import Event

#: Priority levels (match the two hardware ready queues).
HIGH = 0
LOW = 1

_EPS = 1e-12

#: Decision-ledger keys of the per-slice outcomes (counter tier; see
#: :meth:`repro.obs.decisions.DecisionLedger.bump`).
_ARM_KEYS = {
    "quantum": ("cpu", "arm", "quantum"),
    "extended": ("cpu", "arm", "extended"),
}
_SLICE_PREEMPTED = ("cpu", "slice", "preempted")
_SLICE_BLOCK_YIELD = ("cpu", "slice", "block_yield")
_SLICE_QUANTUM_EXPIRY = ("cpu", "slice", "quantum_expiry")


class WorkRequest(Event):
    """A burst of CPU work; the event fires when the burst completes."""

    __slots__ = ("priority", "remaining", "quantum", "tag", "submitted_at",
                 "started_at", "cpu_time", "slices", "proc", "ready_since",
                 "ready_kind")

    def __init__(self, cpu, work_seconds, priority, quantum, tag, proc=None):
        super().__init__(cpu.env)
        self.priority = priority
        self.remaining = float(work_seconds)
        self.quantum = quantum
        #: Opaque owner handle (job/process identity) for accounting.
        self.tag = tag
        #: Process index within the owning job (profiler attribution).
        self.proc = proc
        self.submitted_at = cpu.env.now
        self.started_at = None
        #: CPU time actually consumed so far.
        self.cpu_time = 0.0
        #: Number of dispatches this request received.
        self.slices = 0
        #: When this request last entered a ready queue, and why
        #: ("enqueue" = fresh submission, "requeue" = lost the CPU with
        #: work remaining).  The dispatcher turns the interval up to the
        #: next grant into a ``cpu.wait`` trace event.
        self.ready_since = cpu.env.now
        self.ready_kind = "enqueue"

    def __repr__(self):
        lvl = "HIGH" if self.priority == HIGH else "LOW"
        return f"<WorkRequest {lvl} rem={self.remaining:.6f} tag={self.tag!r}>"


@dataclass
class CpuStats:
    """Aggregate accounting for one CPU."""

    busy_time: float = 0.0
    high_time: float = 0.0
    low_time: float = 0.0
    overhead_time: float = 0.0
    dispatches: int = 0
    preemptions: int = 0
    completed: int = 0

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` the CPU spent doing work or overhead."""
        if elapsed <= 0:
            return 0.0
        return (self.busy_time + self.overhead_time) / elapsed


class Cpu:
    """Two-priority processor with round-robin low-priority sharing."""

    def __init__(self, env, config, node_id=None):
        self.env = env
        self.config = config
        self.node_id = node_id
        # Fast-path bindings (observability is attached to the
        # environment before the system's components are constructed;
        # see ``system.build``): with telemetry off, the dispatch loop
        # then skips the observer calls entirely instead of paying a
        # call + attribute chain per dispatch to find that out.
        self._tel = env.telemetry
        self._led = env.decisions
        self._overhead = config.context_switch_overhead
        self.stats = CpuStats()
        self._high = deque()
        self._low = deque()
        self._paused = {}            # tag -> deque of parked LOW requests
        self._wakeup = None          # pending idle-wait event
        self._running = None         # request currently holding the CPU
        self._slice_interruptible = False
        self._interrupt_requested = False
        # Dispatch runs as a callback state machine whose timers are bare
        # agenda entries (``env.call_in``): no event object per slice.
        # The bound continuations are cached once, since a fresh bound
        # method per timer would cost an allocation in the hottest model
        # path.  ``_timer`` holds the agenda key of the pending LOW slice;
        # an interrupt clears it, which orphans that entry (it still pops
        # and is counted, and ``_cb_low_end`` ignores it).
        self._cur = None             # request paying context-switch cost
        self._cur_prio = LOW
        self._timer = None           # agenda key of the pending LOW slice
        self._slice_start = 0.0
        self._slice_len = 0.0
        self._wakeup_cb = self._cb_wakeup
        self._overhead_cb = self._cb_overhead
        self._high_end_cb = self._cb_high_end
        self._low_end_cb = self._cb_low_end
        self._interrupt_cb = self._cb_interrupt
        env.kick(self._cb_boot)

    # -- public API -----------------------------------------------------
    def execute(self, work_seconds, priority=LOW, quantum=None, tag=None,
                proc=None):
        """Submit a computation burst; returns its completion event.

        Parameters
        ----------
        work_seconds:
            CPU time the burst needs (seconds).
        priority:
            :data:`HIGH` (run to completion, preempts low) or :data:`LOW`
            (round-robin time-shared).
        quantum:
            Timeslice for this request at low priority; ``None`` uses the
            hardware default from the config.  Ignored at high priority.
        tag:
            Opaque owner handle recorded on the request for accounting.
        proc:
            Process index within the owning job (telemetry attribution
            only; never affects scheduling).
        """
        if work_seconds < 0:
            raise ValueError(f"work_seconds must be >= 0, got {work_seconds}")
        if priority not in (HIGH, LOW):
            raise ValueError(f"priority must be HIGH or LOW, got {priority}")
        req = WorkRequest(self, work_seconds, priority,
                          quantum if quantum is not None else self.config.quantum,
                          tag, proc=proc)
        if req.quantum <= 0:
            raise ValueError("quantum must be positive")
        if work_seconds <= _EPS:
            # Zero-length bursts complete immediately without dispatching.
            req.started_at = self.env.now
            req.succeed(req)
            return req
        if priority == HIGH:
            self._high.append(req)
        elif tag in self._paused:
            self._paused[tag].append(req)
            return req
        else:
            self._low.append(req)
        self._notify_arrival(priority)
        return req

    # -- gang-scheduling support --------------------------------------------
    def pause_tag(self, tag):
        """Suspend all low-priority work carrying ``tag``.

        Queued requests are parked; a running tagged slice is preempted
        (its elapsed time is credited) and parked too.  Used by gang
        scheduling to deschedule a whole job's processes at once.
        High-priority (communication) work is never paused.
        """
        parked = self._paused.setdefault(tag, deque())
        kept = deque()
        while self._low:
            req = self._low.popleft()
            (parked if req.tag == tag else kept).append(req)
        self._low = kept
        running = self._running
        if (running is not None and running.tag == tag
                and running.priority == LOW and self._slice_interruptible
                and not self._interrupt_requested):
            self._interrupt_requested = True
            self.env.kick(self._interrupt_cb)

    def resume_tag(self, tag):
        """Release work parked under ``tag`` back into the ready queue."""
        parked = self._paused.pop(tag, None)
        if not parked:
            return
        self._low.extend(parked)
        self._notify_arrival(LOW)

    @property
    def queue_length(self):
        """Requests waiting, paying context-switch overhead, or running
        (system backlog)."""
        return (len(self._high) + len(self._low)
                + (self._cur is not None) + (self._running is not None))

    @property
    def running(self):
        """The request currently holding the CPU, if any."""
        return self._running

    # -- internals ----------------------------------------------------------
    def _notify_arrival(self, priority):
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
            return
        if self._interrupt_requested or not self._slice_interruptible:
            return
        running = self._running
        if running is None:
            return
        # A high arrival preempts a running low slice immediately; a low
        # arrival only matters if the current slice was extended past its
        # quantum under the single-runnable optimisation.
        extended = self._slice_interruptible == "extended"
        if priority == HIGH or extended:
            self._interrupt_requested = True
            self.env.kick(self._interrupt_cb)

    # -- dispatch state machine ---------------------------------------------
    # Completion events are handed off (dispatched synchronously,
    # skipping the agenda) when the environment's ordering guards
    # permit: completing the slice is the machine's tail action, and the
    # next slice's timer is always strictly in the future, so the
    # handoff is order-equivalent to scheduling the completion and
    # popping it next.

    def _cb_boot(self, _key):
        self._dispatch_next()

    def _dispatch_next(self):
        if not self._high and not self._low:
            wakeup = Event(self.env)
            wakeup.callbacks.append(self._wakeup_cb)
            self._wakeup = wakeup
            return
        if self._high:
            req = self._high.popleft()
            prio = HIGH
        else:
            req = self._low.popleft()
            prio = LOW
        cost = self._overhead
        if cost > 0:
            self._cur = req
            self._cur_prio = prio
            self.env.call_in(cost, self._overhead_cb)
            return
        if prio == HIGH:
            self._begin_high(req)
        else:
            self._begin_low(req)

    def _cb_wakeup(self, _event):
        self._wakeup = None
        self._dispatch_next()

    def _cb_overhead(self, _key):
        self.stats.overhead_time += self._overhead
        req = self._cur
        self._cur = None
        if self._cur_prio == HIGH:
            self._begin_high(req)
        else:
            self._begin_low(req)

    def _begin_high(self, req):
        env = self.env
        self._running = req
        if req.started_at is None:
            req.started_at = env.now
            if self._tel is not None:
                self._observe_dispatch(req)
        req.slices += 1
        self.stats.dispatches += 1
        self._slice_start = env.now
        self._slice_len = req.remaining
        env.call_in(req.remaining, self._high_end_cb)

    def _cb_high_end(self, _key):
        req = self._running
        burst = self._slice_len
        req.remaining = 0.0
        req.cpu_time += burst
        stats = self.stats
        stats.busy_time += burst
        stats.high_time += burst
        stats.completed += 1
        self._running = None
        if self._tel is not None:
            self._observe_slice(req, self._slice_start, burst, "high")
        self._dispatch_next()
        self.env.handoff(req, req)

    def _begin_low(self, req):
        env = self.env
        self._running = req
        if self._tel is not None:
            self._observe_wait(req)
        if req.started_at is None:
            req.started_at = env.now
            if self._tel is not None:
                self._observe_dispatch(req)
        req.slices += 1
        self.stats.dispatches += 1
        if self._high or self._low:
            slice_len = min(req.quantum, req.remaining)
            self._slice_interruptible = "quantum"
        else:
            # Single-runnable optimisation: run the whole remaining
            # burst; any arrival interrupts us and the elapsed time is
            # credited (see _notify_arrival).
            slice_len = req.remaining
            self._slice_interruptible = "extended"
        led = self._led
        if led is not None:
            # Counter tier only: a ring record per slice would blow the
            # ledger's overhead ceiling on slice-dominated runs.
            led.bump(_ARM_KEYS[self._slice_interruptible])
        self._slice_start = env.now
        self._slice_len = slice_len
        self._timer = env.call_in(slice_len, self._low_end_cb)

    def _cb_low_end(self, key):
        if key != self._timer:
            return  # the entry of a slice an interrupt already ended
        self._finish_low(self._slice_len, False)

    def _cb_interrupt(self, _key):
        # Orphan the pending slice entry (see ``_cb_low_end``) and credit
        # the elapsed part of the slice.
        self._timer = None
        self._interrupt_requested = False
        self.stats.preemptions += 1
        self._finish_low(self.env.now - self._slice_start, True)

    def _finish_low(self, elapsed, preempted):
        env = self.env
        req = self._running
        self._slice_interruptible = False
        self._running = None
        req.remaining -= elapsed
        req.cpu_time += elapsed
        stats = self.stats
        stats.busy_time += elapsed
        stats.low_time += elapsed
        led = self._led
        if led is not None:
            led.bump(_SLICE_PREEMPTED if preempted
                     else _SLICE_BLOCK_YIELD if req.remaining <= _EPS
                     else _SLICE_QUANTUM_EXPIRY)
        tel = self._tel
        if elapsed > 0 and tel is not None:
            self._observe_slice(req, self._slice_start, elapsed, "low")
        if preempted and tel is not None:
            node = self.node_id if self.node_id is not None else -1
            tel.metrics.counter("cpu.preemptions").inc()
            tel.event("cpu.preempt", f"node{node}.cpu", node=node,
                      tag=req.tag)
        if req.remaining <= _EPS:
            req.remaining = 0.0
            stats.completed += 1
            self._dispatch_next()
            env.handoff(req, req)
            return
        req.ready_since = env.now
        req.ready_kind = "requeue"
        # Unfinished work whose tag was paused mid-slice parks instead
        # of re-queueing (gang scheduling descheduled its job).
        # Otherwise it goes to the back of the round-robin queue (the
        # Transputer drops the rest of a preempted process's quantum),
        # or to the front if the config asks for resume-in-place.
        if req.tag in self._paused:
            self._paused[req.tag].append(req)
        elif self.config.requeue_at_back or not preempted:
            self._low.append(req)
        else:
            self._low.appendleft(req)
        self._dispatch_next()

    # -- telemetry ----------------------------------------------------------
    def _observe_dispatch(self, req):
        """First-dispatch latency (submission to first CPU grant)."""
        tel = self._tel
        if tel is not None:
            tel.metrics.histogram("cpu.dispatch_latency").observe(
                self.env.now - req.submitted_at
            )

    def _observe_slice(self, req, start, elapsed, prio):
        """One executed slice as a span on this node's CPU track."""
        tel = self._tel
        if tel is not None:
            node = self.node_id if self.node_id is not None else -1
            tel.slice("cpu.slice", f"node{node}.cpu", start, elapsed,
                      node=node, prio=prio, tag=req.tag, proc=req.proc)
            if prio == "low":
                tel.metrics.histogram("cpu.quantum_slice").observe(elapsed)

    def _observe_wait(self, req):
        """The ready-queue interval that ended with this dispatch.

        Recorded as a ``cpu.wait`` slice stamped at the instant the
        request (re-)entered the queue; ``kind`` distinguishes the wait
        for a first grant ("enqueue") from waiting to regain the CPU
        after losing it with work remaining ("requeue" — quantum expiry,
        preemption, or a gang park).
        """
        tel = self._tel
        if tel is not None:
            wait = self.env.now - req.ready_since
            if wait > 0:
                node = self.node_id if self.node_id is not None else -1
                tel.slice("cpu.wait", f"node{node}.cpu", req.ready_since,
                          wait, node=node, tag=req.tag, proc=req.proc,
                          kind=req.ready_kind)
