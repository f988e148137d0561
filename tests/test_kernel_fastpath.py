"""Regression coverage for the kernel fast path.

The hot-path speed passes (packed agenda keys, pooled Timeout events,
bare callback agenda entries, lazy resource tombstones, callback-based
packet walkers) must be *observably free*: every test here pins
behaviour that the optimisations could plausibly have changed — agenda
ordering, event-object lifecycle, eviction choices, profiled stepping.  Whole-model trajectories are
pinned by the golden run documents in ``tests/test_golden_documents.py``.
"""

import pytest

from repro.obs.kernelprof import kernel_profile
from repro.sim import (
    Environment,
    Event,
    Interrupt,
    PreemptiveResource,
    SimulationError,
    Timeout,
)
from repro.transputer import HIGH, LOW, Cpu, TransputerConfig


# -- agenda ordering under the packed key --------------------------------
def test_same_time_same_priority_events_fire_in_schedule_order():
    """FIFO among equals: the packed (priority << 56) | seq key must
    preserve schedule order for same-time, same-priority events exactly
    as the old (time, priority, seq) tuple did."""
    env = Environment()
    fired = []
    for i in range(50):
        env.timeout(1.0).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run_all()
    assert fired == list(range(50))


def test_urgent_beats_normal_at_the_same_time_regardless_of_seq():
    from repro.sim.events import NORMAL, URGENT

    env = Environment()
    fired = []
    normal = env.event()
    normal._ok, normal._value = True, None
    normal.callbacks.append(lambda e: fired.append("normal"))
    urgent = env.event()
    urgent._ok, urgent._value = True, None
    urgent.callbacks.append(lambda e: fired.append("urgent"))
    # NORMAL scheduled first (lower seq) must still lose to URGENT.
    env.schedule(normal, priority=NORMAL, delay=2.0)
    env.schedule(urgent, priority=URGENT, delay=2.0)
    env.run_all()
    assert fired == ["urgent", "normal"]


def test_mixed_delays_and_priorities_interleave_deterministically():
    env = Environment()
    fired = []
    for i, delay in enumerate([3.0, 1.0, 2.0, 1.0, 3.0, 2.0]):
        env.timeout(delay).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run_all()
    # Sorted by time, then schedule order within each time.
    assert fired == [1, 3, 2, 5, 0, 4]


# -- pooled event lifecycle ----------------------------------------------
def test_timeouts_are_recycled_and_reused():
    env = Environment()

    def ticker(env):
        for _ in range(20):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run_all()
    assert env._free_timeouts, "drained timeouts should land in the pool"
    recycled = env._free_timeouts[-1]
    again = env.timeout(5.0)
    assert again is recycled  # reuse, not reallocation
    assert again.delay == 5.0
    # Like any fresh Timeout it is triggered (value set, scheduled) but
    # not yet processed, with a clean callback list.
    assert again.callbacks == [] and not again.processed


def test_referenced_timeouts_are_not_recycled():
    """A Timeout the model still holds must never be reset under it."""
    env = Environment()
    held = env.timeout(1.0)
    env.run_all()
    assert held not in env._free_timeouts
    assert held.ok and held.processed


def test_pooled_timeout_still_validates_delay():
    env = Environment()

    def ticker(env):
        yield env.timeout(1.0)

    env.process(ticker(env))
    env.run_all()
    assert env._free_timeouts  # the pooled path is the one under test
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(-1.0)
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(float("nan"))


# -- satellite bugfixes ---------------------------------------------------
def test_timeout_rejects_nan_delay():
    """NaN used to sail through the `delay < 0` check and poison the
    agenda heap (every comparison with NaN is False, so heap order
    silently broke)."""
    env = Environment()
    with pytest.raises(ValueError, match="invalid delay"):
        Timeout(env, float("nan"))


def test_trigger_from_untriggered_source_raises():
    """Event.trigger used to copy PENDING out of an untriggered source,
    corrupting the target (triggered-but-pending)."""
    env = Environment()
    src, dst = env.event(), env.event()
    with pytest.raises(SimulationError, match="not itself been triggered"):
        dst.trigger(src)
    assert not dst.triggered  # target untouched by the failed call


def test_preemption_victim_is_latest_arrival_on_grant_time_tie():
    """Two same-priority users granted at the same instant: the victim
    must be the *later arrival*.  The old code selected the victim by
    grant time (usage_since) but took the eviction decision by arrival
    time — two different clocks — so on a grant-time tie `max` returned
    the earliest arrival instead."""
    env = Environment()
    res = PreemptiveResource(env, capacity=2)
    log = []

    def blocker(env):
        # Holds both slots until t=5, so A and B queue up and are then
        # granted at the same instant (equal usage_since).
        reqs = [res.request(priority=0, preempt=False) for _ in range(2)]
        for r in reqs:
            yield r
        yield env.timeout(5)
        for r in reqs:
            res.release(r)

    def user(env, name, delay):
        yield env.timeout(delay)
        with res.request(priority=5, preempt=False) as req:
            try:
                yield req
                log.append((name, "got", env.now))
                yield env.timeout(100)
            except Interrupt:
                log.append((name, "evicted", env.now))

    def preemptor(env):
        yield env.timeout(7)
        with res.request(priority=0) as req:
            yield req
            log.append(("urgent", "got", env.now))

    env.process(blocker(env))
    env.process(user(env, "early", 0.0))   # arrives t=0
    env.process(user(env, "late", 3.0))    # arrives t=3
    env.process(preemptor(env))
    env.run_all(max_events=10_000)
    assert ("early", "got", 5) in log and ("late", "got", 5) in log
    assert ("late", "evicted", 7) in log     # later arrival loses
    assert ("urgent", "got", 7) in log
    assert not any(e == ("early", "evicted", 7) for e in log)


# -- resource tombstones --------------------------------------------------
def test_mass_cancellation_compacts_the_queue():
    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=1)
    hold = res.request()  # takes the slot
    waiters = [res.request() for _ in range(64)]
    for r in waiters[:48]:
        r.cancel()
    # Tombstones were compacted away once they became the majority.
    assert res._dead < 48
    assert len(res.queue) <= 64
    res.release(hold)
    env.run_all()
    granted = [r for r in waiters if r.triggered]
    assert len(granted) == 1 and granted[0] is waiters[48]


# -- profiled stepping ------------------------------------------------------
def _stepping_model(env, log):
    """Workers that fork children, join them and wait on shared timers.

    Children terminating while their parent waits complete by direct
    handoff; the join conditions and the two-callback timers exercise
    the multi-callback dispatch branch.
    """
    def child(env, i, j):
        yield env.timeout(0.25 * (j + 1))
        log.append((env.now, "child", i, j))

    def worker(env, i):
        for j in range(3):
            yield env.all_of([env.process(child(env, i, j)),
                              env.process(child(env, i, j + 1))])
            log.append((env.now, "joined", i, j))
            tick = env.timeout(1.0 + 0.1 * i)
            tick.callbacks.append(lambda e, i=i: log.append(
                (env.now, "tick", i)))
            yield tick

    for i in range(6):
        env.process(worker(env, i))


def _run_stepping_model(method):
    """Run the stepping model with ``run`` or ``run_all``; return the
    trajectory and the environment's exact event and handoff totals."""
    env = Environment()
    log = []
    _stepping_model(env, log)
    getattr(env, method)()
    return log, env.events_processed, env.handoffs


@pytest.mark.parametrize("sample_every", [1, 5, 1000])
def test_profiled_run_all_matches_run(sample_every):
    """``run_all`` steps through :meth:`Environment.step`, whose
    profiled branch must give the same trajectory, the same exact
    event, pop and handoff totals, and sample the same events in both
    streams as ``run``'s chunked profiled loop — whether every step is
    sampled (1), most are (5) or almost none are (1000)."""
    plain = _run_stepping_model("run")
    with kernel_profile(sample_every=sample_every) as by_run:
        assert _run_stepping_model("run") == plain
    with kernel_profile(sample_every=sample_every) as by_run_all:
        assert _run_stepping_model("run_all") == plain
    _log, events, handoffs = plain
    assert handoffs > 0  # the handoff path is part of what is compared
    for kp in (by_run, by_run_all):
        assert (kp.pops, kp.handoffs) == (events, handoffs)
    assert by_run.pushes == by_run_all.pushes
    sampled = [(doc["sampled_events"], doc["callback_sampled_events"])
               for doc in (by_run.document(), by_run_all.document())]
    assert sampled[0] == sampled[1]


@pytest.mark.parametrize("sample_every", [1, 5])
def test_run_all_max_events_bound_unchanged_when_profiled(sample_every):
    """The bound is checked before every step, profiled or not: a
    handoff-free model stops after exactly ``max_events`` events, and a
    model with handoffs stops at the same count either way."""
    def ticker(env):
        while True:
            yield env.timeout(1.0)

    def stop_after(model, bound):
        env = Environment()
        model(env)
        with pytest.raises(SimulationError, match=f"exceeded {bound} "):
            env.run_all(max_events=bound)
        return env.events_processed

    def workers(env):
        _stepping_model(env, [])

    bounds = range(60, 90)
    plain = [stop_after(workers, n) for n in bounds]
    with kernel_profile(sample_every=sample_every) as kp:
        assert stop_after(lambda env: env.process(ticker(env)), 25) == 25
        profiled = [stop_after(workers, n) for n in bounds]
    assert profiled == plain
    assert kp.pops == 25 + sum(profiled)


# -- bare callback entries --------------------------------------------------
class _Recorder:
    """Owns a bound method to schedule as a bare agenda entry."""

    def __init__(self, env, log, name):
        self.env, self.log, self.name = env, log, name

    def fire(self, key):
        self.log.append((self.name, self.env.now, key))


class _Ticker:
    """A chain of bare entries: each firing schedules the next."""

    def __init__(self, env, n):
        self.env, self.n, self.log = env, n, []

    def tick(self, _key):
        self.log.append(self.env.now)
        if len(self.log) < self.n:
            self.env.call_in(1.0, self.tick)


def test_call_in_rejects_negative_and_nan_delays():
    env = Environment()
    fire = _Recorder(env, [], "x").fire
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="invalid delay"):
            env.call_in(delay, fire)
    assert not env._queue


def test_bare_entries_timeouts_and_kicks_keep_same_time_fifo():
    """One sequence counter orders every kind of entry: at one instant
    the URGENT kicks run first, in kick order, then the NORMAL
    ``call_in`` entries and Timeouts in the order they were scheduled.
    Each bare callback receives the key its scheduling call returned."""
    env = Environment()
    log = []

    def bare(name, delay=None):
        fire = _Recorder(env, log, name).fire
        if delay is None:
            return env.kick(fire)
        return env.call_in(delay, fire)

    def timeout(name, delay):
        env.timeout(delay).callbacks.append(
            lambda e: log.append((name, env.now, None)))

    keys = {"n1": bare("n1", 0.0)}
    timeout("t1", 0.0)
    keys["u1"] = bare("u1")
    keys["late"] = bare("late", 1.0)
    timeout("t-late", 1.0)
    keys["n2"] = bare("n2", 0.0)
    keys["u2"] = bare("u2")
    timeout("t2", 0.0)
    env.run_all()
    assert [name for name, _now, _key in log] == [
        "u1", "u2", "n1", "t1", "n2", "t2", "late", "t-late"]
    assert {name: key for name, _now, key in log if key is not None} == keys
    assert env.events_processed == 8


def test_interrupted_low_slice_leaves_a_counted_no_op_entry():
    """A HIGH arrival interrupts an extended LOW slice; the slice's
    agenda entry stays queued, then pops as one counted event that
    changes nothing."""
    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.0), node_id=0)
    low = cpu.execute(1.0, LOW)

    def inject(env):
        yield env.timeout(0.5)
        yield cpu.execute(0.1, HIGH)

    env.process(inject(env))
    while env.peek() < 1.0:
        env.step()
    when, key, entry = env._queue[0]
    assert (when, entry) == (1.0, cpu._low_end_cb)
    assert key != cpu._timer and cpu.running is low
    state = (low.remaining, low.cpu_time, cpu.stats.dispatches,
             cpu.stats.preemptions, cpu._timer)
    events = env.events_processed
    env.step()
    assert env.events_processed == events + 1
    assert (low.remaining, low.cpu_time, cpu.stats.dispatches,
            cpu.stats.preemptions, cpu._timer) == state
    assert cpu.running is low
    env.run()
    assert env.now == pytest.approx(1.1)
    assert low.cpu_time == pytest.approx(1.0)
    assert cpu.stats.preemptions == 1


def test_step_dispatches_bare_entries():
    env = Environment()
    ticker = _Ticker(env, 3)
    env.kick(ticker.tick)
    env.step()
    assert ticker.log == [0.0] and env.events_processed == 1
    env.step()
    assert ticker.log == [0.0, 1.0] and env.events_processed == 2


def test_run_all_max_events_counts_bare_entries():
    env = Environment()
    ticker = _Ticker(env, 100)
    env.kick(ticker.tick)
    with pytest.raises(SimulationError, match="exceeded 10 "):
        env.run_all(max_events=10)
    assert env.events_processed == 10 and len(ticker.log) == 10


@pytest.mark.parametrize("method", ["run", "run_all"])
@pytest.mark.parametrize("sample_every", [1, 5])
def test_profiled_loop_dispatches_bare_entries(method, sample_every):
    """Under the profiler, bare entries run in every stream and report
    as one event type, ``Callback``, with the method's qualname as the
    callback site."""
    with kernel_profile(sample_every=sample_every) as kp:
        env = Environment()
        ticker = _Ticker(env, 50)
        env.kick(ticker.tick)
        getattr(env, method)()
    assert ticker.log == [float(i) for i in range(50)]
    doc = kp.document()
    assert doc["event_types"]["Callback"]["count"] == 50
    assert doc["event_types"]["Callback"]["callbacks"] == 50
    assert "_Ticker.tick" in doc["callback_sites"]
    assert "Initialize" not in doc["event_types"]


def test_handoff_from_a_bare_callback_takes_the_fast_path():
    env = Environment()
    done = env.event()
    log = []
    done.callbacks.append(lambda e: log.append(("waiter", env.now)))

    class Finisher:
        def finish(self, _key):
            env.handoff(done, "v")
            log.append(("after", env.now))

    env.call_in(2.0, Finisher().finish)
    env.run()
    assert log == [("waiter", 2.0), ("after", 2.0)]  # dispatched inline
    assert env.handoffs == 1 and env.events_processed == 2


def test_cpu_only_run_constructs_no_timeout(monkeypatch):
    """Context switches, quantum expiries, a preemption and completions,
    all without a Timeout: the CPU's timers are bare entries."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a CPU-only run built a Timeout")

    monkeypatch.setattr(Timeout, "__init__", forbidden)
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    reqs = [cpu.execute(0.010, LOW, tag=i) for i in range(3)]

    class Injector:
        def inject(self, _key):
            reqs.append(cpu.execute(0.001, HIGH))

    env.call_in(0.005, Injector().inject)
    env.run()
    assert len(reqs) == 4 and all(req.processed for req in reqs)
    assert cpu.stats.preemptions == 1
    assert cpu.stats.dispatches > len(reqs)  # quantum expiries too
