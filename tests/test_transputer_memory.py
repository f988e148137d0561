"""Tests for the MMU byte allocator and the structured buffer pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import deque

from repro.sim import Environment
from repro.transputer.memory import (
    Allocation,
    Buffer,
    BufferPool,
    BufferRequest,
    MemoryError_,
    Mmu,
)


# -------------------------------------------------------------------- Mmu
def test_alloc_and_free_roundtrip():
    env = Environment()
    mmu = Mmu(env, 1000)
    out = []

    def proc(env):
        a = yield mmu.alloc(400)
        out.append(mmu.in_use)
        a.free()
        out.append(mmu.in_use)

    env.process(proc(env))
    env.run()
    assert out == [400, 0]
    assert mmu.available == 1000


def test_alloc_blocks_until_free():
    env = Environment()
    mmu = Mmu(env, 1000)
    log = []

    def hog(env):
        a = yield mmu.alloc(900)
        yield env.timeout(5)
        a.free()

    def waiter(env):
        a = yield mmu.alloc(500)
        log.append(env.now)
        a.free()

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert log == [5]
    assert mmu.stats.blocked_allocs >= 1
    assert mmu.stats.total_wait_time == pytest.approx(5)


def test_oversized_request_fails_immediately():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        try:
            yield mmu.alloc(2000)
        except MemoryError_:
            return "too big"

    p = env.process(proc(env))
    assert env.run(until=p) == "too big"


def test_double_free_rejected():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        a = yield mmu.alloc(10)
        a.free()
        with pytest.raises(MemoryError_):
            a.free()

    env.process(proc(env))
    env.run()


def test_zero_alloc_rejected():
    env = Environment()
    mmu = Mmu(env, 1000)
    with pytest.raises(ValueError):
        mmu.alloc(0)


def test_fifo_head_of_line_semantics():
    """A big blocked request at the head holds back later small ones."""
    env = Environment()
    mmu = Mmu(env, 100)
    order = []

    def hog(env):
        a = yield mmu.alloc(90)
        yield env.timeout(10)
        a.free()

    def big(env):
        yield env.timeout(1)
        a = yield mmu.alloc(80)
        order.append(("big", env.now))
        a.free()

    def small(env):
        yield env.timeout(2)
        a = yield mmu.alloc(5)
        order.append(("small", env.now))
        a.free()

    env.process(hog(env))
    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == [("big", 10), ("small", 10)]


def test_peak_usage_tracked():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        a = yield mmu.alloc(700)
        b = yield mmu.alloc(200)
        a.free()
        b.free()

    env.process(proc(env))
    env.run()
    assert mmu.stats.peak_in_use == 900
    assert mmu.stats.total_allocs == 2
    assert mmu.stats.bytes_allocated == 900


@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_mmu_conservation(sizes):
    """in_use + available == capacity at every step; all allocs granted
    eventually when everything is freed promptly."""
    env = Environment()
    mmu = Mmu(env, 500)
    granted = []

    def proc(env, size):
        if size > 500:
            return
        a = yield mmu.alloc(size)
        assert mmu.in_use + mmu.available == mmu.capacity
        assert 0 <= mmu.in_use <= mmu.capacity
        granted.append(size)
        yield env.timeout(1)
        a.free()

    for s in sizes:
        env.process(proc(env, s))
    env.run()
    assert mmu.in_use == 0
    assert sorted(granted) == sorted(s for s in sizes if s <= 500)


# -------------------------------------------------------------- BufferPool
def test_buffer_acquire_release():
    env = Environment()
    pool = BufferPool(env, num_classes=3, buffers_per_class=2, buffer_bytes=1024)

    def proc(env):
        buf = yield pool.acquire(0)
        assert buf.cls == 0
        assert pool.free_count() == 5
        buf.release()
        assert pool.free_count() == 6

    env.process(proc(env))
    env.run()


def test_buffer_class_restriction():
    """A fresh packet (0 hops) may only use class 0; a travelled packet
    may use any class up to its hop count, granted highest-first."""
    env = Environment()
    pool = BufferPool(env, num_classes=3, buffers_per_class=1, buffer_bytes=1024)

    def proc(env):
        b2 = yield pool.acquire(2)
        assert b2.cls == 2  # highest eligible granted first
        b1 = yield pool.acquire(2)
        assert b1.cls == 1
        b0 = yield pool.acquire(2)
        assert b0.cls == 0
        # Now a fresh packet must wait even though releasing class 2
        # would not help it.
        fresh = pool.acquire(0)
        assert not fresh.triggered
        b2.release()
        assert not fresh.triggered  # class 2 not eligible for hop 0
        b0.release()
        yield fresh
        assert fresh.value.cls == 0

    env.process(proc(env))
    env.run()


def test_buffer_blocked_waiter_does_not_block_eligible_one():
    env = Environment()
    pool = BufferPool(env, num_classes=2, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b0 = yield pool.acquire(0)
        waiting_fresh = pool.acquire(0)   # blocked: class 0 busy
        travelled = pool.acquire(1)       # class 1 free: must be granted
        yield travelled
        assert travelled.value.cls == 1
        assert not waiting_fresh.triggered
        b0.release()
        yield waiting_fresh

    env.process(proc(env))
    env.run()


def test_buffer_double_release_rejected():
    env = Environment()
    pool = BufferPool(env, num_classes=1, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(0)
        b.release()
        with pytest.raises(MemoryError_):
            b.release()

    env.process(proc(env))
    env.run()


def test_buffer_hop_class_clamped_to_top():
    env = Environment()
    pool = BufferPool(env, num_classes=2, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(99)  # clamped to top class
        assert b.cls == 1

    env.process(proc(env))
    env.run()


def test_buffer_stats():
    env = Environment()
    pool = BufferPool(env, num_classes=1, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(0)
        second = pool.acquire(0)
        yield env.timeout(4)
        b.release()
        yield second

    env.process(proc(env))
    env.run()
    assert pool.stats.grants == 2
    assert pool.stats.blocked == 1
    assert pool.stats.total_wait_time == pytest.approx(4)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=15),
)
@settings(max_examples=50, deadline=None)
def test_property_pool_never_over_grants(num_classes, per_class, hops):
    """Free count never exceeds capacity and all requests are granted
    when holders release promptly."""
    env = Environment()
    pool = BufferPool(env, num_classes=num_classes, buffers_per_class=per_class,
                      buffer_bytes=16)
    total = num_classes * per_class
    done = []

    def proc(env, h):
        buf = yield pool.acquire(h)
        assert 0 <= pool.free_count() <= total
        assert buf.cls <= min(h, num_classes - 1)
        yield env.timeout(1)
        buf.release()
        done.append(h)

    for h in hops:
        env.process(proc(env, h))
    env.run()
    assert pool.free_count() == total
    assert len(done) == len(hops)


class _ScanBufferPool:
    """Reference model of :class:`BufferPool`'s grant order.

    One list of waiters in arrival order, rescanned from the front after
    every grant: the first waiter with a free class <= its hop class
    gets the highest such class.  ``BufferPool`` must grant exactly as
    this scan does, in the same order, with the same statistics.
    """

    def __init__(self, env, num_classes, buffers_per_class):
        self.env = env
        self.num_classes = num_classes
        self._free = [buffers_per_class] * num_classes
        self._waiters = deque()  # (request, enqueue_time)
        self.grants = 0
        self.blocked = 0
        self.total_wait_time = 0.0

    def acquire(self, hop_class):
        hop_class = min(hop_class, self.num_classes - 1)
        req = BufferRequest(self, hop_class)
        self._waiters.append((req, self.env.now))
        if len(self._waiters) > 1 or self._eligible(hop_class) is None:
            self.blocked += 1
        self._drain()
        return req

    def release(self, buffer):
        buffer.released = True
        self._free[buffer.cls] += 1
        self._drain()

    def _eligible(self, hop_class):
        for cls in range(hop_class, -1, -1):
            if self._free[cls] > 0:
                return cls
        return None

    def _drain(self):
        progressed = True
        while progressed:
            progressed = False
            for i, (req, t0) in enumerate(self._waiters):
                cls = self._eligible(req.hop_class)
                if cls is None:
                    continue
                del self._waiters[i]
                self._free[cls] -= 1
                self.grants += 1
                self.total_wait_time += self.env.now - t0
                req.succeed(Buffer(self, cls))
                progressed = True
                break


def _run_grant_script(make_pool, script):
    """Play ``script`` against a fresh pool; returns (pool, grants).

    ``grants`` lists ``(request index, granted class, grant time)`` in
    the order the requesting processes resumed, which is the order the
    pool succeeded their requests.
    """
    env = Environment()
    pool = make_pool(env)
    grants = []

    def proc(env, index, arrival, hop, hold):
        yield env.timeout(arrival)
        buf = yield pool.acquire(hop)
        grants.append((index, buf.cls, env.now))
        yield env.timeout(hold)
        buf.release()

    for index, (arrival, hop, hold) in enumerate(script):
        env.process(proc(env, index, arrival, hop, hold))
    env.run()
    return pool, grants


#: Arrival and hold times on a 0.3 grid: ties are common, and the sums
#: are inexact floats, so any reordering of the wait accumulation shows.
_TIMES = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.3)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(_TIMES, st.integers(min_value=0, max_value=8), _TIMES),
             min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_property_pool_grants_like_the_scan_oracle(num_classes, per_class,
                                                   script):
    """The pool grants the same requests, classes and times, in the same
    order and with the same statistics, as a rescan of all waiters in
    arrival order (hop classes beyond the top class are clamped)."""
    pool, grants = _run_grant_script(
        lambda env: BufferPool(env, num_classes=num_classes,
                               buffers_per_class=per_class, buffer_bytes=16),
        script)
    oracle, expected = _run_grant_script(
        lambda env: _ScanBufferPool(env, num_classes, per_class), script)
    assert grants == expected
    assert len(grants) == len(script)
    assert pool.stats.grants == oracle.grants
    assert pool.stats.blocked == oracle.blocked
    assert pool.stats.total_wait_time == oracle.total_wait_time
