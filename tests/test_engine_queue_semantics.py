"""Queue-semantics equivalence tests for the calendar-queue engine.

The engine's dispatch order contract — ascending ``(time, seq)`` with
FIFO ties — predates the calendar queue; these tests pin the new
structure to the old contract by replaying randomized workloads against
a straightforward reference heap and demanding identical logs, and by
exercising each structural edge (bucket epochs, far-future overflow,
``until`` boundaries, mid-run recalibration) directly.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim.engine import Engine


class _ReferenceHeap:
    """The old engine's semantics, reduced to their essence: a binary
    heap of ``(time, seq, tag)`` with lazy-deleted cancels."""

    def __init__(self):
        self.now = 0
        self.q = []
        self.seq = 0
        self.log = []
        self.dead = set()

    def schedule_at(self, t, tag):
        self.seq += 1
        heappush(self.q, (t, self.seq, tag))

    def run(self, until=None):
        while self.q and (until is None or self.q[0][0] <= until):
            t, _seq, tag = heappop(self.q)
            if tag in self.dead:
                continue
            self.now = t
            self.log.append((t, tag))
        if until is not None and self.now < until:
            self.now = until


@pytest.mark.parametrize("seed", range(6))
def test_randomized_equivalence_vs_reference_heap(seed):
    """Random schedule/cancel/run(until=) workloads must produce logs
    identical to the reference heap — same events, same order, same
    observed clock values.

    The delay palette deliberately spans every routing path: the lane
    (0/1), near buckets, bucket-epoch crossings, and the far-future
    overflow heap (``1 << 40``).
    """
    rng = random.Random(seed)
    ref = _ReferenceHeap()
    eng = Engine()
    log = []
    handles = {}
    t_cursor = 0
    for i in range(8000):
        r = rng.random()
        if r < 0.55:
            delay = rng.choice(
                [0, 1, 7, 100, 1000, 50_000, 10_000_000, 1 << 40])
            t = eng.now + delay
            tag = i
            handles[tag] = eng.schedule(
                delay, lambda tag=tag: log.append((eng.now, tag)))
            ref.schedule_at(t, tag)
        elif r < 0.7 and handles:
            tag = rng.choice(list(handles))
            h = handles.pop(tag)
            if h.active and h.fn is not None:
                h.cancel()
                ref.dead.add(tag)
        elif r < 0.85:
            t_cursor = max(eng.now, t_cursor) + rng.choice(
                [10, 10_000, 100_000_000])
            eng.run(until=t_cursor)
            ref.run(until=t_cursor)
            assert eng.now == ref.now
            assert log == ref.log
    eng.run_until_idle()
    ref.run()
    assert log == ref.log
    assert eng.pending == 0


def test_same_timestamp_fifo_spanning_lane_and_bucket():
    """FIFO ties must hold even when the tied events are scheduled from
    different contexts: some up-front, some mid-run into the active lane."""
    engine = Engine()
    order = []
    t = 5000
    engine.schedule_at(t, lambda: order.append("a"))
    engine.schedule_at(t, lambda: order.append("b"))

    def inject():
        # lands in the *current* lane (same bucket, insort path)
        engine.schedule_at(t, lambda: order.append("d"))

    engine.schedule_at(t - 1, inject)
    engine.schedule_at(t, lambda: order.append("c"))
    engine.run_until_idle()
    assert order == ["a", "b", "c", "d"]


def test_cancel_then_reschedule_same_time():
    engine = Engine()
    order = []
    first = engine.schedule(100, lambda: order.append("first"))
    first.cancel()
    engine.schedule_at(100, lambda: order.append("second"))
    engine.run_until_idle()
    assert order == ["second"]
    assert engine.now == 100
    assert engine.events_cancelled == 1


def test_far_future_events_cross_bucket_epochs():
    """Events past the wheel span live in the overflow heap and must
    migrate into the wheel — in order — as the clock approaches."""
    engine = Engine()
    order = []
    # Far beyond any initial horizon, deliberately scheduled out of order.
    for t in (1 << 41, 1 << 40, (1 << 40) + 1, 3 << 40):
        engine.schedule_at(t, lambda t=t: order.append(t))
    # plus a near event to force normal wheel traffic first
    engine.schedule(10, lambda: order.append(10))
    engine.run_until_idle()
    assert order == [10, 1 << 40, (1 << 40) + 1, 1 << 41, 3 << 40]
    assert engine.now == 3 << 40


def test_run_until_boundary_is_exact():
    engine = Engine()
    fired = []
    engine.schedule_at(100, lambda: fired.append(100))
    engine.schedule_at(101, lambda: fired.append(101))
    engine.run(until=100)
    assert fired == [100]  # inclusive boundary
    assert engine.now == 100
    engine.run(until=100)  # re-running to the same bound is a no-op
    assert fired == [100]
    engine.run(until=101)
    assert fired == [100, 101]


def test_run_until_segments_resume_mid_bucket():
    """Stopping at an ``until`` that lands inside a bucket must leave the
    remaining lane entries intact for the next run."""
    engine = Engine()
    fired = []
    # All of these share one bucket at the default width (16..24 < 1024).
    for t in range(16, 25):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run(until=20)
    assert fired == [16, 17, 18, 19, 20]
    engine.run(until=24)
    assert fired == list(range(16, 25))


def test_recalibration_mid_run_preserves_order():
    """A workload sparse enough to trigger bucket-width recalibration
    must still dispatch in exact (time, seq) order."""
    engine = Engine()
    fired = []
    # One event every ~64k ns: far below the occupancy band at the
    # starting width, so the engine widens its buckets as it drains.
    times = [i * 65_536 + (i % 7) for i in range(400)]
    for t in sorted(set(times)):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run_until_idle()
    assert fired == sorted(set(times))
    assert engine.recalibrations >= 1

