"""Tests for the circular trace buffer."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.measurement import Ktau
from repro.core.tracebuf import (TraceBuffer, TraceKind, TraceOverflowError,
                                 TraceRecord)
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def rec(i):
    return TraceRecord(cycles=i, event_id=i % 7, kind=TraceKind.ENTRY)


class TestTraceBuffer:
    def test_append_and_drain_in_order(self):
        buf = TraceBuffer(8)
        for i in range(5):
            buf.append(rec(i))
        assert [r.cycles for r in buf.drain()] == [0, 1, 2, 3, 4]
        assert len(buf) == 0

    def test_overwrite_loses_oldest(self):
        buf = TraceBuffer(3)
        for i in range(5):
            buf.append(rec(i))
        assert buf.lost_count == 2
        assert [r.cycles for r in buf.drain()] == [2, 3, 4]

    def test_peek_does_not_consume(self):
        buf = TraceBuffer(4)
        buf.append(rec(1))
        assert len(buf.peek()) == 1
        assert len(buf) == 1

    def test_drain_then_refill(self):
        buf = TraceBuffer(2)
        buf.append(rec(0))
        buf.drain()
        buf.append(rec(1))
        buf.append(rec(2))
        buf.append(rec(3))  # one lost
        assert buf.lost_count == 1
        assert [r.cycles for r in buf.drain()] == [2, 3]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def test_total_records_counts_everything(self):
        buf = TraceBuffer(2)
        for i in range(10):
            buf.append(rec(i))
        assert buf.total_records == 10


@given(capacity=st.integers(1, 32), n=st.integers(0, 200))
def test_property_last_capacity_records_survive(capacity, n):
    """The buffer always holds the most recent min(n, capacity) records,
    in order, and accounts for every overwrite."""
    buf = TraceBuffer(capacity)
    for i in range(n):
        buf.append(rec(i))
    kept = [r.cycles for r in buf.peek()]
    expected = list(range(max(0, n - capacity), n))
    assert kept == expected
    assert buf.lost_count == max(0, n - capacity)
    assert buf.total_records == n


class _RingModel:
    """Reference semantics: an unbounded log of which the last
    ``capacity`` unread records are kept."""

    def __init__(self, capacity, strict):
        self.capacity = capacity
        self.strict = strict
        self.held = []
        self.lost = 0
        self.total = 0

    def append(self, record):
        if self.strict and len(self.held) == self.capacity:
            raise TraceOverflowError("full")
        self.held.append(record)
        self.total += 1
        if len(self.held) > self.capacity:
            self.held.pop(0)
            self.lost += 1

    def drain(self):
        out, self.held = self.held, []
        return out


_OPS = st.lists(st.one_of(st.tuples(st.just("append"), st.integers(1, 300)),
                          st.just(("drain", 0)), st.just(("peek", 0))),
                max_size=12)


@given(capacity=st.integers(1, 300), ops=_OPS, strict=st.booleans())
def test_property_matches_reference_across_growth_and_wrap(capacity, ops,
                                                           strict):
    """Appends in batches that straddle the grow-to-wrap boundary, drains
    that restart growth, and strict mode all match the reference."""
    buf = TraceBuffer(capacity, strict=strict)
    model = _RingModel(capacity, strict)
    written = 0
    for op, n in ops:
        if op == "append":
            for _ in range(n):
                record = rec(written)
                written += 1
                try:
                    model.append(record)
                except TraceOverflowError:
                    with pytest.raises(TraceOverflowError):
                        buf.append(record)
                    break
                buf.append(record)
        elif op == "drain":
            assert buf.drain() == model.drain()
        else:
            assert buf.peek() == model.held
        assert len(buf) == len(model.held)
        assert buf.lost_count == model.lost
        assert buf.total_records == model.total
    assert list(buf) == model.held


def test_registering_traced_tasks_allocates_lazily():
    """A traced task's ring grows with its records: registering 64 tasks
    with 1<<16-entry buffers must not allocate their slots up front."""
    engine = Engine()
    ktau = Ktau(CycleClock(engine, hz=1e9),
                KtauBuildConfig(tracing=True, trace_buffer_entries=1 << 16))
    tracemalloc.start()
    try:
        for pid in range(64):
            ktau.register_task(pid, f"task{pid}")
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 1 << 20
