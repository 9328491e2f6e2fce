"""The indexed analysis layer returns exactly what the brute-force
reference models in ``analysis_reference.py`` return.

Each property draws small alphabets and tight time ranges on purpose, so
that the corner cases the fast paths must preserve come up often: equal
starts, nested and overlapping blocker waits, zero-overlap (touching)
intervals, same-``cycles`` entry/exit pairs inside one stream, atomics,
orphan exits and unclosed entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bottlenecks.report import (_blocker_activity,
                                               _index_waits)
from repro.analysis.bottlenecks.waits import (IRQ_PREEMPTION, PREEMPTION,
                                              TCP_RECV_STALL, VOLUNTARY_WAIT,
                                              WaitInterval, extract_waits)
from repro.analysis.tracemerge import MergedEvent, merge_traces
from repro.core.tracebuf import TraceKind
from repro.core.wire import TraceDump
from repro.tau.profiler import TauProfileDump
from tests import analysis_reference as ref

_KINDS = (TCP_RECV_STALL, VOLUNTARY_WAIT, PREEMPTION, IRQ_PREEMPTION)
_PATHS = ("schedule", "do_IRQ", "sys_readv>tcp_recvmsg>schedule_vol",
          "sys_nanosleep>schedule_vol")


@st.composite
def intervals(draw, lo=0, hi=60, min_len=0):
    start = draw(st.integers(lo, hi))
    return start, start + draw(st.integers(min_len, 30))


@st.composite
def blocker_waits(draw):
    out = []
    for start, end in draw(st.lists(intervals(), max_size=25)):
        out.append(WaitInterval(
            rank=1, node="b", pid=2, kind=draw(st.sampled_from(_KINDS)),
            start_ns=start, end_ns=end,
            kernel_path=draw(st.sampled_from(_PATHS)), user_context=""))
    return out


@settings(max_examples=300, deadline=None)
@given(waits=blocker_waits(),
       # stalls are never empty: extract_waits drops end <= start
       stalls=st.lists(intervals(-10, 90, min_len=1), min_size=1, max_size=8))
def test_indexed_blocker_activity_matches_full_scan(waits, stalls):
    index = _index_waits(waits)
    for start, end in stalls:
        stall = WaitInterval(rank=0, node="a", pid=1, kind=TCP_RECV_STALL,
                             start_ns=start, end_ns=end,
                             kernel_path="tcp_recvmsg>schedule_vol",
                             user_context="")
        state, path, chosen = _blocker_activity(stall, index)
        want_state, want_path, want_chosen = ref.blocker_activity(stall,
                                                                  waits)
        assert (state, path) == (want_state, want_path)
        # the very same interval object: the caller recurses through it
        assert chosen is want_chosen


def test_equal_keys_pick_the_first_interval_in_input_order():
    twins = [WaitInterval(rank=1, node="b", pid=2, kind=PREEMPTION,
                          start_ns=5, end_ns=20, kernel_path="schedule",
                          user_context=ctx) for ctx in ("first", "second")]
    waits = [WaitInterval(rank=1, node="b", pid=2, kind=PREEMPTION,
                          start_ns=9, end_ns=12, kernel_path="do_IRQ",
                          user_context="")] + twins
    stall = WaitInterval(rank=0, node="a", pid=1, kind=TCP_RECV_STALL,
                         start_ns=0, end_ns=30, kernel_path="", user_context="")
    _state, _path, chosen = _blocker_activity(stall, _index_waits(waits))
    assert chosen is twins[0]


_KERNEL_NAMES = ("schedule", "schedule_vol", "tcp_recvmsg", "sys_readv",
                 "do_IRQ", "do_softirq", "smp_apic_timer_interrupt",
                 "eth_interrupt")
_USER_NAMES = ("main()", "MPI_Recv()", "MPI_Send()")


@st.composite
def merged_timelines(draw):
    """Random merged timelines, unbalanced on purpose: random entries and
    exits give orphan exits and unclosed entries; atomics may even carry
    the name of an open frame."""
    events = []
    cycles = 0
    for _ in range(draw(st.integers(0, 60))):
        cycles += draw(st.integers(0, 3))
        layer = draw(st.sampled_from(("user", "kernel", "kernel", "atomic")))
        if layer == "user":
            events.append(MergedEvent(cycles, draw(st.sampled_from(
                _USER_NAMES)), "user", draw(st.booleans())))
        elif layer == "kernel":
            events.append(MergedEvent(cycles, draw(st.sampled_from(
                _KERNEL_NAMES)), "kernel", draw(st.booleans())))
        else:
            events.append(MergedEvent(cycles, draw(st.sampled_from(
                _KERNEL_NAMES + ("net.pkt_tx_bytes",))), "kernel", False,
                draw(st.integers(1, 1500))))
    return events


@settings(max_examples=400, deadline=None)
@given(merged=merged_timelines(), boot=st.integers(0, 5),
       hz=st.sampled_from((1e9, 450e6, 2.0e9)))
def test_single_pass_extract_waits_matches_stack_scans(merged, boot, hz):
    kw = dict(rank=3, node="n3", pid=7, hz=hz, boot_offset_cycles=boot)
    assert extract_waits(merged, **kw) == ref.extract_waits(merged, **kw)


def test_extract_waits_handles_orphans_and_unclosed_entries():
    k = lambda c, n, e: MergedEvent(c, n, "kernel", e)  # noqa: E731
    merged = [k(0, "schedule", False),             # orphan exit
              k(1, "do_IRQ", True), k(2, "tcp_recvmsg", True),
              k(3, "schedule_vol", True),
              k(9, "do_IRQ", False),               # pops lost frames
              k(10, "schedule_vol", True)]         # never closed
    kw = dict(rank=0, node="n", pid=1, hz=1e9)
    got = extract_waits(merged, **kw)
    assert got == ref.extract_waits(merged, **kw)
    assert [(w.kind, w.kernel_path) for w in got] == [
        (IRQ_PREEMPTION, "do_IRQ")]


_KIND_CHOICES = (TraceKind.ENTRY, TraceKind.EXIT, TraceKind.ATOMIC)


@st.composite
def trace_pairs(draw):
    """A user and a kernel stream on a coarse clock, so equal timestamps
    -- within one stream and across both -- are common."""
    utrace = [(draw(st.integers(0, 20)), draw(st.sampled_from(_USER_NAMES)),
               draw(st.booleans()))
              for _ in range(draw(st.integers(0, 20)))]
    krecs = [(draw(st.integers(0, 20)), draw(st.sampled_from(_KERNEL_NAMES)),
              draw(st.sampled_from(_KIND_CHOICES)), draw(st.integers(0, 9)))
             for _ in range(draw(st.integers(0, 30)))]
    if draw(st.booleans()):
        utrace.sort(key=lambda r: r[0])
        krecs.sort(key=lambda r: r[0])
    return utrace, krecs


@settings(max_examples=400, deadline=None)
@given(pair=trace_pairs())
def test_int_key_merge_matches_tie_rank_sort(pair):
    utrace, krecs = pair
    udump = TauProfileDump(pid=1, comm="app", node="n", rank=0, hz=1e9,
                           trace=utrace)
    ktrace = TraceDump(pid=1, lost=0, records=krecs)
    got = merge_traces(udump, ktrace)
    want = ref.merge_traces(udump, ktrace)
    assert got == want
    assert all(type(ev) is MergedEvent for ev in got)


def test_same_cycles_exit_sorts_before_entry_within_one_stream():
    """An exit recorded after an entry at the same cycle count moves in
    front of it (kernel exits rank before kernel entries)."""
    udump = TauProfileDump(pid=1, comm="app", node="n", rank=0, hz=1e9,
                           trace=[(5, "main()", False), (5, "main()", True)])
    ktrace = TraceDump(pid=1, lost=0, records=[
        (7, "do_IRQ", TraceKind.ENTRY, 0), (7, "do_IRQ", TraceKind.EXIT, 0),
        (7, "net.pkt_tx_bytes", TraceKind.ATOMIC, 64)])
    got = merge_traces(udump, ktrace)
    assert got == ref.merge_traces(udump, ktrace)
    assert [(ev.cycles, ev.name, ev.is_entry) for ev in got] == [
        (5, "main()", False), (5, "main()", True),
        (7, "do_IRQ", False), (7, "net.pkt_tx_bytes", False),
        (7, "do_IRQ", True)]
