"""Bulk span-template replay against op-by-op firing.

``Ktau.replay`` folds a compiled span tree into a few table updates and
two bulk overhead draws.  It must be indistinguishable from firing the
same ops one by one through ``entry``/``exit``/``atomic``: these tests
run both on twin measurement systems and compare every observable.
"""

import gc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.measurement import Ktau, SpanTemplate
from repro.core.overhead import OverheadModel
from repro.core.tracebuf import TraceKind
from repro.kernel.irq import KSpan
from repro.kernel.kernel import Kernel
from repro.kernel.net import tcp
from repro.kernel.params import KernelParams
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import USEC

SPAN_NAMES = ("do_IRQ", "eth_interrupt", "do_softirq", "net_rx_action",
              "tcp_v4_rcv", "tcp_sendmsg")
ATOMIC_NAMES = ("net.pkt_rx_bytes", "net.pkt_tx_bytes")
MODES = ("plain", "tracing", "counters", "callgraph", "no_merge", "strict",
         "strict_tracing", "disabled_point", "frozen", "open_parent",
         "already_active")


@st.composite
def span_ops(draw):
    """A random well-nested op list (recursion and repeats allowed)."""
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("open", "close", "atomic")),
                  st.integers(0, len(SPAN_NAMES) - 1),
                  st.integers(0, 3_000)),
        min_size=1, max_size=24))
    ops = [(TraceKind.ENTRY, SPAN_NAMES[steps[0][1]], 0, None)]
    stack = [SPAN_NAMES[steps[0][1]]]
    t = steps[0][2]
    for kind, at, cost in steps[1:]:
        if kind == "open":
            ops.append((TraceKind.ENTRY, SPAN_NAMES[at], t, None))
            stack.append(SPAN_NAMES[at])
        elif kind == "close" and stack:
            ops.append((TraceKind.EXIT, stack.pop(), t, None))
        elif kind == "atomic":
            ops.append((TraceKind.ATOMIC, ATOMIC_NAMES[at % 2], t, None))
        t += cost
    while stack:
        ops.append((TraceKind.EXIT, stack.pop(), t, None))
    return ops


class _FakePmc:
    """Deterministic PMC snapshots (one step per read)."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self):
        self.reads += 1
        n = self.reads
        return (7 * n, 11 * n, n, n // 3, 0)


def _make(mode: str, seed: int, batch: int):
    build = KtauBuildConfig()
    if mode == "tracing":
        build = build.with_tracing(64)  # small: records get lost
    elif mode == "strict_tracing":
        build = build.with_tracing(4096)  # strict raises on any loss
    elif mode == "counters":
        build = replace(build, counters=True)
    elif mode == "callgraph":
        build = replace(build, callgraph=True)
    elif mode == "no_merge":
        build = replace(build, merge_context=False)
    model = OverheadModel(RngHub(seed).stream("ovh"))
    # Small batches put refills (and double refills) inside replays.
    model._start._batch = batch
    model._stop._batch = batch
    ktau = Ktau(CycleClock(Engine(), hz=450e6), build, overhead=model,
                strict=mode.startswith("strict"))
    data = ktau.register_task(1, "t")
    data.user_context = None if mode == "no_merge" else "MPI_Send()"
    if mode == "counters":
        data.counter_source = _FakePmc()
    if mode == "disabled_point":
        ktau.control.disable_points("tcp_v4_rcv", "net.pkt_tx_bytes")
    if mode == "open_parent":
        ktau.entry(data, ktau.registry.point("sys_writev"), at_cycles=5)
    if mode == "already_active":
        ktau.entry(data, ktau.registry.point("do_IRQ"), at_cycles=5)
    if mode == "frozen":
        data.frozen = True
    return ktau, data


def _per_op(ktau, data, template, t0, values):
    points = ktau.points_for(template)
    stamps = template.stamps(t0)
    pending = iter(values)
    for kind, at, stamp, _ in template.iter_ops():
        if kind == TraceKind.ENTRY:
            ktau.entry(data, points[at], at_cycles=stamps[stamp])
        elif kind == TraceKind.EXIT:
            ktau.exit(data, points[at], at_cycles=stamps[stamp])
        else:
            ktau.atomic(data, points[at], next(pending), at_cycles=stamps[stamp])


def _observables(ktau, data):
    tails = (ktau.overhead._start, ktau.overhead._stop)
    return {
        "profile": [(e, p.as_tuple()) for e, p in data.profile.items()],
        "atomic": [(e, a.as_tuple(), a.min) for e, a in data.atomic.items()],
        "context_pairs": list(data.context_pairs.items()),
        "counter_profile": list(data.counter_profile.items()),
        "callgraph": list(data.callgraph.items()),
        "active_counts": list(data.active_counts.items()),
        "stack": [(f.event_id, f.entry_cycles, f.child_cycles, f.user_ctx)
                  for f in data.stack],
        "trace": None if data.trace is None else (
            data.trace.peek(), data.trace.lost_count,
            data.trace.total_records, data.trace.flush_count),
        "pending_overhead_ns": data.pending_overhead_ns,
        "overhead_cycles": data.overhead_cycles,
        "total_overhead_cycles": ktau.total_overhead_cycles,
        "tails": [(tail._pos, list(tail._buf)) for tail in tails],
        "firings": ktau._firings,
        "cache_misses": ktau._cache_misses,
        "cache_invalidations": ktau._cache_invalidations,
        "unmatched_exits": data.unmatched_exits,
        "mapping": ktau.registry.mapping_table(),
    }


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(MODES),
       trees=st.lists(span_ops(), min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                                st.lists(st.integers(0, 9000), max_size=40),
                                st.booleans()),
                      min_size=1, max_size=8),
       seed=st.integers(0, 1000), batch=st.integers(1, 24))
def test_bulk_replay_matches_per_op(mode, trees, calls, seed, batch):
    bulk_ktau, bulk_data = _make(mode, seed, batch)
    ref_ktau, ref_data = _make(mode, seed, batch)
    templates = [SpanTemplate.compile(ops) for ops in trees]
    for which, t0, raw_values, toggle in calls:
        template = templates[which % len(templates)]
        nvalues = sum(kind == TraceKind.ATOMIC for kind in template.kinds)
        values = [(raw_values[i % len(raw_values)] if raw_values else i)
                  for i in range(nvalues)]
        if toggle:  # a runtime-control change between replays
            for ktau in (bulk_ktau, ref_ktau):
                ktau.control.disable_points("eth_interrupt")
                ktau.control.enable_points("eth_interrupt")
        if not bulk_ktau.replay(bulk_data, template, t0, values):
            _per_op(bulk_ktau, bulk_data, template, t0, values)
        _per_op(ref_ktau, ref_data, template, t0, values)
        assert _observables(bulk_ktau, bulk_data) == \
            _observables(ref_ktau, ref_data)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1000), batch=st.integers(1, 50),
       takes=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)),
                      min_size=1, max_size=10),
       extra=st.sampled_from((0, 40)))
def test_bulk_draws_match_single_samples(seed, batch, takes, extra):
    bulk = OverheadModel(RngHub(seed).stream("ovh"))
    single = OverheadModel(RngHub(seed).stream("ovh"))
    for model in (bulk, single):
        model._start._batch = batch
        model._stop._batch = batch
    clock = CycleClock(Engine(), hz=450e6)
    for n_start, n_stop in takes:
        got = bulk.take(n_start, n_stop, clock.hz, extra)
        if got is None:  # both would refill: the caller goes per-op
            assert n_start > bulk._start.remaining
            assert n_stop > bulk._stop.remaining
            got = (0, 0)
            for _ in range(n_start):
                c = bulk.start_cycles() + extra
                got = (got[0] + c, got[1] + clock.ns_for_cycles(c))
            for _ in range(n_stop):
                c = bulk.stop_cycles() + extra
                got = (got[0] + c, got[1] + clock.ns_for_cycles(c))
        costs = ([single.start_cycles() + extra for _ in range(n_start)]
                 + [single.stop_cycles() + extra for _ in range(n_stop)])
        assert got == (sum(costs), sum(clock.ns_for_cycles(c) for c in costs))


def test_replay_takes_the_bulk_path_only_where_it_is_exact():
    ops = [(TraceKind.ENTRY, "do_IRQ", 0, None),
           (TraceKind.ATOMIC, "net.pkt_rx_bytes", 10, None),
           (TraceKind.EXIT, "do_IRQ", 10, None)]
    template = SpanTemplate.compile(ops)
    assert SpanTemplate.compile(list(ops)) is template  # interned
    for mode, bulk in (("plain", True), ("tracing", True), ("strict", True),
                       ("counters", False), ("callgraph", False),
                       ("strict_tracing", False), ("frozen", False),
                       ("disabled_point", True)):
        ktau, data = _make(mode, 1, 4096)
        ktau.overhead.start_cycles()  # fill both samplers
        ktau.overhead.stop_cycles()
        assert ktau.replay(data, template, 0, [64]) is bulk, mode
    ktau, data = _make("plain", 1, 4096)
    ktau.control.disable_points("do_IRQ")
    assert ktau.replay(data, template, 0, [64]) is False


def test_unnested_ops_are_refused():
    with pytest.raises(ValueError, match="not nested"):
        SpanTemplate.compile([(TraceKind.ENTRY, "do_IRQ", 0, None),
                              (TraceKind.EXIT, "eth_interrupt", 1, None)])
    with pytest.raises(ValueError, match="open"):
        SpanTemplate.compile([(TraceKind.ENTRY, "do_IRQ", 0, None)])


def test_replay_paths_leave_no_reference_cycles():
    """Templates and the replay helpers allocate no cyclic garbage, so
    a busy kernel adds no work for the cyclic collector."""
    for build in (KtauBuildConfig(), KtauBuildConfig().with_tracing(1 << 12),
                  KtauBuildConfig.full(counters=True)):
        engine = Engine()
        kernel = Kernel(engine, KernelParams(ncpus=1, timer_tick_ns=None,
                                             ktau=build),
                        "solo", RngHub(1))
        task = kernel.swapper
        segments = [1448] * 7 + [100]
        tick = [KSpan("smp_apic_timer_interrupt", 2 * USEC),
                KSpan("do_softirq", 1 * USEC,
                      children=[KSpan("run_timer_softirq", 2 * USEC)])]

        def burst(i):
            tcp.record_tx_spans(kernel, task, segments[:1 + i % 8])
            kernel.irq.deliver_compiled(
                0, tcp.rx_template(kernel, 1 + i % 8, bool(i % 2)),
                segments[:1 + i % 8])
            kernel.irq.deliver(0, tick)

        burst(0)
        gc.collect()
        gc.disable()
        try:
            for i in range(1000):
                burst(i)
            assert gc.collect() == 0
        finally:
            gc.enable()
