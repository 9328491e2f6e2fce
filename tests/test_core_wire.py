"""Tests for the binary wire format (pack/unpack roundtrips)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.measurement import AtomicData, Ktau, KtauTaskData, PerfData
from repro.core.registry import PointKind
from repro.core.tracebuf import TraceKind, TraceRecord
from repro.core import wire
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def build_ktau():
    engine = Engine()
    return engine, Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(tracing=True))


def advance(engine, ns):
    engine.schedule(ns, lambda: None)
    engine.run_until_idle()


def populated_ktau():
    engine, ktau = build_ktau()
    data = ktau.register_task(10, "app.0")
    pt_outer = ktau.registry.point("sys_writev")
    pt_inner = ktau.registry.point("tcp_sendmsg")
    pt_atomic = ktau.registry.point("net.pkt_tx_bytes", PointKind.ATOMIC)
    data.user_context = "MPI_Send()"
    ktau.entry(data, pt_outer)
    advance(engine, 10)
    ktau.entry(data, pt_inner)
    advance(engine, 20)
    ktau.atomic(data, pt_atomic, 1500)
    ktau.exit(data, pt_inner)
    ktau.exit(data, pt_outer)
    data2 = ktau.register_task(11, "daemon")
    ktau.entry(data2, ktau.registry.point("schedule_vol"))
    advance(engine, 5)
    ktau.exit(data2, ktau.registry.point("schedule_vol"))
    return engine, ktau


class TestProfileRoundtrip:
    def test_roundtrip_preserves_everything(self):
        engine, ktau = populated_ktau()
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        dumps = wire.unpack_profiles(packed)
        assert set(dumps) == {10, 11}
        d = dumps[10]
        assert d.comm == "app.0"
        assert d.perf["sys_writev"] == (1, 30, 10)
        assert d.perf["tcp_sendmsg"] == (1, 20, 20)
        assert d.atomic["net.pkt_tx_bytes"] == (1, 1500, 1500, 1500)
        assert d.context_pairs[("MPI_Send()", "sys_writev")] == (1, 10)
        assert d.groups["tcp_sendmsg"] == "net"
        assert dumps[11].perf["schedule_vol"][1] == 5

    def test_empty_snapshot(self):
        engine, ktau = build_ktau()
        packed = wire.pack_profiles({}, ktau.registry)
        assert wire.unpack_profiles(packed) == {}

    def test_bad_magic(self):
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(b"XXXX" + b"\0" * 32)

    def test_truncated_buffer(self):
        engine, ktau = populated_ktau()
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(packed[: len(packed) // 2])

    def test_too_short_for_header(self):
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(b"KT")


class TestTraceRoundtrip:
    def test_roundtrip(self):
        engine, ktau = populated_ktau()
        data = ktau.tasks[10]
        records = data.trace.drain()
        assert records  # instrumentation above wrote trace records
        packed = wire.pack_trace(10, data.trace.lost_count, records, ktau.registry)
        dump = wire.unpack_trace(packed)
        assert dump.pid == 10
        assert len(dump.records) == len(records)
        cycles, name, kind, value = dump.records[0]
        assert name == "sys_writev"
        assert kind is TraceKind.ENTRY
        atomics = [r for r in dump.records if r[2] is TraceKind.ATOMIC]
        assert atomics and atomics[0][3] == 1500

    def test_empty_trace(self):
        engine, ktau = build_ktau()
        packed = wire.pack_trace(1, 0, [], ktau.registry)
        dump = wire.unpack_trace(packed)
        assert dump.records == [] and dump.lost == 0

    def test_bad_trace_magic(self):
        with pytest.raises(wire.WireError):
            wire.unpack_trace(b"NOPE" + b"\0" * 20)


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 5),
              st.sampled_from([TraceKind.ENTRY, TraceKind.EXIT, TraceKind.ATOMIC]),
              st.integers(0, 2**30)),
    max_size=50))
def test_property_trace_roundtrip(entries):
    """Any record sequence survives pack/unpack byte-exactly."""
    engine, ktau = build_ktau()
    names = ["sys_read", "sys_write", "schedule", "do_IRQ", "tcp_v4_rcv",
             "do_softirq"]
    for name in names:
        ktau.registry.bind(ktau.registry.point(name))
    records = [TraceRecord(c, i, k, v) for (c, i, k, v) in entries]
    packed = wire.pack_trace(3, 7, records, ktau.registry)
    dump = wire.unpack_trace(packed)
    assert dump.lost == 7
    assert len(dump.records) == len(records)
    for original, (cycles, name, kind, value) in zip(records, dump.records):
        assert cycles == original.cycles
        assert name == names[original.event_id]
        assert kind is original.kind
        assert value == original.value


# ---------------------------------------------------------------------------
# Sizes computed from the layout (the /proc size call) and string limits
# ---------------------------------------------------------------------------
_POINTS = ["sys_read", "sys_write", "schedule", "do_IRQ", "tcp_v4_rcv",
           "do_softirq"]
_COUNTS = st.integers(0, 2**63 - 1)
_NAMES = st.one_of(st.text(max_size=20), st.text(min_size=100, max_size=300),
                   st.sampled_from(["", "é" * 200, "x" * 300, "€" * 90 + "a"]))
_IDS = st.integers(0, len(_POINTS) - 1)


def _perf(values):
    perf = PerfData()
    perf.count, perf.incl_cycles, perf.excl_cycles = values
    return perf


def _atomic(values):
    stats = AtomicData()
    for value in values:
        stats.record(value)
    return stats


_TASK = st.fixed_dictionaries({
    "comm": _NAMES,
    "profile": st.dictionaries(_IDS, st.tuples(_COUNTS, _COUNTS, _COUNTS)),
    "atomic": st.dictionaries(_IDS, st.lists(st.integers(0, 2**40),
                                             min_size=1, max_size=3)),
    "context_pairs": st.dictionaries(st.tuples(_NAMES, _IDS),
                                     st.tuples(_COUNTS, _COUNTS), max_size=4),
    "counter_profile": st.dictionaries(
        _IDS, st.lists(_COUNTS, min_size=6, max_size=6)),
    "callgraph": st.dictionaries(st.tuples(_NAMES, _IDS),
                                 st.tuples(_COUNTS, _COUNTS), max_size=4),
    "pmc": st.one_of(st.none(), st.tuples(*[_COUNTS] * 5)),
})


@settings(max_examples=60, deadline=None)
@given(tasks=st.dictionaries(st.integers(0, 2**31), _TASK, max_size=4),
       nbound=st.integers(0, len(_POINTS)))
def test_property_profiles_size_matches_pack(tasks, nbound):
    """The size call's layout arithmetic equals the packed length for
    every section, including non-ASCII names longer than 255 bytes."""
    _engine, ktau = build_ktau()
    for name in _POINTS[:nbound]:
        ktau.registry.bind(ktau.registry.point(name))
    snap = {}
    for pid, spec in tasks.items():
        data = KtauTaskData(pid, spec["comm"], None)
        data.profile = {i: _perf(v) for i, v in spec["profile"].items()}
        data.atomic = {i: _atomic(v) for i, v in spec["atomic"].items()}
        data.context_pairs = {k: list(v)
                              for k, v in spec["context_pairs"].items()}
        data.counter_profile = dict(spec["counter_profile"])
        data.callgraph = {k: list(v) for k, v in spec["callgraph"].items()}
        if spec["pmc"] is not None:
            data.counter_source = (lambda pmc=spec["pmc"]: pmc)
        snap[pid] = data
    packed = wire.pack_profiles(snap, ktau.registry)
    assert wire.profiles_size(snap, ktau.registry) == len(packed)
    mapping = wire.pack_mapping(ktau.registry)
    assert wire.profiles_size(snap, ktau.registry, mapping) == len(packed)
    assert wire.pack_profiles(snap, ktau.registry, mapping) == packed


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(
    st.tuples(st.integers(0, 2**40), _IDS, st.sampled_from(list(TraceKind)),
              st.integers(0, 2**30)), max_size=50))
def test_property_trace_size_matches_pack(entries):
    _engine, ktau = build_ktau()
    for name in _POINTS:
        ktau.registry.bind(ktau.registry.point(name))
    records = [TraceRecord(*entry) for entry in entries]
    packed = wire.pack_trace(3, 7, records, ktau.registry)
    assert wire.trace_size(records, ktau.registry) == len(packed)
    assert wire.trace_fit(records, ktau.registry, len(packed)) == len(records)
    if records:
        assert wire.trace_fit(records, ktau.registry,
                              len(packed) - 1) < len(records)


class TestLongNames:
    def test_long_non_ascii_comm_keeps_profile_readable(self):
        """A name cut at 255 bytes must not split a UTF-8 character:
        one such task would make the whole snapshot undecodable."""
        _engine, ktau = build_ktau()
        ktau.register_task(1, "é" * 200)
        ktau.register_task(2, "ok")
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        assert wire.profiles_size(ktau.snapshot(), ktau.registry) == len(packed)
        dumps = wire.unpack_profiles(packed)
        assert dumps[1].comm == "é" * 127  # 254 bytes, whole characters
        assert dumps[2].comm == "ok"

    def test_ascii_names_cut_at_255_bytes(self):
        _engine, ktau = build_ktau()
        ktau.register_task(1, "x" * 300)
        dumps = wire.unpack_profiles(
            wire.pack_profiles(ktau.snapshot(), ktau.registry))
        assert dumps[1].comm == "x" * 255

    def test_undecodable_string_is_a_wire_error(self):
        _engine, ktau = build_ktau()
        ktau.register_task(1, "abc")
        packed = bytearray(wire.pack_profiles(ktau.snapshot(), ktau.registry))
        at = packed.index(b"abc")
        packed[at] = 0xFF
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.unpack_profiles(bytes(packed))


class TestMalformedTrace:
    def packed(self):
        _engine, ktau = build_ktau()
        ktau.registry.bind(ktau.registry.point("sys_read"))
        return bytearray(wire.pack_trace(
            1, 0, [TraceRecord(5, 0, TraceKind.ENTRY)], ktau.registry))

    def test_unmapped_event_id_is_a_wire_error(self):
        buf = self.packed()
        buf[22 + 8] = 9  # the record's event id
        with pytest.raises(wire.WireError, match="missing from mapping"):
            wire.unpack_trace(bytes(buf))

    def test_bad_kind_byte_is_a_wire_error(self):
        buf = self.packed()
        buf[22 + 12] = 7  # the record's kind
        with pytest.raises(wire.WireError, match="kind"):
            wire.unpack_trace(bytes(buf))


def test_mapping_memo_reuses_and_refreshes():
    """libKtau's memo decodes a node's table once per distinct table."""
    engine, ktau = populated_ktau()
    memo = wire.MappingMemo()
    first = wire.pack_profiles(ktau.snapshot(), ktau.registry)
    assert wire.unpack_profiles(first, memo) == wire.unpack_profiles(first)
    names = memo.names
    wire.unpack_profiles(first, memo)
    assert memo.names is names  # same table: not decoded again
    data = ktau.tasks[10]
    pt = ktau.registry.point("do_IRQ")
    ktau.entry(data, pt)
    ktau.exit(data, pt)
    grown = wire.pack_profiles(ktau.snapshot(), ktau.registry)
    assert wire.unpack_profiles(grown, memo) == wire.unpack_profiles(grown)
    assert memo.names is not names and "do_IRQ" in memo.names.values()
