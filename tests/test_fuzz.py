"""Fuzzing the decode paths: corrupted inputs must fail cleanly.

libKtau parses buffers handed back by the kernel side; a truncated or
corrupted profile or trace buffer (short proc read, version skew) must
raise :class:`~repro.core.wire.WireError` — never crash with an
arbitrary exception or loop.  The ASCII parser raises ``ValueError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.core.measurement import Ktau
from repro.core.registry import PointKind
from repro.core import wire
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def packed_profile() -> bytes:
    engine = Engine()
    ktau = Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(tracing=True))
    data = ktau.register_task(7, "fuzzed")
    data.user_context = "main()"
    for name in ("sys_writev", "sock_sendmsg", "tcp_sendmsg"):
        pt = ktau.registry.point(name)
        ktau.entry(data, pt)
    apt = ktau.registry.point("net.pkt_tx_bytes", PointKind.ATOMIC)
    ktau.atomic(data, apt, 1500)
    for name in ("tcp_sendmsg", "sock_sendmsg", "sys_writev"):
        ktau.exit(data, ktau.registry.point(name))
    return wire.pack_profiles(ktau.snapshot(), ktau.registry), ktau


BASE, _KTAU = packed_profile()


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(BASE) - 1))
def test_truncation_always_wire_error_or_success(cut):
    try:
        wire.unpack_profiles(BASE[:cut])
    except wire.WireError:
        pass  # the only acceptable failure


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(8, len(BASE) - 1), value=st.integers(0, 255))
def test_byte_corruption_never_crashes(pos, value):
    mutated = bytearray(BASE)
    mutated[pos] = value
    try:
        wire.unpack_profiles(bytes(mutated))
    except wire.WireError:
        pass  # rejected cleanly


def packed_trace() -> bytes:
    data = _KTAU.tasks[7]
    return wire.pack_trace(7, 0, data.trace.peek(), _KTAU.registry)


TRACE = packed_trace()


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(TRACE) - 1))
def test_trace_truncation_always_wire_error(cut):
    with pytest.raises(wire.WireError):
        wire.unpack_trace(TRACE[:cut])


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(0, len(TRACE) - 1), value=st.integers(0, 255))
def test_trace_byte_corruption_never_crashes(pos, value):
    mutated = bytearray(TRACE)
    mutated[pos] = value
    try:
        wire.unpack_trace(bytes(mutated))
    except wire.WireError:
        pass  # rejected cleanly


@settings(max_examples=100, deadline=None)
@given(junk=st.binary(max_size=200))
def test_arbitrary_bytes_rejected(junk):
    try:
        wire.unpack_profiles(junk)
    except wire.WireError:
        pass
    try:
        wire.unpack_trace(junk)
    except wire.WireError:
        pass


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.text(alphabet=st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=60), max_size=10))
def test_ascii_parser_never_crashes(lines):
    text = "#ktau-ascii v2\n" + "\n".join(lines)
    try:
        LibKtau.from_ascii(text)
    except (ValueError, IndexError):
        pass  # malformed records rejected


_NAMES = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                 max_size=12)


@settings(max_examples=100, deadline=None)
@given(comm=_NAMES, names=st.lists(_NAMES, max_size=4, unique=True),
       group=_NAMES, ctx=_NAMES, parent=_NAMES)
def test_ascii_roundtrip_of_arbitrary_names(comm, names, group, ctx, parent):
    """Any name -- spaces, quotes, line breaks, empty -- round-trips."""
    dump = wire.TaskProfileDump(pid=3, comm=comm)
    for i, name in enumerate(names):
        dump.perf[name] = (i, 2 * i, i)
        dump.groups[name] = group
        dump.context_pairs[(ctx, name)] = (i, i)
        dump.edges[(parent, name)] = (1, i)
        dump.counters[name] = (i, 1, 2, 3, 4, 5)
    text = LibKtau.to_ascii({3: dump})
    assert len(text.splitlines()) == 2 + 4 * len(names)
    assert LibKtau.from_ascii(text) == {3: dump}


def test_version_skew_rejected():
    mutated = bytearray(BASE)
    mutated[4] = 99  # version field
    with pytest.raises(wire.WireError):
        wire.unpack_profiles(bytes(mutated))
