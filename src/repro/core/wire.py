"""Binary wire format for /proc/ktau data.

libKtau's documented responsibilities include "data conversion (ASCII
to/from binary)"; the kernel side hands out packed binary buffers and the
user library decodes them.  We reproduce that split: :func:`pack_profiles`
runs on the kernel side of the proc interface, :func:`unpack_profiles` in
libKtau.  The format embeds the node's event-mapping table so that decoded
profiles are keyed by event *name* (numeric IDs are node-local and bind in
first-arrival order).

Layout (little-endian)::

    header:  4s magic 'KTAU' | H version | H flags | I ntasks | I nmap
    map[nmap]:   I id | B len | name | B len | group
    task[ntasks]:
        I pid | B len | comm
        I nperf   | nperf   * (I id | Q count | Q incl | Q excl)
        I natomic | natomic * (I id | Q count | Q sum | Q min | Q max)
        I nctx    | nctx    * (B len | ctx | I id | Q count | Q excl)
        I ncnt    | ncnt    * (I id | Q count | Q cycles | Q insn
                               | Q l2miss | Q minflt | Q majflt)
        I nedge   | nedge   * (B len | parent | I id | Q count | Q incl)
        B has_pmc | has_pmc * (Q cycles | Q insn | Q l2miss
                               | Q minflt | Q majflt)

(The counter and call-graph sections are the §6 extensions; they are
always present and simply empty when the corresponding build options
are off.  Version 3 widened the counter entries from (insn, l2) to the
full five-dimensional PMC vector and appended the per-task lifetime PMC
block — the task's raw counter register values at pack time, which let
user-space compute rates over *all* executed cycles, not only the
kernel spans bracketed by instrumentation.  Header flag bit 0x1 records
whether any task in the snapshot carries counters.)

Trace buffers use a separate, simpler layout::

    4s magic 'KTRC' | H version | I pid | Q lost | I nrec
    rec[nrec]: Q cycles | I id | B kind | Q value
    I nmap | nmap * (I id | B len | name)

Every string (``B len | bytes``) is UTF-8 cut to at most 255 bytes at a
character boundary.  Malformed or truncated buffers raise
:class:`WireError`, whatever part of them is broken.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import starmap
from typing import Optional

from repro.core.measurement import KtauTaskData
from repro.core.registry import EventRegistry
from repro.core.tracebuf import TraceKind, TraceRecord

MAGIC_PROFILE = b"KTAU"
MAGIC_TRACE = b"KTRC"
VERSION = 3

#: Header flag bit: at least one task in this snapshot has PMC data.
FLAG_COUNTERS = 0x1

_HDR = struct.Struct("<4sHHII")
_MAP_ENTRY = struct.Struct("<I")
_PERF_ENTRY = struct.Struct("<IQQQ")
_ATOMIC_ENTRY = struct.Struct("<IQQQQ")
_CTX_FIXED = struct.Struct("<IQQ")
_COUNTER_ENTRY = struct.Struct("<IQQQQQQ")
_PMC_BLOCK = struct.Struct("<QQQQQ")
_EDGE_FIXED = struct.Struct("<IQQ")
_TASK_FIXED = struct.Struct("<I")
_U32 = struct.Struct("<I")
_TRACE_HDR = struct.Struct("<4sHIQI")
_TRACE_REC = struct.Struct("<QIBQ")

#: Fixed bytes of every packed task: pid, the five section counts and
#: the PMC presence byte.
_TASK_OVERHEAD = _TASK_FIXED.size + 5 * _U32.size + 1
#: An empty packed trace: header plus the mapping count.
TRACE_MIN_SIZE = _TRACE_HDR.size + _U32.size

#: Trace kind byte -> kind (an index, not a ``TraceKind(kind)`` call).
_KINDS = tuple(TraceKind)


class WireError(ValueError):
    """Raised by unpackers on malformed or truncated buffers."""


def _encode_str(s: str) -> bytes:
    """UTF-8 bytes of ``s``, cut to 255 at a character boundary (a split
    multi-byte sequence would make the whole buffer undecodable)."""
    raw = s.encode("utf-8")
    if len(raw) > 255:
        raw = raw[:255].decode("utf-8", "ignore").encode("utf-8")
    return raw


def _pack_str(out: bytearray, s: str) -> None:
    raw = _encode_str(s)
    out.append(len(raw))
    out += raw


def _str_size(s: str) -> int:
    """Packed size of ``s``: the length byte plus the (cut) UTF-8 body."""
    if s.isascii() and len(s) <= 255:
        return 1 + len(s)
    return 1 + len(_encode_str(s))


def _unpack_str(buf: bytes, off: int) -> tuple[str, int]:
    if off >= len(buf):
        raise WireError("truncated string length")
    n = buf[off]
    off += 1
    if off + n > len(buf):
        raise WireError("truncated string body")
    try:
        return buf[off:off + n].decode("utf-8"), off + n
    except UnicodeDecodeError:
        raise WireError(f"undecodable string at offset {off}") from None


# ---------------------------------------------------------------------------
# Decoded (user-space) representations
# ---------------------------------------------------------------------------
@dataclass
class TaskProfileDump:
    """A decoded per-task profile, keyed by event name."""

    pid: int
    comm: str
    #: event name -> (count, inclusive cycles, exclusive cycles)
    perf: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: event name -> (count, sum, min, max)
    atomic: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    #: (user context, event name) -> (count, exclusive cycles)
    context_pairs: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    #: event name -> group name (from the embedded mapping table)
    groups: dict[str, str] = field(default_factory=dict)
    #: event name -> (count, inclusive cycles, instructions, L2 misses,
    #: minor faults, major faults) — all inclusive deltas
    counters: dict[str, tuple[int, int, int, int, int, int]] = field(default_factory=dict)
    #: (parent key, event name) -> (count, inclusive cycles); parent key
    #: is "K:<event>", "U:<routine>", or "" for a root activation
    edges: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    #: lifetime PMC totals at pack time — (cycles, instructions,
    #: L2 misses, minor faults, major faults); None when the counters
    #: build option is off for this task
    pmc: tuple[int, int, int, int, int] | None = None


@dataclass
class TraceDump:
    """A decoded per-task trace buffer."""

    pid: int
    lost: int
    #: (cycles, event name, kind, value)
    records: list[tuple[int, str, TraceKind, int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Kernel-side packing
# ---------------------------------------------------------------------------
def pack_mapping(registry: EventRegistry) -> bytes:
    """The event-mapping table section of a profile buffer.

    It changes only when a point binds, so the kernel side can encode it
    once per :attr:`EventRegistry.bound_count` and pass it back in.
    """
    out = bytearray()
    for event_id, name, group in registry.mapping_table():
        out += _MAP_ENTRY.pack(event_id)
        _pack_str(out, name)
        _pack_str(out, group)
    return bytes(out)


def pack_profiles(tasks: dict[int, KtauTaskData], registry: EventRegistry,
                  mapping: Optional[bytes] = None) -> bytes:
    """Serialise a profile snapshot plus the event-mapping table.

    ``mapping`` is :func:`pack_mapping` of ``registry``, when the caller
    holds it already.
    """
    if mapping is None:
        mapping = pack_mapping(registry)
    flags = 0
    for data in tasks.values():
        if data.counter_source is not None:
            flags |= FLAG_COUNTERS
            break
    out = bytearray(_HDR.pack(MAGIC_PROFILE, VERSION, flags, len(tasks),
                              registry.bound_count))
    out += mapping
    u32 = _U32.pack
    for pid in sorted(tasks):
        data = tasks[pid]
        out += _TASK_FIXED.pack(pid)
        _pack_str(out, data.comm)
        out += u32(len(data.profile))
        out += b"".join([
            _PERF_ENTRY.pack(event_id, perf.count, perf.incl_cycles,
                             perf.excl_cycles)
            for event_id, perf in sorted(data.profile.items())])
        out += u32(len(data.atomic))
        out += b"".join([
            _ATOMIC_ENTRY.pack(event_id, *stats.as_tuple())
            for event_id, stats in sorted(data.atomic.items())])
        out += u32(len(data.context_pairs))
        for (ctx, event_id), (count, excl) in sorted(data.context_pairs.items()):
            _pack_str(out, ctx)
            out += _CTX_FIXED.pack(event_id, count, excl)
        out += u32(len(data.counter_profile))
        out += b"".join([
            _COUNTER_ENTRY.pack(event_id, *entry)
            for event_id, entry in sorted(data.counter_profile.items())])
        out += u32(len(data.callgraph))
        for (parent, event_id), (count, incl) in sorted(data.callgraph.items()):
            _pack_str(out, parent)
            out += _EDGE_FIXED.pack(event_id, count, incl)
        if data.counter_source is not None:
            out.append(1)
            out += _PMC_BLOCK.pack(*data.counter_source())
        else:
            out.append(0)
    return bytes(out)


def profiles_size(tasks: dict[int, KtauTaskData], registry: EventRegistry,
                  mapping: Optional[bytes] = None) -> int:
    """``len(pack_profiles(tasks, registry))``, computed from the layout.

    Fixed entry sizes times counts, plus the string lengths: the size
    call of the /proc protocol sizes the buffer without serialising.
    """
    if mapping is None:
        mapping = pack_mapping(registry)
    size = _HDR.size + len(mapping)
    for data in tasks.values():
        size += (_TASK_OVERHEAD + _str_size(data.comm)
                 + len(data.profile) * _PERF_ENTRY.size
                 + len(data.atomic) * _ATOMIC_ENTRY.size
                 + len(data.context_pairs) * _CTX_FIXED.size
                 + len(data.counter_profile) * _COUNTER_ENTRY.size
                 + len(data.callgraph) * _EDGE_FIXED.size)
        for ctx, _event_id in data.context_pairs:
            size += _str_size(ctx)
        for parent, _event_id in data.callgraph:
            size += _str_size(parent)
        if data.counter_source is not None:
            size += _PMC_BLOCK.size
    return size


def pack_trace(pid: int, lost: int, records: list[TraceRecord],
               registry: EventRegistry) -> bytes:
    """Serialise a drained trace buffer (mapping shipped as a side table).

    The trace format references events by ID; a compact mapping table is
    appended after the records (id/name pairs for the IDs actually used).
    """
    out = bytearray(_TRACE_HDR.pack(MAGIC_TRACE, VERSION, pid, lost,
                                    len(records)))
    out += b"".join(starmap(_TRACE_REC.pack, records))
    used = sorted({rec[1] for rec in records})
    out += _U32.pack(len(used))
    for event_id in used:
        out += _MAP_ENTRY.pack(event_id)
        _pack_str(out, registry.name_of(event_id))
    return bytes(out)


def trace_size(records: list[TraceRecord], registry: EventRegistry) -> int:
    """``len(pack_trace(..., records, registry))``, from the layout."""
    size = TRACE_MIN_SIZE + len(records) * _TRACE_REC.size
    for event_id in dict.fromkeys([rec[1] for rec in records]):
        size += _MAP_ENTRY.size + _str_size(registry.name_of(event_id))
    return size


def trace_fit(records: list[TraceRecord], registry: EventRegistry,
              bufsize: int) -> int:
    """How many leading ``records`` pack, with their mapping entries,
    into ``bufsize`` bytes (the short-buffer trace read)."""
    room = bufsize - TRACE_MIN_SIZE
    used: set[int] = set()
    for kept, rec in enumerate(records):
        cost = _TRACE_REC.size
        event_id = rec[1]
        if event_id not in used:
            cost += _MAP_ENTRY.size + _str_size(registry.name_of(event_id))
        if cost > room:
            return kept
        room -= cost
        used.add(event_id)
    return len(records)


# ---------------------------------------------------------------------------
# User-side unpacking (libKtau)
# ---------------------------------------------------------------------------
class MappingMemo:
    """The last event-mapping table a reader decoded, reused while the
    buffers it reads carry the same table (it changes only when a point
    binds on the node)."""

    __slots__ = ("nmap", "raw", "names", "groups")

    def __init__(self) -> None:
        self.nmap = -1
        self.raw = b""
        self.names: dict[int, str] = {}
        self.groups: dict[int, str] = {}


def _unpack_mapping(buf: bytes, off: int, nmap: int, memo: MappingMemo
                    ) -> int:
    """Decode ``nmap`` mapping entries at ``off`` into ``memo`` (unless it
    already holds exactly these bytes); returns the offset past them."""
    if nmap == memo.nmap and buf.startswith(memo.raw, off):
        # Same count and same bytes: parsing them again would consume
        # exactly ``memo.raw`` and yield the same table.
        return off + len(memo.raw)
    start = off
    names: dict[int, str] = {}
    groups: dict[int, str] = {}
    for _ in range(nmap):
        if off + _MAP_ENTRY.size > len(buf):
            raise WireError("truncated mapping table")
        (event_id,) = _MAP_ENTRY.unpack_from(buf, off)
        off += _MAP_ENTRY.size
        name, off = _unpack_str(buf, off)
        group, off = _unpack_str(buf, off)
        names[event_id] = name
        groups[event_id] = group
    memo.nmap = nmap
    memo.raw = bytes(buf[start:off])
    memo.names = names
    memo.groups = groups
    return off


def _count(buf: bytes, off: int, what: str) -> tuple[int, int]:
    if off + _U32.size > len(buf):
        raise WireError(f"truncated {what} count")
    return _U32.unpack_from(buf, off)[0], off + _U32.size


def _section(buf: bytes, view: memoryview, off: int, entry: struct.Struct,
             what: str):
    """A counted section of fixed-size entries: one bounds check, then
    ``iter_unpack``; returns ``(entries, offset past them)``."""
    n, off = _count(buf, off, what)
    end = off + n * entry.size
    if end > len(buf):
        raise WireError(f"truncated {what} entry")
    return entry.iter_unpack(view[off:end]), end


def _missing(exc: KeyError) -> WireError:
    return WireError(f"event id {exc.args[0]} missing from mapping table")


def unpack_profiles(buf: bytes, memo: Optional[MappingMemo] = None
                    ) -> dict[int, TaskProfileDump]:
    """Decode a profile buffer into name-keyed per-task dumps.

    ``memo`` keeps the decoded mapping table between calls (libKtau
    holds one per handle).
    """
    if len(buf) < _HDR.size:
        raise WireError("buffer shorter than header")
    magic, version, _flags, ntasks, nmap = _HDR.unpack_from(buf, 0)
    if magic != MAGIC_PROFILE:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if memo is None:
        memo = MappingMemo()
    off = _unpack_mapping(buf, _HDR.size, nmap, memo)
    names = memo.names
    groups = memo.groups
    view = memoryview(buf)

    dumps: dict[int, TaskProfileDump] = {}
    for _ in range(ntasks):
        if off + _TASK_FIXED.size > len(buf):
            raise WireError("truncated task header")
        (pid,) = _TASK_FIXED.unpack_from(buf, off)
        off += _TASK_FIXED.size
        comm, off = _unpack_str(buf, off)
        dump = TaskProfileDump(pid=pid, comm=comm)
        perf, atomic, dgroups = dump.perf, dump.atomic, dump.groups
        try:
            entries, off = _section(buf, view, off, _PERF_ENTRY, "perf")
            for event_id, count, incl, excl in entries:
                name = names[event_id]
                perf[name] = (count, incl, excl)
                dgroups[name] = groups[event_id]
            entries, off = _section(buf, view, off, _ATOMIC_ENTRY, "atomic")
            for event_id, count, total, mn, mx in entries:
                name = names[event_id]
                atomic[name] = (count, total, mn, mx)
                dgroups[name] = groups[event_id]
            nctx, off = _count(buf, off, "context")
            for _ in range(nctx):
                ctx, off = _unpack_str(buf, off)
                if off + _CTX_FIXED.size > len(buf):
                    raise WireError("truncated context entry")
                event_id, count, excl = _CTX_FIXED.unpack_from(buf, off)
                off += _CTX_FIXED.size
                dump.context_pairs[(ctx, names[event_id])] = (count, excl)
            entries, off = _section(buf, view, off, _COUNTER_ENTRY, "counter")
            counters = dump.counters
            for entry in entries:
                counters[names[entry[0]]] = entry[1:]
            nedge, off = _count(buf, off, "edge")
            for _ in range(nedge):
                parent, off = _unpack_str(buf, off)
                if off + _EDGE_FIXED.size > len(buf):
                    raise WireError("truncated edge entry")
                event_id, count, incl = _EDGE_FIXED.unpack_from(buf, off)
                off += _EDGE_FIXED.size
                dump.edges[(parent, names[event_id])] = (count, incl)
        except KeyError as exc:
            raise _missing(exc) from None
        if off >= len(buf):
            raise WireError("truncated pmc presence byte")
        has_pmc = buf[off]
        off += 1
        if has_pmc:
            if off + _PMC_BLOCK.size > len(buf):
                raise WireError("truncated pmc block")
            dump.pmc = _PMC_BLOCK.unpack_from(buf, off)
            off += _PMC_BLOCK.size
        dumps[pid] = dump
    return dumps


def unpack_trace(buf: bytes) -> TraceDump:
    """Decode a trace buffer."""
    if len(buf) < _TRACE_HDR.size:
        raise WireError("trace buffer shorter than header")
    magic, version, pid, lost, nrec = _TRACE_HDR.unpack_from(buf, 0)
    if magic != MAGIC_TRACE:
        raise WireError(f"bad trace magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported trace version {version}")
    off = _TRACE_HDR.size
    end = off + nrec * _TRACE_REC.size
    if end > len(buf):
        raise WireError("truncated trace record")
    raw = _TRACE_REC.iter_unpack(memoryview(buf)[off:end])
    nmap, off = _count(buf, end, "trace mapping")
    names: dict[int, str] = {}
    for _ in range(nmap):
        if off + _MAP_ENTRY.size > len(buf):
            raise WireError("truncated trace mapping entry")
        (event_id,) = _MAP_ENTRY.unpack_from(buf, off)
        off += _MAP_ENTRY.size
        name, off = _unpack_str(buf, off)
        names[event_id] = name
    kinds = _KINDS
    try:
        records = [(cycles, names[event_id], kinds[kind], value)
                   for cycles, event_id, kind, value in raw]
    except KeyError as exc:
        raise _missing(exc) from None
    except IndexError:
        raise WireError("bad trace record kind") from None
    return TraceDump(pid=pid, lost=lost, records=records)
