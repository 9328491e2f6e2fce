"""Per-task circular trace buffers.

When tracing is configured, KTAU attaches a fixed-size circular buffer to
each process; entries are (timestamp, event, kind, value) records.  If
user-space (KTAUD or a self-tracing client) does not drain the buffer fast
enough, the oldest records are overwritten and *lost* — the paper calls
this out explicitly, and tests exercise it.

Hot-path note: tracing doubles the per-event measurement work, so
:meth:`TraceBuffer.append` batches — records land in a plain pending list
(one ``list.append`` per record) and are folded into the ring in bulk
when the batch fills or the buffer is read.  Every observable (``peek``,
``drain``, ``len``, ``lost_count``, ``total_records``) flushes first, so
the batching is invisible to clients; strict mode bypasses it entirely so
overflow raises at the exact offending append.

The ring is grown lazily: it starts empty and is extended batch by batch,
becoming a fixed ``capacity``-slot ring (overwritten by slice assignment)
only once it fills without a drain.  A drain hands the storage to the
reader and starts empty again, so a task that is drained often, or never
traces much, never pays for ``capacity`` slots.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple


class TraceKind(enum.IntEnum):
    """Record types in a KTAU trace."""

    ENTRY = 0
    EXIT = 1
    ATOMIC = 2


class TraceRecord(NamedTuple):
    """One trace-buffer record.

    ``cycles`` is the node-local TSC timestamp; ``event_id`` indexes the
    node's event-mapping table; ``value`` carries the atomic-event payload
    (zero for entry/exit records).
    """

    cycles: int
    event_id: int
    kind: TraceKind
    value: int = 0


class TraceOverflowError(RuntimeError):
    """Strict-mode sanitizer: a trace record was overwritten unread.

    Record loss is legal KTAU behaviour (the paper calls it out), but a
    client that *believes* it drains fast enough can opt into strict mode
    to be told the moment that belief is wrong, instead of silently
    producing a trace with holes.
    """


#: Pending records folded into the ring once this many accumulate.
_BATCH = 128


class TraceBuffer:
    """Fixed-capacity circular buffer of :class:`TraceRecord`.

    ``drain`` returns and removes the buffered records in order;
    ``lost_count`` reports how many records were overwritten before being
    read (cumulative).  With ``strict=True`` an overwrite raises
    :class:`TraceOverflowError` instead of silently losing the record.
    """

    def __init__(self, capacity: int, strict: bool = False):
        if capacity <= 0:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self.strict = strict
        #: the buffered records; oldest first while growing, rotated by
        #: ``_head`` once full (``len(_buf) == capacity``)
        self._buf: list[TraceRecord] = []
        self._head = 0  # oldest record / next overwrite slot when full
        self._lost = 0  # cumulative overwrites
        self._total = 0  # cumulative writes
        self._pending: list[TraceRecord] = []  # batched, not yet in the ring
        #: cumulative batched folds into the ring (observability; strict
        #: mode never batches, so it stays 0 there)
        self.flush_count = 0

    def append(self, record: TraceRecord) -> None:
        if self.strict:
            # Strict mode trades the batching away for an exact raise
            # point: the sanitizer must name the first offending append.
            # It never wraps, so the ring only ever grows.
            if len(self._buf) == self.capacity:
                raise TraceOverflowError(
                    f"trace buffer overflow: capacity {self.capacity} "
                    f"reached, oldest record would be lost unread "
                    f"(total written: {self._total})")
            self._buf.append(record)
            self._total += 1
            return
        pending = self._pending
        pending.append(record)
        if len(pending) >= _BATCH:
            self._flush()

    def _flush(self) -> None:
        """Fold the pending batch into the ring in bulk."""
        pending = self._pending
        n = len(pending)
        if not n:
            return
        self.flush_count += 1
        self._total += n
        self._pending = []
        buf = self._buf
        cap = self.capacity
        room = cap - len(buf)
        if n <= room:
            buf.extend(pending)
            return
        # Fill the ring, then overwrite the oldest records in place.
        i = 0
        if room:
            buf.extend(pending[:room])
            i = room
        self._lost += n - i
        head = self._head
        if n - i > cap:
            # Only the last ``cap`` records survive; skip straight to
            # them, advancing head as if each dropped record was written.
            head = (head + n - i - cap) % cap
            i = n - cap
        while i < n:
            k = min(cap - head, n - i)
            buf[head:head + k] = pending[i:i + k]
            head += k
            if head == cap:
                head = 0
            i += k
        self._head = head

    def note_lost(self, n: int) -> None:
        """Count ``n`` drained records the reader had no room for as lost."""
        self._lost += n

    @property
    def lost_count(self) -> int:
        """Cumulative records overwritten before being read."""
        self._flush()
        return self._lost

    @property
    def total_records(self) -> int:
        """Cumulative records ever written."""
        self._flush()
        return self._total

    def __len__(self) -> int:
        self._flush()
        return len(self._buf)

    def peek(self) -> list[TraceRecord]:
        """Buffered records oldest-first, without removing them."""
        self._flush()
        head = self._head
        return self._buf[head:] + self._buf[:head]

    def drain(self) -> list[TraceRecord]:
        """Remove and return all buffered records, oldest-first."""
        self._flush()
        out = self._buf
        head = self._head
        if head:
            out = out[head:] + out[:head]
        self._buf = []
        self._head = 0
        return out

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.peek())
