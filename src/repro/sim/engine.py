"""The discrete-event engine.

A single :class:`Engine` instance drives an entire simulated cluster: all
nodes share one virtual clock so that cross-node messages and per-node
scheduling interleave consistently.

Events are plain callbacks ordered by ``(time, sequence)``; the sequence
number makes simultaneous events FIFO and the whole simulation
deterministic.  Handles returned by :meth:`Engine.schedule` can be
cancelled, which is how the CPU executor retracts a burst-completion or
timeslice-expiry event when an interrupt or wakeup changes the plan.

Hot-path design (the engine is the substrate every experiment pays for):

* The queue is a calendar-queue / timing-wheel hybrid instead of a binary
  heap.  Near-future events hash into power-of-two-wide *buckets* keyed by
  ``time >> shift`` (a dict of unsorted append-only lists, plus a small
  heap of occupied bucket keys).  Enqueue into a future bucket is an O(1)
  ``list.append``; each bucket is sorted once, in C, when its turn comes.
  The timer distributions our simulated kernel generates (timeslice
  ticks, NIC latencies, KTAUD periods) are heavily clustered, which is
  exactly the shape calendar queues were designed for.
* The bucket currently being drained is the *lane*: a sorted list
  consumed by index.  Consumed slots are overwritten with a shared
  ``_DEAD`` sentinel that sorts before any live entry, so events
  scheduled into the current bucket mid-drain can ``bisect.insort``
  straight into the pending region — FIFO ``(time, seq)`` order is
  preserved bit-for-bit relative to the old heap.
* ``cancel()`` is a lazy delete: flag flip plus two counter increments.
  Dead entries are reclaimed when their bucket drains, or — when
  cancellations outnumber live events — by an amortized sweep checked
  once per bucket advance, never per event.
* Bucket width self-recalibrates: every 64 drained buckets the engine
  compares average occupancy against a band (wide lanes amortize
  per-bucket overhead; narrow lanes bound insort memmove) and re-keys
  the wheel one shift step at a time.  Recalibration only happens while
  the lane is empty, which keeps the routing invariant (every dict key
  strictly greater than the lane's key) trivially true.
* Far-future events (beyond ``_SPAN`` buckets ahead) sit in an ordered
  fallback heap and migrate into the wheel in batches as the clock
  approaches them.
* Dispatch is specialized: :meth:`run` selects one of three loop
  variants (unbounded, ``until``-bounded, fully general) once per call,
  and same-timestamp events batch into a single clock advance.
* Fired and cancelled handles are recycled through a bounded free list.
  A handle is only pooled when the engine holds the *sole* remaining
  reference (checked via ``sys.getrefcount``), so callers that keep a
  handle around — to cancel it later or inspect ``active`` — can never
  observe it being reused for an unrelated event.
* Observability (:mod:`repro.obs`) costs nothing per event: the engine
  keeps plain-integer counters on paths that already do bookkeeping
  (handle construction, cancellation, sweeps) and publishes deltas to
  the metrics registry once per :meth:`Engine.run` — and only when
  collection is enabled.  The dispatch loops themselves are untouched.
"""

from __future__ import annotations

import heapq
from bisect import insort
from sys import getrefcount
from typing import Callable, Optional

from repro.obs import runtime as _obs

#: Upper bound on the handle free list; beyond this, dead handles are
#: simply released to the allocator.
_POOL_MAX = 1024

#: Bucket-width bounds: spans from 16 ns to ~1 ms per bucket.
_MIN_SHIFT = 4
_MAX_SHIFT = 20
_START_SHIFT = 10

#: Recalibrate after this many drained buckets, steering average bucket
#: occupancy into [_WIDEN_BELOW, _NARROW_ABOVE].  The band is asymmetric
#: and biased wide: a wide lane is a plain sorted list (C insort + index
#: consume, no per-bucket overhead), which is the fastest structure at
#: the modest pending counts most runs have; narrowing only pays once
#: lanes grow enough that insort's memmove dominates.
_RECAL_BUCKETS = 64
_NARROW_ABOVE = 512.0
_WIDEN_BELOW = 64.0

#: Sweep dead entries out of the wheel once more than this many
#: cancellations are queued *and* they outnumber the live events.
_SWEEP_MIN = 512

#: Wheel span in buckets: events further ahead than this go to the
#: ordered far-future fallback heap.
_SPAN = 4096

#: Consumed-slot sentinel.  Sorts before any live ``(time, seq, handle)``
#: entry (times and seqs are non-negative), so a lane's dead prefix can
#: never capture an insort.
_DEAD = (-1, -1, None)


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("fn", "cancelled", "engine")

    def __init__(self, fn: Callable[[], None]):
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False
        #: back-reference for cancel-time accounting; set by the engine
        self.engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Retract the event; a cancelled entry is skipped when reached.

        Lazy delete: no queue surgery here — a flag flip, two counter
        increments, and we are done.  ``fn is not None`` doubles as the
        "still queued" test (it is cleared on fire and on cancel), so a
        stale cancel after the event fired is inert.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.fn is not None:
            self.fn = None  # break reference cycles early
            eng = self.engine
            if eng is not None:
                eng._cancels += 1
                eng._cancelled_in_queue += 1

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "pending" if self.fn is not None else "fired")
        return f"<EventHandle {state}>"


class Engine:
    """Virtual-time event loop.

    Attributes
    ----------
    now:
        Current virtual time in integer nanoseconds.  Monotonically
        non-decreasing; only the engine advances it.
    """

    __slots__ = ("now", "_seq", "_fired", "_cancels", "_cancelled_in_queue",
                 "_stopped", "_free", "_pool_misses", "_sweeps", "_recals",
                 "_shift", "_buckets", "_keys", "_cur", "_cur_idx",
                 "_cur_key", "_far", "_far_horizon", "_drained_events",
                 "_drained_buckets", "_obs_base")

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._fired: int = 0
        self._cancels: int = 0
        self._cancelled_in_queue: int = 0
        self._stopped: bool = False
        self._free: list[EventHandle] = []  # handle free list
        # Always-on observability counters (plain increments on paths
        # that already pay an allocation or a sweep).  Pool hits are
        # derived: every schedule either reuses a pooled handle or
        # constructs one, so hits = _seq - _pool_misses.
        self._pool_misses: int = 0
        self._sweeps: int = 0
        self._recals: int = 0

        # Calendar-queue state.  Entries are (time, seq, handle) tuples
        # everywhere, so every comparison is a C-level tuple compare.
        self._shift: int = _START_SHIFT
        self._buckets: dict[int, list[tuple[int, int, EventHandle]]] = {}
        self._keys: list[int] = []          # min-heap of occupied keys
        self._cur: list[tuple[int, int, EventHandle]] = []  # the lane
        self._cur_idx: int = 0              # next unconsumed lane slot
        self._cur_key: int = -1             # lane's bucket key; -1 = none
        self._far: list[tuple[int, int, EventHandle]] = []  # overflow heap
        self._far_horizon: int = _SPAN << _START_SHIFT
        # recalibration accounting (consumed lane entries per bucket)
        self._drained_events: int = 0
        self._drained_buckets: int = 0
        #: last-published cumulative counters, for metrics deltas:
        #: [seq, fired, cancels, pool_misses, sweeps, recals]
        self._obs_base: list[int] = [0, 0, 0, 0, 0, 0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # ``schedule`` duplicates ``schedule_at`` rather than delegating: one
    # Python call frame per event is real money on the hot path, and
    # these two are the only entry points.

    def schedule_at(self, time: int, fn: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``fn`` to run at absolute virtual time ``time``.

        ``time`` must not be in the past.  Returns a cancellable handle.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            handle = free.pop()
            handle.fn = fn
            handle.cancelled = False
        else:
            handle = EventHandle(fn)
            handle.engine = self
            self._pool_misses += 1
        key = time >> self._shift
        if key <= self._cur_key:
            # Into the lane being drained.  Safe: every live lane entry
            # sits at index >= _cur_idx (consumed slots are _DEAD and
            # sort first), so ordered insertion lands in the pending
            # region.  Event chains schedule monotonically, so the
            # common case is "sorts after everything" — one tuple
            # compare against the tail beats a full bisect.
            entry = (time, seq, handle)
            cur = self._cur
            if not cur or cur[-1] < entry:
                cur.append(entry)
            else:
                insort(cur, entry)
        elif time < self._far_horizon:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, handle)]
                heapq.heappush(self._keys, key)
            else:
                bucket.append((time, seq, handle))
        else:
            heapq.heappush(self._far, (time, seq, handle))
        return handle

    def schedule(self, delay: int, fn: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``fn`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            handle = free.pop()
            handle.fn = fn
            handle.cancelled = False
        else:
            handle = EventHandle(fn)
            handle.engine = self
            self._pool_misses += 1
        key = time >> self._shift
        if key <= self._cur_key:
            entry = (time, seq, handle)
            cur = self._cur
            if not cur or cur[-1] < entry:
                cur.append(entry)
            else:
                insort(cur, entry)
        elif time < self._far_horizon:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, handle)]
                heapq.heappush(self._keys, key)
            else:
                bucket.append((time, seq, handle))
        else:
            heapq.heappush(self._far, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Bucket machinery
    # ------------------------------------------------------------------
    def _advance_bucket(self) -> bool:
        """Install the next non-empty bucket as the lane.

        Returns ``False`` when no events remain anywhere.  This is the
        once-per-bucket slow path: recalibration, sweep triggering, and
        far-future migration all live here so the per-event loops never
        pay for them.
        """
        self._drained_events += len(self._cur)
        self._cur_key = -1
        # Recalibration only ever runs here, with the lane empty: the
        # re-keying below would violate the lane routing invariant for
        # any pending lane entries.
        if self._drained_buckets >= _RECAL_BUCKETS:
            self._maybe_recalibrate()
        cancelled = self._cancelled_in_queue
        if cancelled > _SWEEP_MIN \
                and cancelled > self._seq - self._fired - self._cancels:
            self._sweep()
        keys = self._keys
        buckets = self._buckets
        far = self._far
        while True:
            shift = self._shift
            if far and (not keys or (far[0][0] >> shift) <= keys[0]):
                self._migrate_far()
                continue
            if not keys:
                self._cur = []
                self._cur_idx = 0
                return False
            key = heapq.heappop(keys)
            bucket = buckets.pop(key, None)
            if bucket is None:
                continue  # stale key (bucket emptied by a sweep)
            bucket.sort()
            self._cur = bucket
            self._cur_idx = 0
            self._cur_key = key
            self._drained_buckets += 1
            return True

    def _migrate_far(self) -> None:
        """Move the due span of far-future events into the wheel."""
        far = self._far
        shift = self._shift
        horizon = ((far[0][0] >> shift) + _SPAN) << shift
        buckets = self._buckets
        keys = self._keys
        pop = heapq.heappop
        while far and far[0][0] < horizon:
            entry = pop(far)
            key = entry[0] >> shift
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
                heapq.heappush(keys, key)
            else:
                bucket.append(entry)
        self._far_horizon = horizon

    def _maybe_recalibrate(self) -> None:
        avg = self._drained_events / self._drained_buckets
        self._drained_events = 0
        self._drained_buckets = 0
        shift = self._shift
        if avg > _NARROW_ABOVE and shift > _MIN_SHIFT:
            self._reshift(shift - 1)
        elif avg < _WIDEN_BELOW and shift < _MAX_SHIFT:
            self._reshift(shift + 1)

    def _reshift(self, shift: int) -> None:
        """Re-key every wheel bucket under a new width.

        The far heap keeps plain ``(time, seq, handle)`` order, so it
        needs no re-keying; ``_advance_bucket``'s migration test compares
        against the live shift, which keeps far-vs-wheel ordering correct
        even though ``_far_horizon`` is no longer bucket-aligned.
        """
        self._recals += 1
        entries = [e for b in self._buckets.values() for e in b]
        self._shift = shift
        self._buckets = buckets = {}
        for entry in entries:
            key = entry[0] >> shift
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
        self._keys = keys = list(buckets)
        heapq.heapify(keys)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given and the run is not stopped early via
        :meth:`stop`, the clock is advanced to exactly ``until`` on return
        (even if the queue drained earlier), so callers can treat it as
        "simulate this much virtual time".
        """
        if not (_obs.metrics_on or _obs.tracing_on):
            self._dispatch(until, max_events)
            return
        # Observed run: wall-time the loop and publish counter deltas
        # once at the end.  Per-event cost is identical to the fast path.
        t0 = _obs.wall_clock()
        tracing = _obs.tracing_on
        if tracing:
            from repro.obs.tracer import TRACER
            TRACER.begin("engine.run", "engine")
        fired_before = self._fired
        try:
            self._dispatch(until, max_events)
        finally:
            fired = self._fired - fired_before
            if _obs.metrics_on:
                self._publish_obs(_obs.wall_clock() - t0)
            if tracing:
                TRACER.end("engine.run", "engine", events=fired)

    def _dispatch(self, until: Optional[int], max_events: Optional[int]) -> None:
        """Select the dispatch-loop variant once per run, not per event."""
        if until is None:
            if max_events is None:
                self._run_fast()
            else:
                self._run_general(None, max_events)
            return
        if max_events is None:
            self._run_until(until)
        else:
            self._run_general(until, max_events)
        if not self._stopped and self.now < until:
            self.now = until

    def _run_fast(self) -> None:
        """Drain the queue completely: no bounds checked per event."""
        self._stopped = False
        refcount = getrefcount
        llen = len
        free = self._free
        free_append = free.append
        cur = self._cur
        idx = self._cur_idx
        now = self.now
        fired = self._fired
        while True:
            # ``len(cur)`` is re-read every iteration on purpose:
            # callbacks insort into the lane.
            while idx < llen(cur):
                entry = cur[idx]
                cur[idx] = _DEAD
                idx += 1
                handle = entry[2]
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    # Expected refs: `entry` tuple + `handle` + arg.
                    if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                        free_append(handle)
                    continue
                t = entry[0]
                if t != now:
                    self.now = now = t
                fn = handle.fn
                handle.fn = None
                fired += 1
                fn()  # type: ignore[misc]  # live handles carry a fn
                # Anything above 3 means a caller still holds the handle.
                if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                    free_append(handle)
                if self._stopped:
                    self._fired = fired
                    self._cur_idx = idx
                    return
            self._fired = fired
            if not self._advance_bucket():
                return
            cur = self._cur
            idx = 0

    def _run_until(self, until: int) -> None:
        """Drain events with ``time <= until``; the production loop for
        experiment runs (``engine.run(until=...)``)."""
        self._stopped = False
        refcount = getrefcount
        llen = len
        free = self._free
        free_append = free.append
        cur = self._cur
        idx = self._cur_idx
        now = self.now
        while True:
            while idx < llen(cur):
                entry = cur[idx]
                handle = entry[2]
                if handle.cancelled:
                    cur[idx] = _DEAD
                    idx += 1
                    self._cancelled_in_queue -= 1
                    if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                        free_append(handle)
                    continue
                t = entry[0]
                if t > until:
                    self._cur_idx = idx  # leave the entry for later runs
                    return
                cur[idx] = _DEAD
                idx += 1
                if t != now:
                    self.now = now = t
                fn = handle.fn
                handle.fn = None
                self._fired += 1
                fn()  # type: ignore[misc]
                if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                    free_append(handle)
                if self._stopped:
                    self._cur_idx = idx
                    return
            self._cur_idx = idx
            if not self._advance_bucket():
                return
            cur = self._cur
            idx = 0

    def _run_general(self, until: Optional[int], max_events: Optional[int]) -> None:
        """Fully general loop: both bounds live, used by :meth:`step`
        and mixed ``until``/``max_events`` calls."""
        self._stopped = False
        refcount = getrefcount
        free = self._free
        processed = 0
        cur = self._cur
        idx = self._cur_idx
        while True:
            if max_events is not None and processed >= max_events:
                self._cur_idx = idx
                return
            if idx >= len(cur):
                self._cur_idx = idx
                if not self._advance_bucket():
                    return
                cur = self._cur
                idx = 0
            entry = cur[idx]
            handle = entry[2]
            if handle.cancelled:
                cur[idx] = _DEAD
                idx += 1
                self._cancelled_in_queue -= 1
                if refcount(handle) == 3 and len(free) < _POOL_MAX:
                    free.append(handle)
                continue
            t = entry[0]
            if until is not None and t > until:
                self._cur_idx = idx
                return
            cur[idx] = _DEAD
            idx += 1
            if t != self.now:
                self.now = t
            fn = handle.fn
            handle.fn = None
            self._fired += 1
            fn()  # type: ignore[misc]
            processed += 1
            if refcount(handle) == 3 and len(free) < _POOL_MAX:
                free.append(handle)
            if self._stopped:
                self._cur_idx = idx
                return

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until no active events remain."""
        self.run(until=None, max_events=max_events)

    def step(self) -> bool:
        """Pop and run the next active event.

        Returns ``False`` when the queue holds no active events.
        """
        before = self._fired
        self._run_general(None, 1)
        return self._fired > before

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Sweeping (lazy-delete reclamation)
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Reclaim cancelled entries from the wheel and the far heap.

        The lane is deliberately left alone: a sweep can trigger from a
        bucket advance while outer frames hold no lane index, but keeping
        the lane untouched means cancel-heavy callbacks can never move
        entries under a running dispatch loop.  Lane residue is bounded
        by one bucket and drains naturally.
        """
        self._sweeps += 1
        removed = 0
        free = self._free
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            live = []
            for entry in bucket:
                handle = entry[2]
                if handle.cancelled:
                    removed += 1
                    # refs: `entry` tuple + `handle` + getrefcount arg
                    if getrefcount(handle) == 3 and len(free) < _POOL_MAX:
                        free.append(handle)
                else:
                    live.append(entry)
            if len(live) != len(bucket):
                if live:
                    bucket[:] = live
                else:
                    # the key stays in the key heap; _advance_bucket
                    # skips it via the dict pop
                    del buckets[key]
        far = self._far
        live_far = []
        for entry in far:
            handle = entry[2]
            if handle.cancelled:
                removed += 1
                if getrefcount(handle) == 3 and len(free) < _POOL_MAX:
                    free.append(handle)
            else:
                live_far.append(entry)
        if len(live_far) != len(far):
            far[:] = live_far
            heapq.heapify(far)
        self._cancelled_in_queue -= removed

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _publish_obs(self, wall_s: float) -> None:
        """Push counter deltas since the last publish into the metrics
        registry (one call per observed :meth:`run`)."""
        from repro.obs.metrics import REGISTRY
        base = self._obs_base
        scheduled = self._seq
        fired = self._fired
        cancels = self._cancels
        misses = self._pool_misses
        sweeps = self._sweeps
        recals = self._recals
        REGISTRY.counter("engine.runs").inc()
        REGISTRY.counter("engine.events_scheduled").inc(scheduled - base[0])
        REGISTRY.counter("engine.events_fired").inc(fired - base[1])
        REGISTRY.counter("engine.events_cancelled").inc(cancels - base[2])
        REGISTRY.counter("engine.pool_misses").inc(misses - base[3])
        REGISTRY.counter("engine.pool_hits").inc(
            (scheduled - misses) - (base[0] - base[3]))
        REGISTRY.counter("engine.sweeps").inc(sweeps - base[4])
        REGISTRY.counter("engine.recalibrations").inc(recals - base[5])
        self._obs_base = [scheduled, fired, cancels, misses, sweeps, recals]
        REGISTRY.gauge("engine.pending_events").set(self.pending)
        REGISTRY.gauge("engine.pool_free").set(len(self._free))
        REGISTRY.histogram("engine.run_wall_s").observe(wall_s)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[EventHandle]:
        """The next live handle, reclaiming dead lane entries passed over."""
        while True:
            cur = self._cur
            idx = self._cur_idx
            if idx >= len(cur):
                if not self._advance_bucket():
                    return None
                continue
            entry = cur[idx]
            handle = entry[2]
            if handle.cancelled:
                cur[idx] = _DEAD
                self._cur_idx = idx + 1
                self._cancelled_in_queue -= 1
                free = self._free
                if getrefcount(handle) == 3 and len(free) < _POOL_MAX:
                    free.append(handle)
                continue
            return handle

    def _physical_size(self) -> int:
        """Entries physically held (live + not-yet-reclaimed cancelled)."""
        return (len(self._cur) - self._cur_idx
                + sum(len(b) for b in self._buckets.values())
                + len(self._far))

    @property
    def pending(self) -> int:
        """Number of active (non-cancelled) events still queued."""
        return self._seq - self._fired - self._cancels

    @property
    def events_processed(self) -> int:
        """Total events executed since construction (diagnostics)."""
        return self._fired

    @property
    def events_cancelled(self) -> int:
        """Total in-queue cancellations since construction (diagnostics)."""
        return self._cancels

    @property
    def queue_sweeps(self) -> int:
        """Times cancelled entries were swept out in bulk (diagnostics)."""
        return self._sweeps

    @property
    def recalibrations(self) -> int:
        """Times the bucket width was re-keyed (diagnostics)."""
        return self._recals

