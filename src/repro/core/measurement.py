"""The KTAU measurement system.

This module is the in-kernel half of KTAU: it owns the per-task performance
structures hung off the simulated process control block, performs the
activation-stack inclusive/exclusive accounting, writes trace records, and
charges measurement overhead back into simulated time (which is what makes
the perturbation study meaningful).

Semantics reproduced from the paper:

* **Entry/exit events** — high-resolution (TSC cycle) timing; an
  activation-stack depth is tracked and used to compute inclusive and
  exclusive time.  Inclusive time is only accumulated for the *outermost*
  activation of a recursive event.
* **Atomic events** — stand-alone events carrying a value (e.g. network
  packet sizes); count/sum/min/max are kept.
* **Event mapping** — numeric IDs bound on first firing through the
  kernel's :class:`~repro.core.registry.EventRegistry`.
* **Process life-cycle** — structures are allocated at process creation
  and preserved in a zombie store at exit until a client (e.g. runKtau)
  reaps them.
* **Process-centric attribution** — kernel events are recorded against
  whatever task is *current* on the CPU, including interrupt handling that
  merely happens to run in that task's context; the user-level (TAU)
  context active at event entry is tracked when ``merge_context`` is
  built in, powering the merged user/kernel views.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.overhead import OverheadModel, ZeroOverheadModel
from repro.core.registry import EventRegistry, InstrumentationPoint, PointKind
from repro.core.tracebuf import TraceBuffer, TraceKind, TraceRecord
from repro.obs import runtime as _obs
from repro.sim.clock import CycleClock


class InstrumentationImbalanceError(RuntimeError):
    """Strict-mode sanitizer: the activation stack was misused.

    In the default (paper-faithful) mode an unmatched exit is counted in
    ``KtauTaskData.unmatched_exits`` and the sample dropped — correct for
    a production kernel where mid-region enable/disable legitimately
    unbalances the stack.  Strict mode is the development-time companion
    to the ``ktaulint`` static balance rule (KTAU101/KTAU102): it raises
    at the first imbalance, naming the instrumentation point, so the
    dynamic check validates what the static pass claims.
    """


class PerfData:
    """Profile counters for one entry/exit event in one task."""

    __slots__ = ("count", "incl_cycles", "excl_cycles")

    def __init__(self) -> None:
        self.count = 0
        self.incl_cycles = 0
        self.excl_cycles = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.count, self.incl_cycles, self.excl_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfData(count={self.count}, incl={self.incl_cycles}, excl={self.excl_cycles})"


class AtomicData:
    """Profile counters for one atomic event in one task."""

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.count, self.sum, self.min or 0, self.max or 0)


class _StackEntry:
    """One activation-stack frame."""

    __slots__ = ("event_id", "entry_cycles", "child_cycles", "user_ctx",
                 "entry_pmc")

    def __init__(self, event_id: int, entry_cycles: int, user_ctx: Optional[str]):
        self.event_id = event_id
        self.entry_cycles = entry_cycles
        self.child_cycles = 0
        self.user_ctx = user_ctx
        #: PMC register snapshot taken at entry (cycles, insn, l2 misses,
        #: minor faults, major faults); None when counters are off
        self.entry_pmc: Optional[tuple[int, int, int, int, int]] = None


#: Interned span templates, one per distinct op list: a template is a
#: pure function of its ops, so every kernel that builds the same shape
#: shares one instance (and a run keeps only a handful alive).
_TEMPLATES: dict[tuple, "SpanTemplate"] = {}


class SpanTemplate:
    """A fixed-shape span tree compiled once for bulk replay.

    Built by :meth:`compile` from the tree's macro firings in order, as
    ``(kind, point name, offset_cycles, pmc)``: ``kind`` is a
    :class:`TraceKind`, ``offset_cycles`` the stamp relative to the
    replay's start, and ``pmc`` an opaque per-op payload for callers
    that replay op by op (the kernel keeps the PMC advance that follows
    an entry there; bulk replay ignores it).  Atomic ops take their
    values, in op order, from the ``values`` given to
    :meth:`Ktau.replay`.  ``total_ns`` is the duration of the work the
    tree stands for (also opaque here).

    Construction folds the ops into per-point totals -- count, inclusive
    and exclusive cycles per entry/exit point in first-exit order, the
    inclusive time handed to an enclosing frame, and the draws each
    overhead stream owes -- so :meth:`Ktau.replay` costs a few dict
    updates however many ops the tree has.  Points are named, not bound:
    each :class:`Ktau` resolves the names against its own registry and
    caches the firing state against ``KtauRuntimeControl.version``, so
    one immutable instance serves every kernel.  Templates hold strings,
    ints and ``pmc`` payloads only: no reference cycles, and no
    per-kernel copies for the collector to walk.
    """

    __slots__ = ("names", "kinds", "op_index", "op_stamp", "offsets",
                 "pmcs", "total_ns", "n_start", "n_stop", "spans",
                 "entries", "atomics", "top_incl")

    @classmethod
    def compile(cls, ops, total_ns: int = 0) -> "SpanTemplate":
        """The shared template for ``ops`` (see the class docstring)."""
        key = (tuple(ops), total_ns)
        template = _TEMPLATES.get(key)
        if template is None:
            template = _TEMPLATES[key] = cls(key[0], total_ns)
        return template

    def __init__(self, ops: tuple, total_ns: int):
        kinds, op_names, offsets, pmcs = zip(*ops)
        self.kinds: tuple[TraceKind, ...] = kinds
        self.pmcs: tuple = pmcs
        distinct: dict[int, int] = {}
        #: per op, the index of its stamp offset in ``offsets``
        self.op_stamp: tuple[int, ...] = tuple(
            distinct.setdefault(offset, len(distinct)) for offset in offsets)
        #: distinct stamp offsets: ops stamped alike share one int
        #: object per replay, as they did when fired one by one
        self.offsets: tuple[int, ...] = tuple(distinct)
        self.total_ns = total_ns
        index: dict[str, int] = {}  # first-firing (= binding) order
        entries: dict[int, None] = {}
        spans: dict[int, list[int]] = {}
        atomics: dict[int, list[int]] = {}
        stack: list[list] = []  # [name index, entry offset, child incl, outermost]
        n_values = n_exits = 0
        top_incl = 0
        for kind, name, offset in zip(kinds, op_names, offsets):
            at = index.setdefault(name, len(index))
            if kind == TraceKind.EXIT:
                if not stack or stack[-1][0] != at:
                    raise ValueError(f"span template exit for '{name}' "
                                     f"is not nested")
                _, entered, child, outermost = stack.pop()
                incl = offset - entered
                totals = spans.setdefault(at, [0, 0, 0])
                totals[0] += 1
                if outermost:
                    totals[1] += incl
                totals[2] += max(incl - child, 0)
                if stack:
                    stack[-1][2] += incl
                else:
                    top_incl += incl
                n_exits += 1
            elif kind == TraceKind.ENTRY:
                entries.setdefault(at, None)
                outermost = all(frame[0] != at for frame in stack)
                stack.append([at, offset, 0, outermost])
            else:
                atomics.setdefault(at, []).append(n_values)
                n_values += 1
        if stack:
            raise ValueError(f"span template leaves "
                             f"'{list(index)[stack[-1][0]]}' open")
        #: distinct point names, in first-firing (= event-id binding)
        #: order, each with its point kind
        self.names: tuple[tuple[str, PointKind], ...] = tuple(
            (name, PointKind.ATOMIC if at in atomics else PointKind.ENTRY_EXIT)
            for name, at in index.items())
        #: per op, the index of its point in ``names``
        self.op_index: tuple[int, ...] = tuple(index[name] for name in op_names)
        #: draws owed to the start sampler (entries and atomics) and to
        #: the stop sampler (exits)
        self.n_start = len(kinds) - n_exits
        self.n_stop = n_exits
        #: (point index, count, outermost incl, excl), first-exit order
        self.spans = tuple((at, *totals) for at, totals in spans.items())
        #: entry point indices, first-entry order (active-count order)
        self.entries = tuple(entries)
        #: (point index, value indices or None for all), first-fire order
        self.atomics = tuple(
            (at, None if len(sel) == n_values else tuple(sel))
            for at, sel in atomics.items())
        #: inclusive cycles of the top-level spans (the caller's frame's
        #: child time)
        self.top_incl = top_incl

    def iter_ops(self) -> Iterator[tuple]:
        """The ``(kind, point index, stamp index, pmc)`` ops, in order;
        the point index is into ``names`` (and :meth:`Ktau.points_for`),
        the stamp index into :meth:`stamps`."""
        return zip(self.kinds, self.op_index, self.op_stamp, self.pmcs)

    def stamps(self, at_cycles: int) -> list[int]:
        """The distinct op stamps of a replay starting at ``at_cycles``."""
        return [at_cycles + offset if offset else at_cycles
                for offset in self.offsets]


class KtauTaskData:
    """KTAU's per-process measurement structure (lives in the PCB).

    Attributes
    ----------
    profile / atomic:
        Event-ID-indexed counter tables.
    stack:
        The activation stack used for inclusive/exclusive accounting.
    trace:
        Circular trace buffer, present when tracing is built in.
    user_context:
        Name of the innermost user-level (TAU) routine currently active in
        this process, or ``None``; maintained by the TAU layer, consumed by
        the merge support.
    context_pairs:
        ``(user_context, event_id) -> [count, excl_cycles]`` attribution
        map (the merged-view data source), kept when ``merge_context``.
    pending_overhead_ns:
        Measurement overhead charged but not yet folded into simulated
        time; the CPU executor drains this into the task's next burst.
    """

    __slots__ = (
        "pid", "comm", "profile", "atomic", "stack", "trace", "user_context",
        "context_pairs", "pending_overhead_ns", "overhead_cycles",
        "active_counts", "unmatched_exits", "frozen",
        "counter_source", "counter_profile", "callgraph",
    )

    def __init__(self, pid: int, comm: str, trace: Optional[TraceBuffer]):
        self.pid = pid
        self.comm = comm
        self.profile: dict[int, PerfData] = {}
        self.atomic: dict[int, AtomicData] = {}
        self.stack: list[_StackEntry] = []
        self.trace = trace
        self.user_context: Optional[str] = None
        self.context_pairs: dict[tuple[str, int], list[int]] = {}
        self.pending_overhead_ns = 0
        self.overhead_cycles = 0
        self.active_counts: dict[int, int] = {}
        self.unmatched_exits = 0
        #: Set when the process dies; further recording is a no-op so that
        #: late generator teardown cannot corrupt the zombie profile.
        self.frozen = False
        #: callable returning the task's PMC snapshot (cycles, insn,
        #: l2 misses, minor faults, major faults), installed by the
        #: kernel at registration when the counters extension is built in
        self.counter_source = None
        #: event_id -> [count, incl cycles, incl instructions,
        #: incl l2 misses, incl minor faults, incl major faults]
        self.counter_profile: dict[int, list[int]] = {}
        #: (parent key, event_id) -> [count, incl cycles]; parent key is
        #: "K:<event>" for a kernel parent, "U:<routine>" for the user
        #: context at a stack root, or "" for a bare root
        self.callgraph: dict[tuple[str, int], list[int]] = {}

    @property
    def depth(self) -> int:
        return len(self.stack)

    def perf(self, event_id: int) -> PerfData:
        data = self.profile.get(event_id)
        if data is None:
            data = PerfData()
            self.profile[event_id] = data
        return data


class Ktau:
    """One kernel's KTAU measurement system.

    Parameters
    ----------
    clock:
        The node's TSC.
    build:
        Compile-time configuration (which groups exist, tracing, merge).
    control:
        Boot/runtime enable flags; defaults to "everything compiled is on".
    overhead:
        Cost model for measurement operations; ``None`` selects the paper's
        Table 4 model only if the caller provides an RNG-backed model, so
        the default here is zero overhead (callers building real kernels
        pass a proper model).
    strict:
        Opt-in sanitizer mode.  When true, activation-stack imbalance
        (an exit with no matching entry, out of LIFO order, or a task
        dying with spans still open) raises
        :class:`InstrumentationImbalanceError` naming the point, and
        per-task trace buffers raise
        :class:`~repro.core.tracebuf.TraceOverflowError` on record loss.
        Default off: production behaviour (count and drop) is unchanged.
    """

    def __init__(self, clock: CycleClock, build: KtauBuildConfig,
                 control: Optional[KtauRuntimeControl] = None,
                 overhead: Optional[OverheadModel] = None,
                 strict: bool = False):
        self.clock = clock
        self.build = build
        self.control = control if control is not None else KtauRuntimeControl(build)
        self.overhead = overhead if overhead is not None else ZeroOverheadModel()
        self.strict = strict
        self.registry = EventRegistry()
        self.tasks: dict[int, KtauTaskData] = {}
        self.zombies: dict[int, KtauTaskData] = {}
        self.total_overhead_cycles = 0
        # Hot-path accelerators: firing state per point is invariant until
        # the runtime control changes, so cache it against the control's
        # version counter; a zero overhead model never charges anything,
        # so its sampler calls can be skipped outright.
        self._no_overhead = isinstance(self.overhead, ZeroOverheadModel)
        # Bulk span replay (replay()) reproduces the plain profiling and
        # tracing builds; PMC snapshots, call-graph edges and strict
        # trace overflow points need the per-op path.
        self._replay_ok = not (build.counters or build.callgraph
                               or (strict and build.tracing))
        #: per template: this registry's points, and the control version
        #: at which all of them were last found enabled
        self._template_points: dict[SpanTemplate, tuple[InstrumentationPoint, ...]] = {}
        self._template_version: dict[SpanTemplate, int] = {}
        self._state_cache: dict[InstrumentationPoint, int] = {}
        self._state_cache_version = -1
        # Harness observability (repro.obs): always-on plain counters for
        # the firing-state cache, published as deltas at flush points
        # (task exit, /proc snapshot) — never per firing.
        self._firings = 0
        self._cache_misses = 0
        self._cache_invalidations = 0
        self._counter_samples = 0
        self._obs_base = [0, 0, 0, 0]

    # ------------------------------------------------------------------
    # Process life-cycle (engaged on fork/exit)
    # ------------------------------------------------------------------
    def register_task(self, pid: int, comm: str) -> KtauTaskData:
        """Allocate measurement structures for a newly created process."""
        if pid in self.tasks:
            raise ValueError(f"pid {pid} already registered")
        trace = None
        if self.build.tracing:
            trace = TraceBuffer(self.build.trace_buffer_entries,
                                strict=self.strict)
        data = KtauTaskData(pid, comm, trace)
        self.tasks[pid] = data
        return data

    def on_task_exit(self, pid: int) -> None:
        """Move a dying process's data to the zombie store for later reaping."""
        data = self.tasks.pop(pid, None)
        if data is not None:
            if self.strict and data.stack:
                open_points = ", ".join(
                    f"'{self.registry.name_of(frame.event_id)}'"
                    for frame in data.stack)
                raise InstrumentationImbalanceError(
                    f"task {pid} ({data.comm}) exited with "
                    f"{len(data.stack)} instrumentation span(s) still "
                    f"open: {open_points} (every entry needs a matching "
                    f"exit before process exit)")
            self.zombies[pid] = data
            if _obs.metrics_on:
                self._publish_obs(data)

    def reap(self, pid: int) -> Optional[KtauTaskData]:
        """Remove and return a zombie's data (runKtau's extraction step)."""
        return self.zombies.pop(pid, None)

    # ------------------------------------------------------------------
    # The three instrumentation macros
    # ------------------------------------------------------------------
    def _charge(self, data: KtauTaskData, cycles: int) -> None:
        if cycles:
            data.pending_overhead_ns += self.clock.ns_for_cycles(cycles)
            data.overhead_cycles += cycles
            self.total_overhead_cycles += cycles

    def _firing_state(self, point: InstrumentationPoint, data: KtauTaskData) -> int:
        """0 = no-op, 1 = compiled but disabled (flag check), 2 = enabled."""
        if data.frozen:
            return 0
        self._firings += 1
        if self.control.version != self._state_cache_version:
            self._revalidate()
        state = self._state_cache.get(point)
        if state is None:
            state = self._cache_state(point)
        return state

    def _revalidate(self) -> None:
        """Drop cached firing states after a runtime-control change."""
        self._state_cache.clear()
        self._state_cache_version = self.control.version
        self._cache_invalidations += 1

    def _cache_state(self, point: InstrumentationPoint) -> int:
        """Firing state of ``point`` under the current control (a miss)."""
        control = self.control
        self._cache_misses += 1
        if not control.group_compiled(point.group):
            state = 0
        elif not control.group_enabled(point.group):
            state = 1
        elif not control.point_enabled(point.name):
            state = 1  # per-point runtime disable: flag-check cost only
        else:
            state = 2
        self._state_cache[point] = state
        return state

    def entry(self, data: KtauTaskData, point: InstrumentationPoint,
              at_cycles: Optional[int] = None) -> None:
        """Entry/exit macro: entry side.

        ``at_cycles`` lets kernel paths whose durations are computed ahead
        of time (interrupt/softirq sequences) stamp events at their true
        positions instead of the current TSC.
        """
        state = self._firing_state(point, data)
        if state == 0:
            return
        if state == 1:
            self._charge(data, self.overhead.disabled_check_cycles)
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        now = self.clock.read() if at_cycles is None else at_cycles
        frame = _StackEntry(event_id, now, data.user_context)
        if self.build.counters and data.counter_source is not None:
            frame.entry_pmc = data.counter_source()
        data.stack.append(frame)
        data.active_counts[event_id] = data.active_counts.get(event_id, 0) + 1
        cost = 0 if self._no_overhead else self.overhead.start_cycles()
        if data.trace is not None:
            data.trace.append(TraceRecord(now, event_id, TraceKind.ENTRY))
            cost += self.overhead.trace_extra_cycles
        if cost:
            self._charge(data, cost)

    def exit(self, data: KtauTaskData, point: InstrumentationPoint,
             at_cycles: Optional[int] = None) -> None:
        """Entry/exit macro: exit side."""
        state = self._firing_state(point, data)
        if state == 0:
            return
        if state == 1:
            self._charge(data, self.overhead.disabled_check_cycles)
            return
        event_id = point.event_id
        if event_id is None:
            # Exit without any prior entry firing (e.g. enabled mid-region).
            data.unmatched_exits += 1
            if self.strict:
                raise InstrumentationImbalanceError(
                    f"exit for '{point.name}' in task {data.pid} "
                    f"({data.comm}) but that point never fired an entry")
            return
        if not data.stack or data.stack[-1].event_id != event_id:
            # Mid-region enable/disable can unbalance the stack; KTAU guards
            # with depth checks and drops the sample.
            data.unmatched_exits += 1
            if self.strict:
                if data.stack:
                    innermost = self.registry.name_of(data.stack[-1].event_id)
                    detail = (f"innermost open entry is '{innermost}' "
                              f"(depth {len(data.stack)})")
                else:
                    detail = "the activation stack is empty"
                raise InstrumentationImbalanceError(
                    f"unmatched exit for '{point.name}' in task {data.pid} "
                    f"({data.comm}): {detail}")
            return
        frame = data.stack.pop()
        now = self.clock.read() if at_cycles is None else at_cycles
        incl = now - frame.entry_cycles
        excl = incl - frame.child_cycles
        if excl < 0:
            excl = 0
        perf = data.profile.get(event_id)  # inlined data.perf()
        if perf is None:
            perf = PerfData()
            data.profile[event_id] = perf
        perf.count += 1
        remaining = data.active_counts.get(event_id, 1) - 1
        data.active_counts[event_id] = remaining
        if remaining == 0:
            perf.incl_cycles += incl
        perf.excl_cycles += excl
        if data.stack:
            data.stack[-1].child_cycles += incl
        if self.build.merge_context and frame.user_ctx is not None:
            key = (frame.user_ctx, event_id)
            pair = data.context_pairs.get(key)
            if pair is None:
                data.context_pairs[key] = [1, excl]
            else:
                pair[0] += 1
                pair[1] += excl
        if self.build.counters and data.counter_source is not None \
                and frame.entry_pmc is not None:
            pmc = data.counter_source()
            base = frame.entry_pmc
            stats = data.counter_profile.get(event_id)
            if stats is None:
                data.counter_profile[event_id] = [
                    1, pmc[0] - base[0], pmc[1] - base[1], pmc[2] - base[2],
                    pmc[3] - base[3], pmc[4] - base[4]]
            else:
                stats[0] += 1
                stats[1] += pmc[0] - base[0]
                stats[2] += pmc[1] - base[1]
                stats[3] += pmc[2] - base[2]
                stats[4] += pmc[3] - base[3]
                stats[5] += pmc[4] - base[4]
            self._counter_samples += 1
        if self.build.callgraph:
            if data.stack:
                parent = f"K:{self.registry.name_of(data.stack[-1].event_id)}"
            elif frame.user_ctx is not None:
                parent = f"U:{frame.user_ctx}"
            else:
                parent = ""
            edge = data.callgraph.get((parent, event_id))
            if edge is None:
                data.callgraph[(parent, event_id)] = [1, incl]
            else:
                edge[0] += 1
                edge[1] += incl
        cost = 0 if self._no_overhead else self.overhead.stop_cycles()
        if data.trace is not None:
            data.trace.append(TraceRecord(now, event_id, TraceKind.EXIT))
            cost += self.overhead.trace_extra_cycles
        if cost:
            self._charge(data, cost)

    def atomic(self, data: KtauTaskData, point: InstrumentationPoint, value: int,
               at_cycles: Optional[int] = None) -> None:
        """Atomic-event macro: a stand-alone event carrying a value."""
        if point.kind != PointKind.ATOMIC:
            raise ValueError(f"{point.name} is not an atomic point")
        state = self._firing_state(point, data)
        if state == 0:
            return
        if state == 1:
            self._charge(data, self.overhead.disabled_check_cycles)
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        stats = data.atomic.get(event_id)
        if stats is None:
            stats = AtomicData()
            data.atomic[event_id] = stats
        stats.record(value)
        cost = 0 if self._no_overhead else self.overhead.atomic_cycles()
        if data.trace is not None:
            stamp = self.clock.read() if at_cycles is None else at_cycles
            data.trace.append(TraceRecord(stamp, event_id, TraceKind.ATOMIC, value))
            cost += self.overhead.trace_extra_cycles
        if cost:
            self._charge(data, cost)

    def points_for(self, template: SpanTemplate) -> tuple[InstrumentationPoint, ...]:
        """This kernel's points for ``template.names``, in order."""
        points = self._template_points.get(template)
        if points is None:
            points = tuple(self.registry.point(name, kind)
                           for name, kind in template.names)
            self._template_points[template] = points
        return points

    def replay(self, data: KtauTaskData, template: SpanTemplate,
               at_cycles: int, values: Sequence[int] = ()) -> bool:
        """Record every op of ``template`` in one bulk operation.

        The result is identical in every observable to firing the ops
        one by one through :meth:`entry`, :meth:`exit` and
        :meth:`atomic` at ``at_cycles + offset``: profile, atomic and
        context-pair tables (dict insertion order included), the
        enclosing frame's child time, trace records, event-id binding
        order, the firing and cache-miss counters, and the overhead
        charge -- the same draws from each sampler, each rounded to
        nanoseconds on its own.

        Returns ``False``, having recorded nothing, when only the per-op
        path reproduces the result: a frozen task, a build listed at
        ``_replay_ok``, a template point that is not enabled, or a batch
        across which both overhead samplers would refill.  The caller
        then fires the ops one by one.
        """
        if data.frozen or not self._replay_ok:
            return False
        points = self.points_for(template)
        if self._template_version.get(template) != self.control.version:
            if not self._prime(points):
                return False
            self._template_version[template] = self._state_cache_version
        ops = len(template.kinds)
        trace = data.trace
        extra = self.overhead.trace_extra_cycles if trace is not None else 0
        if self._no_overhead:
            cycles = extra * ops
            ns = self.clock.ns_for_cycles(extra) * ops
        else:
            charge = self.overhead.take(template.n_start, template.n_stop,
                                        self.clock.hz, extra)
            if charge is None:
                return False
            cycles, ns = charge
        self._firings += ops
        for point in points:
            if point.event_id is None:
                self.registry.bind(point)
        active = data.active_counts
        for at in template.entries:
            event_id = points[at].event_id
            active[event_id] = active.get(event_id, 0)
        profile = data.profile
        user_ctx = data.user_context
        pairs = (data.context_pairs
                 if self.build.merge_context and user_ctx is not None
                 else None)
        for at, count, incl, excl in template.spans:
            event_id = points[at].event_id
            perf = profile.get(event_id)
            if perf is None:
                perf = PerfData()
                profile[event_id] = perf
            perf.count += count
            if not active[event_id]:  # outermost activation
                perf.incl_cycles += incl
            perf.excl_cycles += excl
            if pairs is not None:
                pair = pairs.get((user_ctx, event_id))
                if pair is None:
                    pairs[(user_ctx, event_id)] = [count, excl]
                else:
                    pair[0] += count
                    pair[1] += excl
        if data.stack:
            data.stack[-1].child_cycles += template.top_incl
        for at, sel in template.atomics:
            picked = values if sel is None else [values[i] for i in sel]
            event_id = points[at].event_id
            stats = data.atomic.get(event_id)
            if stats is None:
                stats = AtomicData()
                data.atomic[event_id] = stats
            stats.count += len(picked)
            stats.sum += sum(picked)
            low = min(picked)
            high = max(picked)
            if stats.min is None or low < stats.min:
                stats.min = low
            if stats.max is None or high > stats.max:
                stats.max = high
        if trace is not None:
            event_ids = [point.event_id for point in points]
            stamps = template.stamps(at_cycles)
            pending = iter(values)
            # One append per record, as op-by-op firing does: staging
            # them in a list first left the later trace harvest ~5%
            # slower (traced fig2), for no gain here.
            for kind, at, stamp in zip(
                    template.kinds, template.op_index, template.op_stamp):
                trace.append(TraceRecord(
                    stamps[stamp], event_ids[at], kind,
                    next(pending) if kind == TraceKind.ATOMIC else 0))
        if cycles:
            data.pending_overhead_ns += ns
            data.overhead_cycles += cycles
            self.total_overhead_cycles += cycles
        return True

    def _prime(self, points: tuple[InstrumentationPoint, ...]) -> bool:
        """Whether every point is enabled, looking each up (and counting
        misses) as its first per-op firing would."""
        if self.control.version != self._state_cache_version:
            self._revalidate()
        cache = self._state_cache
        enabled = True
        for point in points:
            state = cache.get(point)
            if state is None:
                state = self._cache_state(point)
            enabled = enabled and state == 2
        return enabled

    @contextmanager
    def span(self, data: KtauTaskData, point: InstrumentationPoint) -> Iterator[None]:
        """Entry/exit pair as a context manager, usable across generator yields."""
        self.entry(data, point)
        try:
            yield
        finally:
            self.exit(data, point)

    # ------------------------------------------------------------------
    # Harness observability (repro.obs)
    # ------------------------------------------------------------------
    def _publish_obs(self, data: Optional[KtauTaskData] = None) -> None:
        """Publish firing-cache deltas (and, at a task exit, that task's
        trace-buffer totals) into the harness metrics registry.

        Called only when collection is on; daemons that never exit are
        captured by the snapshot-time delta publish instead.
        """
        from repro.obs.metrics import REGISTRY
        base = self._obs_base
        firings = self._firings
        misses = self._cache_misses
        invalidations = self._cache_invalidations
        counter_samples = self._counter_samples
        REGISTRY.counter("ktau.firings").inc(firings - base[0])
        REGISTRY.counter("ktau.firing_cache_misses").inc(misses - base[1])
        REGISTRY.counter("ktau.firing_cache_hits").inc(
            (firings - misses) - (base[0] - base[1]))
        REGISTRY.counter("ktau.cache_invalidations").inc(
            invalidations - base[2])
        REGISTRY.counter("ktau.counter_samples").inc(
            counter_samples - base[3])
        self._obs_base = [firings, misses, invalidations, counter_samples]
        if data is not None:
            REGISTRY.counter("ktau.tasks_exited").inc()
            REGISTRY.counter("ktau.unmatched_exits").inc(data.unmatched_exits)
            trace = data.trace
            if trace is not None:
                REGISTRY.counter("tracebuf.records_written").inc(
                    trace.total_records)
                REGISTRY.counter("tracebuf.records_lost").inc(
                    trace.lost_count)
                REGISTRY.counter("tracebuf.batched_flushes").inc(
                    trace.flush_count)

    # ------------------------------------------------------------------
    # Snapshot access (backing for /proc/ktau reads)
    # ------------------------------------------------------------------
    def snapshot(self, pids: Optional[list[int]] = None,
                 include_zombies: bool = False) -> dict[int, KtauTaskData]:
        """Live references to task data for the requested scope.

        ``/proc/ktau`` serialises from these references at read time; there
        is no kernel-side session state (reads can race with updates, as in
        the real implementation).
        """
        if _obs.metrics_on:
            self._publish_obs()
        pool: dict[int, KtauTaskData] = dict(self.tasks)
        if include_zombies:
            for pid, data in self.zombies.items():
                pool.setdefault(pid, data)
        if pids is None:
            return pool
        return {pid: pool[pid] for pid in pids if pid in pool}
