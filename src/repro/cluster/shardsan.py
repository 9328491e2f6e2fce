"""Shard-isolation sanitizer: the dynamic twin of the KTAU5xx/6xx lint.

ROADMAP item 1 (conservative parallel discrete-event simulation) is only
safe if node groups share no mutable state outside explicit message
exchange.  The static side of that claim is proved by ``repro.lint``
(shared-mutable-state escape analysis, import/ownership graph, shard
boundary); this module cross-checks it at run time on real workloads.

Mechanism
---------
Attaching a :class:`ShardIsolationSanitizer` to a :class:`Cluster`:

1. **Tags engine events with an owning node.**  The engine's opt-in
   ``schedule_interceptor`` wraps every callback scheduled while a node
   context is active, so the ownership of an event chain propagates:
   an event scheduled by node 3's scheduler runs as node 3.  Arming the
   hook swaps the engine onto an intercepting subclass (and detaching
   swaps it back), so a detached sanitizer leaves the schedule fast
   path with literally zero residue — no per-event hook test survives.
2. **Establishes context at node entry surfaces.**  Per-instance
   wrappers on each node's scheduler (``start_task``/``_advance``/
   ``wake``), IRQ controller (``deliver``), NIC (``transmit_group``) and
   measurement system (``entry``/``exit``/``atomic``/``replay``) set the current
   shard to the owning node for the duration of the call — after
   asserting the caller's context is compatible.
3. **Declares exchange points.**  ``Kernel.net_rx`` is the sanctioned
   cross-shard handoff: a frame group serialised by node A's NIC arrives
   at node B's receive path, so ``net_rx`` *re-establishes* context to
   the destination without asserting (mirroring the conservative-DES
   design where inter-node messages cross shard boundaries only at
   window edges).  Everything else asserts.

A guarded call made while a *different* node's context is active is a
cross-shard violation: it is recorded, and (by default) raises
:class:`~repro.core.measurement.ShardIsolationError`.  Harness context
(``current is None`` — launch code, monitors, tests poking at state
between events) is always allowed; the sanitizer polices node-to-node
isolation, not test ergonomics.

The sanitizer is opt-in and zero-cost when off: nothing is wrapped until
:meth:`attach`, and the engine pays one ``is None`` comparison per
schedule either way.  Wrappers neither read the clock nor draw
randomness, so a sanitized run is byte-identical to a plain one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.measurement import ShardIsolationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import Cluster
    from repro.cluster.node import Node

#: Qualified methods sanctioned to receive control from a foreign shard
#: (the declared exchange points of the shard-boundary contract).  Keep
#: in sync with the KTAU6xx shard-boundary notes in docs/ktaulint.md.
EXCHANGE_POINTS: tuple[str, ...] = ("Kernel.net_rx",)


class ShardViolation:
    """One recorded cross-shard access."""

    __slots__ = ("site", "owner", "current", "detail")

    def __init__(self, site: str, owner: int, current: int, detail: str):
        self.site = site
        self.owner = owner
        self.current = current
        self.detail = detail

    def format(self) -> str:
        return (f"cross-shard access at {self.site}: node {self.current} "
                f"context touched node {self.owner} state ({self.detail})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardViolation {self.format()}>"


class ShardIsolationSanitizer:
    """Opt-in runtime checker that engine events stay on their own shard.

    Parameters
    ----------
    cluster:
        The cluster whose nodes become shards (``node.shard_id`` is the
        owner tag).
    raise_on_violation:
        When true (default) the first violation raises
        :class:`ShardIsolationError`; when false violations are only
        collected in :attr:`violations` (useful for survey runs).
    """

    def __init__(self, cluster: "Cluster", raise_on_violation: bool = True):
        self.cluster = cluster
        self.raise_on_violation = raise_on_violation
        self.violations: list[ShardViolation] = []
        #: shard id of the node whose event chain is executing, or None
        #: for harness context (launch code, monitors, idle loop)
        self.current: Optional[int] = None
        self.events_tagged = 0
        self.guard_checks = 0
        self._attached = False
        #: (object, attribute name) pairs to restore on detach
        self._wrapped: list[tuple[object, str]] = []

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> "ShardIsolationSanitizer":
        if self._attached:
            raise RuntimeError("sanitizer already attached")
        engine = self.cluster.engine
        if engine.schedule_interceptor is not None:
            raise RuntimeError("engine already has a schedule interceptor")
        engine.schedule_interceptor = self._intercept
        for node in self.cluster.nodes:
            self._wrap_node(node)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.cluster.engine.schedule_interceptor = None
        # Restore in reverse attach order so double-wrapping (never
        # expected, but cheap to be safe about) unwinds correctly.
        for obj, name in reversed(self._wrapped):
            delattr(obj, name)
        self._wrapped.clear()
        self._attached = False

    def __enter__(self) -> "ShardIsolationSanitizer":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Event tagging (engine schedule interceptor)
    # ------------------------------------------------------------------
    def _intercept(self, fn: Callable[[], None],
                   label: str) -> Callable[[], None]:
        owner = self.current
        if owner is None:
            return fn  # harness-context events stay unowned
        self.events_tagged += 1

        def run_owned() -> None:
            prev = self.current
            self.current = owner
            try:
                fn()
            finally:
                self.current = prev

        return run_owned

    # ------------------------------------------------------------------
    # Node entry-surface wrapping
    # ------------------------------------------------------------------
    def _wrap_node(self, node: "Node") -> None:
        kernel = node.kernel
        owner = node.shard_id
        # Scheduler: task execution and runqueue mutation.
        for name in ("start_task", "_advance", "wake"):
            self._guard(kernel.sched, name, owner)
        # IRQ delivery: interrupt-context execution on this node's CPUs.
        self._guard(kernel.irq, "deliver", owner)
        # NIC transmit: the send half of the wire (receive half enters
        # through the declared exchange point below).
        self._guard(kernel.nic, "transmit_group", owner)
        # Measurement: the canonical shard-local mutable state.
        for name in ("entry", "exit", "atomic", "replay"):
            self._guard(kernel.ktau, name, owner)
        # Declared exchange point: frames arriving from a foreign shard.
        self._establish_only(kernel, "net_rx", owner)

    def _guard(self, obj: object, name: str, owner: int) -> None:
        """Wrap ``obj.name`` to assert shard compatibility, then run the
        call with this node's context established."""
        inner = getattr(obj, name)
        site = f"{type(obj).__name__}.{name}"

        def guarded(*args, **kwargs):
            self.guard_checks += 1
            current = self.current
            if current is not None and current != owner:
                violation = ShardViolation(
                    site, owner, current,
                    f"guarded call while shard {current} was executing")
                self.violations.append(violation)
                if self.raise_on_violation:
                    raise ShardIsolationError(violation.format())
            self.current = owner
            try:
                return inner(*args, **kwargs)
            finally:
                self.current = current

        setattr(obj, name, guarded)
        self._wrapped.append((obj, name))

    def _establish_only(self, obj: object, name: str, owner: int) -> None:
        """Wrap ``obj.name`` as a declared exchange point: control may
        arrive from any shard; context switches to the owner inside."""
        inner = getattr(obj, name)

        def exchanged(*args, **kwargs):
            prev = self.current
            self.current = owner
            try:
                return inner(*args, **kwargs)
            finally:
                self.current = prev

        setattr(obj, name, exchanged)
        self._wrapped.append((obj, name))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Counters for reports/tests (JSON-friendly)."""
        return {
            "nodes": len(self.cluster.nodes),
            "events_tagged": self.events_tagged,
            "guard_checks": self.guard_checks,
            "violations": [v.format() for v in self.violations],
        }
