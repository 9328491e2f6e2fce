"""Brute-force reference models of the analysis layer.

These are the straightforward implementations the indexed, single-pass
code in :mod:`repro.analysis.tracemerge` and
:mod:`repro.analysis.bottlenecks` replaced: a key-lambda sort for the
trace merge, ``any()`` stack scans for wait extraction, and an O(n)
overlap scan per stall for blocker attribution.  They are kept only as
oracles for the equivalence tests in ``test_analysis_reference.py``;
nothing in ``src/`` imports them.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.bottlenecks.report import COMPUTE_PATH
from repro.analysis.bottlenecks.waits import (_IRQ_ROOTS, IRQ_PREEMPTION,
                                              PREEMPTION, TCP_RECV_STALL,
                                              VOLUNTARY_WAIT, WaitInterval,
                                              _to_global_ns)
from repro.analysis.tracemerge import MergedEvent
from repro.core.tracebuf import TraceKind

_STATES = ("preempted", "waiting", "computing")


def _tie_rank(event: MergedEvent) -> int:
    if event.is_entry:
        return 2 if event.layer == "user" else 3
    return 0 if event.layer == "kernel" else 1


def merge_traces(udump, ktrace) -> list[MergedEvent]:
    """Concatenate both streams, then stable-sort by (cycles, tie rank)."""
    events: list[MergedEvent] = []
    for cycles, name, is_entry in udump.trace:
        events.append(MergedEvent(cycles, name, "user", is_entry))
    for cycles, name, kind, value in ktrace.records:
        if kind is TraceKind.ATOMIC:
            events.append(MergedEvent(cycles, name, "kernel", False, value))
        else:
            events.append(MergedEvent(cycles, name, "kernel",
                                      kind is TraceKind.ENTRY, value))
    events.sort(key=lambda e: (e.cycles, _tie_rank(e)))
    return events


def extract_waits(merged, *, rank: int, node: str, pid: int, hz: float,
                  boot_offset_cycles: int = 0) -> list[WaitInterval]:
    """Rescan the whole kernel stack at every entry and exit."""
    waits: list[WaitInterval] = []
    user_stack: list[str] = []
    kernel_stack: list[tuple[str, int, str, bool]] = []

    for ev in merged:
        if ev.layer == "user":
            if ev.is_entry:
                user_stack.append(ev.name)
            elif user_stack and user_stack[-1] == ev.name:
                user_stack.pop()
            elif ev.name in user_stack:
                while user_stack and user_stack[-1] != ev.name:
                    user_stack.pop()
                if user_stack:
                    user_stack.pop()
            continue

        if ev.is_entry:
            irq_root = (ev.name in _IRQ_ROOTS
                        and not any(f[3] for f in kernel_stack))
            uctx = user_stack[-1] if user_stack else ""
            kernel_stack.append((ev.name, ev.cycles, uctx, irq_root))
            continue

        if not any(f[0] == ev.name for f in kernel_stack):
            continue
        while kernel_stack and kernel_stack[-1][0] != ev.name:
            kernel_stack.pop()
        name, start_cycles, uctx, irq_root = kernel_stack.pop()
        path = ">".join([f[0] for f in kernel_stack] + [name])
        enclosing = [f[0] for f in kernel_stack]

        kind: Optional[str] = None
        if name == "schedule_vol":
            kind = (TCP_RECV_STALL if "tcp_recvmsg" in enclosing
                    else VOLUNTARY_WAIT)
        elif name == "schedule":
            kind = PREEMPTION
        elif irq_root:
            kind = IRQ_PREEMPTION
        if kind is None:
            continue

        start_ns = _to_global_ns(start_cycles, hz, boot_offset_cycles)
        end_ns = _to_global_ns(ev.cycles, hz, boot_offset_cycles)
        if end_ns <= start_ns:
            continue
        waits.append(WaitInterval(rank=rank, node=node, pid=pid, kind=kind,
                                  start_ns=start_ns, end_ns=end_ns,
                                  kernel_path=path, user_context=uctx))
    return waits


def _overlap_ns(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


def blocker_activity(wait: WaitInterval, blocker_waits: list[WaitInterval],
                     ) -> tuple[str, str, Optional[WaitInterval]]:
    """Overlap every one of the blocker's waits against the stall."""
    span = wait.end_ns - wait.start_ns
    totals = {"preempted": 0, "waiting": 0}
    best: dict[str, tuple[tuple[int, int, str], WaitInterval]] = {}
    for bw in blocker_waits:
        ov = _overlap_ns(wait.start_ns, wait.end_ns, bw.start_ns, bw.end_ns)
        if ov <= 0:
            continue
        state = ("preempted" if bw.kind in (PREEMPTION, IRQ_PREEMPTION)
                 else "waiting")
        totals[state] += ov
        key = (-ov, bw.start_ns, bw.kernel_path)
        if state not in best or key < best[state][0]:
            best[state] = (key, bw)
    compute_ns = max(0, span - totals["preempted"] - totals["waiting"])
    ranked = sorted(
        ((-(totals.get(state, 0) if state != "computing" else compute_ns),
          idx, state)
         for idx, state in enumerate(_STATES)))
    state = ranked[0][2]
    if state == "computing":
        return state, COMPUTE_PATH, None
    chosen = best[state][1]
    return state, chosen.kernel_path, chosen
