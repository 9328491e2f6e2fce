"""Merged user/kernel trace timelines (Figure 2-E's Vampir view).

TAU application traces and KTAU kernel traces for the same process share
the node's hardware timer, so merging is a timestamp-ordered interleave.
The payoff view in the paper is "kernel-level activity within a
user-space MPI_Send()": the send's kernel implementation
(``sys_writev → sock_sendmsg → tcp_sendmsg``) plus *unrelated* bottom-half
work (``do_softirq``/TCP receive processing) that happened to run in the
process's context during the call.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.tracebuf import TraceKind
from repro.core.wire import TraceDump
from repro.tau.profiler import TauProfileDump


class MergedEvent(NamedTuple):
    """One event in a merged timeline."""

    cycles: int
    name: str
    layer: str  # "user" | "kernel"
    is_entry: bool
    value: int = 0


def merge_traces(udump: TauProfileDump, ktrace: TraceDump) -> list[MergedEvent]:
    """Interleave one process's user and kernel traces by timestamp.

    Kernel events nest inside user events, so at an equal timestamp the
    order that preserves nesting is: kernel exits (and atomics), user
    exits, user entries, kernel entries.  Each event's sort key is the
    int ``(cycles << 2) | tie`` for that tie rank; the sort is stable,
    so events with equal keys keep their stream order (user before
    kernel, each in recording order).  Inside one stream an exit may
    share its ``cycles`` with an entry recorded before it; the key puts
    it first, which a plain merge of the two streams would not.
    """
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    entry = TraceKind.ENTRY
    events = [new(MergedEvent, (cycles, name, "user", is_entry, 0))
              for cycles, name, is_entry in udump.trace]
    keys = [(cycles << 2) | (2 if is_entry else 1)
            for cycles, _name, is_entry in udump.trace]
    events += [new(MergedEvent, (cycles, name, "kernel", kind is entry,
                                 value))
               for cycles, name, kind, value in ktrace.records]
    keys += [(cycles << 2) | (3 if kind is entry else 0)
             for cycles, _name, kind, _value in ktrace.records]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [events[i] for i in order]


def events_within(merged: list[MergedEvent], routine: str,
                  occurrence: int = 0) -> list[MergedEvent]:
    """The slice of a merged timeline inside one occurrence of a user routine.

    Returns every event between the ``occurrence``-th entry of ``routine``
    and its matching exit — the exact window Figure 2-E zooms into for
    ``MPI_Send()``.
    """
    depth = 0
    seen = 0
    start = end = None
    for i, ev in enumerate(merged):
        if ev.layer != "user" or ev.name != routine:
            continue
        if ev.is_entry:
            if depth == 0:
                if seen == occurrence:
                    start = i
                seen += 1
            depth += 1
        else:
            depth -= 1
            if depth == 0 and start is not None and end is None:
                end = i
                break
    if start is None or end is None:
        return []
    return merged[start:end + 1]


def render_timeline(events: list[MergedEvent], hz: float, width: int = 78) -> str:
    """A text rendering of a merged timeline (indented by nesting)."""
    if not events:
        return "(empty timeline)\n"
    t0 = events[0].cycles
    lines = []
    depth = 0
    for ev in events:
        if not ev.is_entry and depth > 0:
            depth -= 1
        stamp_us = (ev.cycles - t0) / hz * 1e6
        marker = ">" if ev.is_entry else "<"
        tag = "U" if ev.layer == "user" else "K"
        lines.append(f"{stamp_us:10.2f}us {tag} {'  ' * depth}{marker} {ev.name}"[:width])
        if ev.is_entry:
            depth += 1
    return "\n".join(lines) + "\n"
