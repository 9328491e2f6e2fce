"""libKtau: the user-space access library.

libKtau exports a small API that hides the /proc/ktau protocol from
clients and shields them from kernel-side changes.  It provides:

* kernel control (runtime enable/disable, overhead query),
* kernel data retrieval (profiles and traces, with the size/read retry
  loop the session-less protocol requires),
* data conversion (binary to/from ASCII), and
* formatted stream output.

Access *modes* follow the paper: ``SELF`` (a process reading its own
profile), ``OTHER`` (a specific set of PIDs), and ``ALL`` (every process —
what KTAUD uses).
"""

from __future__ import annotations

import enum
import json
from typing import Optional

from repro.core.procfs import KtauProcFS
from repro.core.points import Group
from repro.core.retry import DEFAULT_POLICY, RetryPolicy, grow_and_retry, sized_read
from repro.core.wire import (MappingMemo, TaskProfileDump, TraceDump,
                             unpack_profiles, unpack_trace)


#: First line of the ASCII interchange form.  v2 quotes every name (v1
#: split records on whitespace, so names with spaces did not survive).
_ASCII_HEADER = "#ktau-ascii v2"

#: Field types of each ASCII record, after its tag.
_ASCII_FIELDS: dict[str, tuple[type, ...]] = {
    "task": (int, str),
    "perf": (str, str, int, int, int),
    "atomic": (str, str, int, int, int, int),
    "ctx": (str, str, int, int),
    "cnt": (str, int, int, int, int, int, int),
    "edge": (str, str, int, int),
    "pmc": (int, int, int, int, int),
}


class Scope(enum.Enum):
    """libKtau access modes."""

    SELF = "self"
    OTHER = "other"
    ALL = "all"


class LibKtau:
    """User-space handle to one node's KTAU.

    Parameters
    ----------
    proc:
        The node's /proc/ktau interface.
    self_pid:
        PID used by ``SELF``-scope calls (the calling process), if any.
    """

    #: How many times the size/read loop retries before giving up when the
    #: profile keeps growing between calls (mirrors the default policy).
    MAX_RETRIES = DEFAULT_POLICY.max_attempts

    def __init__(self, proc: KtauProcFS, self_pid: Optional[int] = None,
                 retry: RetryPolicy = DEFAULT_POLICY):
        self._proc = proc
        self._self_pid = self_pid
        self._retry = retry
        #: the node's mapping table as last decoded; it dies with the handle
        self._mapping = MappingMemo()

    # ------------------------------------------------------------------
    # data retrieval
    # ------------------------------------------------------------------
    def _scope_pids(self, scope: Scope, pids: Optional[list[int]]) -> Optional[list[int]]:
        if scope is Scope.SELF:
            if self._self_pid is None:
                raise ValueError("SELF scope requires a bound pid")
            return [self._self_pid]
        if scope is Scope.OTHER:
            if not pids:
                raise ValueError("OTHER scope requires explicit pids")
            return list(pids)
        return None  # ALL

    def read_profiles(self, scope: Scope = Scope.ALL,
                      pids: Optional[list[int]] = None,
                      include_zombies: bool = False) -> dict[int, TaskProfileDump]:
        """Retrieve and decode profiles, handling the size/read race.

        Implements the documented two-call protocol via the shared
        :func:`repro.core.retry.grow_and_retry` helper: get the size,
        allocate a buffer, read; if the kernel reports the data outgrew
        the buffer, retry with the new size, up to the bound of the
        policy this handle was built with
        (:class:`~repro.core.retry.RetryExhaustedError` on exhaustion).
        """
        want = self._scope_pids(scope, pids)
        data = grow_and_retry(
            lambda: self._proc.profile_size(want,
                                            include_zombies=include_zombies),
            lambda bufsize: self._proc.profile_read(
                bufsize, want, include_zombies=include_zombies),
            self._retry, what="ktau profile read")
        return unpack_profiles(data, self._mapping)

    def read_trace(self, pid: int, bufsize: Optional[int] = None) -> TraceDump:
        """Drain and decode ``pid``'s kernel trace buffer.

        Unlike profiles the drain is destructive, so there is no retry:
        the shared :func:`repro.core.retry.sized_read` helper sizes the
        buffer (unless the caller passed one) and reads once; records
        that do not fit a short buffer are genuinely lost and counted in
        the dump's ``lost``.
        """
        if bufsize is None:
            data, _full = sized_read(lambda: self._proc.trace_size(pid),
                                     lambda n: self._proc.trace_read(pid, n))
        else:
            data, _full = self._proc.trace_read(pid, bufsize)
        if not data:
            return TraceDump(pid=pid, lost=0)
        return unpack_trace(data)

    # ------------------------------------------------------------------
    # kernel control
    # ------------------------------------------------------------------
    def enable_groups(self, *groups: Group) -> None:
        self._proc.ioctl_set_groups(True, groups)

    def disable_groups(self, *groups: Group) -> None:
        self._proc.ioctl_set_groups(False, groups)

    def enable_points(self, *names: str) -> None:
        """Re-enable individual instrumentation points at runtime."""
        self._proc.ioctl_set_points(True, names)

    def disable_points(self, *names: str) -> None:
        """Silence individual instrumentation points at runtime — the §6
        extension: no reboot, no recompilation."""
        self._proc.ioctl_set_points(False, names)

    def measurement_overhead_cycles(self) -> int:
        """KTAU's own accounting of total measurement cost (cycles)."""
        return self._proc.ioctl_overhead()

    # ------------------------------------------------------------------
    # data conversion (binary <-> ASCII) and formatted output
    # ------------------------------------------------------------------
    @staticmethod
    def to_ascii(profiles: dict[int, TaskProfileDump]) -> str:
        """Render decoded profiles to the line-oriented ASCII interchange form.

        One record per line: a tag, then space-separated fields.  Names
        are JSON string literals (``"my app"``, ``""``) with every
        non-ASCII or control character escaped, so any name -- spaces,
        quotes, line breaks, empty -- survives the round trip and the
        output is pure ASCII; numbers are bare integers.
        """
        q = json.dumps
        lines: list[str] = [_ASCII_HEADER]
        for pid in sorted(profiles):
            dump = profiles[pid]
            lines.append(f"task {pid} {q(dump.comm)}")
            for name in sorted(dump.perf):
                count, incl, excl = dump.perf[name]
                group = q(dump.groups.get(name, ""))
                lines.append(f"perf {q(name)} {group} {count} {incl} {excl}")
            for name in sorted(dump.atomic):
                count, total, mn, mx = dump.atomic[name]
                group = q(dump.groups.get(name, ""))
                lines.append(f"atomic {q(name)} {group} {count} {total} "
                             f"{mn} {mx}")
            for (ctx, name) in sorted(dump.context_pairs):
                count, excl = dump.context_pairs[(ctx, name)]
                lines.append(f"ctx {q(ctx)} {q(name)} {count} {excl}")
            for name in sorted(dump.counters):
                count, cycles, insn, l2, minflt, majflt = dump.counters[name]
                lines.append(f"cnt {q(name)} {count} {cycles} {insn} {l2} "
                             f"{minflt} {majflt}")
            for (parent, name) in sorted(dump.edges):
                count, incl = dump.edges[(parent, name)]
                lines.append(f"edge {q(parent)} {q(name)} {count} {incl}")
            if dump.pmc is not None:
                lines.append("pmc " + " ".join(str(v) for v in dump.pmc))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_ascii(text: str) -> dict[int, TaskProfileDump]:
        """Parse the ASCII interchange form back into decoded profiles."""
        lines = text.splitlines()
        if not lines or lines[0] != _ASCII_HEADER:
            raise ValueError(f"not a ktau ASCII dump (want {_ASCII_HEADER!r})")
        profiles: dict[int, TaskProfileDump] = {}
        current: Optional[TaskProfileDump] = None
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                current = LibKtau._parse_ascii_line(line, profiles, current)
            except (IndexError, ValueError) as exc:
                raise ValueError(f"malformed ktau ASCII record {line!r}") from exc
        return profiles

    @staticmethod
    def _parse_ascii_line(line: str, profiles: dict[int, TaskProfileDump],
                          current: Optional[TaskProfileDump]
                          ) -> Optional[TaskProfileDump]:
        """Parse one ASCII record into ``profiles``; returns the (possibly
        new) current task dump."""
        tag, _, rest = line.partition(" ")
        shape = _ASCII_FIELDS.get(tag)
        if shape is None:
            raise ValueError(f"unknown record tag {tag!r}")
        decode = json.JSONDecoder().raw_decode
        fields = []
        pos = 0
        while pos < len(rest):
            if rest[pos] in "[{":  # never a field; deep nesting would recurse
                raise ValueError("fields are names or integers")
            value, pos = decode(rest, pos)
            if pos < len(rest) and rest[pos] != " ":
                raise ValueError("fields must be separated by a space")
            pos += 1
            fields.append(value)
        if len(fields) != len(shape) or any(
                type(v) is not t for v, t in zip(fields, shape)):
            raise ValueError(f"{tag} record needs fields "
                             f"{' '.join(t.__name__ for t in shape)}")
        if tag == "task":
            current = TaskProfileDump(pid=fields[0], comm=fields[1])
            profiles[fields[0]] = current
        elif current is None:
            raise ValueError("record before any task line")
        elif tag == "perf":
            name, group, *values = fields
            current.perf[name] = tuple(values)
            current.groups[name] = group
        elif tag == "atomic":
            name, group, *values = fields
            current.atomic[name] = tuple(values)
            current.groups[name] = group
        elif tag == "ctx":
            current.context_pairs[(fields[0], fields[1])] = tuple(fields[2:])
        elif tag == "cnt":
            current.counters[fields[0]] = tuple(fields[1:])
        elif tag == "pmc":
            current.pmc = tuple(fields)
        else:  # edge
            current.edges[(fields[0], fields[1])] = tuple(fields[2:])
        return current

    @staticmethod
    def format_profile(dump: TaskProfileDump, hz: float, width: int = 72) -> str:
        """Human-readable per-task report (runKtau's output format).

        Cycle counters are converted to seconds with the node frequency
        ``hz`` (cycles / hz = seconds).
        """
        header = f"KTAU profile: pid={dump.pid} comm={dump.comm}"
        lines = [header, "-" * min(width, len(header))]
        lines.append(f"{'event':<28} {'count':>8} {'incl(s)':>12} {'excl(s)':>12}")
        for name, (count, incl, excl) in sorted(
                dump.perf.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<28} {count:>8} {incl * 1.0 / hz:>12.6f} "
                         f"{excl * 1.0 / hz:>12.6f}")
        for name, (count, total, mn, mx) in sorted(dump.atomic.items()):
            lines.append(f"{name:<28} {count:>8} sum={total} min={mn} max={mx}")
        return "\n".join(lines) + "\n"
