"""ktaulint fixture: every registry rule violated at a known line.

Declares its own ``Group`` enum and ``POINT_GROUPS`` table so the
project-wide registry rule runs against this file alone.  Line numbers
are asserted exactly by tests/test_lint.py — do not reflow.
"""

import enum


class Group(str, enum.Enum):
    SCHED = "sched"
    NET = "net"


POINT_GROUPS = {
    "schedule": Group.SCHED,
    "tcp_sendmsg": Group.NET,
    "schedule": Group.SCHED,  # line 19: KTAU301 duplicate (event-ID collision)
    "orphan_point": Group.SCHED,  # line 20: KTAU303 never wired
    "bad_group_point": Group.MISSING,  # line 21: KTAU304 unknown group
}


def fire(kernel, data):
    kernel.ktau.entry(data, kernel.point("schedule"))
    kernel.ktau.exit(data, kernel.point("schedule"))
    kernel.ktau.entry(data, kernel.point("mystery_point"))  # line 28: KTAU302
    kernel.ktau.exit(data, kernel.point("mystery_point"))  # line 29: KTAU302
    kernel.ktau.atomic(data, kernel.atomic_point("tcp_sendmsg"), 1)
    kernel.ktau.atomic(data, kernel.atomic_point("bad_group_point"), 1)
