"""TCP path cost model and span templates.

The receive path for a frame group of *k* segments is::

    do_IRQ { eth_interrupt }
    do_softirq { net_rx_action { tcp_v4_rcv  x k  (+ pkt_rx atomics) } }

``tcp_v4_rcv`` carries the per-segment receive cost, dilated by the cache
mismatch factor when the servicing CPU differs from the consuming task's
CPU — data received by the kernel on one CPU but destined for a thread on
the other pays cross-CPU cache traffic (§5.2: "the dilation in TCP
processing times seen in the 64x2 run is very likely cache related").

The transmit path records, per segment, ``tcp_sendmsg { ip_queue_xmit {
dev_queue_xmit } }`` nested inside the ``sys_writev``/``sock_sendmsg``
syscall spans; the cost split keeps ``tcp_sendmsg`` the dominant exclusive
component, matching kernel reality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.counters import rates_for_path, scale_miss_rate
from repro.core.measurement import SpanTemplate
from repro.core.tracebuf import TraceKind
from repro.kernel.irq import KSpan

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: Fraction of the per-segment TX cost attributed to each routine.
TX_SPLIT = (("tcp_sendmsg", 0.60), ("ip_queue_xmit", 0.23), ("dev_queue_xmit", 0.17))


def rx_cost_ns(kernel: "Kernel", mismatch: bool) -> int:
    """Per-segment receive-processing cost on ``kernel``'s CPUs."""
    net = kernel.params.net
    cost = net.tcp_rx_cost_ns
    if mismatch:
        cost = int(cost * net.cache_mismatch_factor)
    return cost


def rx_template(kernel: "Kernel", nsegs: int, mismatch: bool) -> SpanTemplate:
    """The interrupt-context span template of an ``nsegs``-segment frame
    group (atomic values: the segment sizes), cached per kernel.

    ``mismatch``: the servicing CPU differs from the consumer's.
    """
    key = ("rx", nsegs, mismatch)
    template = kernel.templates.get(key)
    if template is not None:
        return template
    net = kernel.params.net
    per_seg = rx_cost_ns(kernel, mismatch)
    # The PMU dimension of the cache-locality model: a mismatched
    # receive dilates processing time *and* inflates the L2 miss rate by
    # the same factor, so counter views can tell "slow because more
    # work" from "slow because cache-hostile".
    rx_rates = rates_for_path("tcp_v4_rcv")
    if mismatch:
        rx_rates = scale_miss_rate(rx_rates, net.cache_mismatch_factor)
    rcv_spans = [
        KSpan("tcp_v4_rcv", per_seg, atomics=[("net.pkt_rx_bytes", 0)],
              rates=rx_rates)
        for _ in range(nsegs)
    ]
    hard = KSpan("do_IRQ", net.irq_cost_ns, children=[KSpan("eth_interrupt", 1_000)])
    soft = KSpan("do_softirq", net.softirq_dispatch_cost_ns,
                 children=[KSpan("net_rx_action", 1_000, children=rcv_spans)])
    template = kernel.templates[key] = kernel.irq.compile([hard, soft])[0]
    return template


def tx_template(kernel: "Kernel", nsegs: int) -> SpanTemplate:
    """The transmit span template of an ``nsegs``-segment burst (atomic
    values: the segment sizes), cached per kernel.

    Per segment: ``tcp_sendmsg { ip_queue_xmit { dev_queue_xmit } }``
    with the ``net.pkt_tx_bytes`` atomic just before the exits, stamped
    back to back over the burst.  Each entry carries its leg's PMC
    advance for the per-op path.
    """
    key = ("tx", nsegs)
    template = kernel.templates.get(key)
    if template is not None:
        return template
    cost = kernel.params.net.tcp_tx_cost_ns
    cycles_for_ns = kernel.clock.cycles_for_ns
    first_ns = int(cost * TX_SPLIT[0][1])
    second_ns = int(cost * TX_SPLIT[1][1])
    legs = zip(TX_SPLIT, (first_ns, second_ns, cost - first_ns - second_ns),
               (0, cycles_for_ns(first_ns),
                cycles_for_ns(first_ns) + cycles_for_ns(second_ns)))
    entries = [(name, offset, (cycles_for_ns(leg_ns), rates_for_path(name)))
               for (name, _), leg_ns, offset in legs]
    seg_cycles = cycles_for_ns(cost)
    ops = []
    for i in range(nsegs):
        base = i * seg_cycles
        end = base + seg_cycles
        ops += [(TraceKind.ENTRY, name, base + offset, pmc)
                for name, offset, pmc in entries]
        ops.append((TraceKind.ATOMIC, "net.pkt_tx_bytes", end, None))
        ops += [(TraceKind.EXIT, name, end, None)
                for name, _, _ in reversed(entries)]
    template = kernel.templates[key] = SpanTemplate.compile(ops, cost * nsegs)
    return template


def record_tx_spans(kernel: "Kernel", task: "Task", segments: list[int]) -> int:
    """Record per-segment transmit spans for ``task``; returns total cost.

    Timestamps are laid out explicitly over the burst the caller is about
    to execute, so the sender-side kernel profile and trace show the real
    nesting (``tcp_sendmsg`` under the open ``sock_sendmsg`` span) even
    though the whole group is simulated as one kernel-compute burst.  The
    cost is folded into the caller's upcoming kernel burst, so the PMC
    advance of the per-op path is marked as already done.
    """
    if task.ktau is not None:
        kernel.replay_spans(task, tx_template(kernel, len(segments)),
                            kernel.clock.read(), segments, pmc_ahead=True)
    return kernel.params.net.tcp_tx_cost_ns * len(segments)
