"""The three benchmark workloads, driven through the public API only.

Each workload builds a cluster, launches an MPI job, runs it and turns
the result into its canonical exports, with a span around every public
call:

- ``cluster.build``: ``make_chiba`` (plus intruder and monitor on fig2);
- ``cluster.launch``: ``launch_mpi_job``;
- ``sim.run``: ``MpiJob.run``;
- ``core.harvest``: ``harvest_job`` (and ``harvest_bottleneck_inputs``);
- ``tau.merge``: ``merged_profile`` over every rank;
- ``analysis.bottlenecks.report``: ``build_report``;
- ``monitor.harvest``: ``ClusterMonitor.harvest``;
- ``monitor.timeline``: ``integrated_timeline``;
- ``analysis.export``: ``profiles_to_json`` (and ``report_to_json``,
  ``monitor_data_to_json``).

A span a workload does not enter reads 0.  Spans are kept in memory
(:class:`SpanRecorder`) and written once, at exit, as Chrome trace
events.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.analysis.bottlenecks import (build_report,
                                        harvest_bottleneck_inputs,
                                        report_to_json)
from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.experiments.common import bench_lu_params
from repro.experiments.fig2_controlled import (CONTROLLED_LU,
                                               PERTURBED_NODE_INDEX)
from repro.monitor import (BOTTLENECK, ClusterMonitor, MonitorConfig,
                           integrated_timeline, monitor_data_to_json)
from repro.sim.units import MSEC
from repro.tau.merge import merged_profile
from repro.workloads.interference import overhead_process
from repro.workloads.lu import lu_app

SPANS = ("cluster.build", "cluster.launch", "sim.run", "core.harvest",
         "tau.merge", "analysis.bottlenecks.report", "monitor.harvest",
         "monitor.timeline", "analysis.export")

#: Job time limit (simulated seconds); a job still running then fails.
LIMIT_S = 600.0

#: LU problem scale per benchmark size (``bench_lu_params`` factor).
LU_SCALE = {"bench": 0.1, "tiny": 0.02}

#: Kernel trace-buffer entries for the traced fig2 run (the default
#: 4096 would wrap and drop early iterations).
TRACE_ENTRIES = 1 << 16


class SpanRecorder:
    """In-memory spans: Chrome B/E events plus each span's time window
    (``time.perf_counter`` start and end) in the current iteration."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.events: list[dict] = []
        self._stack: list[str] = []
        self.windows: dict[str, tuple[float, float]] = {}

    def reset(self) -> None:
        """Start a new iteration's window table (events are kept)."""
        self.windows = {}

    def _event(self, name: str, ph: str, now: float, args: dict) -> None:
        record = {"name": name, "ph": ph, "pid": 1, "tid": 0,
                  "ts": (now - self._t0) * 1e6, "cat": "layerbench"}
        if args:
            record["args"] = args
        self.events.append(record)

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        args["parent"] = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._event(name, "B", start, args)
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            end = time.perf_counter()
            self._event(name, "E", end, {})
            self.windows[name] = (start, end)


@dataclass
class Outcome:
    """What one workload iteration produced, for checks and counts."""

    cluster: object
    job: object
    data: object
    exports: dict[str, str]
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over the canonical exports, in name order."""
        h = hashlib.sha256()
        for name in sorted(self.exports):
            h.update(name.encode() + b"\0" + self.exports[name].encode()
                     + b"\0")
        return h.hexdigest()


def _merge_every_rank(data) -> int:
    """The Fig 2-D merged user/kernel view of every rank; row count."""
    return sum(len(merged_profile(rank.uprofile, rank.kprofile))
               for rank in data.ranks)


def run_lu(seed: int, rec: SpanRecorder, sampler=None, *, size: str,
           base: bool, setup_only: bool = False) -> Outcome | None:
    """Chiba LU ``128x1``: 128 ranks, one per node, block placement.

    ``base`` boots kernels without the KTAU patch and runs TAU off (the
    "Base" build of Table 3).  ``setup_only`` stops after the launch.
    """
    ktau = KtauBuildConfig.vanilla() if base else None
    with rec.span("cluster.build"):
        cluster = make_chiba(nnodes=128, seed=seed, ktau=ktau)
    with rec.span("cluster.launch"):
        job = launch_mpi_job(cluster, 128, lu_app(bench_lu_params(
            LU_SCALE[size])), placement=block_placement(1, 128),
            comm_prefix="lu", tau_enabled=not base)
    if setup_only:
        cluster.teardown()
        return None
    with rec.span("sim.run"), sampler or nullcontext():
        job.run(limit_s=LIMIT_S)
    with rec.span("core.harvest"):
        data = harvest_job(job)
    rows = 0
    if not base:
        with rec.span("tau.merge"):
            rows = _merge_every_rank(data)
    with rec.span("analysis.export"):
        exports = {"profiles": profiles_to_json(data)}
    outcome = Outcome(cluster, job, data, exports)
    if not base and rows == 0:
        outcome.problems.append("merged profile has no rows")
    return outcome


def run_fig2(seed: int, rec: SpanRecorder, sampler=None, *, size: str,
             setup_only: bool = False) -> Outcome | None:
    """The traced, monitored §5.1 run: 16 LU ranks on 8 dual-CPU nodes,
    the interference process on node 7, a 10 ms live monitor."""
    del size  # one size: the intruder's timing needs the full job
    with rec.span("cluster.build"):
        cluster = make_chiba(
            nnodes=8, seed=seed,
            ktau=KtauBuildConfig.full().with_tracing(TRACE_ENTRIES))
        node = cluster.nodes[PERTURBED_NODE_INDEX]
        intruder = node.kernel.spawn(
            overhead_process(sleep_ns=600 * MSEC, busy_ns=200 * MSEC),
            "overhead")
        node.daemons.append(intruder)
        monitor = ClusterMonitor(cluster, MonitorConfig(
            period_ns=10 * MSEC, bottleneck_top_k=5))
    with rec.span("cluster.launch"):
        job = launch_mpi_job(cluster, 16, lu_app(CONTROLLED_LU),
                             placement=block_placement(2, 16),
                             comm_prefix="lu", tau_tracing=True,
                             node_setup=monitor.attach_node)
    if setup_only:
        cluster.teardown()
        return None
    with rec.span("sim.run"), sampler or nullcontext():
        job.run(limit_s=LIMIT_S)
    with rec.span("core.harvest"):
        inputs = harvest_bottleneck_inputs(job)
        data = harvest_job(job)
    with rec.span("analysis.bottlenecks.report"):
        report = build_report(inputs, top_k=10, seed=seed)
    with rec.span("monitor.harvest"):
        monitor_data = monitor.harvest()
    with rec.span("monitor.timeline"):
        timeline = integrated_timeline(monitor_data, job)
    with rec.span("tau.merge"):
        rows = _merge_every_rank(data)
    with rec.span("analysis.export"):
        exports = {"profiles": profiles_to_json(data),
                   "report": report_to_json(report),
                   "monitor": monitor_data_to_json(monitor_data)}
    outcome = Outcome(cluster, job, data, exports)
    perturbed = node.name
    if report.top_blocker != perturbed:
        outcome.problems.append(
            f"top blocker {report.top_blocker!r}, expected {perturbed!r}")
    if perturbed not in monitor_data.alert_nodes(BOTTLENECK):
        outcome.problems.append(f"no online BOTTLENECK alert on {perturbed}")
    if rows == 0 or not timeline:
        outcome.problems.append("empty merged profile or timeline")
    return outcome


#: Workload name -> runner.  Why each was chosen: ``NOTES.md``.
WORKLOADS: dict[str, Callable[..., Outcome | None]] = {
    "lu-128x1": partial(run_lu, base=False),
    "lu-128x1-base": partial(run_lu, base=True),
    "fig2-traced": run_fig2,
}


def unmatched_exits(cluster) -> int:
    """KTAU exits without a matching entry, summed over every process."""
    total = 0
    for node in cluster.nodes:
        ktau = node.kernel.ktau
        for data in (*ktau.tasks.values(), *ktau.zombies.values()):
            total += data.unmatched_exits
    return total


def work_counts(outcome: Outcome) -> dict[str, int]:
    """Exact work counts read from simulated state after a run."""
    cluster = outcome.cluster
    return {
        "kernel.net.tx_bytes": sum(node.kernel.nic.tx_bytes_total
                                   for node in cluster.nodes),
        "kernel.irqs": sum(sum(counts) for counts
                           in outcome.data.node_irq_counts.values()),
    }
