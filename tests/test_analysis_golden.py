"""Byte-identity golden for the analysis layer on fig2's traced run.

The session fixture simulates the traced, monitored fig2 job once (16 LU
ranks on 8 dual-CPU nodes, the interference process on node 7, kernel
and TAU tracing on, a 10 ms live monitor) and keeps only its
``harvest_bottleneck_inputs``.  The tests then pin the merged user+kernel
timelines and the canonical bottleneck report against
``tests/goldens/fig2_analysis.json``.  A change to the trace merge, wait
extraction or attribution can be checked here without re-simulating.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.bottlenecks import (build_report,
                                        harvest_bottleneck_inputs,
                                        report_to_json)
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.experiments.fig2_controlled import (CONTROLLED_LU,
                                               PERTURBED_NODE_INDEX)
from repro.monitor import ClusterMonitor, MonitorConfig
from repro.sim.units import MSEC
from repro.workloads.interference import overhead_process
from repro.workloads.lu import lu_app

_GOLD = json.loads(
    (Path(__file__).parent / "goldens" / "fig2_analysis.json").read_text())


@pytest.fixture(scope="session")
def fig2_inputs():
    """``harvest_bottleneck_inputs`` of the traced, monitored fig2 run."""
    cluster = make_chiba(nnodes=8, seed=1,
                         ktau=KtauBuildConfig.full().with_tracing(1 << 16))
    node = cluster.nodes[PERTURBED_NODE_INDEX]
    node.daemons.append(node.kernel.spawn(
        overhead_process(sleep_ns=600 * MSEC, busy_ns=200 * MSEC),
        "overhead"))
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=10 * MSEC,
                                                    bottleneck_top_k=5))
    job = launch_mpi_job(cluster, 16, lu_app(CONTROLLED_LU),
                         placement=block_placement(2, 16), comm_prefix="lu",
                         tau_tracing=True, node_setup=monitor.attach_node)
    job.run(limit_s=600)
    inputs = harvest_bottleneck_inputs(job)
    cluster.teardown()
    return inputs


def merged_sha256(inputs) -> str:
    """SHA-256 over every rank's merged timeline, event by event."""
    digest = hashlib.sha256()
    for rt in inputs:
        for ev in rt.merged:
            digest.update(f"{rt.rank}\t{ev.cycles}\t{ev.name}\t{ev.layer}\t"
                          f"{int(ev.is_entry)}\t{ev.value}\n".encode())
    return digest.hexdigest()


def test_merged_timelines_match_golden(fig2_inputs):
    assert sum(len(rt.merged) for rt in fig2_inputs) == _GOLD["merged_events"]
    assert merged_sha256(fig2_inputs) == _GOLD["merged_sha256"]


def test_report_matches_golden(fig2_inputs):
    obs.enable(metrics=True, tracing=False, progress=False)
    try:
        report = build_report(fig2_inputs, top_k=10, seed=1)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable(reset=True)
    assert counters["bottleneck.waits"] == report.total_waits == 4_226
    assert counters["bottleneck.stalls_attributed"] == 492
    assert report.top_blocker == "ccn007"
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == _GOLD["report_sha256"]
