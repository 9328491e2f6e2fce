"""Byte-identity goldens for full-experiment profile output.

These hashes were captured from the binary-heap engine immediately
before the calendar-queue rewrite (PR 8).  The queue replacement is a
pure performance change: every experiment must produce *byte-identical*
profile JSON, because dispatch order — not just dispatch content — is
part of the determinism contract (ROADMAP invariant: same seed, same
profiles, to the nanosecond).

If a future PR intentionally changes simulated behaviour, regenerate
``tests/goldens/engine_profiles.json`` and say so in the PR; these tests
failing on an engine-only change means event ordering drifted.
"""

import hashlib
import json
from pathlib import Path

from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

_GOLD = json.loads(
    (Path(__file__).parent / "goldens" / "engine_profiles.json").read_text())


def test_lu_profiles_byte_identical_to_golden():
    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1)
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    cluster.teardown()
    assert hashlib.sha256(payload.encode()).hexdigest() == _GOLD["lu_sha256"]


def test_fig2_profiles_byte_identical_to_golden():
    from repro.experiments.fig2_controlled import run_fig2ab
    res = run_fig2ab(seed=1)
    payload = profiles_to_json(res.data)
    assert hashlib.sha256(payload.encode()).hexdigest() == _GOLD["fig2_sha256"]


def test_lu_counters_profiles_byte_identical_to_golden():
    """The same LU run with the §6 counters build option on: the PMC
    sections extend the export deterministically, so the counters-on
    output is golden-pinned too (captured when the counter model
    landed)."""
    from repro.core.config import KtauBuildConfig

    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1,
                         ktau=KtauBuildConfig.full(counters=True))
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    cluster.teardown()
    assert hashlib.sha256(payload.encode()).hexdigest() \
        == _GOLD["lu_counters_sha256"]


def test_lu_trace_records_byte_identical_to_golden():
    """The same LU run with tracing built in: every task's kernel trace
    records (stamp, event name, kind, value) and its loss count, node by
    node and pid by pid, are golden-pinned, so the span-replay paths
    that write trace records cannot drift unnoticed."""
    from repro.core.config import KtauBuildConfig

    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1,
                         ktau=KtauBuildConfig.full().with_tracing(1 << 16))
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    digest = hashlib.sha256()
    for node in cluster.nodes:
        ktau = node.kernel.ktau
        pool = {**ktau.zombies, **ktau.tasks}
        for pid in sorted(pool):
            data = pool[pid]
            digest.update(f"{node.name} {pid} {data.comm} "
                          f"{data.trace.lost_count}\n".encode())
            for rec in data.trace.peek():
                name = ktau.registry.name_of(rec.event_id)
                digest.update(f"{rec.cycles} {name} {int(rec.kind)} "
                              f"{rec.value}\n".encode())
    cluster.teardown()
    assert digest.hexdigest() == _GOLD["lu_trace_sha256"]
