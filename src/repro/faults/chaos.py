"""Named chaos scenarios and their detection/recovery invariants.

A :class:`ChaosScenario` bundles a :class:`~repro.faults.plan.FaultPlan`
with the invariants a monitored run under that plan must satisfy:

* **detection** — the monitor's collection-health alerts name exactly
  the nodes the plan disrupted (``NODE_STALE`` / ``NODE_LOST`` /
  ``NODE_RECOVERED`` sets are checked per kind);
* **isolation** — every node the plan did not perturb ends the run
  with kernel profiles *byte-identical* to the fault-free baseline
  (skipped for wire-scope plans, whose blast radius is the cluster);
* **reproducibility** — the same plan and seed produce byte-identical
  monitor output twice (checked by the harness, which runs the faulted
  configuration twice);
* **completion** — the faulted run still completes and produces
  interval views.

Scenarios are *parametric in cluster size*: plans target the run's two
**spare** nodes (the last two, which host housekeeping and KTAUD but no
application ranks), so node-scoped faults cannot propagate through the
application's messages and the isolation invariant is meaningful.  The
actual runs live in :mod:`repro.experiments.chaos`; this module holds
only plan construction and result evaluation (pure functions over run
artifacts), keeping the layering acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import (ClockDrift, CollectorPartition, FaultPlan,
                               KtaudHang, KtaudKill, LatencySpike, NodeCrash,
                               PacketLoss, ProcfsFlap, TracePressure,
                               WirePartition)
from repro.monitor.alerts import (INTERFERENCE, NODE_LOST, NODE_RECOVERED,
                                  NODE_STALE)
from repro.sim.units import MSEC

#: Spare (rank-free) nodes every chaos run provisions beyond the
#: application's placement; plans target these.
SPARE_NODES = 2


@dataclass(frozen=True)
class ChaosScenario:
    """One named plan plus the invariants it must satisfy."""

    plan: FaultPlan
    #: node indices that must appear in NODE_STALE alerts (exactly).
    expect_stale: tuple[int, ...] = ()
    #: node indices that must appear in NODE_LOST alerts (exactly).
    expect_lost: tuple[int, ...] = ()
    #: node indices that must appear in NODE_RECOVERED alerts (exactly).
    expect_recovered: tuple[int, ...] = ()
    #: comms that must be flagged as interference somewhere.
    expect_interference_comms: tuple[str, ...] = ()


def _ktaud_kill(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("ktaud-kill", (
        KtaudKill(at_ns=150 * MSEC, node_index=spare),))
    return ChaosScenario(plan, expect_stale=(spare,), expect_lost=(spare,))


def _collector_partition(nnodes: int) -> ChaosScenario:
    spare = nnodes - 1
    plan = FaultPlan("collector-partition", (
        CollectorPartition(at_ns=250 * MSEC, nodes=(spare,),
                           until_ns=600 * MSEC),))
    return ChaosScenario(plan, expect_stale=(spare,),
                         expect_recovered=(spare,))


def _kill_and_partition(nnodes: int) -> ChaosScenario:
    kill, part = nnodes - 2, nnodes - 1
    plan = FaultPlan("kill-and-partition", (
        KtaudKill(at_ns=150 * MSEC, node_index=kill),
        CollectorPartition(at_ns=250 * MSEC, nodes=(part,),
                           until_ns=600 * MSEC),))
    return ChaosScenario(plan, expect_stale=(kill, part),
                         expect_lost=(kill,), expect_recovered=(part,))


def _ktaud_hang(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("ktaud-hang", (
        KtaudHang(at_ns=150 * MSEC, node_index=spare, until_ns=550 * MSEC),))
    return ChaosScenario(plan, expect_stale=(spare,),
                         expect_recovered=(spare,))


def _procfs_flap(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("procfs-flap", (
        ProcfsFlap(at_ns=150 * MSEC, until_ns=450 * MSEC,
                   node_index=spare),))
    return ChaosScenario(plan, expect_stale=(spare,),
                         expect_recovered=(spare,))


def _node_crash(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("node-crash", (
        NodeCrash(at_ns=150 * MSEC, node_index=spare,
                  reboot_at_ns=450 * MSEC),))
    return ChaosScenario(plan, expect_stale=(spare,),
                         expect_recovered=(spare,))


def _trace_pressure(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("trace-pressure", (
        TracePressure(at_ns=150 * MSEC, until_ns=600 * MSEC,
                      node_index=spare, period_ns=1 * MSEC,
                      burst_syscalls=64),))
    return ChaosScenario(plan, expect_interference_comms=("pressured",))


def _clock_drift(nnodes: int) -> ChaosScenario:
    spare = nnodes - 2
    plan = FaultPlan("clock-drift", (
        ClockDrift(at_ns=100 * MSEC, node_index=spare, ppm=500.0),))
    return ChaosScenario(plan)


def _packet_loss(nnodes: int) -> ChaosScenario:
    plan = FaultPlan("packet-loss", (
        PacketLoss(at_ns=200 * MSEC, until_ns=600 * MSEC, rate=0.01),))
    return ChaosScenario(plan)


def _latency_spike(nnodes: int) -> ChaosScenario:
    plan = FaultPlan("latency-spike", (
        LatencySpike(at_ns=200 * MSEC, until_ns=500 * MSEC,
                     extra_ns=2 * MSEC),))
    return ChaosScenario(plan)


def _wire_partition(nnodes: int) -> ChaosScenario:
    ranked = nnodes - SPARE_NODES
    half = ranked // 2
    plan = FaultPlan("wire-partition", (
        WirePartition(at_ns=300 * MSEC, until_ns=340 * MSEC,
                      group_a=tuple(range(half)),
                      group_b=tuple(range(half, ranked))),))
    return ChaosScenario(plan)


#: (name, builder) registry.
SCENARIOS: tuple = (
    ("ktaud-kill", _ktaud_kill),
    ("collector-partition", _collector_partition),
    ("kill-and-partition", _kill_and_partition),
    ("ktaud-hang", _ktaud_hang),
    ("procfs-flap", _procfs_flap),
    ("node-crash", _node_crash),
    ("trace-pressure", _trace_pressure),
    ("clock-drift", _clock_drift),
    ("packet-loss", _packet_loss),
    ("latency-spike", _latency_spike),
    ("wire-partition", _wire_partition),
)


def scenario_names() -> list[str]:
    """Names of every registered chaos scenario, registry order."""
    return [name for name, _build in SCENARIOS]


def get_scenario(name: str, nnodes: int) -> ChaosScenario:
    """Build the named scenario for a cluster of ``nnodes`` nodes."""
    if nnodes < SPARE_NODES + 2:
        raise ValueError(f"chaos runs need at least {SPARE_NODES + 2} nodes")
    for reg_name, build in SCENARIOS:
        if reg_name == name:
            return build(nnodes)
    raise KeyError(f"unknown chaos scenario {name!r}; "
                   f"try one of {scenario_names()}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosCheck:
    """One evaluated invariant."""

    name: str
    passed: bool
    detail: str

    def to_doc(self) -> dict:
        """JSON-able record."""
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}


@dataclass
class ChaosReport:
    """Everything a chaos run asserts, plus its artifacts."""

    scenario: str
    experiment: str
    seed: int
    checks: list[ChaosCheck] = field(default_factory=list)
    #: canonical monitor JSON of the faulted run (the CI artifact).
    alerts_json: str = ""
    #: application order of applied faults.
    injected: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return all(check.passed for check in self.checks)

    def to_doc(self) -> dict:
        """JSON-able report document."""
        return {"scenario": self.scenario, "experiment": self.experiment,
                "seed": self.seed, "passed": self.passed,
                "checks": [check.to_doc() for check in self.checks],
                "injected": list(self.injected)}

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"chaos {self.scenario} on {self.experiment} "
                 f"(seed {self.seed}): "
                 + ("PASS" if self.passed else "FAIL")]
        for check in self.checks:
            mark = "ok " if check.passed else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        return "\n".join(lines)


def _alert_nodes(monitor_doc_alerts: list, kind: str) -> set[str]:
    return {a["node"] for a in monitor_doc_alerts if a["kind"] == kind}


def evaluate(scenario: ChaosScenario, node_names: list[str],
             baseline_profiles: dict, faulted_profiles: dict,
             faulted_monitor_doc: dict, repeat_monitor_doc: dict,
             repeat_profiles: dict) -> list[ChaosCheck]:
    """Evaluate every invariant; pure function over run artifacts.

    ``*_profiles`` map node name to a byte-stable profile fingerprint;
    ``*_monitor_doc`` are :meth:`MonitorData.to_doc` documents.
    """
    checks: list[ChaosCheck] = []
    alerts = faulted_monitor_doc["alerts"]

    def names(indices) -> set[str]:
        return {node_names[i] for i in indices}

    for kind, expected in ((NODE_STALE, scenario.expect_stale),
                           (NODE_LOST, scenario.expect_lost),
                           (NODE_RECOVERED, scenario.expect_recovered)):
        got = _alert_nodes(alerts, kind)
        want = names(expected)
        checks.append(ChaosCheck(
            f"detect:{kind}", got == want,
            f"expected {sorted(want)}, got {sorted(got)}"))
    if scenario.expect_interference_comms:
        flagged = {a["comm"] for a in alerts
                   if a["kind"] == INTERFERENCE and a["comm"]}
        missing = set(scenario.expect_interference_comms) - flagged
        checks.append(ChaosCheck(
            "detect:interference", not missing,
            f"expected comms {sorted(scenario.expect_interference_comms)}, "
            f"flagged {sorted(flagged)}"))

    perturbed = scenario.plan.perturbed_nodes()
    if perturbed is None:
        checks.append(ChaosCheck(
            "isolation", True,
            "skipped: wire-scope plan perturbs the whole cluster"))
    else:
        safe = [name for i, name in enumerate(node_names)
                if i not in perturbed]
        differing = [name for name in safe
                     if baseline_profiles.get(name)
                     != faulted_profiles.get(name)]
        checks.append(ChaosCheck(
            "isolation", not differing,
            f"{len(safe)} unfaulted nodes byte-identical to fault-free run"
            if not differing else
            f"profiles differ from fault-free run on {differing}"))

    same_monitor = faulted_monitor_doc == repeat_monitor_doc
    same_profiles = faulted_profiles == repeat_profiles
    checks.append(ChaosCheck(
        "reproducibility", same_monitor and same_profiles,
        "same plan + seed reproduced byte-identical alerts and profiles"
        if same_monitor and same_profiles else
        f"second run diverged (monitor equal: {same_monitor}, "
        f"profiles equal: {same_profiles})"))

    checks.append(ChaosCheck(
        "completion", faulted_monitor_doc["intervals"] > 0,
        f"faulted run completed with "
        f"{faulted_monitor_doc['intervals']} interval views"))
    return checks
