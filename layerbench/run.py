"""Run one benchmark workload, check its outputs, print every metric.

    python3 layerbench/run.py --workload lu-128x1 --seed 1 --seconds 40 \
        --trace 0

One process, no threads, no worker pool.  The run first builds and
launches the workload's cluster ``SETUP_PASSES`` times (set-up samples),
then repeats whole iterations -- build, launch, ``MpiJob.run``, harvest,
analysis, export -- until ``--seconds`` have passed, and reports medians
over them.  ``--trace 1`` adds ``TRACED_RUNS`` iterations with the
sampling layer profiler around ``MpiJob.run`` and ``repro.obs`` metrics
on, and reports the per-layer metrics instead of the end-to-end ones.

Every time reported is in seconds at nominal host speed: the host's
speed drifts by up to 2x, so each measured window is scaled by a fixed
pure-Python probe timed around and during it (:class:`HostSpeed`).

Every iteration is checked: the job finished, no KTAU exit was
unmatched, the canonical exports hash to the digest pinned in
``digests.json`` (seed 1) or to the same digest on every iteration
(other seeds), and on ``fig2-traced`` the perturbed node is both the
offline top blocker and named by an online ``BOTTLENECK`` alert.

Human-readable lines go to stdout first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result and the spans, as Chrome trace events, are written under
``.bench_out/`` in the checkout.  Without the program's sources next to
this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import re
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

#: The seed whose export digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Build-and-launch passes made before the timed iterations.
SETUP_PASSES = 21
#: Profiled iterations in a ``--trace 1`` run (their counts must agree).
TRACED_RUNS = 2

#: Host-speed probe: steps per probe, its typical time on the host the
#: benchmark was tuned on (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11),
#: probes at each edge of a measured unit, and the period of the probes
#: taken while the unit runs.
PROBE_STEPS = 2_000
PROBE_NOMINAL_S = 0.001
EDGE_PROBES = 3
PROBE_PERIOD_S = 0.2

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_rate": "s/s",
              "analyze_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}


@dataclass
class Sample:
    """One iteration's measurements and check results."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    analyze_s: float = 0.0
    sim_rate: float = 0.0
    peak_rss_mb: float = 0.0
    spans: dict[str, float] = field(default_factory=dict)
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    exec_time_s: float = 0.0
    digest: str = ""
    work: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    layer_samples: Counter = field(default_factory=Counter)
    completed: bool = False
    scale: float = 1.0

    def measure(self, speed: "HostSpeed", spans: tuple[str, ...]) -> None:
        """Derive the times from the span windows, each converted to
        seconds at nominal host speed by the probes near its window."""
        windows = self.windows

        def nominal(start: float, end: float) -> float:
            return (end - start) * speed.scale(start, end)

        begin, end = windows["iteration"]
        run_begin, run_end = windows["sim.run"]
        self.scale = speed.scale(begin, end)
        self.wall_s = nominal(begin, end)
        self.setup_s = nominal(windows["cluster.build"][0],
                               windows["cluster.launch"][1])
        self.run_s = nominal(run_begin, run_end)
        self.analyze_s = nominal(run_end, end)
        self.sim_rate = self.exec_time_s / self.run_s
        self.spans = {name: nominal(*windows[name]) if name in windows
                      else 0.0 for name in spans}


def _probe_s() -> float:
    """Time a fixed pure-Python job shaped like the simulator's inner
    loop (heap pushes and pops, dict stores) that allocates nothing the
    garbage collector tracks."""
    start = time.perf_counter()
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(PROBE_STEPS):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = heap[0]
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


class HostSpeed:
    """Host-speed samples around and during one measured unit.

    The host's speed drifts by up to 2x in phases of seconds, so a unit's
    times are scaled to the nominal probe speed: probes run at both
    edges, and every ``PROBE_PERIOD_S`` of wall time a ``SIGALRM``
    handler runs one more while the unit runs (about 0.5% of its time).
    """

    def __init__(self) -> None:
        #: (``perf_counter`` at the probe's start, probe seconds)
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self) -> None:
        self.probes.append((time.perf_counter(), _probe_s()))

    def __enter__(self) -> "HostSpeed":
        for _ in range(EDGE_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self._probe()

    def _on_alarm(self, _signum, _frame) -> None:
        self._probe()

    def scale(self, start: float, end: float) -> float:
        """Nominal over mean probe time within one probe period of the
        window ``[start, end]``: host seconds there -> nominal seconds."""
        near = [seconds for at, seconds in self.probes
                if start - PROBE_PERIOD_S <= at <= end + PROBE_PERIOD_S]
        return PROBE_NOMINAL_S / statistics.fmean(
            near or [seconds for _, seconds in self.probes])


def _reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        match = re.search(r"VmHWM:\s+(\d+) kB", fh.read())
    return int(match.group(1)) / 1024 if match else 0.0


def _iterate(harness, runner, args, rec, index: int, sampler=None) -> Sample:
    """One timed iteration of the workload, then its output checks."""
    sample = Sample(traced=sampler is not None)
    gc.collect()
    _reset_peak_rss()
    rec.reset()
    try:
        with rec.span("iteration", index=index, traced=sample.traced):
            outcome = runner(args.seed, rec, sampler, size=args.size)
    except Exception:  # the run failed; record it and keep measuring
        sample.problems.append("raised: " + traceback.format_exc(limit=3))
        return sample
    sample.peak_rss_mb = _peak_rss_mb()
    sample.windows = dict(rec.windows)
    sample.exec_time_s = outcome.job.exec_time_s
    sample.digest = outcome.digest()
    sample.work = harness.work_counts(outcome)
    sample.problems.extend(outcome.problems)
    unmatched = harness.unmatched_exits(outcome.cluster)
    if unmatched:
        sample.problems.append(f"{unmatched} unmatched KTAU exits")
    outcome.cluster.teardown()
    sample.completed = True
    return sample


def _check_digests(samples: list[Sample], pinned: str | None) -> str:
    """Fail each iteration whose exports differ from the reference
    digest: the pinned one if given, else the most common one.  Returns
    the most common digest the run produced."""
    digests = Counter(s.digest for s in samples if s.completed)
    if not digests:
        return ""
    produced = digests.most_common(1)[0][0]
    reference = pinned or produced
    for s in samples:
        if s.completed and s.digest != reference:
            s.problems.append(f"exports sha256 {s.digest[:16]}..., "
                              f"expected {reference[:16]}...")
    return produced


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(samples: list[Sample], setups: list[float],
                failed: int) -> dict[str, float]:
    done = [s for s in samples if s.completed and not s.traced]
    return {
        "wall_s": _median([s.wall_s for s in done]),
        "setup_s": _median(setups + [s.setup_s for s in done]),
        "sim_rate": _median([s.sim_rate for s in done]),
        "analyze_s": _median([s.analyze_s for s in done]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in done]),
        "pass_rate": (len(samples) - failed) / len(samples),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(harness, layers, samples: list[Sample]
               ) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics (value, unit) and the base of each ratio."""
    plain = [s for s in samples if s.completed and not s.traced]
    traced = [s for s in samples if s.completed and s.traced]
    out: dict[str, tuple[float, str]] = {}
    bases: dict[str, str] = {}
    for name in harness.SPANS:
        out[f"{name}_s"] = (_median([s.spans[name] for s in plain]), "s")
    if not traced:  # every profiled run failed (correct is false): zeros
        traced = [Sample(traced=True,
                         self_s=dict.fromkeys(layers.LAYERS, 0.0))]

    pooled: Counter = Counter()
    for s in traced:
        pooled.update(s.layer_samples)
    total = sum(pooled.values())
    named = sum(pooled[layer] for layer in layers.LAYERS)
    self_s = {layer: statistics.fmean(s.self_s[layer] for s in traced)
              for layer in layers.LAYERS}
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    run_s = statistics.fmean(s.run_s for s in traced)
    out["trace.run_s"] = (run_s, "s")
    out["trace.samples"] = (total, "count")
    out["trace.coverage"] = (_ratio(named, total), "ratio")
    bases["trace.coverage"] = f"{named} of {total} samples"
    wall_plain = _median([s.wall_s for s in plain])
    wall_traced = _median([s.wall_s for s in traced])
    out["trace.overhead_pct"] = (100 * (_ratio(wall_traced, wall_plain) - 1),
                                 "%")
    bases["trace.overhead_pct"] = (f"traced wall {wall_traced:.3f} s vs "
                                   f"untraced {wall_plain:.3f} s")

    c = traced[0].counters
    fired = c.get("engine.events_fired", 0)
    scheduled = c.get("engine.events_scheduled", 0)
    cancelled = c.get("engine.events_cancelled", 0)
    pool_hits = c.get("engine.pool_hits", 0)
    pool_lookups = pool_hits + c.get("engine.pool_misses", 0)
    firings = c.get("ktau.firings", 0)
    cache_hits = c.get("ktau.firing_cache_hits", 0)
    out["sim.events_fired"] = (fired, "count")
    out["sim.events_scheduled"] = (scheduled, "count")
    out["sim.cancel_ratio"] = (_ratio(cancelled, scheduled), "ratio")
    bases["sim.cancel_ratio"] = (f"{cancelled} cancelled of {scheduled} "
                                 "scheduled")
    out["sim.pool_hit_ratio"] = (_ratio(pool_hits, pool_lookups), "ratio")
    bases["sim.pool_hit_ratio"] = f"{pool_hits} hits of {pool_lookups} handles"
    out["sim.host_ns_per_event"] = (_ratio(1e9 * self_s["sim"], fired), "ns")
    bases["sim.host_ns_per_event"] = (f"sim.self_s {self_s['sim']:.3f} s over "
                                      f"{fired} events fired")
    out["core.firings"] = (firings, "count")
    out["core.firing_cache_hit_ratio"] = (_ratio(cache_hits, firings), "ratio")
    bases["core.firing_cache_hit_ratio"] = (f"{cache_hits} hits of "
                                            f"{firings} firings")
    out["core.host_ns_per_firing"] = (_ratio(1e9 * self_s["core"], firings),
                                      "ns")
    bases["core.host_ns_per_firing"] = (f"core.self_s {self_s['core']:.3f} s "
                                        f"over {firings} firings")
    out["core.unmatched_exits"] = (c.get("ktau.unmatched_exits", 0), "count")
    out["core.collect_retries"] = (c.get("collect.retries", 0), "count")
    out["core.collect_failures"] = (c.get("collect.failures", 0), "count")
    work = traced[0].work
    out["kernel.net.tx_bytes"] = (work.get("kernel.net.tx_bytes", 0), "bytes")
    out["kernel.irqs"] = (work.get("kernel.irqs", 0), "count")
    for name in ("snapshots", "intervals", "alerts"):
        out[f"monitor.{name}"] = (c.get(f"monitor.{name}", 0), "count")
    for name in ("waits", "stalls_attributed"):
        out[f"analysis.bottlenecks.{name}"] = (c.get(f"bottleneck.{name}", 0),
                                               "count")
    return out, bases


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lu-128x1", "lu-128x1-base", "fig2-traced"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time spent on measured iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny shrinks the LU problem for smoke tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    os.environ.pop("REPRO_WORKERS", None)  # never fan out to workers
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"layerbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import harness
        import layers
        from repro import obs
    except ImportError as exc:
        print(f"layerbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2

    runner = harness.WORKLOADS[args.workload]
    rec = harness.SpanRecorder()
    probes: list[float] = []  # every host-speed probe, for the record
    setups = []
    for _ in range(SETUP_PASSES):
        gc.collect()
        rec.reset()
        with HostSpeed() as speed, rec.span("setup"):
            runner(args.seed, rec, size=args.size, setup_only=True)
        probes.extend(seconds for _, seconds in speed.probes)
        start, end = (rec.windows["cluster.build"][0],
                      rec.windows["cluster.launch"][1])
        setups.append((end - start) * speed.scale(start, end))

    # Untraced iterations fill --seconds, leaving room for the traced
    # ones; an iteration that would overrun the budget is not started.
    samples: list[Sample] = []
    start = time.perf_counter()
    traced_runs = TRACED_RUNS if args.trace else 0
    while True:
        with HostSpeed() as speed:
            sample = _iterate(harness, runner, args, rec, len(samples))
        probes.extend(seconds for _, seconds in speed.probes)
        if sample.completed:
            sample.measure(speed, harness.SPANS)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1 + traced_runs) / len(samples) \
                > args.seconds:
            break
    counts_repeat = True
    if args.trace:
        for _ in range(traced_runs):
            obs.enable(metrics=True, tracing=False, progress=False)
            sampler = layers.LayerSampler()
            with HostSpeed() as speed:
                sample = _iterate(harness, runner, args, rec, len(samples),
                                  sampler)
            sample.counters = dict(obs.snapshot()["counters"])
            obs.disable(reset=True)
            probes.extend(seconds for _, seconds in speed.probes)
            if sample.completed:
                sample.measure(speed, harness.SPANS)
            sample.layer_samples = sampler.samples
            sample.self_s = sampler.self_seconds(sample.run_s)
            samples.append(sample)
        traced = [s for s in samples if s.traced]
        counts_repeat = all(s.counters == traced[0].counters
                            and s.work == traced[0].work for s in traced)

    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text()).get(
            f"{args.workload}@{args.size}")
    digest = _check_digests(samples, pinned)
    failed = sum(1 for s in samples if s.problems)
    for index, s in enumerate(samples):
        kind = "traced" if s.traced else "plain"
        print(f"iteration {index} ({kind}, host scale {s.scale:.3f}): "
              f"wall {s.wall_s:.3f} s, "
              f"setup {s.setup_s:.4f} s, run {s.run_s:.3f} s, analyze "
              f"{s.analyze_s:.3f} s, peak rss {s.peak_rss_mb:.1f} MB"
              + ("".join(f"\n  FAILED: {p}" for p in s.problems)))

    e2e = _end_to_end(samples, setups, failed)
    per_layer, bases = _per_layer(harness, layers, samples)
    plain_runs = sum(1 for s in samples if not s.traced)
    print(f"\n{args.workload} seed {args.seed}: {len(samples)} runs "
          f"({plain_runs} untraced), {failed} failed, fail_rate "
          f"{failed / len(samples):.3f}, exports sha256 {digest}")
    print(f"times in seconds at nominal host speed (probe "
          f"{PROBE_NOMINAL_S * 1e6:.0f} us; this run's median probe "
          f"{statistics.median(probes) * 1e6:.0f} us)")
    print(f"end-to-end (medians over {plain_runs} untraced runs; setup_s "
          f"over {plain_runs + SETUP_PASSES} set-ups):")
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6g} {END_TO_END[name]}")
    print("per-layer:")
    for name, (value, unit) in per_layer.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name:32s} {value:14.6g} {unit}{base}")
    if not counts_repeat:
        print("FAILED: counts differ between the traced runs")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / (f"{args.workload}.{args.size}.seed{args.seed}"
                     f".trace{args.trace}")
    events = json.dumps({"traceEvents": rec.events, "displayTimeUnit": "ms"})
    trace_ok = True
    try:
        obs.validate_trace_events(events)
    except ValueError as exc:
        trace_ok = False
        print(f"FAILED: span trace invalid: {exc}")
    Path(f"{stem}.events.json").write_text(events)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
    result = {"correct": failed == 0 and counts_repeat and trace_ok,
              "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    Path(f"{stem}.result.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed,
        "size": args.size, "exports_sha256": digest, "ratio_bases": bases,
        "end_to_end": e2e,
        "per_layer": {name: v for name, (v, _u) in per_layer.items()},
        "iterations": [{"traced": s.traced, "host_scale": s.scale,
                        "wall_s": s.wall_s,
                        "setup_s": s.setup_s, "run_s": s.run_s,
                        "analyze_s": s.analyze_s,
                        "peak_rss_mb": s.peak_rss_mb, "spans": s.spans,
                        "digest": s.digest, "problems": s.problems}
                       for s in samples],
        "setup_passes_s": setups, "probes_s": probes,
    }, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
