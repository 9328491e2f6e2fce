"""The shard-sharing allowlist: every sanctioned piece of shared state.

The KTAU5xx rules (:mod:`repro.lint.sharing`) treat module-level mutable
state in the simulation substrate as illegal by default: ROADMAP item 1
(conservative parallel DES over node groups) requires that all mutable
simulation state be reachable only through a per-node root object, so
any process-wide mutable binding is a latent cross-shard channel.

The exceptions live here, in one reviewable table.  Each entry names a
module-level binding (``"dotted.module.NAME"``) and classifies it:

``singleton``
    Process-wide by design and safe under sharding — either never fed
    back into simulation (observability), or immutable-by-convention
    declaration tables built at import time and only read afterwards.
``shard-local``
    Mutable state that *looks* module-level but is re-bound per shard
    before use (none today; the classification exists so a future
    parallel runner can document per-worker state).
``message-carried``
    State handed between shards only inside explicit exchange-point
    messages (none today; see ``EXCHANGE_POINTS`` in
    :mod:`repro.cluster.shardsan` for the dynamic counterpart).

The table is *audited*, not trusted: KTAU504 flags entries whose binding
no longer exists, whose classification is unknown, or whose reason is
empty — so the manifest cannot silently rot into a blanket waiver.  The
sharing rules read this table statically (from the parsed AST, not by
import), which keeps fixture trees self-contained in tests.
"""

from __future__ import annotations

#: classification -> human meaning; KTAU504 rejects anything else
ALLOWED_CLASSIFICATIONS: tuple[str, ...] = (
    "singleton", "shard-local", "message-carried")

#: "dotted.module.NAME" -> (classification, reason)
SHARD_ALLOWLIST: dict[str, tuple[str, str]] = {
    "repro.obs.metrics.REGISTRY": (
        "singleton",
        "harness-side metrics registry; zero-feedback by design (values "
        "are observed at flush points, never read back by simulation)"),
    "repro.obs.tracer.TRACER": (
        "singleton",
        "harness-side span tracer; append-only within one run and never "
        "consulted by simulated code"),
    "repro.obs.runtime.metrics_on": (
        "singleton",
        "observability on/off flag; set once at harness startup, read-"
        "only during runs, cannot alter event order"),
    "repro.obs.runtime.tracing_on": (
        "singleton",
        "observability on/off flag; set once at harness startup, read-"
        "only during runs, cannot alter event order"),
    "repro.obs.runtime.progress_on": (
        "singleton",
        "progress-line flag; set once at harness startup and only gates "
        "stderr output"),
    "repro.core.points.POINT_GROUPS": (
        "singleton",
        "instrumentation-point declaration table; built at import time "
        "and read-only afterwards (KTAU3xx audits its contents)"),
    "repro.core.measurement._TEMPLATES": (
        "singleton",
        "intern table of immutable span templates keyed by their full op "
        "list; an entry is a pure function of its key, so every shard "
        "builds or finds the same value"),
    "repro.core.counters.PATH_RATES": (
        "singleton",
        "per-path PMC rate declaration table; built at import time and "
        "read-only afterwards (rates_for_path only reads it)"),
}
