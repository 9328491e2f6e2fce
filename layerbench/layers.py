"""Sampling layer profiler: charge host CPU time to the repo's modules.

While active, a ``SIGPROF`` interval timer interrupts the process every
``interval_s`` of CPU time.  Each sample walks the interrupted frame
stack outward and is charged to the innermost frame whose module is a
``repro.*`` module, mapped to its layer by longest package prefix.
Frames of the standard library and of builtins are skipped, so their
time lands on the ``repro`` caller that invoked them.

The profiler is started and stopped around one call (``MpiJob.run``);
it touches no simulated state, so a profiled run produces the same
outputs as an unprofiled one.
"""

from __future__ import annotations

import signal
from collections import Counter

#: The repo's layers: one per package (or subpackage) of ``repro``.
LAYERS = ("sim", "kernel", "kernel.net", "core", "tau", "cluster",
          "workloads", "analysis", "analysis.bottlenecks", "monitor")

#: Sample label when no ``repro`` frame is on the stack.
UNATTRIBUTED = "(no repro frame)"

#: Sample label for the benchmark's own script (``__main__``), which runs
#: inside ``MpiJob.run`` only as a signal handler (the host-speed probe).
HARNESS = "(harness)"

# Longest prefix first, so ``repro.kernel.net`` wins over ``repro.kernel``.
_PREFIXES = sorted(((f"repro.{layer}", layer) for layer in LAYERS),
                   key=lambda item: -len(item[0]))


def layer_for_module(module: str) -> str | None:
    """Layer of a module name; ``None`` for modules outside ``repro``.

    A ``repro`` module in none of :data:`LAYERS` (``repro.obs``,
    ``repro.experiments``, ...) is its own label, and so is the
    benchmark's script; both count against coverage.
    """
    if module == "__main__":
        return HARNESS
    if not module.startswith("repro."):
        return None
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return ".".join(module.split(".")[:2])


class LayerSampler:
    """Context manager sampling the stack on ``ITIMER_PROF`` ticks."""

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.samples: Counter[str] = Counter()
        self._layer_of: dict[str, str | None] = {}
        self._previous = None

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, _signum, frame) -> None:
        layer_of = self._layer_of
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module in layer_of:
                layer = layer_of[module]
            else:
                layer = layer_of[module] = layer_for_module(module)
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples[UNATTRIBUTED] += 1

    def self_seconds(self, span_s: float) -> dict[str, float]:
        """Each layer's self time, as its sample share of ``span_s``."""
        total = sum(self.samples.values())
        return {layer: (span_s * self.samples[layer] / total if total else 0.0)
                for layer in LAYERS}
