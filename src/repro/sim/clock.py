"""Per-node cycle clocks.

KTAU timestamps events with the CPU's low-level hardware timer (the Time
Stamp Counter on x86, the Time Base on PowerPC).  Each simulated node has a
:class:`CycleClock` that converts the shared engine time into that node's
TSC value, applying the node's clock frequency and an arbitrary boot offset
so that cross-node TSC values are *not* comparable — exactly the property
that makes merged cross-node trace alignment a real problem, which the
analysis layer has to solve the way TAU/KTAU do (per-node offset
estimation).
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Engine
from repro.sim.units import SEC


class CycleClock:
    """Converts engine nanoseconds into a node-local cycle counter.

    Parameters
    ----------
    engine:
        The shared simulation engine supplying virtual time.
    hz:
        Node clock frequency in cycles per second (e.g. ``450e6`` for the
        Chiba-City Pentium IIIs).
    boot_offset_cycles:
        TSC value at engine time zero.  Different per node.
    """

    def __init__(self, engine: Engine, hz: float, boot_offset_cycles: int = 0):
        if hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.engine = engine
        self.hz = float(hz)
        self.boot_offset_cycles = int(boot_offset_cycles)
        #: fault injection: parts-per-million frequency error applied to
        #: cycles accumulated after :attr:`_drift_start_ns`.  Zero (the
        #: default) keeps the pre-fault arithmetic exactly — the hot
        #: :meth:`cycles_at` path pays one falsy test, nothing else.
        self._drift_ppm = 0.0
        self._drift_start_ns = 0
        self._drift_base_cycles = 0

    def set_drift(self, ppm: float, at_ns: int) -> None:
        """Skew this clock by ``ppm`` parts per million from ``at_ns`` on.

        Cycles already accumulated are kept (the counter stays monotonic);
        later cycles advance at ``hz * (1 + ppm/1e6)``.  Used by the fault
        injector to model one node's oscillator drifting — cross-node
        timestamp alignment then visibly degrades on that node only.
        """
        if ppm <= -1e6:
            raise ValueError("drift must keep the clock rate positive")
        self._drift_base_cycles = self.cycles_at(at_ns)
        self._drift_start_ns = at_ns
        self._drift_ppm = float(ppm)

    def read(self) -> int:
        """Current TSC value (cycles since an arbitrary node-local epoch).

        This is the per-timestamp hot path (every KTAU entry/exit/atomic
        reads it), so the driftless case inlines :meth:`cycles_at`'s
        arithmetic — identical expression, hence bit-identical values —
        to skip a method call per read.
        """
        if self._drift_ppm:
            return self.boot_offset_cycles + self.cycles_at(self.engine.now)
        return self.boot_offset_cycles + int(self.engine.now * self.hz) // SEC

    def cycles_at(self, t_ns: int) -> int:
        """Cycles elapsed at engine time ``t_ns`` (excluding boot offset)."""
        if self._drift_ppm and t_ns >= self._drift_start_ns:
            skewed_hz = self.hz * (1.0 + self._drift_ppm / 1e6)
            return self._drift_base_cycles + (
                int((t_ns - self._drift_start_ns) * skewed_hz) // SEC)
        return int(t_ns * self.hz) // SEC

    def ns_for_cycles(self, cycles: int) -> int:
        """Duration in nanoseconds of ``cycles`` cycles on this clock."""
        return int(round(cycles * SEC / self.hz))

    def cycles_for_ns(self, ns: int) -> int:
        """Number of cycles in a duration of ``ns`` nanoseconds."""
        return int(round(ns * self.hz / SEC))


def ns_for_cycles_array(cycles: np.ndarray, hz: float) -> np.ndarray:
    """:meth:`CycleClock.ns_for_cycles` over an int64 array, elementwise.

    Same expression in float64 with round-half-even, hence the same
    integer per element as the scalar method.
    """
    return np.rint(cycles * SEC / hz).astype(np.int64)
