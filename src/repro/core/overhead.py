"""Direct measurement overhead model (paper Table 4).

Each KTAU measurement operation (a profile *start* at an entry point or a
*stop* at an exit point) costs real cycles on the measured machine.  The
paper reports, on the Chiba-City Pentium IIIs:

====== ====== ======== =====
 op     mean   std.dev  min
====== ====== ======== =====
start   244.4  236.3    160
stop    295.3  268.8    214
====== ====== ======== =====

The distribution is strongly right-skewed (std > mean-min): the common
case is a warm-cache hit near the minimum, with a heavy tail from cache and
TLB misses.  We model each cost as ``min + Gamma(k, theta)`` with ``k`` and
``theta`` chosen to match the reported mean and standard deviation exactly:

    mean - min = k * theta        std**2 = k * theta**2

When instrumentation is compiled in but disabled at boot/runtime the only
cost is a flag check (a load + branch), modelled as a small constant.

Sampling is batched through numpy for speed; the model is deterministic
given its RNG stream.  Each refill stores the batch as compact integer
cells, so a single draw is one index (no numpy scalar boxing), and bulk
span replay can consume many draws at once with :meth:`OverheadModel.take`
while matching op-by-op sampling exactly.  (A Python list would index a
little faster, but at ~36 bytes a cell it would add ~14 MB to a
128-node run; the narrowest integer array instead holds a batch and its
per-sample nanosecond column in half the float64 buffer's space.)
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.sim.clock import ns_for_cycles_array


def _packed(values: np.ndarray) -> array:
    """``values`` (integers) as a flat ``array`` of the narrowest cells
    that hold them all: a 128-node run keeps 512 of these buffers live."""
    low, high = int(values.min()), int(values.max())
    for code in "hiq":
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= low and high < bound:
            break
    out = array(code, (0,)) * len(values)  # sized exactly, unlike frombytes
    np.frombuffer(out, dtype=code)[:] = values
    return out


class _GammaTail:
    """``min + Gamma(k, theta)`` sampler with batched draws.

    Both tails of one :class:`OverheadModel` share its RNG, so the order
    in which they refill is part of the stream; :meth:`take` refills
    exactly when the same number of :meth:`sample` calls would.
    """

    def __init__(self, rng: np.random.Generator, minimum: float, mean: float, std: float,
                 batch: int = 4096):
        excess = mean - minimum
        if excess <= 0 or std <= 0:
            raise ValueError("need mean > min and std > 0")
        self.minimum = float(minimum)
        self.k = (excess / std) ** 2
        self.theta = std * std / excess
        self.mean = float(mean)
        self.std = float(std)
        self._rng = rng
        self._batch = batch
        self._buf = array("i")
        self._pos = 0
        #: per-sample ``ns_for_cycles(sample + extra)`` of the current
        #: batch on an ``_ns_hz`` clock, built on first bulk use
        self._ns = array("i")
        self._ns_hz = 0.0
        self._ns_extra = 0

    def _refill(self) -> None:
        draws = self.minimum + self._rng.gamma(self.k, self.theta, size=self._batch)
        self._buf = _packed(draws.astype(np.int64))  # int() truncation
        self._pos = 0
        self._ns_hz = 0.0

    @property
    def remaining(self) -> int:
        """Draws left before the next refill."""
        return len(self._buf) - self._pos

    def sample(self) -> int:
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def take(self, n: int, hz: float, extra: int) -> tuple[int, int]:
        """Consume the next ``n`` samples as one bulk charge.

        Returns ``(cycles, ns)``: the sum of ``sample + extra`` and the
        sum of each one's ``CycleClock.ns_for_cycles`` on an ``hz`` clock
        -- rounded per sample, exactly as ``n`` single charges would be.
        """
        cycles = n * extra
        ns = 0
        while n:
            pos = self._pos
            avail = len(self._buf) - pos
            if not avail:
                self._refill()
                continue
            if self._ns_hz != hz or self._ns_extra != extra:
                self._ns = _packed(ns_for_cycles_array(
                    np.frombuffer(self._buf, dtype=self._buf.typecode)
                    .astype(np.int64) + extra, hz))
                self._ns_hz = hz
                self._ns_extra = extra
            end = pos + (n if n < avail else avail)
            cycles += sum(self._buf[pos:end])
            ns += sum(self._ns[pos:end])
            n -= end - pos
            self._pos = end
        return cycles, ns

    def sample_array(self, n: int) -> np.ndarray:
        """Draw ``n`` samples at once (used by the Table 4 harness)."""
        return self.minimum + self._rng.gamma(self.k, self.theta, size=n)


class OverheadModel:
    """Cycle costs of KTAU measurement operations.

    Parameters
    ----------
    rng:
        Deterministic stream for the heavy-tailed samplers.
    start_min, start_mean, start_std:
        Distribution of a profile *start* operation, in cycles.
    stop_min, stop_mean, stop_std:
        Distribution of a profile *stop* operation, in cycles.
    disabled_check_cycles:
        Cost of the runtime enable-flag check paid by compiled-in but
        disabled instrumentation (the ``Ktau Off`` configuration).
    trace_extra_cycles:
        Additional cost per operation when tracing is also enabled (the
        ring-buffer store).
    """

    #: Paper Table 4 defaults (Chiba-City P3, cycles).
    START = (160.0, 244.4, 236.3)
    STOP = (214.0, 295.3, 268.8)

    def __init__(self, rng: np.random.Generator, *,
                 start: tuple[float, float, float] = START,
                 stop: tuple[float, float, float] = STOP,
                 disabled_check_cycles: int = 3,
                 trace_extra_cycles: int = 40):
        self._start = _GammaTail(rng, *start)
        self._stop = _GammaTail(rng, *stop)
        self.disabled_check_cycles = int(disabled_check_cycles)
        self.trace_extra_cycles = int(trace_extra_cycles)

    # -- sampling -------------------------------------------------------
    def start_cycles(self) -> int:
        """Cost of one enabled entry-point measurement, in cycles."""
        return self._start.sample()

    def stop_cycles(self) -> int:
        """Cost of one enabled exit-point measurement, in cycles."""
        return self._stop.sample()

    def atomic_cycles(self) -> int:
        """Cost of one atomic-event measurement (modelled like a start)."""
        return self._start.sample()

    def take(self, n_start: int, n_stop: int, hz: float,
             extra: int) -> Optional[tuple[int, int]]:
        """Bulk form of ``n_start`` start/atomic and ``n_stop`` stop draws.

        Returns ``(cycles, ns)`` summed as :meth:`_GammaTail.take` does,
        or ``None`` -- consuming nothing -- when both tails would refill
        inside the batch: their refill order on the shared RNG then
        depends on how the draws interleave, which only op-by-op
        sampling reproduces.
        """
        start, stop = self._start, self._stop
        if n_start > start.remaining and n_stop > stop.remaining:
            return None
        c1, ns1 = start.take(n_start, hz, extra)
        c2, ns2 = stop.take(n_stop, hz, extra)
        return c1 + c2, ns1 + ns2

    # -- bulk access for the Table 4 experiment --------------------------
    def sample_start_array(self, n: int) -> np.ndarray:
        return self._start.sample_array(n)

    def sample_stop_array(self, n: int) -> np.ndarray:
        return self._stop.sample_array(n)

    @property
    def start_params(self) -> tuple[float, float, float]:
        return (self._start.minimum, self._start.mean, self._start.std)

    @property
    def stop_params(self) -> tuple[float, float, float]:
        return (self._stop.minimum, self._stop.mean, self._stop.std)


class ZeroOverheadModel(OverheadModel):
    """An overhead model that charges nothing.

    Used for the ``Base`` perturbation configuration (vanilla kernel — no
    instrumentation compiled in at all) and for analyses that want
    measurement without perturbation.
    """

    def __init__(self) -> None:  # noqa: D107 - no RNG needed
        self.disabled_check_cycles = 0
        self.trace_extra_cycles = 0

    def start_cycles(self) -> int:
        return 0

    def stop_cycles(self) -> int:
        return 0

    def atomic_cycles(self) -> int:
        return 0

    def sample_start_array(self, n: int) -> np.ndarray:  # pragma: no cover
        return np.zeros(n)

    def sample_stop_array(self, n: int) -> np.ndarray:  # pragma: no cover
        return np.zeros(n)
