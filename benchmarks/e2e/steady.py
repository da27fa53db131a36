"""Host-speed sampling, so timings repeat on a machine whose speed wanders.

The boxes this benchmark runs on (small shared VMs) change speed by
+-25-40 % over a few seconds — the same rep of the same input measured
5.5 s and 9.3 s within one process, with no steal time reported.  A
median over three reps cannot average that out, and a run is capped at
about half a minute.

:class:`SpeedMeter` therefore measures the host *while* the workload runs:
an interval timer (``SIGALRM``) fires every ``interval`` seconds and its
handler — which Python runs in the main thread, between two bytecodes of
the workload — times a fixed yardstick (small int32 NumPy passes, the same
instruction mix as the wavefront and sort kernels: dispatch-bound NumPy).
A timed region ``[t0, t1]`` is then reported in *reference seconds*::

    (t1 - t0 - yardstick time inside) * mean(NOMINAL / yardstick_i)

i.e. the work done, expressed as the seconds it takes when the yardstick
runs at its nominal speed.  The yardstick lives in the benchmark, not in
the program, so a change to the program cannot move it; raw wall seconds
are always reported next to the scaled value.  Measured here on identical
reps within one process: raw spread (std/mean) 12 %, scaled 3 % while the
host wandered; 5.4 % and 1.8 % on a quiet host.  Between processes a floor
of about 2.5 % remains that no yardstick removed.

Cost: ~0.6 ms every 50 ms, 1.2 % of the run, the same on parent and change.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: yardstick seconds on the reference host (2-core Xeon 2.1 GHz VM,
#: NumPy 2.4) in its fast state; fixes the unit of "reference seconds"
NOMINAL_YARDSTICK_SECONDS = 0.00055
#: three chunks; the fastest one is the sample, so that the cache lines the
#: workload evicted since the last sample do not read as a slow host
_CHUNKS, _PASSES_PER_CHUNK = 3, 50


class SpeedMeter:
    """Samples a fixed yardstick on an interval timer; scales timed regions."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 100, size=(40, 300)).astype(np.int32)
        self._b = self._a.copy()
        self._times: list[float] = []
        self._yardstick: list[float] = []  # the sample: fastest chunk, scaled
        self._costs: list[float] = []  # what taking the sample cost the workload
        self._previous_handler = None

    # ------------------------------------------------------------------ sampling
    def _sample(self, signum=None, frame=None) -> None:
        a, b = self._a, self._b
        start = t0 = time.perf_counter()
        fastest = float("inf")
        for _ in range(_CHUNKS):
            for _ in range(_PASSES_PER_CHUNK):
                c = np.maximum(a, b)
                c += 1
            t1 = time.perf_counter()
            fastest = min(fastest, t1 - t0)
            t0 = t1
        self._times.append(start)
        self._yardstick.append(fastest * _CHUNKS)
        self._costs.append(t1 - start)

    def start(self) -> None:
        for _ in range(5):  # page in the buffers and NumPy's loops, unrecorded
            self._sample()
        del self._times[:], self._yardstick[:], self._costs[:]
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    # ------------------------------------------------------------------ scaling
    def factor(self, t0: float, t1: float) -> tuple[float, float]:
        """``(speed factor, yardstick seconds inside)`` for ``[t0, t1]``.

        The factor is ``mean(NOMINAL / yardstick_i)`` over the samples taken
        inside the region, widened by one interval on both sides so that a
        region shorter than the interval still sees its neighbours; 1.0 when
        there are none (meter not started).
        """
        times = np.asarray(self._times)
        lo = np.searchsorted(times, t0 - self.interval)
        hi = np.searchsorted(times, t1 + self.interval)
        if hi <= lo:
            return 1.0, 0.0
        inside = (times[lo:hi] >= t0) & (times[lo:hi] <= t1)
        factor = float(np.mean(NOMINAL_YARDSTICK_SECONDS / np.asarray(self._yardstick[lo:hi])))
        return factor, float(np.asarray(self._costs[lo:hi])[inside].sum())

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The region's work in reference seconds (see the module docstring)."""
        factor, yardstick_seconds = self.factor(t0, t1)
        return (t1 - t0 - yardstick_seconds) * factor


# ---------------------------------------------------------------------- hardware yardsticks
def numpy_sweep_mcups(batch_width: float, length: int = 170, budget: float = 0.2) -> float:
    """Three int32 maximum/add passes per anti-diagonal over a
    ``length x length`` DP matrix for ``batch_width`` pairs, in 10^6 cells
    per second: the floor under any NumPy wavefront at that batch width."""
    width = max(1, round(batch_width))
    h = np.zeros((width, length // 2), dtype=np.int32)
    e, f = h + 1, h + 2
    cells, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < budget:
        for _ in range(2 * length):
            best = np.maximum(e, f)
            best += h
            np.maximum(best, 0, out=best)
        cells += width * length * length
    return cells / (time.perf_counter() - t0) / 1e6


def scipy_flops_per_s(a, b) -> float:
    """SciPy's CSR ``a @ b`` on a workload's own sparsity pattern."""
    flops = int(np.diff(b.indptr)[a.indices].sum())
    t0 = time.perf_counter()
    a @ b
    return flops / (time.perf_counter() - t0)
