"""Host-speed calibration.

The reference machine (a 2-vCPU virtual machine on a shared host) changes
speed from one second to the next: the same cold expansion takes 0.63 s or
1.14 s, in CPU time as well as wall time, so the change is in how fast the
host runs this process, not in how often it runs it.  A `Speedometer`
thread therefore times a small fixed piece of Python work (a product of two
sparse dict-of-tuple polynomials, the kind of work the program's term
kernel does) every 20 ms while the program runs.  An operation that took t
seconds while the median sample inside its interval took c is reported as

    t * NOMINAL_S / c,

the time it would take on this machine at its nominal speed.  Over 16 runs
of one cold expansion this cut the standard deviation from 21% to 5% of the
mean (correlation of raw op time with the in-op sample median: 0.96).  The
calibration code belongs to the benchmark, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time

# Median sample time on the reference machine (2 vCPUs, Python 3.11) at its
# nominal (fast) speed.
NOMINAL_S = 0.00032
INTERVAL_S = 0.02
MIN_SAMPLES = 5


def _poly(seed: int, nterms: int) -> dict:
    out = {}
    state = seed
    for _ in range(nterms):
        mono = []
        for _ in range(6):
            state = (state * 1103515245 + 12345) % 2147483648
            mono.append(state % 7 - 3)
        state = (state * 1103515245 + 12345) % 2147483648
        out[tuple(mono)] = state % 17 - 8 or 1
    return out


_A = _poly(1, 12)
_B = _poly(2, 30)


def sample() -> float:
    """Time one fixed product of two small sparse polynomials."""
    t0 = time.perf_counter()
    out: dict = {}
    get = out.get
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = tuple([x + y for x, y in zip(ma, mb)])
            out[m] = get(m, 0) + ca * cb
    return time.perf_counter() - t0


def calibrate(samples: int = 15) -> float:
    """Median of several samples, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(sample() for _ in range(samples))
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the host's speed from a background thread while it runs."""

    def __init__(self):
        self.times: list = []
        self.values: list = []
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speedometer thread did not stop")
        return False

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            t = time.perf_counter()
            value = sample()
            self.times.append(t)
            self.values.append(value)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median sample taken during [t0, t1]; a short
        interval borrows the nearest samples on both sides."""
        times = self.times[:len(self.values)]
        lo = bisect.bisect_left(times, t0)
        hi = bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0:
                lo -= 1
            if hi < len(times) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return NOMINAL_S / statistics.median(self.values[lo:hi])
