"""Timing at reference machine speed.

The benchmark runs on shared virtual CPUs whose speed changes by a third
and more from one minute to the next, and by a tenth and more within a
second.  So every timed span (an import, a set-up, a unit) also measures
the machine's speed while it runs: a fixed reference computation, the
probe, runs once right before the span, once right after it, and every
``INTERVAL_S`` during it, from a SIGALRM handler.  The span's time at
reference speed is

    (wall time - time spent in the probes inside it) * PROBE_S / (mean probe time)

The probe imports nothing from qkoszul and never changes, so a faster or
slower qkoszul moves this time in proportion to the wall time, while a
slower or faster machine slows or speeds the span and its probes alike.
Only these scaled times enter the end-to-end metrics; the wall times are
written beside them in the run's detail file.

The probes share the process, its caches and its allocator with qkoszul.
Inside a unit they run slower than between units, which lowers every
scaled time (by 6-12 % on two reports measured both ways), on both sides
of a comparison.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, List, Tuple

# Wall time of one probe on the reference machine (2-vCPU Intel Xeon at
# 2.0 GHz, Python 3.11.7) at its usual quiet speed: 1600 probes in a row
# took 4.1 ms per eight, with quartiles of 4.0 and 4.4 ms.
PROBE_S = 0.0005
INTERVAL_S = 0.01


def _exponents(nvars: int, degree: int):
    if nvars == 0:
        yield ()
        return
    for k in range(degree + 1):
        for rest in _exponents(nvars - 1, degree - k):
            yield (k,) + rest


def _poly(seed: int, nvars: int, degree: int):
    out, c = {}, seed
    for e in _exponents(nvars, degree):
        c = (c * 1103515245 + 12345) % 2147483648
        out[e] = Fraction(c % 7 - 3 or 1, c % 4 + 1)
    return out


_F = _poly(1, 3, 2)   # 10 terms each: the dict-of-monomials product that
_G = _poly(2, 3, 2)   # dominates qkoszul's own time, on a small scale


def _kernel() -> Fraction:
    prod = {}
    for ea, ca in _F.items():
        for eb, cb in _G.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod[e] = prod.get(e, 0) + ca * cb
    return sum(prod.values())


_EXPECTED = _kernel()
for _ in range(50):   # past the interpreter's specialisation of new code
    _kernel()


def _probe() -> Tuple[float, float]:
    """(start, wall time) of one run of the reference computation."""
    t = time.perf_counter()
    if _kernel() != _EXPECTED:
        raise RuntimeError("speed probe computed a wrong result")
    return t, time.perf_counter() - t


class Timer:
    """Times spans, one at a time, in the main thread.  With
    ``interval_s`` 0 it probes only before and after each span."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._probes: List[Tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self._probes.append(_probe())

    def measure(self, fn: Callable):
        """Run ``fn()``; return its result, its wall time without the
        probes inside it, and that time at reference speed.  An exception from ``fn`` passes through."""
        self._probes = probes = [_probe()]
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = end - start - sum(d for t, d in probes[1:] if t < end)
        probes.append(_probe())
        speed = PROBE_S / statistics.fmean(d for _, d in probes)
        return out, wall, wall * speed
