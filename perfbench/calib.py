"""Host speed, sampled while a unit runs, and times at a fixed nominal speed.

On the shared virtual machines this benchmark runs on, a vCPU's speed jumps
between two levels about 1.7x apart every second or so, as the host's other
tenants come and go, and a run can spend most of its length at either
level.  Neither the fastest nor the median repeat of a request can remove
a slowdown that covers the whole run, so timed units measure the host's
speed as they run.

`SpeedSampler` fires SIGALRM every PERIOD seconds of wall time (and samples
once on entry and once on exit).  The handler times one run of a small reference kernel (about a millisecond) in
the unit's own interpreter, so the samples cover the unit's whole length,
evenly in time.  The kernels are plain Python written here, never galwalk
code, so no change to the program moves them; each mimics the hot loop of
one workload kind, because different code slows by different amounts when
the host does:

* `run`: x^p mod f over F_p for a quartic f and primes near 50,000, with
  list polynomials (as the Frobenius cycle types of a walk sample).
* `finfield`: breadth-first closure of two 2x2 matrices mod 5, tuple
  products mod p and a trace per element (as the census).
* `oracle`: products of 4x4 matrices of Fractions whose entries grow (as
  the exact word census).

A sample's speed is NOMINAL / (its kernel time); NOMINAL is about the
kernel's time at the faster level on a 2-vCPU Intel Xeon KVM guest with
Python 3.11.  Set-up interpreters (see measure) are too short to sample
from a timer; they run the kernel a few times right after the timed part
(`mean_speed`).
An interval's nominal time is its length, less the handler time inside it,
times the mean speed of the samples within one PERIOD of it: the time the
interval's work takes at the nominal speed.  (The mean of speeds, not of
kernel times, is what turns time into work done.)
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05  # seconds of wall time between speed samples

# about each kernel's time at the faster speed level (seconds)
NOMINAL = {"run": 0.0007, "finfield": 0.0012, "oracle": 0.0014}


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _rem(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    d = len(f) - 1
    while len(a) > d:
        c = a.pop()
        if c:
            k = len(a) - d
            for i in range(d):
                a[k + i] = (a[k + i] - c * f[i]) % p
    return a


def run_kernel() -> int:
    acc = 0
    for p in (50_021, 50_023, 50_033, 50_047, 50_051):
        f = [7, p - 3, 11, 5, 1]  # monic quartic
        result, base, e = [1], [0, 1], p
        while e:
            if e & 1:
                result = _rem(_mul(result, base, p), f, p)
            base = _rem(_mul(base, base, p), f, p)
            e >>= 1
        acc += sum(result)
    return acc


def finfield_kernel() -> int:
    p = 5
    gens = (((1, 1), (0, 1)), ((0, p - 1), (1, 0)))
    seen = {((1, 0), (0, 1))}
    frontier = list(seen)
    traces = 0
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                                   for col in zip(*g)) for row in m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    traces += (prod[0][0] + prod[1][1]) % p
        frontier = nxt
    return traces + len(seen)


def oracle_kernel() -> int:
    a = [[Fraction(i + 2 * j + 1, j + 3) for j in range(4)] for i in range(4)]
    b = [[Fraction(3 * i - j, i + j + 2) for j in range(4)] for i in range(4)]
    m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for step in range(6):
        g = a if step % 3 else b
        cols = list(zip(*g))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in m]
    return sum(e.denominator.bit_length() for row in m for e in row)


KERNELS = {"run": run_kernel, "finfield": finfield_kernel, "oracle": oracle_kernel}


def mean_speed(verb: str, n: int) -> float:
    """Mean speed of n kernel runs, here and now."""
    kernel, speeds = KERNELS[verb], []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        speeds.append(NOMINAL[verb] / (time.perf_counter() - t0))
    return statistics.fmean(speeds)


class SpeedSampler:
    """Context manager: one timed kernel run per PERIOD, from SIGALRM."""

    def __init__(self, verb: str):
        self.kernel = KERNELS[verb]
        self.nominal = NOMINAL[verb]
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not the kernel's time
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        self._tick(None, None)  # so that even a unit shorter than PERIOD has samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
        return False

    def speeds(self) -> list[float]:
        return [self.nominal / (b - a) for a, b in zip(self.starts, self.ends)]

    def nominal_time(self, t0: float, t1: float) -> float:
        """Nominal time of the work done in [t0, t1] (see the module doc)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = self.speeds()[bisect.bisect_left(self.starts, t0 - PERIOD):
                             bisect.bisect_right(self.starts, t1 + PERIOD)]
        speed = statistics.fmean(near or self.speeds())
        return (t1 - t0 - inside) * speed
