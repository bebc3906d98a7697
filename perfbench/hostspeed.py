"""Host speed, sampled while the benchmark's work runs.

On a shared virtual machine the speed the processor gives this process
changes every few seconds as neighbouring load comes and goes, by a
third or more, and slow spells can last minutes; CPU time slows as wall
time does, so neither is steady across runs.  The benchmark therefore
times a fixed reference kernel throughout each measurement and reports
times scaled to a host on which the kernel takes ``REF_SECONDS``:

    scaled = measured / slowness,  slowness = kernel time / REF_SECONDS

The kernel is pure-Python table scanning, dict and tuple work written
here, independent of ``poloids``, so a change to the program does not
move it.  A ``Probe`` runs it from a ``SIGALRM`` timer every ``TICK``
seconds, which samples the host inside long calls too (one
``enumerate -n 3`` lasts 15 s), and keeps the kernel's own time in
``stolen`` so that ``clock()`` and ``cpu_clock()`` leave it out of what
the caller measures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array

TICK = 0.05          # seconds between samples while ticking
REF_SECONDS = 0.002  # the kernel's time on the reference host
CLIP = 2.0           # samples above CLIP x their median count as CLIP x median


def _tables(count=60, n=4):
    """Fixed partial tables on ``n`` elements (None is undefined), from an LCG."""
    x, out = 12345, []
    for _ in range(count):
        rows = []
        for _i in range(n):
            row = []
            for _j in range(n):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                v = x % (n + 1)
                row.append(None if v == n else v)
            rows.append(tuple(row))
        out.append(tuple(rows))
    return out


TABLES = _tables()


def _product(t, a, b):
    if a is None or b is None:
        return None
    return t[a][b]


def kernel() -> int:
    """About 2 ms of interpreter work on a fast host: associativity scans,
    unit searches with tuples and sets, and a dict-counting loop."""
    bad = 0
    for t in TABLES:
        n = len(t)
        for a in range(n):
            for b in range(n):
                ab = _product(t, a, b)
                for c in range(n):
                    if _product(t, ab, c) != _product(t, a, _product(t, b, c)):
                        bad += 1
    seen = {}
    for t in TABLES[:40]:
        key = tuple(v for row in t for v in row)
        seen[key] = frozenset(a for a in range(4) if all(t[a][b] in (b, None) for b in range(4)))
    counts, keys = {}, list(range(64))
    for i in range(1500):
        k = keys[i & 63] ^ i
        counts[k & 127] = counts.get(k & 127, 0) + 1
        bad += k % 5
    return bad + len(seen)


def slowness(samples) -> float:
    """Kernel time over ``REF_SECONDS``: the mean of the samples, each
    clipped at ``CLIP`` times their median so that one preempted sample
    does not outweigh the rest."""
    cap = CLIP * statistics.median(samples)
    return statistics.fmean(min(s, cap) for s in samples) / REF_SECONDS


class Probe:
    """Kernel samples of one measurement, in wall and in process CPU
    seconds.  ``sample()`` takes one now; inside ``with probe:`` a timer
    takes one every ``TICK`` seconds."""

    def __init__(self):
        self.samples = array("d")
        self.cpu_samples = array("d")
        self.stolen = 0.0      # wall seconds spent in the kernel
        self.stolen_cpu = 0.0  # process CPU seconds spent in the kernel
        self._previous = None

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.cpu_samples.append(cpu)
        self.stolen_cpu += time.process_time() - c0
        self.stolen += time.perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the kernel."""
        return time.perf_counter() - self.stolen

    def cpu_clock(self) -> float:
        """``process_time`` without the time spent in the kernel."""
        return time.process_time() - self.stolen_cpu

    def slowness(self) -> float:
        return slowness(self.samples)

    def cpu_slowness(self) -> float:
        return slowness(self.cpu_samples)

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
