"""Reference kernel: fixed numpy/scipy work that no library change can move.

One chunk mimics a few inner linear-solve steps of the library (a DST-I, a
diagonal multiplier, a second DST-I, a few vector updates and a weighted
sum) at n = 12149, the crossval grid, and at n = 32767. It never calls
bosegas code. The larger size stands in for the n = 161999 grid: at that
size each transform needs ~4 MB of scratch, enough to raise the peak
resident set the workloads are measured by; at 32767 it is ~0.5 MB.

The machine's speed swings by 10-20% within seconds, so a reference timed
only before and after a workload does not track what the workload saw
(measured: run-to-run spread of wall_ref no better than raw wall time).
``Sampler`` instead runs one chunk every ``INTERVAL`` seconds *during* the
workload, from a SIGALRM handler, so strictly between the workload's own
Python steps, never beside them. It records each chunk's wall and CPU
time; the caller subtracts them from the workload's own times. One
reference is ``CHUNKS_PER_REFERENCE`` mean chunks, about 1 s on a 2-core
x86 box.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.fft import dst

CHUNK = ((32767, 12), (12149, 40))      # (grid size, steps): ~50 ms
CHUNKS_PER_REFERENCE = 18
INTERVAL = 0.5                          # workload seconds between chunks
MIN_CHUNKS = 8


class _Kernel:
    """Buffers for one chunk, allocated once so a chunk allocates little."""

    def __init__(self):
        self.arrays = []
        for n, _ in CHUNK:
            r = np.arange(1, n + 1, dtype=float) / (n + 1)
            k2 = (np.pi * np.arange(1, n + 1, dtype=float)) ** 2 + 1.0
            self.arrays.append((r, r * r, k2, np.empty(n), np.empty(n)))

    def run(self) -> float:
        acc = 0.0
        for (r, r2, k2, x, buf), (_, steps) in zip(self.arrays, CHUNK):
            np.exp(-64.0 * r2, out=x)
            for _ in range(steps):
                np.multiply(r, x, out=buf)
                y = dst(buf, type=1, overwrite_x=True)
                np.divide(y, k2, out=y)
                z = dst(y, type=1, overwrite_x=True)
                np.divide(z, r, out=z)
                np.multiply(x, 0.5, out=x)
                x += (0.5 / max(float(np.max(np.abs(z))), 1e-300)) * z
                np.multiply(r2, x, out=buf)
                acc += float(buf.sum())
        return acc


class Sampler:
    """Reference chunks on a timer while a workload runs.

    ``pauses`` holds the (start, end) perf_counter stamps of every chunk,
    so a tracer can take them out of the spans they interrupted.
    """

    def __init__(self):
        self.kernel = _Kernel()
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self):
        start, c0 = time.perf_counter(), time.process_time()
        checksum = self.kernel.run()
        end, c1 = time.perf_counter(), time.process_time()
        if not np.isfinite(checksum):
            raise RuntimeError("reference kernel produced a non-finite checksum")
        self.walls.append(end - start)
        self.cpus.append(c1 - c0)
        self.pauses.append((start, end))

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self):
        self.kernel.run()           # untimed: FFT plans, first-touch pages
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def top_up(self):
        """Chunks after the workload, if it was too short to sample enough."""
        while len(self.walls) < MIN_CHUNKS:
            self._sample()

    def paused(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds spent in chunks between stamps t0 and t1."""
        inside = [(b - a, cpu) for (a, b), cpu in zip(self.pauses, self.cpus)
                  if t0 <= a and b <= t1]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def reference_now(self) -> float:
        """One reference timed right now, on a fresh sampler, off any timer."""
        self.kernel.run()           # untimed, as in __enter__
        self.top_up()
        return self.reference_s

    @property
    def reference_s(self) -> float:
        """Wall time of one reference (CHUNKS_PER_REFERENCE mean chunks)."""
        return CHUNKS_PER_REFERENCE * sum(self.walls) / len(self.walls)

    @property
    def reference_cpu_s(self) -> float:
        """CPU time of one reference; the base of ``cpu_ref``."""
        return CHUNKS_PER_REFERENCE * sum(self.cpus) / len(self.cpus)
