"""Machine-speed gauge: converts measured seconds to reference seconds.

The benchmark's machine shares its cores with other tenants, and the
same pass can take 40% longer from one minute to the next while doing
identical work.  A background thread times a fixed kernel every
`INTERVAL_S`; a span measured by the benchmark is rescaled by the
kernel's median time around that span:

    reference seconds = measured seconds * REFERENCE_S / median kernel time

so a slow phase of the machine, which slows the kernel as it slows the
program, cancels out.  The kernel mixes interpreter work with small
batched SVDs, the two costs strathom's hot paths are made of, and uses
no strathom code.  It keeps the interpreter lock while it runs (numpy
holds it for batches this small), so the program's thread cannot
stretch a timing; sharing the core with the program still slows the
kernel by a roughly constant share.  Sampling costs about 2% of one core.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 1e-3  # reference speed: the kernel takes 1 ms
INTERVAL_S = 0.1
MIN_SAMPLES = 5

_BATCH = np.random.default_rng(0).standard_normal((48, 3, 3))


def kernel() -> float:
    """One timing of the reference kernel, in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    for _ in range(8):
        np.linalg.svd(_BATCH, compute_uv=False)
    return time.perf_counter() - start


def snapshot(count: int = 9) -> float:
    """Median kernel time over a short burst, for processes too brief to sample."""
    return statistics.median(kernel() for _ in range(count))


class Gauge:
    """Background sampler of the kernel time; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, ascending
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            d = kernel()
            self.durations.append(d)
            self.times.append(start + d / 2)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over [start, end], widened to at least
        MIN_SAMPLES samples nearest the span."""
        n = len(self.times)
        if n == 0:
            return snapshot()
        lo = bisect.bisect_left(self.times, start, 0, n)
        hi = bisect.bisect_right(self.times, end, 0, n)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi >= n or start - self.times[lo - 1] <= self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """The span's length in reference seconds."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)
