"""Machine-speed calibration of the end-to-end op timings.

On a shared virtual machine the same code runs faster or slower by up to
2.5 times from one second to the next, and a whole 30 s run can sit in a
slow or a fast stretch.  The program is not the cause, so a run measures the
machine alongside it: between ops, at least every `EVERY_S`, it times a fixed
kernel that calls no monofix code, and scales each op's wall time by
`NOMINAL_S[kernel] / kernel time around the op`.  The result is the op's
latency on the machine at its nominal speed.  A change to the program moves
the scaled time by as much as the raw one, while a slow stretch of the
machine slows the kernel as well and cancels out.

Each workload uses the kernel that matches its own work: `blas` (dense
products through numpy, with the workload's BLAS threads) for the BLAS-bound
`fredholm-1601`, and `python` (an interpreter-bound loop) for the small
solves of `cli-mix` and the scalar trial loops of `audit-trials`, where
interpreter overhead dominates.
"""
from __future__ import annotations

import statistics
import time
from typing import Callable, NamedTuple, Sequence

# Calibrate before an op when this long has passed since the last kernel.
EVERY_S = 0.1
# An op is scaled by the median of the kernel times from WINDOW_S before it
# starts to WINDOW_S after it ends.
WINDOW_S = 0.25

KERNEL = {"fredholm-1601": "blas", "cli-mix": "python", "audit-trials": "python"}
# Kernel time at the machine's nominal speed: the median over runs on the
# 2-vCPU x86-64 VM (Xeon, AVX-512) the benchmark was built on, `blas` with
# the 2 BLAS threads of fredholm-1601.  Any fixed value works; these keep
# the scaled times close to the raw ones there.
NOMINAL_S = {"blas": 0.014, "python": 0.0027}


class Sample(NamedTuple):
    at: float  # perf_counter() when the kernel started
    kernel_s: float


def _python_kernel() -> float:
    table: dict = {}
    total = 0.0
    for i in range(14_000):
        table[i & 63] = total
        total += (i * 0.5) % 3.0
    return total


def _blas_kernel() -> Callable[[], None]:
    """Dense products like those of a 1601-node certified solve: matrix-vector
    products on a 1601 x 1601 matrix and a compute-bound 400 x 400 product.

    The arrays are made for each run, outside its timing, and freed after
    it.  Between ops the solve's own matrices are freed, so the kernel's
    20 MB never adds to the peak memory of a solve, and the kernel takes no
    page faults while timed.
    """
    import numpy

    large, vector, image = numpy.ones((1601, 1601)), numpy.ones(1601), numpy.empty(1601)
    small = numpy.ones((400, 400))
    product = numpy.empty_like(small)

    def kernel() -> None:
        for _ in range(10):
            numpy.matmul(large, vector, out=image)
        for _ in range(5):
            numpy.matmul(small, small, out=product)

    return kernel


class Calibrator:
    """Times the workload's kernel between ops and keeps the samples."""

    def __init__(self, workload: str) -> None:
        self.nominal_s = NOMINAL_S[KERNEL[workload]]
        self.samples: list[Sample] = []
        self._prepare = _blas_kernel if KERNEL[workload] == "blas" else lambda: _python_kernel

    def run(self) -> None:
        kernel = self._prepare()
        start = time.perf_counter()
        kernel()
        self.samples.append(Sample(start, time.perf_counter() - start))

    def maybe_run(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1].at >= EVERY_S:
            self.run()


def scale(spans: Sequence[tuple[float, float]], samples: Sequence[Sample], nominal_s: float) -> list[float]:
    """Scale each span by nominal_s over the median kernel time around it.

    The samples must be in time order.  Around a span means from WINDOW_S
    before its start to WINDOW_S after its end; when no sample falls there,
    the last one before the span and the first one after it are used.
    """
    if not samples:
        raise ValueError("no calibration samples")
    scaled = []
    lo = 0
    for start, end in spans:
        while lo < len(samples) and samples[lo].at < start - WINDOW_S:
            lo += 1
        hi = lo
        while hi < len(samples) and samples[hi].at <= end + WINDOW_S:
            hi += 1
        window = samples[max(lo - 1, 0) : hi + 1] if lo == hi else samples[lo:hi]
        scaled.append((end - start) * nominal_s / statistics.median(s.kernel_s for s in window))
    return scaled
