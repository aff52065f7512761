"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared VM the same code runs up to 40% slower for seconds at
a time while another tenant loads the same core, and most of that
slowdown is shared by every kind of work. A fixed kernel timed right
before and right after each job measures it; dividing the job's wall
time by it (`calibrated`) removes most of the drift, while a change to
the program still moves the result in full. The simulator slows a
little more than the kernel, so a run on a busy host still reads a few
percent high. The kernel is benchmark code and never changes with the
program.
"""
import time

import numpy as np

# Nominal kernel time: calibrated timings read as seconds on a host where
# the kernel takes this long.
REFERENCE_S = 0.010
# Read-only 4 MB array: the kernel's share of work beyond the core's own caches.
_WIDE = np.ones(1 << 19)


def kernel_s() -> float:
    """Wall time of a fixed mix of interpreter-bound and array-bound work.

    The mix follows what the simulator spends its time on: small-array
    arithmetic with formatting and dict updates, Philox generators keyed
    by SeedSequence, normal draws over d=2000, and passes over an array
    larger than the core's caches.
    """
    start = time.perf_counter()
    small = np.zeros(16)
    table = {}
    for i in range(1500):
        small = small * 0.5 + 1.0
        table[i % 64] = f"{i},{float(small[0]):.17g}"
    for i in range(150):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(7, 2, i))))
        table[i % 64] = int(gen.integers(40))
    big = np.zeros(2000)
    for _ in range(60):
        big = big * 0.5 + gen.standard_normal(2000)
    for _ in range(4):
        _WIDE.sum()
    return time.perf_counter() - start


def calibrated(elapsed_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Wall time rescaled to the host speed at which the kernel takes REFERENCE_S."""
    return elapsed_s * REFERENCE_S / ((kernel_before_s + kernel_after_s) / 2)
