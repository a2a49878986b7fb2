"""A fixed Python and numpy kernel that gauges how fast the machine runs right now.

On a machine whose cores are shared with other tenants the speed of the
same code drifts by a quarter within minutes, in CPU time as much as in
wall time, so medians of raw times from runs a few minutes apart disagree
by more than any useful bound.  Each iteration therefore times this kernel
just before and just after its timed call, in as many processes at once
as the call keeps busy (one for a scenario, the pool size for a parallel
sweep), and the benchmark reports the iteration's times scaled by
``REFERENCE_S`` over the kernel's mean time: seconds on a machine on which
the kernel takes ``REFERENCE_S``.  The kernel imitates the library's inner
loop (scalar math on a 4-vector, small numpy arrays) and uses no
funneltrack code, so no change to the library can move it.
"""
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REFERENCE_S = 0.02
REPEATS = 3


def kernel(n: int = 6000) -> float:
    x = np.array([0.1, 0.2, 0.3, 0.4])
    acc = 0.0
    for _ in range(n):
        c, s = math.cos(x[1]), math.sin(x[1])
        y = np.array([x[2], x[3], c * s, c + s])
        x = x + 1e-6 * y
        acc += float(y @ y)
    return acc


def kernel_seconds(repeats: int = REPEATS) -> list:
    """Wall time of each of ``repeats`` kernel calls in this process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def gauge(processes: int) -> list:
    """Kernel times from ``processes`` processes running it at once."""
    if processes == 1:
        return kernel_seconds()
    with ProcessPoolExecutor(processes) as pool:
        return [t for times in pool.map(kernel_seconds, [REPEATS] * processes) for t in times]
