"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of one core drifts by tens of percent over
minutes: other tenants, frequency scaling.  A program's time in seconds then
moves with the machine, not with the code.  The benchmark therefore runs a
fixed kernel in every round, next to the CLI child, and reports times
scaled to the kernel's time on the reference machine:

    reported = median over rounds of (measured / kernel time) * REFERENCE_S

where each measurement is divided by the kernel time of its own round.

The kernel does the kinds of work the CLI does: elementwise transcendental
functions, a stable argsort and a cumulative sum over 2^20 doubles, a dense
hinge matrix, and a pure-Python loop.  Its inputs are fixed, whatever the
workload seed.
"""

from __future__ import annotations

import time

# Median kernel time on the reference machine: 2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1, one BLAS thread.
REFERENCE_S = 0.70


def kernel_seconds() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    import numpy as np
    from scipy import special

    x = np.random.default_rng(12345).standard_normal(1 << 20)
    c = np.linspace(0.0, 1.0, 256)[:, None]
    start = time.perf_counter()
    for _ in range(2):
        order = np.argsort(-np.abs(np.tanh(x + 0.3 * x**3)), kind="stable")
        y = special.ndtr(x[order])
        np.cumsum(np.exp(-0.5 * y * y))
        np.maximum(y[None, :4096] - c, 0.0).sum(axis=1)
    sum(i * i for i in range(300_000))
    return time.perf_counter() - start
