"""A fixed reference computation that gauges the host's speed during a run.

The host's speed drifts by tens of percent over seconds to minutes, so wall
times of the same code differ from run to run.  Between operations the
benchmark times this kernel, which never changes and does not touch the
package.  The ratio of its nominal time to its median time in the run says
how fast the host ran; multiplying a wall time by it gives the time the
same work would have taken at the nominal speed.

The kernel mixes the kinds of work the workloads do: a Python loop that
formats numbers into text rows, like the CSV writers; special functions on
cache-sized arrays, like the polygon quadrature; a pass over arrays larger
than the caches, like decoding a session; and a 2-D FFT, like the lens
chain.  It writes into buffers allocated once, because the cost of fresh
large allocations depends on the allocator's state, which the operations
before it change.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

#: Median time of one kernel call on the host the seed baseline was
#: measured on (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread).
#: Any fixed value works: it only sets the scale of the normalised times.
NOMINAL_S = 0.045
#: Share of each operation's wall time spent timing the kernel after it.
SHARE = 0.10

_rng = np.random.default_rng(7)
_ROWS = [float(v) for v in _rng.random(8000)]
_MID = _rng.random(40_000) * 4.0 - 2.0
_MID_OUT = np.empty_like(_MID)
_BIG = _rng.random(1 << 21)
_BIG_OUT = np.empty_like(_BIG)
_GRID = _rng.random((256, 256)) + 0j


def kernel() -> float:
    """Run the reference computation once; return its wall time in s."""
    t0 = time.perf_counter()
    "\n".join(f"{i},{v:.6g},{v * v:.6g}" for i, v in enumerate(_ROWS))
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(12):
        special.erf(_MID, out=_MID_OUT)
        np.exp(-0.5 * _MID * _MID)
        float((_MID_OUT * _MID).sum())
    np.multiply(_BIG, _BIG, out=_BIG_OUT)
    np.exp(_BIG_OUT, out=_BIG_OUT)
    float(_BIG_OUT.sum())
    np.argmin(_BIG_OUT)
    np.fft.fft2(_GRID)
    return time.perf_counter() - t0


def sample(budget_s: float) -> list[float]:
    """Kernel times, calling it until ``budget_s`` is spent (at least once)."""
    times = [kernel()]
    while sum(times) < budget_s:
        times.append(kernel())
    return times


def warm() -> None:
    """Untimed calls, so that first-call costs stay out of the samples."""
    for _ in range(3):
        kernel()


def speed(times: list[float]) -> float:
    """Host speed of a run: nominal over median kernel time (1 = nominal)."""
    return NOMINAL_S / statistics.median(times)
