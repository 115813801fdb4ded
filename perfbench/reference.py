"""A fixed computation that tracks how fast the host runs right now.

On a shared host the speed of interpreter-bound numpy code changes over a
few seconds by up to 2x, and process CPU time slows with wall time, so it
is not preemption. The benchmark runs this computation between samples
of work and divides each sample's time by the median reference time near
it. The quotient, the sample's cost in reference units, hardly depends on
the host's phase: in a 30-second test on a shared 2-core x86-64 VM,
3-second windows of ``bell-sweep`` differed by up to 1.9x in wall time and
by at most 15% in reference units. Work spent in large numpy array
operations (the Gaussian tables of ``truncated-tables``) is less affected
by those phases and less well tracked by this computation.

The computation mixes what tomobell spends most of its time on (small
numpy arrays, 4x4 linear algebra, scalar math, Python calls) and uses
nothing from tomobell, so a change to the package cannot change it.
"""

import math
import time

import numpy as np

_EYE = np.eye(4)


def reference_seconds():
    """Run the reference computation once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        x = np.array([0.1 * i, 0.2, 0.3, 0.4])
        q = float(x @ np.linalg.inv(_EYE + 0.01 * i) @ x)
        acc += math.exp(-q) + math.cosh(0.1 * i) + float(np.trace(np.outer(x, x)))
    if not math.isfinite(acc):
        raise RuntimeError("reference computation went non-finite")
    return time.perf_counter() - t0
