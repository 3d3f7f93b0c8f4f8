"""Reference work for scaling CPU times to a nominal machine speed.

On a shared virtual machine the CPU time of identical work drifts by up to
40% from one minute to the next.  ``reference_kernel`` is fixed work shaped
like pmrisk's that never calls pmrisk; timing it beside each measurement
and scaling by ``NOMINAL_S`` over its time removes most of that drift while
leaving any change in pmrisk's own cost in place.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import interpolate, optimize, special

# reference_kernel CPU seconds on the baseline machine at its usual speed
NOMINAL_S = 0.22


def reference_kernel() -> float:
    """CPU seconds of fixed work: special functions, spline evaluation and
    table lookups on large arrays, root finding through a Python callback
    and many small-array calls."""
    start = time.process_time()
    x = np.linspace(-4.0, 4.0, 50_001)
    spline = interpolate.CubicHermiteSpline(x, special.ndtr(x), np.exp(-0.5 * x * x))
    acc = 0.0
    for _ in range(4):
        u = special.stdtr(11.78, x)
        acc += float(np.interp(u, u, x).sum()) + float(spline(0.9 * x).sum())
        acc += float(np.log(special.kve(0.7, np.abs(x) + 0.1)).sum())
    small = np.arange(5.0)
    for k in range(200):
        acc += optimize.brentq(lambda t: float(np.exp(small * t) @ small) - 50.0 - k, -5.0, 5.0)
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel result is not finite")
    return time.process_time() - start
