"""Host slowdown: a fixed reference job, independent of gpbounds, timed
between runner calls.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2x over seconds to minutes as other tenants' load comes and goes.
CPU time follows wall time and there is next to no steal, so the process
runs all along, only slower.  On a 2-vCPU Xeon KVM guest the median of a
30 s run of a learning-curve workload spread by up to 35% over ten runs of
the same code, because each run caught a different mix of fast and slow
spells.

``Host.slowdown`` times the reference job and divides by its nominal time,
so it reads about 1 when the host runs at its fast speed and 1.5 when the
job takes half as long again.  A runner call's time divided by the slowdown
measured just before and just after it estimates the call's time at the
fast speed.  The README says how well that holds.

The job has the three kinds of work the package does: interpreted Python,
``scipy.integrate.quad`` over a numpy-scalar integrand (the curves layer)
and Cholesky factorizations (the gp layer).  The slowdown is the geometric
mean of the three parts' ratios, so no one part sets it alone.  It takes
about 30 ms, 2-3% of a runner call.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

# seconds per part at the fast speed of a 2-vCPU Xeon KVM guest
NOMINAL_S = {"interpreter": 0.010, "quadrature": 0.009, "factor": 0.011}

_FACTOR_SIZE = 300


def _interpreter():
    total, table = 0, {}
    for i in range(80000):
        total += i * i % 7
        table[i & 255] = total


def _integrand(t):
    return float(np.exp(-2.0 * np.sin(np.pi * t) ** 2)) * (1.0 - t)


def _quadrature():
    for _ in range(80):
        quad(_integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=50)


class Host:
    def __init__(self):
        x = np.random.default_rng(0).standard_normal((_FACTOR_SIZE, _FACTOR_SIZE))
        spd = x @ x.T + _FACTOR_SIZE * np.eye(_FACTOR_SIZE)

        def factor():
            for _ in range(10):
                np.linalg.cholesky(spd)

        self._parts = {"interpreter": _interpreter, "quadrature": _quadrature,
                       "factor": factor}
        self.slowdown()                                 # warm-up

    def slowdown(self) -> float:
        """Time of the reference job over its nominal time."""
        logs = []
        for name, part in self._parts.items():
            t0 = time.perf_counter()
            part()
            logs.append(math.log((time.perf_counter() - t0) / NOMINAL_S[name]))
        return math.exp(sum(logs) / len(logs))
