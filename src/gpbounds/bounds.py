"""Distance-based upper bounds on the GP posterior variance.

All bounds depend on the training data only through distances: the number
of samples inside a ball around the test point, or the distances of the
nearest one or two samples.  ``k`` below is the prior variance k(x, x),
``L`` a per-argument Lipschitz constant of the kernel, ``B`` the ball
count, ``s`` the noise variance.

* general (Lipschitz) bound, as proved:
      (k s + B (4 k L rho - L^2 rho^2)) / (B (k + 2 L rho) + s)
* isotropic decreasing bound, the one-point bound with noise s / B:
      k(0) - k(rho)^2 / (k(0) + s / B)
* one-point bound:   k(0) - k(tau)^2 / (k(0) + s)
* two-point bound:   exact posterior variance of the two nearest samples,
  via the 2x2 Cholesky factor.

The isotropic, one- and two-point bounds read k(0) - k(tau) from
``Kernel.complement`` and are written as sums that do not cancel when
samples are close and the noise is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import GPPosterior, TrainingSet
from .kernels import Kernel, as_point


class BoundError(ValueError):
    """A bound was asked for outside its admissible-parameter region."""


def ball_count(train: TrainingSet, x, radius: float) -> int:
    """Number of training inputs in the closed ball of the given radius."""
    if not radius >= 0:
        raise BoundError("radius must be non-negative")
    dists = np.abs(train.inputs - as_point(x))
    return int(np.count_nonzero(dists <= radius))


def lipschitz_bound(kernel: Kernel, lipschitz: float, x, ballcount: int,
                    radius: float, noise_variance: float) -> float:
    """General variance bound from a ball count and a Lipschitz constant.

    The numerator is k s + B (4 k L rho - L^2 rho^2), as proved.  The
    printed formula multiplies the whole rho-polynomial by k instead; it
    agrees only when k(x, x) = 1 and is otherwise not a bound.  Requires
    ``rho <= k(x, x) / L``; violations raise rather than clip.
    """
    if ballcount < 0 or int(ballcount) != ballcount:
        raise BoundError("ballcount must be a non-negative integer")
    if not (0 <= radius < math.inf and 0 <= lipschitz < math.inf):
        raise BoundError("radius and lipschitz must be non-negative and finite")
    if not noise_variance > 0:
        raise BoundError("noise_variance must be positive")
    k = kernel.prior_variance(x)
    # the same expression radius_at clips with, so a clipped radius passes
    if lipschitz > 0 and radius > k / lipschitz:
        raise BoundError(
            f"radius {radius} exceeds k(x,x)/L = {k / lipschitz}; "
            "shrink the radius (radius_at clips schedules for you)")
    b = float(ballcount)
    L, rho, s = lipschitz, radius, noise_variance
    num = k * s + b * (4.0 * k * L * rho - L * L * rho * rho)
    return num / (b * (k + 2.0 * L * rho) + s)


def isotropic_bound(kernel: Kernel, ballcount: int, radius: float,
                    noise_variance: float) -> float:
    """Variance bound for isotropic kernels with non-increasing k(tau).

    k(0) - k(rho)^2 / (k(0) + s / B) is the one-point bound with the noise
    s / B, and is computed in ``one_point_bound``'s form from the
    complement c = k(0) - k(rho), a sum of non-negative terms.  Requires at
    least one sample in the ball; report k(0) yourself for an empty ball
    (bound_report does).
    """
    if not kernel.decreasing:
        raise BoundError("isotropic_bound needs an isotropic, decreasing kernel")
    if ballcount < 1 or int(ballcount) != ballcount:
        raise BoundError("ballcount must be a positive integer; "
                         "an empty ball leaves the prior variance k(0)")
    if not radius >= 0 or not noise_variance > 0:
        raise BoundError("need radius >= 0 and noise_variance > 0")
    k0, s = kernel.signal_variance, noise_variance / ballcount
    c = kernel.complement(radius)
    return (c * (2.0 * k0 - c) + k0 * s) / (k0 + s)


def one_point_bound(kernel: Kernel, tau: float, noise_variance: float) -> float:
    """Exact posterior variance given a single sample at distance tau.

    With c = k(0) - k(tau) and a = k(0) + s it is k(0) - k(tau)^2 / a
    written as (c (2 k(0) - c) + k(0) s) / a, a sum of non-negative terms,
    so it keeps its digits where k(tau) is close to k(0) and s is small."""
    if not kernel.isotropic:
        raise BoundError("one_point_bound needs an isotropic kernel")
    if not (0 <= tau < math.inf and noise_variance > 0):
        raise BoundError("need finite tau >= 0 and noise_variance > 0")
    k0, s = kernel.signal_variance, noise_variance
    c = kernel.complement(tau)
    return (c * (2.0 * k0 - c) + k0 * s) / (k0 + s)


def two_point_bound(kernel: Kernel, tau1: float, tau2: float, delta: float,
                    noise_variance: float) -> float:
    """Exact posterior variance given two samples at distances tau1, tau2,
    separated by delta.

    The triangle inequality |tau1 - tau2| <= delta <= tau1 + tau2 must hold
    (in one dimension only the two endpoints are realizable).  The 2 x 2
    Cholesky factor of [[a, k(delta)], [k(delta), a]], a = k(0) + s, gives
    v1 - t^2 / D: v1 is the one-point variance of the first sample,
    D = (a^2 - k(delta)^2) / a and t = (a k(tau2) - k(delta) k(tau1)) / a.
    With the complements c_i = k(0) - k(tau_i) and e = k(0) - k(delta),
    D = (e + s) (2 k(0) + s - e) / a and
    a t = k(0) (e + c1 - c2) - e c1 + s k(tau2), so neither cancels where
    the samples are close and s is small.  The sample with the smaller
    complement is taken first, so that v1 is the smaller one-point
    variance; for the periodic kind that can be the farther sample.
    """
    if not kernel.isotropic:
        raise BoundError("two_point_bound needs an isotropic kernel")
    if not all(0 <= t < math.inf for t in (tau1, tau2, delta)):
        raise BoundError("tau1, tau2 and delta must be finite and non-negative")
    if not noise_variance > 0:
        raise BoundError("noise_variance must be positive")
    slack = 1e-9 * (1.0 + tau1 + tau2)
    if not (abs(tau1 - tau2) - slack <= delta <= tau1 + tau2 + slack):
        raise BoundError("delta violates the triangle inequality for (tau1, tau2)")
    k0, s = kernel.signal_variance, noise_variance
    c1, c2, e = kernel.complement([tau1, tau2, delta]).tolist()
    c1, c2 = min(c1, c2), max(c1, c2)
    a = k0 + s
    v1 = (c1 * (2.0 * k0 - c1) + k0 * s) / a
    t = (k0 * (e + c1 - c2) - e * c1 + s * (k0 - c2)) / a
    return v1 - t * t / ((e + s) * (2.0 * k0 + s - e) / a)


@dataclass(frozen=True)
class RadiusSchedule:
    """Power-law ball radius c * N^(-alpha), clipped to k(x,x)/L at use."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (self.coefficient > 0 and math.isfinite(self.coefficient)):
            raise BoundError("schedule coefficient must be positive")
        if not (0.0 < self.exponent <= 1.0):
            raise BoundError("schedule exponent must lie in (0, 1]")

    def raw(self, n):
        """Unclipped radius; accepts scalar or array N >= 1."""
        arr = np.asarray(n, dtype=float)
        if np.any(arr < 1):
            raise BoundError("schedule is defined for N >= 1")
        out = self.coefficient * arr ** (-self.exponent)
        return float(out) if out.ndim == 0 else out


def radius_at(schedule: RadiusSchedule, n, kernel: Kernel, x,
              lipschitz: float):
    """min(c N^-alpha, k(x,x)/L); L = 0 means no clip applies.  Like
    ``RadiusSchedule.raw`` it takes a scalar N, returning a float, or an
    array of N, returning an array; k(x,x) is evaluated once either way."""
    rho = schedule.raw(n)
    if lipschitz > 0:
        rho = np.minimum(rho, kernel.prior_variance(x) / lipschitz)
    return float(rho) if np.ndim(rho) == 0 else rho


@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated on one dataset at one test point.  Fields are
    None where a bound's preconditions do not apply to this kernel."""

    exact: float
    lipschitz: float
    isotropic: float | None
    one_point: float | None
    two_point: float | None
    ball: int


def bound_report(train: TrainingSet, kernel: Kernel, x, radius: float,
                 lipschitz: float) -> BoundReport:
    """Evaluate the exact variance and all applicable bounds at once.

    The isotropic bound falls back to the prior variance k(0) when the ball
    is empty; one- and two-point bounds need one and two samples.
    """
    xp = as_point(x)
    exact = GPPosterior(train, kernel).variance(xp)
    count = ball_count(train, xp, radius)
    general = lipschitz_bound(kernel, lipschitz, xp, count, radius,
                              train.noise_variance)
    iso = one_pt = two_pt = None
    if kernel.decreasing:
        iso = (isotropic_bound(kernel, count, radius, train.noise_variance)
               if count >= 1 else kernel.iso(0.0))
    if kernel.isotropic and train.n >= 1:
        dists = np.abs(train.inputs - xp)
        order = np.argsort(dists)
        tau1 = float(dists[order[0]])
        one_pt = one_point_bound(kernel, tau1, train.noise_variance)
        if train.n >= 2:
            delta = float(abs(train.inputs[order[0]] - train.inputs[order[1]]))
            two_pt = two_point_bound(kernel, tau1, float(dists[order[1]]), delta,
                                     train.noise_variance)
    return BoundReport(exact, general, iso, one_pt, two_pt, count)
