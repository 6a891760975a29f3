"""Sampling densities, ball probabilities, and convergence checks.

The variance bounds shrink when the ball around the test point keeps
collecting samples.  This module decides whether a radius schedule and a
sampling density deliver that: the ball mass ``p_ball(N)`` must dominate
``c * N^(eps - 1)`` while the radius shrinks to zero.  It also carries the
Bernoulli/binomial central-moment machinery behind those statements, and
an empirical ball-growth probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import RadiusSchedule

UNIFORM = "uniform"
VANISHING = "vanishing"
DENSITY_KINDS = (UNIFORM, VANISHING)


class DensityError(ValueError):
    """Density construction or evaluation outside the admissible region."""


@dataclass(frozen=True)
class Density:
    """One-dimensional sampling density on an interval support.

    ``uniform`` is flat; ``vanishing`` is |t - center| / half_width^2, which
    integrates to 1 and vanishes linearly at the support midpoint.
    """

    kind: str
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DensityError("support must be a finite interval of positive length")
        if self.kind not in DENSITY_KINDS:
            raise DensityError(f"unknown density kind {self.kind!r}")

    @property
    def half_width(self) -> float:
        return 0.5 * (self.support[1] - self.support[0])

    @property
    def center(self) -> float:
        return 0.5 * (self.support[0] + self.support[1])

    def pdf(self, t):
        lo, hi = self.support
        arr = np.asarray(t, dtype=float)
        inside = (arr >= lo) & (arr <= hi)
        if self.kind == UNIFORM:
            out = np.where(inside, 1.0 / (hi - lo), 0.0)
        else:
            w = self.half_width
            out = np.where(inside, np.abs(arr - self.center) / (w * w), 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw iid points by inverting the closed-form CDF."""
        if self.kind == UNIFORM:
            return rng.uniform(*self.support, size)
        u = rng.random(size) - 0.5
        return self.center + np.sign(u) * self.half_width * np.sqrt(2.0 * np.abs(u))


def uniform(lo: float, hi: float) -> Density:
    return Density(UNIFORM, (float(lo), float(hi)))


def vanishing(point: float, half_width: float) -> Density:
    if not half_width > 0:
        raise DensityError("half_width must be positive")
    return Density(VANISHING, (point - half_width, point + half_width))


def _ball_mass(density: Density, x: float, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    lo_s, hi_s = density.support
    lo = np.maximum(x - rho, lo_s)
    hi = np.minimum(x + rho, hi_s)
    if density.kind == UNIFORM:
        mass = np.clip(hi - lo, 0.0, None) / (hi_s - lo_s)
    else:
        v, w = density.center, density.half_width
        g = lambda t: (t - v) * np.abs(t - v) / 2.0
        mass = np.where(hi > lo, (g(hi) - g(lo)) / (w * w), 0.0)
    return np.clip(mass, 0.0, 1.0)


def ball_probability(density: Density, x: float, radius: float) -> float:
    """Probability mass of the closed ball [x - radius, x + radius]."""
    if radius < 0:
        raise DensityError("radius must be non-negative")
    return float(_ball_mass(density, float(x), float(radius)))


@dataclass(frozen=True)
class ConvergenceVerdict:
    satisfied: bool
    c: float | None = None
    epsilon: float | None = None
    first_failing_n: int | None = None
    reason: str = ""


def _require_schedule(schedule) -> None:
    if not isinstance(schedule, RadiusSchedule):
        raise DensityError("schedule must be a RadiusSchedule")


def _small_ball_power_law(density: Density, x: float):
    """(a, beta) such that p_ball(rho) ~ a * rho^beta as rho -> 0.

    ``beta`` is None only for a point outside the support, whose small
    balls hold no mass at all.
    """
    lo, hi = density.support
    if x < lo or x > hi:
        return 0.0, None
    sides = 2.0 if lo < x < hi else 1.0
    if density.kind == UNIFORM:
        return sides / (hi - lo), 1.0
    w = density.half_width
    if x == density.center:
        return 1.0 / (w * w), 2.0
    return sides * abs(x - density.center) / (w * w), 1.0


def check_theorem32(density: Density, x: float, schedule: RadiusSchedule,
                    c: float, epsilon: float,
                    n_range: tuple[int, int]) -> ConvergenceVerdict:
    """Check the ball-mass convergence condition over a probe range.

    A ``RadiusSchedule`` decreases strictly to zero by construction, so what
    remains is ``p_ball(N) >= c * N^(eps - 1)`` at every probed N.  The
    small-radius exponent comparison extends the verdict beyond the probe
    range, including the closed-form first crossing when it fails out there.
    A test point outside the support fails with no first failing N.
    """
    _require_schedule(schedule)
    if not math.isfinite(x):
        raise DensityError("test point x must be finite")
    if not c > 0:
        raise DensityError("witness constant c must be positive")
    if not 0.0 < epsilon < 1.0:
        raise DensityError("epsilon must lie in (0, 1)")
    lo_n, hi_n = int(n_range[0]), int(n_range[1])
    if lo_n < 1 or hi_n < lo_n:
        raise DensityError("n_range must satisfy 1 <= lo <= hi")

    ns = np.arange(lo_n, hi_n + 1)
    rhos = schedule.raw(ns)
    targets = c * ns.astype(float) ** (epsilon - 1.0)
    masses = _ball_mass(density, float(x), rhos)
    # exact equality p = c N^(eps-1) satisfies the condition; the interval
    # arithmetic behind the mass loses a few ulps, so compare with slack
    failing = masses < targets - 1e-12 * np.maximum(targets, 1.0)
    if np.any(failing):
        n_bad = int(ns[failing][0])
        return ConvergenceVerdict(False, first_failing_n=n_bad,
                                  reason="ball mass %.3g < required %.3g at N=%d"
                                         % (masses[failing][0], targets[failing][0], n_bad))

    a, beta = _small_ball_power_law(density, float(x))
    if beta is not None:
        lead = a * schedule.coefficient ** beta
        decay = schedule.exponent * beta
        if decay > 1.0 - epsilon or (decay == 1.0 - epsilon and lead < c):
            if decay > 1.0 - epsilon and lead > 0:
                cross = (lead / c) ** (1.0 / (decay - (1.0 - epsilon)))
                n_bad = max(hi_n + 1, int(math.floor(cross)) + 1)
            else:
                n_bad = hi_n + 1
            return ConvergenceVerdict(False, first_failing_n=n_bad,
                                      reason="ball mass decays like N^-%.3g, "
                                             "too fast for epsilon=%.3g" % (decay, epsilon))
    else:
        # the balls empty out once the radius drops below the distance to
        # the support; the scan cannot say at which N beyond its range
        return ConvergenceVerdict(False, reason="test point lies outside the support")
    return ConvergenceVerdict(True, c=c, epsilon=epsilon)


def check_corollary33(dimension: int, schedule: RadiusSchedule) -> ConvergenceVerdict:
    """Uniform-on-a-box criterion: a power schedule works iff alpha < 1/d.

    The witness is epsilon = 1/d - alpha with the schedule's own coefficient.
    The boundary alpha = 1/d fails because epsilon must be positive; no
    single failing N exists for an exponent violation, so none is reported.
    """
    if dimension < 1 or int(dimension) != dimension:
        raise DensityError("dimension must be a positive integer")
    _require_schedule(schedule)
    gap = 1.0 / dimension - schedule.exponent
    if gap > 0:
        return ConvergenceVerdict(True, c=schedule.coefficient, epsilon=gap)
    return ConvergenceVerdict(False, reason="exponent %.3g >= 1/d = %.3g"
                                            % (schedule.exponent, 1.0 / dimension))


def bernoulli_central_moment(p: float, k: int) -> float:
    """k-th central moment of a Bernoulli(p) variable, in closed form.

    Expanding (X - p)^k and using E[X^j] = p for j >= 1 gives
    sum_{i=0}^{k-1} (-1)^i C(k,i) p^(i+1) + (-1)^k p^k.
    """
    if not 0.0 <= p <= 1.0:
        raise DensityError("p must lie in [0, 1]")
    if k < 1 or int(k) != k:
        raise DensityError("k must be a positive integer")
    total = sum((-1.0) ** i * math.comb(k, i) * p ** (i + 1) for i in range(k))
    return total + (-1.0) ** k * p ** k


def _compositions(total: int, parts: int, minimum: int = 2):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def binomial_moment_bound(n: int, p: float, k: int) -> float:
    """Upper bound on the (2k)-th central moment of Binomial(n, p):
    sum_{m=1}^{k} (n p)^m alpha_m, with alpha_m built from the ordered
    compositions of 2k into m parts of size >= 2.

    Exact integer arithmetic covers the supported range k <= 8.
    """
    if n < 1 or int(n) != n:
        raise DensityError("n must be a positive integer")
    if not 0.0 <= p <= 1.0:
        raise DensityError("p must lie in [0, 1]")
    if not 1 <= k <= 8 or int(k) != k:
        raise DensityError("k must be an integer in [1, 8]")
    two_k = 2 * k
    fact_2k = math.factorial(two_k)
    total = 0.0
    for m in range(1, k + 1):
        alpha_num = 0
        for comp in _compositions(two_k, m):
            multinomial = fact_2k
            weight = 1
            for part in comp:
                multinomial //= math.factorial(part)
                weight *= 2 ** part
            alpha_num += multinomial * weight
        alpha = alpha_num / math.factorial(m)
        total += (n * p) ** m * alpha
    return total


@dataclass(frozen=True)
class GrowthRow:
    n: int
    mean_count: float
    min_count: int
    expected_count: float


def empirical_ball_growth(density: Density, x: float, schedule: RadiusSchedule,
                          n_list, trials: int, seed: int) -> list[GrowthRow]:
    """Sampled ball occupancy along a schedule, against its expectation.

    Each (N, trial) pair draws from its own derived seed, so rows are
    reproducible independently of iteration order.
    """
    _require_schedule(schedule)
    if trials < 1:
        raise DensityError("trials must be positive")
    rows = []
    for n in n_list:
        n = int(n)
        if n < 0:
            raise DensityError("N must be non-negative")
        if n == 0:
            rows.append(GrowthRow(0, 0.0, 0, 0.0))
            continue
        rho = schedule.raw(n)
        expected = n * ball_probability(density, x, rho)
        counts = np.empty(trials, dtype=int)
        for t in range(trials):
            rng = np.random.default_rng([seed, n, t])
            pts = density.sample(n, rng)
            counts[t] = int(np.sum(np.abs(pts - x) <= rho))
        rows.append(GrowthRow(n, float(np.mean(counts)), int(np.min(counts)), expected))
    return rows
