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

    def sample(self, size: int, rng) -> np.ndarray:
        """Draw iid points by inverting the closed-form CDF.  ``rng`` is a
        Generator or anything ``np.random.default_rng`` takes, such as a
        runner's derived seed list; the draws are those of
        ``np.random.default_rng(rng)``.  A uniform density takes one double
        per point in order, so one call of size n + m holds the points of a
        size-n call followed by those of a size-m call on the same stream."""
        rng = _generator(rng)
        if self.kind == UNIFORM:
            return rng.uniform(*self.support, size)
        u = rng.random(size) - 0.5
        return self.center + np.sign(u) * self.half_width * np.sqrt(2.0 * np.abs(u))


def _generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, cheaper for a derived seed list.

    ``SeedSequence`` coerces a list one element at a time in Python, and a
    Python int in [0, 2**32) becomes exactly one uint32 entropy word, so
    such a list passed as those words gives the same stream.  Every other
    seed, and so every error, goes to ``default_rng`` unchanged.
    """
    if type(seed) is list and all(type(v) is int and 0 <= v < 1 << 32 for v in seed):
        seed = np.random.SeedSequence(np.array(seed, dtype=np.uint32))
    return np.random.default_rng(seed)


def uniform(lo: float, hi: float) -> Density:
    return Density(UNIFORM, (float(lo), float(hi)))


def vanishing(point: float, half_width: float) -> Density:
    if not half_width > 0:
        raise DensityError("half_width must be positive")
    return Density(VANISHING, (point - half_width, point + half_width))


def _mass_terms(density: Density, x: float, rho: float) -> tuple[float, float, float]:
    """(a0, a1, a2), p_ball(r) = a0 + a1 r + a2 r^2 on the radii piece holding rho.

    Each ball end x + s r (s = +-1) adds s (F - 1/2), F the CDF, measured from
    d = x - center, so a point an ulp off the vanishing center keeps its d^2.
    """
    lo, hi = density.support
    d, w = x - density.center, density.half_width
    a0 = a1 = a2 = 0.0
    for s in (1.0, -1.0):
        u = s * rho  # the end's offset from x
        if u >= hi - x:
            a0 += 0.5 * s
        elif u <= lo - x:
            a0 -= 0.5 * s
        elif density.kind == UNIFORM:  # F - 1/2 = (d + u) / (hi - lo)
            a0 += s * d / (hi - lo)
            a1 += 1.0 / (hi - lo)
        else:  # F - 1/2 = +-(d + u)^2 / (2 w^2), the sign of d + u
            k = (0.5 if u > -d else -0.5) / (w * w)
            a0 += s * k * d * d
            a1 += 2.0 * k * d
            a2 += s * k
    return a0, a1, a2


def ball_probability(density: Density, x: float, radius: float) -> float:
    """Probability mass of the closed ball [x - radius, x + radius]."""
    if not math.isfinite(x):
        raise DensityError("test point x must be finite")
    if not radius >= 0:
        raise DensityError("radius must be non-negative")
    a0, a1, a2 = _mass_terms(density, float(x), float(radius))
    # a constant piece also holds radius = inf, where 0 * radius would be nan
    return min(max(a0 + (radius * (a1 + a2 * radius) if a1 or a2 else 0.0), 0.0), 1.0)


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


def check_theorem32(density: Density, x: float, schedule: RadiusSchedule,
                    c: float, epsilon: float,
                    n_range: tuple[int, int]) -> ConvergenceVerdict:
    """Decide ``p_ball(rho(N)) >= c * N^(eps - 1)`` at every N >= n_range[0].

    Only ``n_range[0]`` bounds it; a ``RadiusSchedule`` already shrinks to 0.
    H(N) = N^(1-eps) p_ball is monotone between knots, where a ball end
    crosses lo, hi or the center or dH/dN = 0 (clamped at 1e300).  The knots'
    integers are checked in order and a failure is bisected from the last
    pass; past the last knot the small-ball term decides, or doubling N does.
    """
    _require_schedule(schedule)
    if not math.isfinite(x):
        raise DensityError("test point x must be finite")
    if not (0.0 < c < math.inf and 0.0 < epsilon < 1.0):
        raise DensityError("witness c must be positive and finite, epsilon in (0, 1)")
    lo_n = int(n_range[0])
    if lo_n < 1:
        raise DensityError("n_range must start at N >= 1")
    x, alpha, c_s, gap = float(x), schedule.exponent, schedule.coefficient, 1.0 - epsilon

    def fails(n):  # equality satisfies; the slack absorbs rounding
        return (ball_probability(density, x, schedule.raw(n))
                < c * float(n) ** -gap * (1.0 - 1e-12))

    radii = sorted({abs(x - t) for t in (*density.support, density.center)} - {0.0})
    edges = [0.0] + radii + [math.inf]
    for r_lo, r_hi in zip(edges, edges[1:]):  # where dH/dN = 0 on each piece
        a0, a1, a2 = _mass_terms(density, x, 0.5 * r_lo + 0.5 * r_hi)
        roots = np.roots([a2 * (gap - 2.0 * alpha), a1 * (gap - alpha), a0 * gap])
        radii += [r.real for r in roots if not r.imag and r_lo < r.real < r_hi]
    knots = {math.floor(math.exp(min((math.log(c_s) - math.log(r)) / alpha,
                                     math.log(1e300)))) for r in radii}
    candidates = sorted({lo_n} | {m for k in knots for m in (k, k + 1) if m > lo_n})
    failing = next((n for n in candidates if fails(n)), None)
    passing = max(n for n in [lo_n - 1] + candidates if failing is None or n < failing)
    if failing is None:
        # past the last knot H is monotone; an empty ball's a0 is 0, so a_j rho^j leads
        _, a1, a2 = _mass_terms(density, x, 0.5 * edges[1])
        j, lead = (1, a1) if a1 else (2, a2)
        if lead and (gap > j * alpha or gap == j * alpha  # H -> lead c_s^j
                     and not lead * c_s * c_s ** (j - 1) < c * (1.0 - 1e-12)):
            return ConvergenceVerdict(True, c=c, epsilon=epsilon)
        while passing < 1e300 and not fails(2 * passing):
            passing *= 2
        if passing >= 1e300:
            return ConvergenceVerdict(False, reason="ball mass decays too fast; "
                                      "it fails only beyond N = 1e300")
        failing = 2 * passing
    while failing - passing > 1:
        mid = (passing + failing) // 2
        passing, failing = (passing, mid) if fails(mid) else (mid, failing)
    return ConvergenceVerdict(False, first_failing_n=failing, reason="ball mass < "
                              "required %.3g at N=%d" % (c * float(failing) ** -gap, failing))


def check_corollary33(schedule: RadiusSchedule) -> ConvergenceVerdict:
    """Uniform-on-an-interval criterion: a power schedule works iff alpha < 1.

    The witness is epsilon = 1 - alpha with the schedule's own coefficient.
    The boundary alpha = 1 fails because epsilon must be positive; no
    single failing N exists for an exponent violation, so none is reported.
    """
    _require_schedule(schedule)
    gap = 1.0 - schedule.exponent
    if gap > 0:
        return ConvergenceVerdict(True, c=schedule.coefficient, epsilon=gap)
    return ConvergenceVerdict(False, reason="exponent %.3g >= 1" % schedule.exponent)


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


def binomial_moment_bound(n: int, p: float, k: int) -> float:
    """Upper bound on the (2k)-th central moment of Binomial(n, p):
    sum_{m=1}^{k} (n p)^m alpha_m with alpha_m = 4^k S2(2k, m), where the
    associated Stirling number of the second kind S2(j, m) counts the
    partitions of j items into m blocks of at least two, so that
    S2(j, m) = m S2(j-1, m) + (j-1) S2(j-2, m-1).

    Exact integer arithmetic covers the supported range k <= 8.
    """
    if n < 1 or int(n) != n:
        raise DensityError("n must be a positive integer")
    if not 0.0 <= p <= 1.0:
        raise DensityError("p must lie in [0, 1]")
    if not 1 <= k <= 8 or int(k) != k:
        raise DensityError("k must be an integer in [1, 8]")
    S2 = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(2 * k)]
    for j in range(2, 2 * k + 1):
        for m in range(1, k + 1):
            S2[j][m] = m * S2[j - 1][m] + (j - 1) * S2[j - 2][m - 1]
    total = 0.0
    for m in range(1, k + 1):
        total += (n * p) ** m * (4 ** k * S2[2 * k][m])
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
            pts = density.sample(n, [seed, n, t])
            counts[t] = np.count_nonzero(np.abs(pts - x) <= rho)
        rows.append(GrowthRow(n, float(np.mean(counts)), int(np.min(counts)), expected))
    return rows
