"""Average learning-curve bounds for one-dimensional uniform sampling.

Everything here lives on the unit interval with N iid uniform training
inputs and a uniform test point.  The reference curve is

    e(N) = E[ E_x[ sigma_N^2(x) ] ] + s        (s = noise variance)

estimated by Monte Carlo, and three upper bounds on it:

* ``e1_bound``  - each test point sees only its nearest sample; the gap
  statistics enter through the spacing density N (1 - d)^(N - 1).
* ``e2_bound``  - interior test points see both enclosing samples, via the
  exact two-sample posterior.
* ``e_rho_bound`` - the interval is cut into sections of n consecutive
  samples; all n samples of a section lie within the section-width radius
  of any test point inside it, so the ball-count bound applies with the
  exact Beta(n-1, N-n+2) width density of n-1 consecutive spacings.

Each bound is k(0) + s minus blocks (g, alpha, beta), one for e1 and e2 and
three for e_rho (inner sections, left and right boundary).  A block is the
expectation of g over the width density proportional to (1-d)^alpha d^beta,
in one vectorized pass: a Gauss-Jacobi outer rule (Golub & Welsch, 1969), a
Gauss-Legendre inner rule, one kernel call on the node grid.  Both rules
double from 24 x 32 nodes until successive sums agree within quad_tol / (2B)
for B blocks; the error estimates |Q_2m - Q_m| + m eps sum |w_i g_i| (the
last term a rounding floor) are summed, ``QuadratureError`` reports a sum
past ``quad_tol``, and a block listed twice is integrated once.

``greedy_select_n`` picks the section size per N by walking n upward while
the bound still improves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .convergence import uniform
from .gp import FactorizationError, GPPosterior, TrainingSet
from .kernels import Kernel

# outer and inner node counts of the first rule; both double per level
_START_NODES = (24, 32)
_LEVELS = 5


class CurveError(ValueError):
    """Curve bound requested outside its admissible configuration."""


class QuadratureError(RuntimeError):
    """Quadrature missed the requested tolerance.  The message names where:
    the kernel kind, N and the bound, with its section size for e_rho."""

    def __init__(self, requested: float, achieved: float, kind: str, n: int,
                 bound: str, section_size: int | None = None):
        self.requested = requested
        self.achieved = achieved
        size = "" if section_size is None else f" (section size {section_size})"
        super().__init__(f"{kind} kernel, N={n}: {bound}{size} quadrature "
                         f"achieved {achieved:.3g}, requested {requested:.3g}")


@lru_cache(maxsize=1024)
def _jacobi_rule(m: int, alpha: int, beta: int):
    """m-point Gauss rule for the probability density proportional to
    (1 - d)^alpha d^beta on [0, 1]; alpha = beta = 0 is Gauss-Legendre.
    Golub-Welsch on the shifted Jacobi matrix, whose diagonal is a sum of
    non-negative terms so that it does not cancel at large alpha."""
    s = alpha + beta
    k = np.arange(1.0, m)
    diag = np.empty(m)
    diag[0] = (beta + 1.0) / (s + 2.0)
    diag[1:] = ((2.0 * k * (k + s + 1.0) + s * (beta + 1.0))
                / ((2.0 * k + s) * (2.0 * k + s + 2.0)))
    off = np.sqrt(k * (k + alpha) * (k + beta) * (k + s)
                  / ((2.0 * k + s + 1.0) * (2.0 * k + s - 1.0))) / (2.0 * k + s)
    nodes, vecs = eigh_tridiagonal(diag, off)
    weights = vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _curve_bound(total: float, blocks, quad_tol: float, where: tuple) -> float:
    """total minus E[g(D)] per block (g, alpha, beta), D with density
    proportional to (1 - d)^alpha d^beta on [0, 1]; ``g(d, x, w)`` maps the
    outer nodes d to values by the inner rule (x, w) on [0, 1].  ``where``
    holds the ``QuadratureError`` arguments after the two tolerances."""
    tol = quad_tol / (2 * len(blocks))
    done = {}
    total_err = 0.0
    for block in blocks:
        if block not in done:
            g, alpha, beta = block
            m_out, m_in = _START_NODES
            prev = None
            for level in range(_LEVELS):
                d, wd = _jacobi_rule(m_out << level, alpha, beta)
                t = wd * g(d, *_jacobi_rule(m_in << level, 0, 0))
                q = float(np.sum(t))
                if prev is not None:
                    err = (abs(q - prev) + t.size * np.finfo(float).eps
                           * float(np.sum(np.abs(t))))
                    if err <= tol:
                        break
                prev = q
            done[block] = q, err
        val, err = done[block]
        total -= val
        total_err += err
    if total_err > quad_tol:
        raise QuadratureError(quad_tol, total_err, *where)
    return total


def _k2_integral(kernel: Kernel, d, lo: float, hi: float, x, w):
    """Integral of k(tau)^2 over [lo d, hi d] at each d, by the rule (x, w)
    on [0, 1]."""
    t = np.multiply.outer(d, lo + (hi - lo) * x)
    return (hi - lo) * d * (kernel.iso(t) ** 2 @ w)


def _check_curve_inputs(kernel: Kernel, noise_variance: float, n: int):
    if not kernel.isotropic:
        raise CurveError("learning-curve bounds need an isotropic kernel")
    if not noise_variance > 0:
        raise CurveError("noise_variance must be positive")
    if n < 1 or int(n) != n:
        raise CurveError("N must be a positive integer")


def e1_bound(kernel: Kernel, noise_variance: float, n: int,
             quad_tol: float = 1e-9) -> float:
    """Nearest-sample bound on the average learning curve.

    e1(N) = k(0) + s - 2 E[F(d)]/(k(0)+s) - 2(N-1) E[F(d/2)]/(k(0)+s)
    with F(u) the integral of k^2 over [0, u] and the expectation under the
    spacing density.  The two full-width terms come from the boundary
    segments, the N-1 half-width pairs from the interior ones.
    """
    _check_curve_inputs(kernel, noise_variance, n)
    a = kernel.iso(0.0) + noise_variance

    def per_gap(d, x, w):
        return 2.0 / a * (_k2_integral(kernel, d, 0.0, 1.0, x, w)
                          + (n - 1) * _k2_integral(kernel, d, 0.0, 0.5, x, w))

    return _curve_bound(a, [(per_gap, n - 1, 0)], quad_tol,
                        (kernel.kind, n, "e1_bound"))


def e2_bound(kernel: Kernel, noise_variance: float, n: int,
             quad_tol: float = 1e-9) -> float:
    """Two-nearest-samples bound on the average learning curve.

    Interior segments use the exact two-sample posterior integrated across
    the gap; with a = k(0) + s the inner integral is

        int_0^d [ a k(t)^2 - k(d) k(t) k(d - t) ] dt
        -----------------------------------------   ,
                     a^2 - k(d)^2

    and the boundary segments reuse the single-sample term.  N = 1 has no
    interior pair and reduces to e1_bound.
    """
    _check_curve_inputs(kernel, noise_variance, n)
    a = kernel.iso(0.0) + noise_variance

    def per_gap(d, x, w):
        kd = kernel.iso(d)
        t = np.multiply.outer(d, x)
        kt, kr = kernel.iso(np.stack([t, d[:, None] - t]))
        pair = d * ((a * kt - kd[:, None] * kr) * kt @ w) / (a * a - kd * kd)
        return (2.0 / a * _k2_integral(kernel, d, 0.0, 1.0, x, w)
                + 2.0 * (n - 1) * pair)

    return _curve_bound(a, [(per_gap, n - 1, 0)], quad_tol,
                        (kernel.kind, n, "e2_bound"))


@dataclass(frozen=True)
class SegmentPlan:
    """Partition of N sorted samples into m inner sections of n consecutive
    samples (adjacent sections share an endpoint) plus two boundary blocks."""

    n_total: int
    section_size: int
    inner_sections: int
    left_count: int
    right_count: int
    valid: bool


def segment_plan(n_total: int, section_size: int) -> SegmentPlan:
    """m = ceil((N - 2n + 1)/(n - 1)); the leftover N - m(n-1) + 1 samples
    split evenly between the boundaries.  Valid only when m >= 1 and the
    smaller boundary keeps at least one sample; the first valid N for a
    given n is N = 2n."""
    if n_total < 1 or int(n_total) != n_total:
        raise CurveError("N must be a positive integer")
    if section_size < 2 or int(section_size) != section_size:
        raise CurveError("section size must be an integer >= 2")
    n_tot, n = int(n_total), int(section_size)
    m = -(-(n_tot - 2 * n + 1) // (n - 1))
    leftover = n_tot - m * (n - 1) + 1
    left = leftover // 2
    right = leftover - left
    valid = m >= 1 and left >= 1
    return SegmentPlan(n_tot, n, m, left, right, valid)


def e_rho_bound(kernel: Kernel, noise_variance: float, n_total: int, n: int,
                quad_tol: float = 1e-9) -> float:
    """Section bound on the average learning curve for section size n.

    Every test point in a section of width d has all n section samples
    within radius between d/2 and d, so the ball-count bound applies with
    the noise floor shrunk to s/n; the two boundary blocks contribute the
    same way with their own counts.  Requires a valid segment_plan; fall
    back to e1_bound otherwise.

    The paper prints the section integrand as
    C(N, n-1) (1-d)^(N-n-1) d^(n-2) int_{d/2}^d k^2; the Beta(n-1, N-n+2)
    width density used here is that printed weight times (n-1)(1-d)^2.
    """
    _check_curve_inputs(kernel, noise_variance, n_total)
    plan = segment_plan(n_total, n)
    if not plan.valid:
        raise CurveError(
            f"no valid section plan for N={n_total}, n={n}; use e1_bound")
    k0, s = kernel.iso(0.0), noise_variance

    def block(nn, count, scale):
        # scale * 2 E[int_{d/2}^d k^2] / (k(0) + s/count), with the width of
        # nn - 1 consecutive spacings distributed Beta(nn - 1, N - nn + 2)
        c = scale * 2.0 / (k0 + s / count)
        return (lambda d, x, w: c * _k2_integral(kernel, d, 0.5, 1.0, x, w),
                n_total - nn + 1, nn - 2)

    # equal boundary counts share one block, which is integrated once
    ends = {c: block(c + 1, c, 1.0) for c in (plan.left_count, plan.right_count)}
    blocks = [block(plan.section_size, plan.section_size, float(plan.inner_sections)),
              ends[plan.left_count], ends[plan.right_count]]
    return _curve_bound(k0 + s, blocks, quad_tol,
                        (kernel.kind, n_total, "e_rho_bound", n))


def _greedy(kernel, noise_variance, n_total, n_start, e1, quad_tol):
    """The walk's (size, bound); size 1 stands for the nearest-sample bound
    e1, which the caller computes once."""
    size, best = 1, e1
    if n_start > 1 and segment_plan(n_total, n_start).valid:
        size = int(n_start)
        best = e_rho_bound(kernel, noise_variance, n_total, size, quad_tol)
    while segment_plan(n_total, size + 1).valid:
        trial = e_rho_bound(kernel, noise_variance, n_total, size + 1, quad_tol)
        if not trial < best:
            break
        size, best = size + 1, trial
    return size, best


def greedy_select_n(kernel: Kernel, noise_variance: float, n_total: int,
                    n_start: int = 1, quad_tol: float = 1e-9) -> int:
    """Walk the section size upward from the warm start while the section
    bound strictly improves; size 1 means the nearest-sample fallback."""
    _check_curve_inputs(kernel, noise_variance, n_total)
    if n_start < 1 or int(n_start) != n_start:
        raise CurveError("n_start must be a positive integer")
    e1 = e1_bound(kernel, noise_variance, n_total, quad_tol)
    return _greedy(kernel, noise_variance, n_total, n_start, e1, quad_tol)[0]


@dataclass(frozen=True)
class CurveRow:
    n: int
    e_num: float
    e_num_se: float
    e1: float
    e2: float
    e_rho: float
    n_selected: int


@dataclass(frozen=True)
class LearningCurveTable:
    rows: tuple[CurveRow, ...]


_CURVE_TAG = 3


def monte_carlo_curve(kernel: Kernel, noise_variance: float, n_list,
                      test_points: int, datasets: int, seed: int,
                      quad_tol: float = 1e-9) -> LearningCurveTable:
    """Reference curve e(N) by Monte Carlo, with the three bounds per row.

    For each N and dataset index one ``Density.sample`` call on a derived
    seed draws the N uniform training inputs followed by the test points,
    so any row can be reproduced in isolation.
    e(N) averages the posterior variance over both draws and adds the noise
    variance; the quoted standard error is across dataset means.  N = 0
    rows carry the prior value exactly.
    """
    if not kernel.isotropic:
        raise CurveError("learning-curve experiments need an isotropic kernel")
    if test_points < 1 or datasets < 2:
        raise CurveError("need test_points >= 1 and datasets >= 2")
    ns = [int(v) for v in n_list]
    if any(v < 0 for v in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise CurveError("N-list must be strictly increasing and non-negative")
    prior = kernel.iso(0.0) + noise_variance
    unit = uniform(0.0, 1.0)
    rows = []
    warm = 1
    for n in ns:
        if n == 0:
            rows.append(CurveRow(0, prior, 0.0, prior, prior, prior, 0))
            continue
        dataset_means = np.empty(datasets)
        try:
            for i in range(datasets):
                pts = unit.sample(n + test_points, [seed, _CURVE_TAG, n, i])
                post = GPPosterior(TrainingSet(pts[:n], noise_variance), kernel)
                v = post.variance_batch(pts[n:])
                dataset_means[i] = v.sum() / v.size  # np.mean's own reduction
        except FactorizationError as exc:
            raise exc.at_dataset(i) from exc
        e_num = float(np.mean(dataset_means)) + noise_variance
        se = float(np.std(dataset_means, ddof=1) / math.sqrt(datasets))
        e1 = e1_bound(kernel, noise_variance, n, quad_tol)
        e2 = e2_bound(kernel, noise_variance, n, quad_tol)
        warm, e_rho = _greedy(kernel, noise_variance, n, warm, e1, quad_tol)
        rows.append(CurveRow(n, e_num, se, e1, e2, e_rho, warm))
    return LearningCurveTable(tuple(rows))
