"""The Gauss rules behind the learning-curve bounds, checked against nested
adaptive quadrature, against the moments of the Beta laws they integrate
over, and against values recorded from the adaptive implementation."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

import gpbounds
from gpbounds.curves import (_jacobi_rule, e1_bound, e2_bound, e_rho_bound,
                             greedy_select_n, segment_plan)
from gpbounds.experiments import log_grid
from gpbounds.kernels import (matern_half, periodic, rational_quadratic,
                              squared_exponential)

NOISE = 0.05
KERNELS = (squared_exponential(lengthscale=0.3), matern_half(lengthscale=0.3),
           rational_quadratic(lengthscale=0.3), periodic(lengthscale=0.3))


# ------------------------------------------------ nested adaptive oracle

def _sq(kernel, lo, hi):
    return quad(lambda t: kernel.iso(t) ** 2, lo, hi, epsabs=1e-14,
                epsrel=1e-13, limit=200)[0]


def _outer(fn, hi, points=None):
    return quad(fn, 0.0, hi, epsabs=1e-13, epsrel=1e-13, limit=200,
                points=points)[0]


def _spacing_mean(n, g):
    """E[g(d)] under the spacing density N (1 - d)^(N - 1); its mass past
    40/N is below e^-40."""
    return _outer(lambda d: n * (1.0 - d) ** (n - 1) * g(d), min(1.0, 40.0 / n))


def _beta_mean(a, b, g):
    mode = (a - 1) / (a + b - 2) if a > 1 else None
    return _outer(lambda d: beta_dist.pdf(d, a, b) * g(d),
                  float(beta_dist.isf(1e-15, a, b)),
                  points=[mode] if mode else None)


def oracle_e1(kernel, n):
    a = kernel.iso(0.0) + NOISE
    out = a - 2.0 / a * _spacing_mean(n, lambda d: _sq(kernel, 0.0, d))
    if n >= 2:
        out -= 2.0 * (n - 1) / a * _spacing_mean(
            n, lambda d: _sq(kernel, 0.0, d / 2.0))
    return out


def oracle_e2(kernel, n):
    a = kernel.iso(0.0) + NOISE

    def pair(d):
        kd = kernel.iso(d)
        inner = quad(lambda t: a * kernel.iso(t) ** 2
                     - kd * kernel.iso(t) * kernel.iso(d - t), 0.0, d,
                     epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        return inner / (a * a - kd * kd)

    out = a - 2.0 / a * _spacing_mean(n, lambda d: _sq(kernel, 0.0, d))
    if n >= 2:
        out -= 2.0 * (n - 1) * _spacing_mean(n, pair)
    return out


def oracle_e_rho(kernel, n_total, size):
    plan = segment_plan(n_total, size)
    k0 = kernel.iso(0.0)
    out = k0 + NOISE
    for nn, count, scale in ((size, size, plan.inner_sections),
                             (plan.left_count + 1, plan.left_count, 1),
                             (plan.right_count + 1, plan.right_count, 1)):
        mean = _beta_mean(nn - 1, n_total - nn + 2,
                          lambda d: _sq(kernel, d / 2.0, d))
        out -= scale * 2.0 * mean / (k0 + NOISE / count)
    return out


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("n", (1, 2, 7, 20, 300, 2000))
def test_rules_match_nested_adaptive_quadrature(kernel, n):
    assert abs(e1_bound(kernel, NOISE, n) - oracle_e1(kernel, n)) <= 1e-10
    assert abs(e2_bound(kernel, NOISE, n) - oracle_e2(kernel, n)) <= 1e-10
    for size in (2, 4, 7, 12):
        if segment_plan(n, size).valid:
            assert (abs(e_rho_bound(kernel, NOISE, n, size)
                        - oracle_e_rho(kernel, n, size)) <= 1e-10)


# ---------------------------------------------------------- Jacobi rules

def test_jacobi_rule_at_ten_thousand_samples():
    """alpha = 9999 is the spacing density at N = 10,000; a weight built
    from mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1) would overflow here.
    The weights of the outermost nodes fall below 1e-60 and may round
    to zero."""
    for m in (24, 96):
        d, w = _jacobi_rule(m, 9999, 0)
        assert np.all(np.isfinite(d)) and np.all(np.isfinite(w))
        assert np.all((d > 0.0) & (d < 1.0)) and np.all(w >= 0.0)
        assert math.isclose(w.sum(), 1.0, rel_tol=1e-14)
        assert math.isclose(np.sum(w * d), 1.0 / 10001.0, rel_tol=1e-13)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 24), alpha=st.integers(0, 5000),
       beta=st.integers(0, 60))
def test_jacobi_rule_reproduces_beta_moments(m, alpha, beta):
    """An m-point Gauss rule integrates polynomials of degree 2m - 1
    exactly: E[d^j] of Beta(beta + 1, alpha + 1) for every j < 2m."""
    d, w = _jacobi_rule(m, alpha, beta)
    moment = 1.0
    for j in range(2 * m):
        assert math.isclose(float(np.sum(w * d ** j)), moment, rel_tol=1e-12)
        moment *= (beta + 1 + j) / (alpha + beta + 2 + j)


# ------------------------------------------------------ greedy selection

# selected sizes along log_grid(1, 2000, 25), warm-started from the previous
# N, recorded with the nested adaptive quadrature the rules replace
GREEDY_SE = [1] * 23 + [2] * 7 + [3] * 5 + [4] * 5 + [5] * 3 + [6] * 2 + [
    7] * 3 + [8] * 2 + [9] * 2 + [10, 11, 11, 12, 13, 14, 15, 16, 16, 18, 18,
                                   20, 22, 23, 24, 24]
GREEDY_PERIODIC = [1] * 43 + [2] * 7 + [3] * 6 + [4] * 4 + [5] * 3 + [6] * 2 + [7] * 3


@pytest.mark.parametrize("kernel, frozen", ((KERNELS[0], GREEDY_SE),
                                            (KERNELS[3], GREEDY_PERIODIC)),
                         ids=("squared-exponential", "periodic"))
def test_greedy_sizes_along_the_preset_grid(kernel, frozen):
    warm, got = 1, []
    for n in log_grid(1, 2000, 25):
        warm = greedy_select_n(kernel, NOISE, n, n_start=warm)
        got.append(warm)
    assert got == frozen


# ---------------------------------------------------------------- import

def test_import_leaves_adaptive_quadrature_unloaded():
    """The package needs neither scipy.integrate nor scipy.stats, which
    would add about half a second to every start, nor scipy.spatial and
    scipy.sparse, since points are scalars."""
    src = str(Path(gpbounds.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gpbounds.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.stats', "
            "'scipy.spatial', 'scipy.sparse') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
