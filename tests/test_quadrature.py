"""The Gauss rules behind the learning-curve bounds, checked against nested
adaptive quadrature, against the moments of the Beta laws they integrate
over, and against values recorded from the adaptive implementation; and the
squared-exponential closed forms that take the inner rule's place."""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

import gpbounds
from gpbounds import curves
from gpbounds.curves import (_jacobi_rule, _se_k2, _se_pair, _se_pair_term, e1_bound,
                             e2_bound, e_rho_bound, greedy_select_n, segment_plan)
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


def _sq_running_min(kernel, lo, hi):
    """The integral of the squared running minimum of k over [lo, hi]:
    k(min(t, p/2))^2 for the periodic kind, with its kink at p/2 passed to
    quad, and k^2 for the decreasing kinds."""
    if kernel.kind != "periodic":
        return _sq(kernel, lo, hi)
    half = kernel.period / 2.0
    return quad(lambda t: kernel.iso(min(t, half)) ** 2, lo, hi, epsabs=1e-14,
                epsrel=1e-13, limit=200,
                points=[half] if lo < half < hi else None)[0]


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
                          lambda d: _sq_running_min(kernel, d / 2.0, d))
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


@pytest.mark.parametrize("period, lengthscale", [(0.2, 4.0), (0.3, 3.0), (0.25, 0.5), (0.7, 0.3)])
def test_periodic_e_rho_matches_the_oracle_past_half_a_period(period, lengthscale):
    """With p/2 inside the unit interval the running minimum's kinks fall
    inside the width's range; e_rho still agrees with nested adaptive
    quadrature of k(min(t, p/2))^2."""
    kernel = periodic(lengthscale=lengthscale, period=period)
    for n, size in ((7, 2), (10, 2), (10, 3), (30, 4)):
        assert abs(e_rho_bound(kernel, NOISE, n, size)
                   - oracle_e_rho(kernel, n, size)) <= 1e-10


# --------------------------------------- squared-exponential closed forms

@pytest.mark.parametrize("lengthscale", (0.05, 0.3, 1.0, 3.0))
def test_se_closed_forms_match_the_gauss_legendre_rule(lengthscale):
    """F(d) = int_0^d k^2 and P(d) = int_0^d k(t) k(d - t) dt against a
    256-node Gauss-Legendre rule on [0, d], to 1e-14 relative.  P carries
    e^(-h^2), h = d / 2l, whose relative error from the rounding of h is
    about h^2 eps, so P may also differ by 4 h^2 eps (2.0e-14 where
    l = 0.05 and d = 0.905, at P ~ e^(-82))."""
    kernel = squared_exponential(lengthscale=lengthscale, signal_variance=1.7)
    d = np.concatenate([np.linspace(0.0, 1.0, 201)[1:], [1e-9, 1e-5, 1e-3, 0.013]])
    x, w = _jacobi_rule(256, 0, 0)
    t = np.multiply.outer(d, x)
    f_rule = d * (kernel.iso(t) ** 2 @ w)
    p_rule = d * (kernel.iso(t) * kernel.iso(d[:, None] - t) @ w)
    eps = np.finfo(float).eps
    assert np.all(np.abs(_se_k2(kernel, d) - f_rule) <= 1e-14 * f_rule)
    h = d / (2.0 * lengthscale)
    assert np.all(np.abs(_se_pair(kernel, d) - p_rule)
                  <= (1e-14 + 4.0 * h * h * eps) * p_rule)


@pytest.mark.parametrize("lengthscale", (0.05, 0.3, 3.0, 30.0))
def test_se_pair_term_keeps_its_digits_at_small_noise(lengthscale):
    """e2's pair term [a F(d) - k(d) P(d)] / (a^2 - k(d)^2) lies within
    1e-13 relative of its value at 60 digits, also where s is 1e-7 of
    k(0) and d / l is 1e-6: there a F and k(d) P, and likewise a^2 and
    k(d)^2, agree in all but their last digits."""
    d = np.geomspace(1e-6, 1.0, 25)
    for s2, noise in itertools.product((1.0, 50.0), (5e-6, 0.05, 5.0)):
        kernel = squared_exponential(lengthscale=lengthscale, signal_variance=s2)
        got = _se_pair_term(kernel, noise, d, _se_k2(kernel, d))
        with mpmath.workdps(60):
            l, s2m, a = mpmath.mpf(lengthscale), mpmath.mpf(s2), s2 + mpmath.mpf(noise)
            for value, dm in zip(got, map(mpmath.mpf, d)):
                f = s2m ** 2 * l * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(dm / l)
                p = (s2m ** 2 * l * mpmath.sqrt(mpmath.pi) * mpmath.exp(-(dm / (2 * l)) ** 2)
                     * mpmath.erf(dm / (2 * l)))
                kd = s2m * mpmath.exp(-(dm / l) ** 2 / 2)
                want = (a * f - kd * p) / (a * a - kd * kd)
                assert abs(value - want) <= 1e-13 * want


def test_se_bounds_match_the_rule_at_the_curve_se_rows(monkeypatch):
    """e1, e2 and e_rho of the squared-exponential kind from the closed
    forms lie within 1e-12 relative of the Gauss-Legendre inner rule's
    values, which the kind takes once its closed forms are switched off,
    at the rows N = 1, 10, 100 and 300 and every valid section size up to
    7."""
    kernel = squared_exponential(lengthscale=0.3)

    def bounds():
        out = [e1_bound(kernel, NOISE, n) for n in (1, 10, 100, 300)]
        out += [e2_bound(kernel, NOISE, n) for n in (1, 10, 100, 300)]
        return out + [e_rho_bound(kernel, NOISE, n, size)
                      for n in (10, 100, 300) for size in range(2, 8)
                      if segment_plan(n, size).valid]

    closed = bounds()
    monkeypatch.setattr(curves, "SQUARED_EXPONENTIAL", None)
    rule = bounds()
    assert len(closed) == 24 and closed != rule
    for got, want in zip(closed, rule):
        assert abs(got - want) <= 1e-12 * want


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
    scipy.sparse, since points are scalars, nor scipy.special, whose import
    costs about 40 ms and whose erf math.erf replaces."""
    src = str(Path(gpbounds.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gpbounds.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.stats', "
            "'scipy.spatial', 'scipy.sparse', 'scipy.special') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
