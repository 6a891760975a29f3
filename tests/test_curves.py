import math
import warnings

import pytest
from scipy.integrate import quad

from gpbounds.curves import (CurveError, QuadratureError, e1_bound, e2_bound,
                             e_rho_bound, greedy_select_n, monte_carlo_curve,
                             segment_plan)
from gpbounds.gp import GPPosterior, TrainingSet
from gpbounds.kernels import polynomial, squared_exponential

SE = squared_exponential(lengthscale=0.3)
NOISE = 0.05


# -------------------------------------------------------------- e1 and e2

def spacing_density(n, d):
    """Density N (1 - d)^(N - 1) of a single uniform spacing on [0, 1]."""
    return n * (1.0 - d) ** (n - 1)


def sq_int(kernel, lo, hi):
    v, _ = quad(lambda t: kernel.iso(t) ** 2, lo, hi, epsabs=1e-13,
                epsrel=1e-12, limit=200)
    return v


def test_e1_single_sample_has_no_interior_term():
    a = SE.iso(0.0) + NOISE
    expected, _ = quad(
        lambda d: spacing_density(1, d) * 2.0 * sq_int(SE, 0.0, d) / a,
        0.0, 1.0, epsabs=1e-12, limit=200)
    assert math.isclose(e1_bound(SE, NOISE, 1), a - expected, abs_tol=1e-9)


def test_e1_matches_nested_quadrature_oracle():
    n = 7
    a = SE.iso(0.0) + NOISE
    term1, _ = quad(lambda d: spacing_density(n, d) * sq_int(SE, 0.0, d),
                    0.0, 1.0, epsabs=1e-12, limit=200)
    term2, _ = quad(lambda d: spacing_density(n, d) * sq_int(SE, 0.0, d / 2),
                    0.0, 1.0, epsabs=1e-12, limit=200)
    oracle = a - 2.0 * term1 / a - 2.0 * (n - 1) * term2 / a
    assert math.isclose(e1_bound(SE, NOISE, n), oracle, abs_tol=1e-8)


def test_e2_inner_term_equals_the_exact_two_sample_reduction():
    """The closed-form inner integrand must integrate to the same gap-average
    variance reduction as the explicit two-point posterior."""
    k0 = SE.iso(0.0)
    a = k0 + NOISE
    for delta in (0.12, 0.3, 0.7):
        kd = SE.iso(delta)
        closed, _ = quad(
            lambda t: a * SE.iso(t) ** 2 - kd * SE.iso(t) * SE.iso(delta - t),
            0.0, delta, epsabs=1e-12, limit=200)
        closed = 2.0 * closed / (a * a - kd * kd)

        def reduction(t):
            train = TrainingSet([1.0 - t, 1.0 - t + delta], NOISE)
            return k0 - GPPosterior(train, SE).variance(1.0)

        direct, _ = quad(reduction, 0.0, delta, epsabs=1e-11, limit=200)
        assert math.isclose(closed, direct, rel_tol=1e-8, abs_tol=1e-10)


def test_e2_never_above_e1():
    for n in (2, 5, 10, 100, 1000):
        assert e2_bound(SE, NOISE, n) <= e1_bound(SE, NOISE, n) + 1e-9


def test_curve_bounds_reject_bad_inputs():
    with pytest.raises(CurveError):
        e1_bound(polynomial(), NOISE, 5)
    with pytest.raises(CurveError):
        e1_bound(SE, 0.0, 5)
    with pytest.raises(CurveError):
        e2_bound(SE, NOISE, 0)


def test_asymptote_values_forty_test_points_early():
    # the limits are s(2+s)/(1+s) and s(3+s)/(2+s); already close by N=1000
    lim1 = NOISE * (2.0 + NOISE) / (1.0 + NOISE)
    lim2 = NOISE * (3.0 + NOISE) / (2.0 + NOISE)
    assert abs(e1_bound(SE, NOISE, 1000) - lim1) / lim1 < 0.01
    assert abs(e2_bound(SE, NOISE, 1000) - lim2) / lim2 < 0.01


# ------------------------------------------------------------ segment plans

def test_segment_plan_worked_example():
    plan = segment_plan(8, 3)
    assert plan.inner_sections == 2
    assert (plan.left_count, plan.right_count) == (2, 3)
    assert plan.valid


def test_segment_plan_degenerate_cases():
    assert not segment_plan(3, 3).valid
    assert not segment_plan(2 * 4 - 1, 4).valid
    assert segment_plan(2 * 4, 4).valid
    with pytest.raises(CurveError):
        segment_plan(10, 1)


def test_segment_plan_sample_accounting():
    for n_total in range(4, 61):
        for n in range(2, 13):
            plan = segment_plan(n_total, n)
            if plan.valid:
                covered = (plan.left_count + plan.right_count
                           + plan.inner_sections * (n - 1) - 1)
                assert covered == n_total


# ------------------------------------------------------------ section bound

def test_e_rho_invalid_plan_instructs_fallback():
    with pytest.raises(CurveError, match="e1_bound"):
        e_rho_bound(SE, NOISE, 5, 4)


def test_e_rho_stays_above_noise_floor():
    for n_total, n in ((10, 2), (50, 3), (200, 5), (1000, 8)):
        assert e_rho_bound(SE, NOISE, n_total, n) >= NOISE - 1e-9


def test_e_rho_beats_both_pointwise_bounds_at_scale():
    n_total = 10 ** 4
    size = greedy_select_n(SE, NOISE, n_total, n_start=24)
    val = e_rho_bound(SE, NOISE, n_total, size)
    assert val < e1_bound(SE, NOISE, n_total)
    assert val < e2_bound(SE, NOISE, n_total)


def test_e_rho_gap_to_noise_shrinks_along_the_sweep():
    gaps = []
    warm = 1
    for n_total in (100, 400, 1600, 6400):
        warm = greedy_select_n(SE, NOISE, n_total, n_start=warm)
        if warm == 1:
            val = e1_bound(SE, NOISE, n_total)
        else:
            val = e_rho_bound(SE, NOISE, n_total, warm)
        gaps.append(val - NOISE)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


# ----------------------------------------------------------------- greedy

def test_greedy_starts_at_one():
    assert greedy_select_n(SE, NOISE, 1) == 1


def test_greedy_keeps_one_when_sections_do_not_help():
    # at N=5 the n=2 plan is worse than the nearest-sample bound
    assert greedy_select_n(SE, NOISE, 5) == 1
    assert e1_bound(SE, NOISE, 5) < e_rho_bound(SE, NOISE, 5, 2)


def test_greedy_result_is_a_local_minimum():
    for n_total in (200, 1000):
        size = greedy_select_n(SE, NOISE, n_total)
        best = e_rho_bound(SE, NOISE, n_total, size)
        up = segment_plan(n_total, size + 1)
        if up.valid:
            assert best <= e_rho_bound(SE, NOISE, n_total, size + 1)


def test_greedy_never_decreases_along_a_sweep():
    warm = 1
    chosen = []
    for n_total in (1, 10, 50, 200, 1000):
        warm = greedy_select_n(SE, NOISE, n_total, n_start=warm)
        chosen.append(warm)
    assert chosen == sorted(chosen)
    assert chosen[0] == 1 and chosen[-1] > 1


def test_greedy_validation():
    with pytest.raises(CurveError):
        greedy_select_n(SE, NOISE, 10, n_start=0)


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_prior_row():
    table = monte_carlo_curve(SE, NOISE, [0, 5], 10, 4, seed=2)
    row = table.rows[0]
    prior = SE.iso(0.0) + NOISE
    assert row.e_num == prior and row.e_num_se == 0.0
    assert row.e1 == prior and row.e_rho == prior
    assert row.n_selected == 0


def test_monte_carlo_rows_respect_noise_floor():
    table = monte_carlo_curve(SE, NOISE, [1, 10, 100], 30, 6, seed=3)
    for row in table.rows:
        assert row.e_num >= NOISE
        assert row.e_num_se >= 0.0


def test_monte_carlo_sandwich_at_n_100():
    table = monte_carlo_curve(SE, NOISE, [100], 50, 10, seed=4)
    row = table.rows[0]
    assert NOISE < row.e_num < row.e1
    assert row.e_num <= row.e_rho + 3.0 * row.e_num_se


def test_monte_carlo_matches_itself_across_runs():
    a = monte_carlo_curve(SE, NOISE, [3, 20], 15, 5, seed=8)
    b = monte_carlo_curve(SE, NOISE, [3, 20], 15, 5, seed=8)
    c = monte_carlo_curve(SE, NOISE, [3, 20], 15, 5, seed=9)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_monte_carlo_validation():
    with pytest.raises(CurveError):
        monte_carlo_curve(polynomial(), NOISE, [5], 10, 4, seed=1)
    with pytest.raises(CurveError):
        monte_carlo_curve(SE, NOISE, [5, 5], 10, 4, seed=1)
    with pytest.raises(CurveError):
        monte_carlo_curve(SE, NOISE, [5], 10, 1, seed=1)


# --------------------------------------------------------------- quadrature

def test_quadrature_honesty():
    """Halving the tolerance moves each bound by less than the old one."""
    for n_total in (10, 500):
        for tol in (1e-7, 1e-9):
            assert abs(e1_bound(SE, NOISE, n_total, tol)
                       - e1_bound(SE, NOISE, n_total, tol / 2)) < tol
            assert abs(e2_bound(SE, NOISE, n_total, tol)
                       - e2_bound(SE, NOISE, n_total, tol / 2)) < tol
    size = greedy_select_n(SE, NOISE, 500)
    assert abs(e_rho_bound(SE, NOISE, 500, size, 1e-7)
               - e_rho_bound(SE, NOISE, 500, size, 5e-8)) < 1e-7


def test_unreachable_tolerance_is_reported():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError) as info:
            e1_bound(SE, NOISE, 100, quad_tol=1e-16)
    assert info.value.requested == 1e-16
    assert info.value.achieved > 1e-16
