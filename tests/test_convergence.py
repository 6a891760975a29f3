import math

import numpy as np
import pytest

from gpbounds.bounds import RadiusSchedule
from gpbounds.convergence import (Density, DensityError, ball_probability,
                                  bernoulli_central_moment,
                                  binomial_moment_bound, check_corollary33,
                                  check_theorem32, empirical_ball_growth,
                                  uniform, vanishing)


# ------------------------------------------------------------- densities

def test_uniform_pdf_and_support():
    d = uniform(0.5, 1.5)
    assert d.pdf(1.0) == 1.0
    assert d.pdf(0.4) == 0.0
    assert d.pdf(1.6) == 0.0


def test_vanishing_matches_the_linear_ramp():
    # |t - 1| / w^2 with w = 0.5 is the 4|1 - t| profile on [0.5, 1.5]
    d = vanishing(1.0, 0.5)
    assert d.pdf(1.0) == 0.0
    assert d.pdf(1.25) == 1.0
    assert d.pdf(0.5) == 2.0
    assert d.center == 1.0 and d.half_width == 0.5
    with pytest.raises(DensityError):
        vanishing(1.0, 0.0)


def test_densities_integrate_to_one():
    grid = np.linspace(0.5, 1.5, 20001)
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5)):
        mass = np.trapezoid(d.pdf(grid), grid)
        assert abs(mass - 1.0) < 1e-7


def test_density_is_kind_and_support():
    # the kinds are spelled as in a config; the vanishing center is derived
    assert Density("vanishing", (0.5, 1.5)) == vanishing(1.0, 0.5)
    assert Density("uniform", (0.5, 1.5)) == uniform(0.5, 1.5)
    assert Density("vanishing", (-1.0, 3.0)).center == 1.0
    for kind in ("vanishing-at-point", "uniform-interval", "user-tabulated"):
        with pytest.raises(DensityError, match="unknown density kind"):
            Density(kind, (0.5, 1.5))
    with pytest.raises(DensityError, match="support"):
        Density("uniform", (1.5, 0.5))


def test_sampling_stays_in_support_and_respects_shape():
    rng = np.random.default_rng(41)
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5)):
        pts = d.sample(4000, rng)
        lo, hi = d.support
        assert pts.min() >= lo and pts.max() <= hi
    # vanishing draws avoid the center: mean distance from it is 2w/3
    pts = vanishing(1.0, 0.5).sample(40000, np.random.default_rng(42))
    assert abs(np.mean(np.abs(pts - 1.0)) - 1.0 / 3.0) < 5e-3


# ------------------------------------------------------- ball probabilities

def test_ball_probability_frozen_values():
    assert ball_probability(uniform(0.5, 1.5), 1.0, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert ball_probability(vanishing(1.0, 0.5), 1.0, 0.1) == pytest.approx(0.04, abs=1e-15)
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5)):
        assert ball_probability(d, 1.0, 1.0) == 1.0


def test_ball_probability_edge_clipping():
    assert ball_probability(uniform(0.5, 1.5), 0.6, 0.2) == pytest.approx(0.3, abs=1e-15)


def test_ball_probability_monotone_and_continuous():
    rhos = np.linspace(0.0, 1.2, 600)
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5)):
        vals = np.array([ball_probability(d, 0.8, float(r)) for r in rhos])
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.max(np.abs(np.diff(vals))) < 0.02


def test_ball_probability_matches_integrated_pdf():
    """The closed-form masses against a trapezoid rule on the pdf over
    [x - rho, x + rho] intersected with the support."""
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5),
              Density("vanishing", (-1.0, 3.0))):
        lo, hi = d.support
        w = d.half_width
        # at the center, off center (the wider balls straddle it), near the
        # left edge, and outside the support on the right
        for x in (d.center, d.center + 0.2 * w, lo + 0.1 * w, hi + 0.2 * w):
            for rho in (0.05 * w, 0.3 * w, 0.9 * w, 2.5 * w):
                a, b = max(x - rho, lo), min(x + rho, hi)
                if a < b:
                    t = np.linspace(a, b, 100_001)
                    want = float(np.trapezoid(d.pdf(t), t))
                else:
                    want = 0.0
                assert math.isclose(ball_probability(d, x, rho), want, abs_tol=1e-6), \
                    (d, x, rho)


def test_ball_probability_rejects_negative_radius():
    with pytest.raises(DensityError):
        ball_probability(uniform(0.0, 1.0), 0.5, -0.1)


# -------------------------------------------------------- growth checker

def test_uniform_schedule_accepted():
    v = check_theorem32(uniform(0.5, 1.5), 1.0, RadiusSchedule(1.0, 0.5),
                        0.5, 0.5, (1, 5000))
    assert v.satisfied
    assert v.c == 0.5 and v.epsilon == 0.5
    assert v.first_failing_n is None


def test_vanishing_schedule_rejected_with_first_failure():
    v = check_theorem32(vanishing(1.0, 0.5), 1.0, RadiusSchedule(1.0, 0.5),
                        1.0, 0.5, (1, 5000))
    assert not v.satisfied
    assert v.first_failing_n == 17


def test_rejection_beyond_the_probe_range_is_predicted():
    # 4/N < N^(-1/2) first happens at N=17, outside the probed [1, 10]
    v = check_theorem32(vanishing(1.0, 0.5), 1.0, RadiusSchedule(1.0, 0.5),
                        1.0, 0.5, (1, 10))
    assert not v.satisfied
    assert v.first_failing_n == 17


def test_point_outside_the_support_names_no_failing_n():
    # the balls around 1.6 reach into [0.5, 1.5] until rho < 0.1, so the
    # condition holds well past the probe range [1, 50] and first fails at
    # N = 99; the verdict cannot know that N, so it reports none
    d, s = uniform(0.5, 1.5), RadiusSchedule(1.0, 0.5)
    v = check_theorem32(d, 1.6, s, 0.01, 0.5, (1, 50))
    assert not v.satisfied
    assert v.first_failing_n is None
    assert "outside the support" in v.reason
    assert check_theorem32(d, 1.6, s, 0.01, 0.5, (1, 200)).first_failing_n == 99


def test_checker_input_validation():
    d = uniform(0.0, 1.0)
    s = RadiusSchedule(1.0, 0.5)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DensityError, match="finite"):
            check_theorem32(uniform(0.5, 1.5), x, s, 0.5, 0.5, (1, 50))
    with pytest.raises(DensityError):
        check_theorem32(d, 0.5, s, -1.0, 0.5, (1, 10))
    with pytest.raises(DensityError):
        check_theorem32(d, 0.5, s, 1.0, 1.5, (1, 10))
    with pytest.raises(DensityError):
        check_theorem32(d, 0.5, s, 1.0, 0.5, (0, 10))
    with pytest.raises(DensityError):
        check_theorem32(d, 0.5, "soon", 1.0, 0.5, (1, 10))
    # only a RadiusSchedule is accepted: it decreases strictly to zero
    with pytest.raises(DensityError, match="RadiusSchedule"):
        check_theorem32(d, 0.5, lambda n: 0.25, 1.0, 0.5, (1, 10))
    with pytest.raises(DensityError, match="RadiusSchedule"):
        empirical_ball_growth(d, 0.5, lambda n: 0.25, [10], 5, seed=1)


def test_dimension_exponent_rule():
    ok = check_corollary33(1, RadiusSchedule(1.0, 0.5))
    assert ok.satisfied and ok.epsilon == pytest.approx(0.5)
    assert not check_corollary33(1, RadiusSchedule(1.0, 1.0)).satisfied
    v = check_corollary33(3, RadiusSchedule(1.0, 1.0 / 3.0))
    assert not v.satisfied and v.first_failing_n is None
    with pytest.raises(DensityError):
        check_corollary33(0, RadiusSchedule(1.0, 0.5))


def test_exponent_rule_agrees_with_full_scan_on_uniform_data():
    """Interior point, uniform density: alpha < 1 passes both checkers,
    reusing the witnesses the exponent rule reports."""
    d = uniform(0.5, 1.5)
    for alpha in (0.25, 0.5, 0.9):
        cor = check_corollary33(1, RadiusSchedule(1.0, alpha))
        assert cor.satisfied
        thm = check_theorem32(d, 1.0, RadiusSchedule(1.0, alpha),
                              min(cor.c, 1.0), cor.epsilon, (1, 3000))
        assert thm.satisfied


# ----------------------------------------------------------- moment helpers

def two_outcome_moment(p, k):
    return (1.0 - p) * (-p) ** k + p * (1.0 - p) ** k


def test_bernoulli_frozen_values():
    for p in (0.0, 0.17, 0.5, 1.0):
        assert bernoulli_central_moment(p, 1) == 0.0
    assert bernoulli_central_moment(0.3, 2) == pytest.approx(0.21, abs=1e-15)
    assert bernoulli_central_moment(0.5, 4) == pytest.approx(0.0625, abs=1e-15)


def test_bernoulli_matches_enumeration():
    for p in np.linspace(0.0, 1.0, 101):
        for k in range(1, 11):
            assert abs(bernoulli_central_moment(float(p), k)
                       - two_outcome_moment(float(p), k)) <= 1e-12


def test_bernoulli_validation():
    with pytest.raises(DensityError):
        bernoulli_central_moment(1.2, 2)
    with pytest.raises(DensityError):
        bernoulli_central_moment(0.5, 0)


def exact_binomial_central_moment(n, p, order):
    mean = n * p
    return sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
               * (j - mean) ** order for j in range(n + 1))


def test_binomial_bound_alpha1_is_4():
    # the k=1 bound is 4 N p, against exact variance N p (1 - p)
    for n in (1, 7, 30):
        for p in (0.1, 0.5, 0.9):
            assert binomial_moment_bound(n, p, 1) == pytest.approx(4.0 * n * p)


def test_binomial_bound_degenerate_p():
    assert binomial_moment_bound(15, 0.0, 3) == 0.0


def test_binomial_bound_dominates_exact_moments():
    for n in range(1, 31):
        for p in np.arange(0.05, 0.96, 0.05):
            for k in (1, 2, 3):
                bound = binomial_moment_bound(n, float(p), k)
                exact = exact_binomial_central_moment(n, float(p), 2 * k)
                assert bound >= exact - 1e-12


def test_binomial_bound_guards():
    with pytest.raises(DensityError):
        binomial_moment_bound(0, 0.5, 1)
    with pytest.raises(DensityError):
        binomial_moment_bound(10, 0.5, 9)


# ------------------------------------------------------------- ball growth

def test_growth_mean_tracks_binomial_expectation():
    # rho = 500 / 1000 = 0.5 on U(0, 2): p = 0.5, so counts ~ Binomial(1000, 0.5)
    rows = empirical_ball_growth(uniform(0.0, 2.0), 1.0, RadiusSchedule(500.0, 1.0),
                                 [1000], trials=50, seed=5)
    row = rows[0]
    assert row.expected_count == pytest.approx(500.0)
    assert abs(row.mean_count - 500.0) <= 3.0 * math.sqrt(1000 * 0.25)
    assert row.min_count <= row.mean_count


def test_growth_empty_row():
    rows = empirical_ball_growth(uniform(0.0, 1.0), 0.5,
                                 RadiusSchedule(1.0, 0.5), [0, 10], 5, seed=1)
    assert rows[0].n == 0 and rows[0].mean_count == 0.0
    assert rows[0].expected_count == 0.0


def test_growth_trend_under_an_admissible_schedule():
    rows = empirical_ball_growth(uniform(0.5, 1.5), 1.0,
                                 RadiusSchedule(1.0, 1.0 / 3.0),
                                 [10, 100, 1000], trials=30, seed=9)
    means = [r.mean_count for r in rows]
    assert means[0] < means[1] < means[2]
    expected = [r.expected_count for r in rows]
    assert expected[0] < expected[1] < expected[2]


def test_growth_is_deterministic_per_seed():
    args = (uniform(0.5, 1.5), 1.0, RadiusSchedule(1.0, 0.5), [5, 50], 10)
    a = empirical_ball_growth(*args, seed=3)
    b = empirical_ball_growth(*args, seed=3)
    c = empirical_ball_growth(*args, seed=4)
    assert a == b
    assert a != c
