import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpbounds.bounds import RadiusSchedule
from gpbounds.convergence import (Density, DensityError, ball_probability,
                                  bernoulli_central_moment,
                                  binomial_moment_bound, check_corollary33,
                                  check_theorem32, empirical_ball_growth,
                                  uniform, vanishing)
from gpbounds.experiments import log_grid, preset_config


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


def test_sampling_helpers_reject_non_finite_inputs():
    d = uniform(0.5, 1.5)
    for x in (math.nan, math.inf):
        with pytest.raises(DensityError, match="finite"):
            ball_probability(d, x, 0.1)
        with pytest.raises(DensityError, match="finite"):
            empirical_ball_growth(d, x, RadiusSchedule(1.0, 0.5), [10], 2, seed=1)
    with pytest.raises(DensityError, match="non-negative"):
        ball_probability(d, 1.0, math.nan)
    # an infinite ball still holds the whole support
    for d in (uniform(0.5, 1.5), vanishing(1.0, 0.5)):
        assert ball_probability(d, 1.0, math.inf) == 1.0
        assert ball_probability(d, 7.0, math.inf) == 1.0


def interval_mass(d, x, rho):
    """The mass as F(min(x + rho, hi)) - F(max(x - rho, lo)), clipping the
    ball to the support instead of splitting it into pieces."""
    lo, hi = d.support
    a, b = max(x - rho, lo), min(x + rho, hi)
    if d.kind == "uniform":
        return max(b - a, 0.0) / (hi - lo)
    g = lambda t: (t - d.center) * abs(t - d.center) / 2.0
    return (g(b) - g(a)) / (d.half_width * d.half_width) if b > a else 0.0


def test_preset_expected_counts_keep_the_interval_mass():
    # the expected counts of the two convergence presets' growth tables
    for name in ("convergence-uniform", "convergence-vanishing"):
        cfg = preset_config(name)
        d = Density(cfg.density, (cfg.domain_lo, cfg.domain_hi))
        s = RadiusSchedule(cfg.schedule_c, cfg.schedule_alpha)
        for n in log_grid(cfg.n_min, cfg.n_max, cfg.points_per_decade):
            rho = s.raw(n)
            assert math.isclose(ball_probability(d, cfg.test_point, rho),
                                interval_mass(d, cfg.test_point, rho), rel_tol=1e-14)


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


def test_point_outside_the_support_names_its_first_failing_n():
    # the balls around 1.6 reach into [0.5, 1.5] until rho < 0.1: the mass
    # N^(-1/2) - 0.1 first falls below 0.01 N^(-1/2) at N = 99, past the
    # probe range [1, 50], which does not bound the verdict
    d, s = uniform(0.5, 1.5), RadiusSchedule(1.0, 0.5)
    for n_max in (50, 200):
        v = check_theorem32(d, 1.6, s, 0.01, 0.5, (1, n_max))
        assert not v.satisfied
        assert v.first_failing_n == 99


def test_points_near_the_vanishing_center_fail_with_it():
    # the center of (0.1, 0.7) is 0.39999999999999997, not 0.4; every ball
    # above radius ~1e-16 straddles it, so p ~ rho^2 = N^(-2/3) falls below
    # N^(-1/2) at the same N for all three points
    d, s = Density("vanishing", (0.1, 0.7)), RadiusSchedule(1.0, 1.0 / 3.0)
    for x in (0.4, 0.400001, d.center):
        v = check_theorem32(d, x, s, 1.0, 0.5, (1, 1000))
        assert not v.satisfied
        assert v.first_failing_n == 1_881_677


def test_failure_beyond_1e300_names_no_n():
    # p = 2 N^(-0.500000001) against 0.5 N^(-1/2) fails only at N ~ 4^(1e9)
    v = check_theorem32(uniform(0.5, 1.5), 1.0, RadiusSchedule(1.0, 0.500000001),
                        0.5, 0.5, (1, 10_000))
    assert not v.satisfied
    assert v.first_failing_n is None
    assert "beyond N = 1e300" in v.reason


def first_failure_by_scan(d, x, s, c, epsilon, n_lo, n_hi):
    """The first N in [n_lo, n_hi] where the checker's predicate fails."""
    for n in range(n_lo, n_hi + 1):
        target = c * float(n) ** (epsilon - 1.0)
        if ball_probability(d, x, s.raw(n)) < target * (1.0 - 1e-12):
            return n
    return None


@st.composite
def checker_cases(draw):
    lo, w = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 2.0))
    d = Density(draw(st.sampled_from(["uniform", "vanishing"])), (lo, lo + 2.0 * w))
    near = d.center + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(1, 16))
    # the center, a point 10^-k off it, the edges, anywhere in or around the support
    x = draw(st.sampled_from([d.center, near, *d.support])
             | st.floats(lo - w, lo + 3.0 * w))
    s = RadiusSchedule(draw(st.floats(0.05, 10.0)), draw(st.floats(0.05, 1.0)))
    return (d, x, s, draw(st.floats(1e-3, 10.0)), draw(st.floats(0.01, 0.99)),
            draw(st.integers(1, 20)))


@settings(max_examples=100, deadline=None)
@given(case=checker_cases())
def test_checker_matches_a_brute_force_scan(case):
    d, x, s, c, epsilon, n_lo = case
    v = check_theorem32(d, x, s, c, epsilon, (n_lo, n_lo))
    want = first_failure_by_scan(d, x, s, c, epsilon, n_lo, 5000)
    if want is not None:
        assert v.first_failing_n == want
    else:
        assert v.first_failing_n is None or v.first_failing_n > 5000
    assert not (v.satisfied and v.first_failing_n is not None)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["uniform", "vanishing"]),
       w=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       offset=st.floats(-1e-300, 1e-300),
       coefficient=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       alpha=st.floats(0.01, 1.0), c=st.floats(1e-6, 1e3),
       epsilon=st.floats(0.001, 0.999))
def test_checker_returns_a_verdict_on_extreme_inputs(kind, w, offset, coefficient,
                                                     alpha, c, epsilon):
    # warnings are errors under the test configuration
    d, s = Density(kind, (-w, w)), RadiusSchedule(coefficient, alpha)
    for x in (offset, w, 2.0 * w):
        v = check_theorem32(d, x, s, c, epsilon, (1, 10))
        assert v.first_failing_n is None or (not v.satisfied and v.first_failing_n >= 1)


def test_checker_input_validation():
    d = uniform(0.0, 1.0)
    s = RadiusSchedule(1.0, 0.5)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DensityError, match="finite"):
            check_theorem32(uniform(0.5, 1.5), x, s, 0.5, 0.5, (1, 50))
    for c in (-1.0, math.inf, math.nan):
        with pytest.raises(DensityError):
            check_theorem32(d, 0.5, s, c, 0.5, (1, 10))
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
    ok = check_corollary33(RadiusSchedule(1.0, 0.5))
    assert ok.satisfied and ok.epsilon == pytest.approx(0.5)
    v = check_corollary33(RadiusSchedule(1.0, 1.0))
    assert not v.satisfied and v.first_failing_n is None
    with pytest.raises(DensityError):
        check_corollary33(lambda n: 0.25)


def test_exponent_rule_agrees_with_full_scan_on_uniform_data():
    """Interior point, uniform density: alpha < 1 passes both checkers,
    reusing the witnesses the exponent rule reports."""
    d = uniform(0.5, 1.5)
    for alpha in (0.25, 0.5, 0.9):
        cor = check_corollary33(RadiusSchedule(1.0, alpha))
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


def _compositions(total, parts, minimum=2):
    """The ordered compositions of total into parts of at least minimum."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _composition_moment_bound(n, p, k):
    """The bound with alpha_m summed over the ordered compositions of 2k
    into m parts of at least two: (2k)! prod(2^c_i / c_i!), divided by m!."""
    total = 0.0
    for m in range(1, k + 1):
        alpha_num = 0
        for comp in _compositions(2 * k, m):
            multinomial = math.factorial(2 * k)
            weight = 1
            for part in comp:
                multinomial //= math.factorial(part)
                weight *= 2 ** part
            alpha_num += multinomial * weight
        total += (n * p) ** m * (alpha_num / math.factorial(m))
    return total


def test_binomial_bound_equals_the_composition_sum():
    """alpha_m from the Stirling recurrence is the composition sum exactly,
    so the bound has the same bits for every supported k."""
    rng = np.random.default_rng(35)
    for k in range(1, 9):
        for n, p in [(1, 0.5), (15, 0.0), (7, 1.0), (10**6, 0.3)] + [
                (int(rng.integers(1, 10**5)), float(rng.uniform())) for _ in range(50)]:
            assert binomial_moment_bound(n, p, k) == _composition_moment_bound(n, p, k), (n, p, k)


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
