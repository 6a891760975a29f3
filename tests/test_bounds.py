import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpbounds.bounds import (BoundError, RadiusSchedule, ball_count,
                             bound_report, isotropic_bound, lipschitz_bound,
                             one_point_bound, radius_at, two_point_bound)
from gpbounds.gp import GPPosterior, TrainingSet
from gpbounds.kernels import (ALL_KINDS, KERNEL_PARAMS, lipschitz_constant,
                              make_kernel, matern_half, neural_network,
                              periodic, polynomial, rational_quadratic,
                              squared_exponential)

DOMAIN = (0.5, 1.5)
ISO_DECREASING = (squared_exponential, matern_half, rational_quadratic)


# ------------------------------------------------------------- ball counting

def test_ball_count_zero_radius():
    train = TrainingSet([0.9, 1.2], 0.1)
    assert ball_count(train, 1.0, 0.0) == 0


def test_ball_count_closed_boundary():
    train = TrainingSet([0.9, 1.0, 1.2], 0.1)
    assert ball_count(train, 1.0, 0.1) == 2


def test_ball_count_covers_everything():
    train = TrainingSet([0.5, 0.7, 1.5], 0.1)
    assert ball_count(train, 1.0, 1.0) == 3
    assert ball_count(TrainingSet(np.empty(0), 0.1), 1.0, 5.0) == 0


def test_ball_count_rejects_negative_radius():
    with pytest.raises(BoundError):
        ball_count(TrainingSet([1.0], 0.1), 1.0, -0.01)


# ------------------------------------------------------------- general bound

def test_lipschitz_bound_empty_ball_is_prior():
    k = squared_exponential()
    assert lipschitz_bound(k, 0.6, 1.0, 0, 0.5, 0.1) == 1.0
    knn = neural_network()
    prior = knn.prior_variance(1.0)
    L = lipschitz_constant(knn, DOMAIN).value
    assert math.isclose(lipschitz_bound(knn, L, 1.0, 0, 0.0, 0.1), prior,
                        rel_tol=1e-14)


def test_lipschitz_bound_zero_radius_value():
    v = lipschitz_bound(squared_exponential(), 0.6, 1.0, 10, 0.0, 0.1)
    assert math.isclose(v, 0.1 / 10.1, rel_tol=1e-14)


def test_lipschitz_bound_precondition_is_an_error():
    k = squared_exponential()
    with pytest.raises(BoundError):
        lipschitz_bound(k, 2.0, 1.0, 3, 0.6, 0.1)  # rho * L = 1.2 > 1


def test_lipschitz_bound_monotone_in_ballcount():
    k = squared_exponential()
    vals = [lipschitz_bound(k, 0.6, 1.0, b, 0.2, 0.1) for b in range(0, 40)]
    assert all(y <= x + 1e-15 for x, y in zip(vals, vals[1:]))


# ----------------------------------------------------------- isotropic bound

def test_isotropic_bound_frozen_value():
    v = isotropic_bound(squared_exponential(), 5, 0.1, 0.1)
    assert math.isclose(v, 1.0 - math.exp(-0.01) / 1.02, rel_tol=1e-12)


def test_isotropic_bound_single_sample_equals_one_point():
    for factory in ISO_DECREASING:
        k = factory()
        for tau in (0.0, 0.2, 1.3):
            assert isotropic_bound(k, 1, tau, 0.1) == one_point_bound(k, tau, 0.1)


def test_isotropic_bound_perfect_information_limit():
    v = isotropic_bound(squared_exponential(), 10 ** 12, 0.0, 0.1)
    assert abs(v) < 1e-10


def test_isotropic_bound_rejections():
    with pytest.raises(BoundError):
        isotropic_bound(squared_exponential(), 0, 0.1, 0.1)
    with pytest.raises(BoundError):
        isotropic_bound(periodic(), 3, 0.1, 0.1)
    with pytest.raises(BoundError):
        isotropic_bound(polynomial(), 3, 0.1, 0.1)


def test_isotropic_bound_monotone_in_ballcount():
    k = matern_half()
    vals = [isotropic_bound(k, b, 0.15, 0.1) for b in range(1, 50)]
    assert all(y <= x + 1e-15 for x, y in zip(vals, vals[1:]))


# ------------------------------------------------------ one- and two-point

def test_one_point_bound_at_zero_distance():
    assert math.isclose(one_point_bound(squared_exponential(), 0.0, 0.1),
                        1.0 / 11.0, rel_tol=1e-14)


def test_one_point_bound_far_sample_recovers_prior():
    assert math.isclose(one_point_bound(squared_exponential(), 50.0, 0.1),
                        1.0, rel_tol=1e-12)


def test_one_point_bound_is_the_exact_single_sample_variance():
    rng = np.random.default_rng(31)
    for factory in (squared_exponential, matern_half, rational_quadratic,
                    periodic):
        k = factory()
        for _ in range(20):
            tau = float(rng.uniform(0.0, 2.0))
            noise = float(rng.uniform(0.01, 0.5))
            exact = GPPosterior(TrainingSet([1.0 + tau], noise), k).variance(1.0)
            assert math.isclose(one_point_bound(k, tau, noise), exact,
                                rel_tol=1e-12, abs_tol=1e-12)


def test_two_point_bound_coincident_observations():
    v = two_point_bound(squared_exponential(), 0.0, 0.0, 0.0, 0.1)
    assert math.isclose(v, 1.0 - 2.0 / 2.1, rel_tol=1e-12)


def test_two_point_bound_far_second_sample():
    k = squared_exponential()
    v = two_point_bound(k, 0.3, 40.0, 40.3, 0.1)
    assert math.isclose(v, one_point_bound(k, 0.3, 0.1), rel_tol=1e-10)


def test_two_point_bound_is_the_exact_two_sample_variance():
    rng = np.random.default_rng(32)
    for factory in (squared_exponential, matern_half, rational_quadratic,
                    periodic):
        k = factory()
        for _ in range(20):
            t1 = float(rng.uniform(0.0, 1.0))
            t2 = float(rng.uniform(0.0, 1.0))
            noise = float(rng.uniform(0.01, 0.5))
            # opposite sides: delta = t1 + t2; same side: delta = |t1 - t2|
            for delta, pts in (((t1 + t2), [1.0 - t1, 1.0 + t2]),
                               (abs(t1 - t2), [1.0 + t1, 1.0 + t2])):
                exact = GPPosterior(TrainingSet(pts, noise), k).variance(1.0)
                got = two_point_bound(k, t1, t2, delta, noise)
                assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-12)


def test_two_point_bound_triangle_violation():
    with pytest.raises(BoundError):
        two_point_bound(squared_exponential(), 0.1, 0.2, 0.9, 0.1)


def test_two_points_never_worse_than_the_nearest_alone():
    rng = np.random.default_rng(33)
    k = squared_exponential()
    for _ in range(200):
        t1, t2 = np.sort(rng.uniform(0.0, 1.5, 2))
        delta = float(rng.choice([t1 + t2, t2 - t1]))
        two = two_point_bound(k, float(t1), float(t2), delta, 0.1)
        assert two <= one_point_bound(k, float(t1), 0.1) + 1e-12


# ------------------------------------------------------------- schedules

def test_radius_schedule_frozen_value():
    assert math.isclose(RadiusSchedule(1.0, 1.0 / 3.0).raw(1000), 0.1,
                        rel_tol=1e-14)


def test_radius_schedule_validation():
    with pytest.raises(BoundError):
        RadiusSchedule(0.0, 0.5)
    with pytest.raises(BoundError):
        RadiusSchedule(1.0, 0.0)
    with pytest.raises(BoundError):
        RadiusSchedule(1.0, 1.5)
    with pytest.raises(BoundError):
        RadiusSchedule(1.0, 0.5).raw(0)


def test_radius_at_clips_to_prior_over_lipschitz():
    k = squared_exponential()
    L = lipschitz_constant(k, DOMAIN).value
    rho = radius_at(RadiusSchedule(100.0, 0.5), 1, k, 1.0, L)
    assert math.isclose(rho, 1.0 / L, rel_tol=1e-14)
    # L = 0 disables the clip
    assert radius_at(RadiusSchedule(100.0, 0.5), 1, k, 1.0, 0.0) == 100.0


def test_clipped_radius_passes_the_precondition():
    # (k/L)*L rounds above k for this pair; the guard must test the same
    # k/L that radius_at clips to
    k = matern_half(0.2, 1.98)
    L = lipschitz_constant(k, DOMAIN).value
    rho = radius_at(RadiusSchedule(10.0, 0.5), 1, k, 1.0, L)
    assert rho == k.prior_variance(1.0) / L
    val = lipschitz_bound(k, L, 1.0, 1, rho, 0.1)
    assert math.isfinite(val) and val > 0
    with pytest.raises(BoundError):
        lipschitz_bound(k, L, 1.0, 1, math.nextafter(rho, math.inf), 0.1)


def test_radius_schedule_non_increasing():
    sched = RadiusSchedule(2.0, 0.25)
    vals = sched.raw(np.arange(1, 500))
    assert np.all(np.diff(vals) <= 0)


def test_scheduled_general_bound_converges():
    """With an admissible schedule the general bound falls toward zero."""
    k = squared_exponential()
    L = lipschitz_constant(k, DOMAIN).value
    sched = RadiusSchedule(1.0, 1.0 / 3.0)
    prev = math.inf
    for n in (10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
        rho = radius_at(sched, n, k, 1.0, L)
        b = int(2 * n * rho)  # expected ball population under uniform data
        val = lipschitz_bound(k, L, 1.0, b, rho, 0.1)
        assert val < prev
        prev = val
    assert prev < 5e-2


# ------------------------------------------------------------- bound report

def test_bound_report_empty_ball_quotes_prior_for_isotropic():
    train = TrainingSet([1.4], 0.1)
    k = squared_exponential()
    L = lipschitz_constant(k, DOMAIN).value
    rep = bound_report(train, k, 1.0, 0.1, L)
    assert rep.ball == 0
    assert rep.isotropic == 1.0
    assert rep.one_point is not None and rep.two_point is None


def test_bound_report_non_isotropic_fields_absent():
    train = TrainingSet([0.9, 1.1], 0.1)
    k = neural_network()
    L = lipschitz_constant(k, DOMAIN).value
    rep = bound_report(train, k, 0.05, 0.05, L)
    assert rep.isotropic is None
    assert rep.one_point is None and rep.two_point is None
    assert rep.lipschitz >= rep.exact - 1e-10


def test_bound_report_validity_sweep():
    rng = np.random.default_rng(34)
    factories = (squared_exponential, matern_half, rational_quadratic,
                 periodic, polynomial, neural_network)
    for _ in range(120):
        k = factories[int(rng.integers(len(factories)))]()
        n = int(rng.integers(1, 60))
        train = TrainingSet(rng.uniform(0.5, 1.5, n), float(rng.uniform(0.01, 0.5)))
        x = float(rng.uniform(0.5, 1.5))
        L = lipschitz_constant(k, DOMAIN).value
        rho = float(rng.uniform(0.0, k.prior_variance(x) / L))
        rep = bound_report(train, k, x, rho, L)
        floor = rep.exact - 1e-10
        for val in (rep.lipschitz, rep.isotropic, rep.one_point, rep.two_point):
            if val is not None:
                assert val >= floor


@st.composite
def random_kernels(draw):
    """A kernel of any kind, with every parameter its kind reads drawn."""
    kind = draw(st.sampled_from(ALL_KINDS))
    params = {"signal_variance": draw(st.floats(0.25, 4.0))}
    for name in KERNEL_PARAMS[kind]:
        if name == "degree":
            params[name] = draw(st.integers(1, 4))
        elif name != "signal_variance":
            params[name] = draw(st.floats(0.3, 2.0))
    return make_kernel(kind, **params)


@settings(max_examples=150, deadline=None)
@given(kernel=random_kernels(),
       inputs=st.lists(st.floats(0.5, 1.5), min_size=1, max_size=60),
       noise=st.floats(0.01, 0.5), x=st.floats(0.5, 1.5),
       coefficient=st.floats(0.01, 10.0), exponent=st.floats(0.05, 1.0))
def test_bound_report_fields_dominate_exact_variance(kernel, inputs, noise, x,
                                                     coefficient, exponent):
    """Every bound is an upper bound at the radius the runners use, which
    radius_at clips to k(x,x)/L when the schedule asks for more."""
    train = TrainingSet(inputs, noise)
    L = lipschitz_constant(kernel, DOMAIN).value
    rho = radius_at(RadiusSchedule(coefficient, exponent), train.n, kernel, x, L)
    rep = bound_report(train, kernel, x, rho, L)
    floor = rep.exact - 1e-10 * max(1.0, rep.exact)
    for val in (rep.lipschitz, rep.isotropic, rep.one_point, rep.two_point):
        if val is not None:
            assert val >= floor
