import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpbounds.bounds import (BoundError, RadiusSchedule, ball_count,
                             bound_report, isotropic_bound, lipschitz_bound,
                             one_point_bound, radius_at, two_point_bound)
from gpbounds.experiments import (PRESETS, config_kernel, log_grid,
                                  preset_config, resolved_schedule_alpha)
from gpbounds.gp import GPPosterior, TrainingSet
from gpbounds.kernels import (ALL_KINDS, KERNEL_PARAMS, Kernel,
                              lipschitz_constant, matern_half,
                              neural_network, periodic, polynomial,
                              rational_quadratic, squared_exponential)

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
    # a NaN radius is not non-negative either, and would count nothing
    with pytest.raises(BoundError):
        ball_count(TrainingSet([1.0, 1.2], 0.1), 1.0, math.nan)


# ------------------------------------------------------------- general bound

def test_lipschitz_bound_empty_ball_is_prior():
    k = squared_exponential()
    assert lipschitz_bound(k, 0.6, 1.0, 0, 0.5, 0.1) == 1.0
    knn = neural_network()
    prior = knn.prior_variance(1.0)
    L = lipschitz_constant(knn, DOMAIN)
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


@pytest.mark.parametrize("factory", [squared_exponential, matern_half,
                                     rational_quadratic, periodic])
def test_each_pointwise_bound_reads_k_from_one_iso_call(factory, monkeypatch):
    """isotropic_bound, one_point_bound and two_point_bound each take k(0)
    and their distances' k from one k.iso call, so their formulas see the
    entries of one array."""
    kernel = factory(0.4, 1.3)
    iso, calls = Kernel.iso, []

    def spy(self, tau):
        calls.append(tau)
        return iso(self, tau)

    monkeypatch.setattr(Kernel, "iso", spy)
    k0, a, b, c = iso(kernel, [0.0, 0.31, 0.47, 0.16])
    cases = [
        (lambda: one_point_bound(kernel, 0.31, 0.1), k0 - a ** 2 / (k0 + 0.1)),
        (lambda: two_point_bound(kernel, 0.31, 0.47, 0.16, 0.1),
         k0 - ((k0 + 0.1) * (a * a + b * b) - 2.0 * c * a * b)
         / ((k0 + 0.1) ** 2 - c * c)),
    ]
    if kernel.decreasing:
        cases.append((lambda: isotropic_bound(kernel, 3, 0.31, 0.1),
                      k0 - a ** 2 / (k0 + 0.1 / 3)))
    for bound, want in cases:
        calls.clear()
        assert bound() == want and len(calls) == 1


SE = squared_exponential()
NAN = math.nan


@pytest.mark.parametrize("call, message", [
    (lambda: lipschitz_bound(SE, 0.6, 1.0, 3, NAN, 0.1), "non-negative and finite"),
    (lambda: lipschitz_bound(SE, NAN, 1.0, 3, 0.1, 0.1), "non-negative and finite"),
    (lambda: lipschitz_bound(SE, math.inf, 1.0, 3, 0.0, 0.1), "non-negative and finite"),
    (lambda: isotropic_bound(SE, 3, NAN, 0.1), "radius >= 0"),
    (lambda: one_point_bound(SE, NAN, 0.1), "finite tau >= 0"),
    (lambda: one_point_bound(periodic(), math.inf, 0.1), "finite tau >= 0"),
    (lambda: two_point_bound(SE, 0.1, NAN, 0.2, 0.1), "non-negative"),
    (lambda: two_point_bound(SE, 0.1, 0.2, NAN, 0.1), "non-negative"),
    (lambda: two_point_bound(SE, 0.1, math.inf, math.inf, 0.1),
     "tau1, tau2 and delta must be finite"),
], ids=["lipschitz-radius", "lipschitz-constant", "lipschitz-infinite",
        "isotropic-radius", "one-point-tau", "one-point-infinite-tau",
        "two-point-tau2", "two-point-delta", "two-point-infinite"])
def test_non_finite_arguments_are_rejected(call, message):
    """A nan radius, tau, distance or Lipschitz constant raises instead of
    returning a nan "upper bound"; so do an infinite Lipschitz constant, whose
    product with a zero radius is nan, and an infinite tau, where sin is nan.
    A nan or infinite distance is named as such, not as a triangle-inequality
    violation."""
    with pytest.raises(BoundError, match=message):
        call()


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
    L = lipschitz_constant(k, DOMAIN)
    rho = radius_at(RadiusSchedule(100.0, 0.5), 1, k, 1.0, L)
    assert math.isclose(rho, 1.0 / L, rel_tol=1e-14)
    # L = 0 disables the clip
    assert radius_at(RadiusSchedule(100.0, 0.5), 1, k, 1.0, 0.0) == 100.0


@pytest.mark.parametrize("preset", [p for p in PRESETS if p.startswith("variance")])
def test_radius_at_over_a_grid_equals_the_scalar_calls(preset):
    """The radii of a preset's whole N grid in one call equal the per-N
    calls bit for bit, unclipped (L = 0), at the preset's L and clipped on
    about half the grid."""
    cfg = preset_config(preset)
    kernel, x = config_kernel(cfg), cfg.test_point
    schedule = RadiusSchedule(cfg.schedule_c, resolved_schedule_alpha(cfg))
    grid = log_grid(cfg.n_min, cfg.n_max, cfg.points_per_decade)
    raw = schedule.raw(grid)
    L = lipschitz_constant(kernel, (cfg.domain_lo, cfg.domain_hi))
    halfway = kernel.prior_variance(x) / float(np.median(raw))
    for lip in (0.0, L, halfway):
        radii = radius_at(schedule, grid, kernel, x, lip)
        scalar = [radius_at(schedule, n, kernel, x, lip) for n in grid]
        assert all(type(r) is float for r in scalar)
        assert radii.tolist() == scalar
    assert 0 < np.count_nonzero(radii < raw) < len(grid)


def test_clipped_radius_passes_the_precondition():
    # (k/L)*L rounds above k for this pair; the guard must test the same
    # k/L that radius_at clips to
    k = matern_half(0.2, 1.98)
    L = lipschitz_constant(k, DOMAIN)
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
    L = lipschitz_constant(k, DOMAIN)
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
    L = lipschitz_constant(k, DOMAIN)
    rep = bound_report(train, k, 1.0, 0.1, L)
    assert rep.ball == 0
    assert rep.isotropic == 1.0
    assert rep.one_point is not None and rep.two_point is None


def test_bound_report_non_isotropic_fields_absent():
    train = TrainingSet([0.9, 1.1], 0.1)
    k = neural_network()
    L = lipschitz_constant(k, DOMAIN)
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
        L = lipschitz_constant(k, DOMAIN)
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
    return Kernel(kind, **params)


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
    L = lipschitz_constant(kernel, DOMAIN)
    rho = radius_at(RadiusSchedule(coefficient, exponent), train.n, kernel, x, L)
    rep = bound_report(train, kernel, x, rho, L)
    floor = rep.exact - 1e-10 * max(1.0, rep.exact)
    for val in (rep.lipschitz, rep.isotropic, rep.one_point, rep.two_point):
        if val is not None:
            assert val >= floor
