import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from gpbounds import curves
from gpbounds.curves import (CurveError, QuadratureError, _k2_integral, _running_min,
                             e1_bound, e2_bound, e_rho_bound, greedy_select_n,
                             monte_carlo_curve, segment_plan)
from gpbounds.gp import GPPosterior, TrainingSet
from gpbounds.kernels import (ISOTROPIC_KINDS, KERNEL_PARAMS, Kernel,
                              periodic, polynomial, squared_exponential)

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


@st.composite
def small_noise_cases(draw):
    """A Matern-1/2, rational-quadratic or periodic kernel with l from 1 to
    100, noise from 1e-7 to 1e-4 and N up to 2000: e2's pair integrand is
    then a small difference of values near k(0)^2 over the narrow gaps."""
    kind = draw(st.sampled_from(("matern-1/2", "rational-quadratic", "periodic")))
    params = {"lengthscale": 10.0 ** draw(st.floats(0.0, 2.0)),
              "signal_variance": 10.0 ** draw(st.floats(-2.0, 2.0))}
    if kind == "rational-quadratic":
        params["alpha"] = 10.0 ** draw(st.floats(-1.0, 1.0))
    if kind == "periodic":
        params["period"] = 10.0 ** draw(st.floats(0.0, 1.3))
    noise = 10.0 ** draw(st.floats(-7.0, -4.0))
    return Kernel(kind, **params), noise, draw(st.integers(1, 2000))


@settings(max_examples=30, deadline=None)
@given(case=small_noise_cases())
# configs on which the a k(t) - k(d) k(d - t) numerator over a^2 - k(d)^2
# missed quad_tol (achieved 2.2e-9 to 2.2e-8)
@example(case=(Kernel("rational-quadratic", lengthscale=42.19415626570863,
                      signal_variance=94.23359777359502, alpha=0.5181802523113859),
               7.699686778351118e-06, 55))
@example(case=(Kernel("rational-quadratic", lengthscale=13.861581121760654,
                      signal_variance=47.67666269449449, alpha=0.19287576654562782),
               1.3181942241269052e-06, 121))
@example(case=(Kernel("periodic", lengthscale=31.045593485248208,
                      signal_variance=95.2545481880851, period=1.6509197908642745),
               1.1600148654378368e-06, 530))
@example(case=(Kernel("periodic", lengthscale=44.70763098646296,
                      signal_variance=85.78316020751143, period=1.6467917162436163),
               2.3471524135656353e-06, 852))
@example(case=(Kernel("periodic", lengthscale=34.60927867998966,
                      signal_variance=67.48708071509671, period=14.34894379733895),
               6.3010032783276354e-06, 771))
def test_e2_pair_term_keeps_its_digits_at_small_noise(case):
    """e2's pair integrand, written with the complements c = k(0) - k,
    reaches quad_tol at small noise and stays below e1."""
    kernel, noise, n = case
    assert e2_bound(kernel, noise, n) <= e1_bound(kernel, noise, n) + 1e-9


@pytest.mark.parametrize("kind", ISOTROPIC_KINDS)
def test_curve_bounds_take_k0_from_the_signal_variance(kind, monkeypatch):
    """e1, e2 and e_rho read k(0) as the signal variance, which k.iso(0.0)
    equals bit for bit, so none of them asks iso for k(0), and the
    squared-exponential kind, whose inner integrals are closed forms, makes
    no iso call at all."""
    rng = np.random.default_rng(23)
    kernels = [Kernel(kind, **{name: float(rng.uniform(0.05, 20.0))
                               for name in KERNEL_PARAMS[kind]}) for _ in range(50)]
    assert all(k.iso(0.0) == k.signal_variance for k in kernels)
    calls = []
    iso = Kernel.iso

    def spy(self, tau):
        calls.append(np.ndim(tau) == 0 and tau == 0.0)
        return iso(self, tau)

    monkeypatch.setattr(Kernel, "iso", spy)
    kernel = Kernel(kind, lengthscale=0.3)
    for n in (1, 10, 300):
        e1_bound(kernel, NOISE, n)
        e2_bound(kernel, NOISE, n)
    e_rho_bound(kernel, NOISE, 300, 4)
    if kind == "squared-exponential":
        assert calls == []
    else:
        assert calls and not any(calls)


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


def test_e_rho_integrates_equal_boundary_blocks_once(monkeypatch):
    """At N = 20 sections of 2 leave 2 samples at each end, so both
    boundaries are one block; sections of 3 leave 2 and 3, three blocks.
    Each block integrated starts with one call on the first outer rule."""
    sizes = []

    def spy(kernel, d, *args):
        sizes.append(d.size)
        return _k2_integral(kernel, d, *args)

    monkeypatch.setattr(curves, "_k2_integral", spy)
    for n, blocks in ((2, 2), (3, 3)):
        plan = segment_plan(20, n)
        assert (plan.left_count, plan.right_count) == (2, n)
        sizes.clear()
        e_rho_bound(SE, NOISE, 20, n)
        assert sizes.count(curves._START_NODES[0]) == blocks


@pytest.mark.parametrize("kernel", [
    Kernel(kind, lengthscale=0.3, **({"period": p} if kind == "periodic" else {}))
    for kind in ISOTROPIC_KINDS for p in ((0.2, 0.7, 3.0) if kind == "periodic" else (1,))
], ids=lambda k: f"{k.kind}-p{k.period}")
def test_e_rho_integrand_never_exceeds_the_squared_running_minimum(kernel):
    """The ball bound needs a lower bound on k over [0, tau]: the running
    minimum e_rho integrates lies at or below the smallest k on a fine grid
    of [0, tau], and equals k wherever k has not yet risen again."""
    t = np.linspace(0.0, 4.0, 40001)
    k = kernel.iso(t)
    m = _running_min(kernel, t)
    assert np.all(m ** 2 <= np.minimum.accumulate(k) ** 2)
    falling = t <= (kernel.period / 2 if kernel.kind == "periodic" else np.inf)
    assert np.array_equal(m[falling], k[falling])


@pytest.mark.parametrize("period, lengthscale, want", [(0.2, 4.0, 0.1939), (0.3, 3.0, 0.2779)])
def test_short_period_e_rho_rises_to_the_running_minimum(period, lengthscale, want):
    """Past p/2 the periodic k rises again, so k(rho) is no lower bound over
    the ball.  With the running minimum the best e_rho at N = 10 rises to
    about 0.194 and 0.278, where k itself gave 0.114 and 0.191."""
    kernel = periodic(lengthscale, period=period)
    best = min(e_rho_bound(kernel, 1e-3, 10, n) for n in range(2, 11)
               if segment_plan(10, n).valid)
    assert abs(best - want) < 1e-4


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


def test_monte_carlo_computes_each_rows_e1_once(monkeypatch):
    """The section-size walk takes the row's e1 as its size-1 bound rather
    than recomputing it; rows 1 and 5 keep size 1, row 60 walks past it."""
    calls = []

    def spy(kernel, noise_variance, n, quad_tol=1e-9):
        calls.append(n)
        return e1_bound(kernel, noise_variance, n, quad_tol)

    monkeypatch.setattr(curves, "e1_bound", spy)
    table = monte_carlo_curve(SE, NOISE, [0, 1, 5, 60], 5, 2, seed=1)
    assert calls == [1, 5, 60]
    assert [row.e_rho == row.e1 for row in table.rows] == [True, True, True, False]


def monte_carlo_oracle(kernel, n, test_points, datasets, seed):
    """(e_num, e_num_se) of one row as drawn before sampling went through
    Density.sample: two uniform draws per dataset and np.mean."""
    means = np.empty(datasets)
    for i in range(datasets):
        rng = np.random.default_rng([seed, 3, n, i])
        post = GPPosterior(TrainingSet(rng.uniform(0.0, 1.0, n), NOISE), kernel)
        means[i] = float(np.mean(post.variance_batch(rng.uniform(0.0, 1.0, test_points))))
    return (float(np.mean(means)) + NOISE,
            float(np.std(means, ddof=1) / math.sqrt(datasets)))


@pytest.mark.parametrize("seed", [1, 2**40])
@pytest.mark.parametrize("kernel", [periodic(lengthscale=1.0), SE], ids=["periodic", "se"])
def test_monte_carlo_draws_match_the_two_draw_oracle(kernel, seed, monkeypatch):
    """One draw of N + 20 points per dataset gives the bits of the oracle's
    two draws, on the dense route (N = 1, 20) and the low-rank route
    (N = 130), for a seed passed as uint32 words and one past 2**32.  The
    bounds are stubbed out: only the Monte-Carlo columns are compared."""
    for name in ("e1_bound", "e2_bound"):
        monkeypatch.setattr(curves, name, lambda *args: 1.0)
    monkeypatch.setattr(curves, "_greedy", lambda *args: (1, 1.0))
    table = monte_carlo_curve(kernel, NOISE, [1, 20, 130], 20, 3, seed=seed)
    assert GPPosterior(TrainingSet(np.linspace(0.0, 1.0, 130), NOISE),
                       kernel).route == "low-rank"
    for row in table.rows:
        assert (row.e_num, row.e_num_se) == monte_carlo_oracle(kernel, row.n, 20, 3, seed)


def nystrom_eigenvalues(kernel, m):
    """Eigenvalues of the kernel's integral operator under the uniform
    density on [0, 1], by Nystrom on m Gauss-Legendre nodes."""
    x, w = np.polynomial.legendre.leggauss(m)
    x, r = (x + 1.0) / 2.0, np.sqrt(w / 2.0)
    gram = kernel.iso(np.abs(np.subtract.outer(x, x)))
    return np.linalg.eigvalsh(r[:, None] * gram * r)


@pytest.mark.parametrize("kind", ISOTROPIC_KINDS)
def test_monte_carlo_curve_lies_above_the_spectral_lower_bound(kind):
    """Opper & Vivarelli (NIPS 1999): e(N) >= s + sum_i l_i s / (s + N l_i)
    over the operator eigenvalues l_i.  The Nystrom bound on 400 nodes is
    lowered by its change on doubling to 800, which covers the slow
    convergence of the Matern-1/2 spectrum (about 6e-4 at N = 300)."""
    kernel = Kernel(kind, lengthscale=0.3)
    table = monte_carlo_curve(kernel, NOISE, [1, 3, 10, 30, 100, 300], 200, 20,
                              seed=1)
    coarse, fine = (nystrom_eigenvalues(kernel, m) for m in (400, 800))
    for row in table.rows:
        lower = [NOISE + np.sum(lam * NOISE / (NOISE + row.n * lam))
                 for lam in (coarse, fine)]
        bound = lower[0] - abs(lower[1] - lower[0])
        assert row.e_num >= bound - 3.0 * row.e_num_se, (row, bound)


def test_monte_carlo_validation():
    with pytest.raises(CurveError):
        monte_carlo_curve(polynomial(), NOISE, [5], 10, 4, seed=1)
    with pytest.raises(CurveError):
        monte_carlo_curve(SE, NOISE, [5, 5], 10, 4, seed=1)
    with pytest.raises(CurveError):
        monte_carlo_curve(SE, NOISE, [5], 10, 1, seed=1)


@st.composite
def isotropic_kernels(draw):
    """One of the four isotropic kinds with every parameter it reads drawn.
    The period is at least the unit interval: below about 1 the oscillating
    integrands of e1 and e2 need more nodes than the rules' five levels
    give, and the bounds raise QuadratureError (period 0.5, l = 0.3 at
    N = 2 to 10) rather than return a value."""
    kind = draw(st.sampled_from(ISOTROPIC_KINDS))
    ranges = {"lengthscale": (0.1, 2.0), "signal_variance": (0.25, 4.0),
              "alpha": (0.5, 5.0), "period": (1.0, 4.0)}
    return Kernel(kind, **{name: draw(st.floats(*ranges[name]))
                                for name in KERNEL_PARAMS[kind]})


@settings(max_examples=60, deadline=None)
@given(kernel=isotropic_kernels(), n=st.integers(1, 30),
       noise=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_curve_bounds_lie_above_the_monte_carlo_curve(kernel, n, noise, seed):
    """e1, e2 and e_rho each bound the learning curve from above: none is
    below the Monte-Carlo estimate by more than three standard errors.  At
    N = 1 all three equal the exact curve, so the margin there is the
    Monte-Carlo noise alone; 20 datasets keep its standard error itself
    from being too noisy to test against."""
    row = monte_carlo_curve(kernel, noise, [n], 50, 20, seed=seed).rows[0]
    floor = row.e_num - 3.0 * row.e_num_se
    assert row.e1 >= floor, row
    assert row.e2 >= floor, row
    assert row.e_rho >= floor, row


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


@pytest.mark.parametrize("bound, args", [(e1_bound, (100,)), (e2_bound, (100,)),
                                         (e_rho_bound, (100, 4))],
                         ids=["e1_bound", "e2_bound", "e_rho_bound"])
def test_unreachable_tolerance_is_reported(bound, args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError) as info:
            bound(SE, NOISE, *args, quad_tol=1e-16)
    assert info.value.requested == 1e-16
    assert info.value.achieved > 1e-16
    where = f"squared-exponential kernel, N=100: {bound.__name__}"
    if bound is e_rho_bound:
        where += " (section size 4)"
    assert str(info.value).startswith(where + " quadrature achieved ")
