import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpbounds.bounds import bound_report
from gpbounds.gp import TrainingSet
from gpbounds.kernels import (ALL_KINDS, GRID_POINTS, ISOTROPIC_KINDS,
                              KERNEL_PARAMS, SAFETY_FACTOR, Kernel, KernelError,
                              _features, _grid_lipschitz, as_point, as_points,
                              featurize, gram_columns, kernel_diagonal, kernel_matrix,
                              lipschitz_constant, matern_half,
                              neural_network, periodic, polynomial,
                              rational_quadratic, squared_exponential)


def all_kernels():
    return [squared_exponential(), matern_half(), rational_quadratic(),
            periodic(), polynomial(), neural_network()]


# ---------------------------------------------------------------- evaluation

def test_se_zero_distance_is_signal_variance():
    k = squared_exponential()
    assert k(0.3, 0.3) == 1.0
    assert squared_exponential(signal_variance=2.5).iso(0.0) == 2.5


def test_se_unit_distance():
    k = squared_exponential()
    assert math.isclose(k(0.0, 1.0), math.exp(-0.5), rel_tol=1e-15)


def test_matern_distance_two():
    k = matern_half()
    assert math.isclose(k(-1.0, 1.0), math.exp(-2.0), rel_tol=1e-15)


def test_rq_unit_distance():
    k = rational_quadratic()
    assert math.isclose(k.iso(1.0), 2.0 / 3.0, rel_tol=1e-15)


def test_periodic_full_period():
    k = periodic(lengthscale=0.7, period=1.0)
    assert math.isclose(k.iso(1.0), 1.0, abs_tol=1e-12)
    assert math.isclose(k.iso(0.5), math.exp(-2.0 / 0.49), rel_tol=1e-12)


def test_iso_zero_is_signal_variance_for_all_isotropic():
    for kind in ISOTROPIC_KINDS:
        k = Kernel(kind, signal_variance=1.7)
        assert k.iso(0.0) == 1.7


def test_polynomial_values():
    k = polynomial()
    assert k(1.0, 1.0) == 8.0
    assert k(0.0, 5.0) == 1.0
    assert k.prior_variance(1.0) == 8.0


def test_neural_network_origin():
    k = neural_network()
    expected = (2.0 / math.pi) * math.asin(2.0 / 3.0)
    assert math.isclose(k(0.0, 0.0), expected, rel_tol=1e-14)


def test_neural_network_diagonal_clip():
    # coincident far-out points push the arcsine argument to 1 exactly
    k = neural_network()
    v = k(50.0, 50.0)
    assert v <= k.signal_variance + 1e-15
    assert v > 0.9


def test_neural_network_overflow_stays_non_finite():
    """Where a = 1 + 2 (sb + sw x^2) overflows, the features sqrt(a) / a are
    inf / inf, a nan, and so is every entry that reads them: the finite
    checks report it, where 1 / sqrt(a) would give a finite, wrong 0."""
    k = neural_network()
    X = np.array([1e155, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = _features(k, X)
        K = kernel_matrix(k, X)
        column = gram_columns(k, X)(1)
        diagonal = kernel_diagonal(k, X)
    assert np.isnan(p[0]) and np.isnan(q[0])
    assert np.isnan(K[0]).all() and np.isnan(K[:, 0]).all()
    assert np.isnan(column[0]) and np.isnan(diagonal[0])
    assert np.isfinite([p[1], q[1], K[1, 1], column[1], diagonal[1]]).all()


def _iso_one_line(k, t):
    """k.iso(t) as one expression per kind, from a fresh array for t."""
    s2, l = k.signal_variance, k.lengthscale
    t = np.asarray(t, dtype=float)
    if k.kind == "squared-exponential":
        out = s2 * np.exp(-0.5 * (t / l) ** 2)
    elif k.kind == "matern-1/2":
        out = s2 * np.exp(-t / l)
    elif k.kind == "rational-quadratic":
        out = s2 * (1.0 + t * t / (2.0 * k.alpha * l * l)) ** (-k.alpha)
    else:
        out = s2 * np.exp(-2.0 * np.sin(np.pi * t / k.period) ** 2 / (l * l))
    return float(out) if out.ndim == 0 else out


def test_iso_in_place_equals_the_one_line_forms():
    """k.iso, which builds its values in place in one buffer of its own,
    equals the one-expression form bit for bit for arrays and lists, and
    for a scalar that of a one-element array; it leaves its argument
    unchanged and returns a float for a scalar.  With alpha 1 the power is
    numpy's reciprocal shortcut, taken in place as in the expression."""
    rng = np.random.default_rng(19)
    kernels = [squared_exponential(), matern_half(), rational_quadratic(), periodic(),
               squared_exponential(0.3, 2.5), matern_half(0.7, 0.3),
               rational_quadratic(0.3, 2.5, alpha=0.7), rational_quadratic(alpha=0.5),
               rational_quadratic(0.4, alpha=2.5), periodic(0.4, 0.3, period=0.6)]
    arrays = [rng.uniform(0.0, 3.0, 1000), rng.uniform(0.0, 1e3, (30, 40)),
              np.array([0.0, -0.0, 1e-300, 0.5, 1.0, 1e100]), np.empty(0)]
    scalars = [0.0, 0.3, 2.0, 1e3, np.float64(0.7), np.array(1.5), 7]
    for k in kernels:
        for t in arrays:
            before = t.copy()
            got = k.iso(t)
            assert np.array_equal(t, before) and not np.shares_memory(got, t), k
            want = _iso_one_line(k, t)
            assert got.shape == t.shape and got.tobytes() == want.tobytes(), k
        for t in scalars:
            got = k.iso(t)
            assert type(got) is float and got == _iso_one_line(k, [t])[0], (k, t)
        assert np.array_equal(k.iso([0.1, 0.2, 3]), _iso_one_line(k, [0.1, 0.2, 3]))


@pytest.mark.parametrize("kernel", [
    squared_exponential(0.3, 1.7), matern_half(0.4, 1.3),
    rational_quadratic(0.4, 1.3, alpha=2.5), periodic(0.3, 1.1, period=0.7),
], ids=["se", "matern", "rq-alpha-2.5", "periodic"])
def test_scalar_iso_is_the_array_entry(kernel):
    """A scalar tau takes the array's in-place steps in a 0-d buffer, so
    k.iso(t) has the bits of the entry of k.iso(ts) that holds t."""
    rng = np.random.default_rng(20)
    ts = np.concatenate([rng.uniform(0.0, 5.0, 1500), rng.exponential(1.0, 1500)])
    scalars = np.array([kernel.iso(float(t)) for t in ts])
    assert scalars.tobytes() == kernel.iso(ts).tobytes()


def test_iso_rejects_negative_tau_and_wrong_kind():
    with pytest.raises(KernelError):
        squared_exponential().iso(-0.1)
    with pytest.raises(KernelError):
        polynomial().iso(0.5)


def test_constructor_validation():
    with pytest.raises(KernelError):
        squared_exponential(lengthscale=0.0)
    with pytest.raises(KernelError):
        matern_half(signal_variance=-1.0)
    with pytest.raises(KernelError):
        rational_quadratic(alpha=0.0)
    with pytest.raises(KernelError):
        periodic(period=-1.0)
    with pytest.raises(KernelError):
        polynomial(degree=0)
    with pytest.raises(KernelError):
        neural_network(weight_variance=0.0)
    with pytest.raises(KernelError):
        Kernel("triangle")
    with pytest.raises(KernelError):
        Kernel("periodic", alpha=2.0)
    with pytest.raises(KernelError):
        Kernel("squared-exponential", alpha=2.0)
    with pytest.raises(KernelError):
        polynomial(degree=2.5)
    assert Kernel("polynomial") == polynomial()


def test_as_points_shapes():
    assert as_points(1.0).shape == (1,)
    assert as_points([1.0, 2.0, 3.0]).shape == (3,)
    assert np.array_equal(as_points([[1.0], [2.0]]), [1.0, 2.0])
    for wide in ([[1.0, 2.0]], np.zeros((2, 2, 2))):
        with pytest.raises(KernelError):
            as_points(wide)
    assert as_point(np.array([0.25])) == 0.25
    with pytest.raises(KernelError):
        as_point([1.0, 2.0])


# ---------------------------------------------------------- matrix structure

def test_symmetry_exact():
    """Every kind's Gram is symmetric bit for bit, and swapping the two
    arguments of a cross Gram transposes it bit for bit, also for far-out
    and duplicated points where the neural-network argument is clipped:
    gp._query_block reads k(Xp, X) as the transpose of k(X, Xp)."""
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, 40)
    Z = rng.uniform(-2.0, 2.0, 25)
    big = np.repeat(rng.uniform(-1e9, 1e9, 10), 3)
    pairs = ((X, Z), (X, big), (big, big[::-1]))
    for k in all_kernels() + [neural_network(0.3, 7.0, 2.5)]:
        K = kernel_matrix(k, X)
        assert np.array_equal(K, K.T)
        for A, B in pairs:
            assert np.array_equal(kernel_matrix(k, A, B), kernel_matrix(k, B, A).T), k


def test_cross_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(12)
    X = rng.uniform(0.5, 1.5, 7)
    Z = rng.uniform(0.5, 1.5, 5)
    for k in all_kernels():
        K = kernel_matrix(k, X, Z)
        for i, xi in enumerate(X):
            for j, zj in enumerate(Z):
                assert math.isclose(K[i, j], k(xi, zj), rel_tol=1e-14,
                                    abs_tol=1e-14)


def test_kernel_diagonal_is_the_gram_diagonal():
    """kernel_diagonal equals the diagonal of the full Gram bit for bit for
    all six kinds, with default and other parameters, including far-out
    points, where the neural-network arcsine argument rounds to 1 and
    passes through the clip."""
    rng = np.random.default_rng(16)
    kernels = all_kernels() + [
        rational_quadratic(0.3, 2.5, alpha=0.7), periodic(0.4, 0.3, period=0.6),
        polynomial(offset=0.3, degree=4, signal_variance=1.7),
        neural_network(bias_variance=0.3, weight_variance=7.0, signal_variance=2.5)]
    inputs = [rng.uniform(0.5, 1.5, 300), rng.uniform(-3.0, 3.0, 50),
              rng.uniform(-1e9, 1e9, 40)]
    for k in kernels:
        for X in inputs:
            assert np.array_equal(kernel_diagonal(k, X), np.diag(kernel_matrix(k, X, X)))
    k = neural_network()
    assert kernel_diagonal(k, [50.0])[0] == k(50.0, 50.0)


def test_separable_periodic_gram_keeps_accuracy_far_from_zero():
    """The periodic Gram built from per-point sines and cosines stays within
    1e-14 s2 of the direct form s2 exp(-2 sin^2(pi |x - z| / p) / l^2) for
    inputs far from 0.  Each set spans one unit, so |x - z| is exact and the
    direct form is the reference.  Without the reduction of each input by
    fmod(x, p), the features lose the digits of the offset: about 1e-12 at
    1e3 and 1e-6 at 1e9.  Swapping the arguments transposes the Gram bit
    for bit."""
    rng = np.random.default_rng(17)
    kernels = (periodic(0.3), periodic(0.7, 2.5, period=0.37),
               periodic(1.5, 0.4, period=2.5))
    for offset in (0.0, 1e3, -1e3, 1e6, 1e9):
        X = offset + rng.uniform(0.0, 1.0, 60)
        Z = offset + rng.uniform(0.0, 1.0, 40)
        for k in kernels:
            K = kernel_matrix(k, X, Z)
            direct = k.iso(np.abs(np.subtract.outer(X, Z)))
            assert np.abs(K - direct).max() <= 1e-14 * k.signal_variance, (k, offset)
            assert np.array_equal(K, kernel_matrix(k, Z, X).T), (k, offset)


def test_gram_blocks_equal_the_full_gram():
    """Any block of a Gram, down to one column or one entry, equals the same
    entries of the full Gram bit for bit, and so do every column from
    gram_columns, the scalar k(x, z), k.prior_variance(x) and
    kernel_diagonal: the blocked factor, the pivot columns of the low-rank
    route, one-point queries and the bounds all rely on it.  The columns
    are checked also on inputs offset by 1e3 and on far-out duplicated
    points."""
    rng = np.random.default_rng(18)
    X = rng.uniform(-1.5, 1.5, 70)
    for k in all_kernels():
        K = kernel_matrix(k, X)
        column = gram_columns(k, X)
        assert np.array_equal(kernel_diagonal(k, X), np.diag(K)), k
        assert all(k(X[i], X[j]) == K[i, j] for i in range(70) for j in range(70)), k
        assert all(k.prior_variance(X[j]) == K[j, j] for j in range(70)), k
        for lo, hi in ((0, 1), (3, 5), (10, 13), (64, 70), (0, 70)):
            assert np.array_equal(kernel_matrix(k, X, X[lo:hi]), K[:, lo:hi]), (k, lo, hi)
            assert np.array_equal(kernel_matrix(k, X[lo:hi], X[:2]), K[lo:hi, :2]), (k, lo, hi)
        for j in range(70):
            assert np.array_equal(column(j), K[:, j]), (k, j)
    # far-out duplicated points, where the neural-network ratio is clipped
    # (test_in_place_nn_gram_equals_the_expression shows it on this form)
    big = np.repeat(rng.uniform(-1e9, 1e9, 20), 3)
    for k in all_kernels():
        for Y in (1e3 + X, big):
            K = kernel_matrix(k, Y)
            column = gram_columns(k, Y)
            assert all(np.array_equal(column(j), K[:, j]) for j in range(Y.size)), k


@st.composite
def drawn_kernels(draw):
    """A kernel of any kind with every parameter its kind reads drawn."""
    kind = draw(st.sampled_from(ALL_KINDS))
    params = {}
    for name in KERNEL_PARAMS[kind]:
        if name == "degree":
            params[name] = draw(st.integers(1, 5))
        else:
            params[name] = draw(st.floats(0.1, 10.0))
    return Kernel(kind, **params)


@settings(max_examples=60)
@given(k=drawn_kernels(),
       X=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_columns_equal_the_gram_columns_for_drawn_kernels(k, X):
    """For any kind and parameters, column j of gram_columns equals column
    j of the full Gram bit for bit."""
    X = np.array(X)
    K = kernel_matrix(k, X)
    column = gram_columns(k, X)
    for j in range(X.size):
        assert np.array_equal(column(j), K[:, j]), j


def _broadcast_gram(kernel, X, Z):
    """k(X, Z) by numpy broadcasting of the per-point features, (n, 1)
    against (m,), step for step the arithmetic of the BLAS blocks."""
    fx = [f[:, None] for f in _features(kernel, X)]
    fz = _features(kernel, Z)
    if kernel.kind == "polynomial":
        return kernel.signal_variance * (fx[0] * fz[0] + kernel.offset) ** kernel.degree
    if kernel.kind == "periodic":
        (sin_x, cos_x), (sin_z, cos_z) = fx, fz
        s = sin_x * cos_z
        s -= cos_x * sin_z
        s *= s
        s *= -2.0
        s /= kernel.lengthscale * kernel.lengthscale
        np.exp(s, out=s)
        s *= kernel.signal_variance
        return s
    if kernel.isotropic:
        t = np.subtract(fx[0], fz[0])
        return kernel._iso(np.abs(t, out=t))
    (p_x, q_x), (p_z, q_z) = fx, fz
    s = p_x * p_z
    s += q_x * q_z
    np.minimum(s, 1.0, out=s)
    np.maximum(s, -1.0, out=s)
    np.arcsin(s, out=s)
    s *= kernel.signal_variance * (2.0 / np.pi)
    return s


@st.composite
def block_inputs(draw, min_size=0):
    """Up to 12 points uniform on [-3, 3] from a drawn seed, with drawn
    entries set to zeros of either sign, to values whose squares, products
    or differences overflow to inf or whose features become nan, or to any
    finite float."""
    n = draw(st.integers(min_size, 12))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-3.0, 3.0, n)
    special = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.7e308]),
                        st.floats(allow_nan=False, allow_infinity=False))
    for i, v in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), special),
                              max_size=n)):
        x[i] = v
    return x


@settings(max_examples=300)
@given(k=drawn_kernels(), X=block_inputs(), Z=block_inputs(min_size=1),
       cut=st.integers(0, 12))
@example(k=Kernel("neural-network"), X=np.array([]), Z=np.array([0.5, -0.0]), cut=0)
@example(k=Kernel("periodic"), X=np.array([-0.0]), Z=np.array([0.0]), cut=0)
@example(k=Kernel("polynomial"), X=np.array([-0.0]),
         Z=np.array([1e200, -0.0, 0.0, 2.0]), cut=1)
@example(k=Kernel("squared-exponential"), X=np.array([1.7e308, -1.7e308, -0.0]),
         Z=np.array([-1.7e308]), cut=2)
def test_blas_blocks_keep_the_bits_of_broadcasting(k, X, Z, cut):
    """kernel_matrix forms each 2-D block's arguments as BLAS outer
    products, and every entry has the bits of the broadcast arithmetic,
    compared as integers so that a -0 against +0 or a nan's sign shows.  It
    covers 0 x m, 1 x 1, 1 x m and n x 1 blocks, zeros of both signs and
    inputs that overflow, and blocks of rows sliced from features made
    once."""
    with np.errstate(all="ignore"):
        oracle = _broadcast_gram(k, X, Z)
        K = kernel_matrix(k, X, Z)
        rows = kernel_matrix(k, featurize(k, X)[cut:], featurize(k, Z))
    assert K.shape == oracle.shape == (X.size, Z.size)
    assert np.array_equal(K.view(np.int64), oracle.view(np.int64))
    assert np.array_equal(rows.view(np.int64), oracle[cut:].view(np.int64))


def test_features_serve_only_their_kernel():
    """A kernel rejects features made for another kernel, even an equal
    one, rather than read features of the wrong form."""
    X = np.linspace(0.5, 1.5, 5)
    for other in (neural_network(), squared_exponential()):
        features = featurize(other, X)
        for call in (kernel_matrix, kernel_diagonal, gram_columns):
            with pytest.raises(KernelError):
                call(squared_exponential(), features)


def test_positive_semidefinite_sweep():
    rng = np.random.default_rng(14)
    for k in all_kernels():
        for _ in range(25):
            n = int(rng.integers(2, 21))
            X = rng.uniform(-1.5, 1.5, n)
            K = kernel_matrix(k, X)
            floor = -1e-8 * np.trace(K) / n
            assert np.linalg.eigvalsh(K).min() >= floor


def test_decreasing_flag_honesty():
    taus = np.linspace(0.0, 4.0, 1000)
    for k in all_kernels():
        if not (k.isotropic and k.decreasing):
            continue
        vals = k.iso(taus)
        assert np.all(np.diff(vals) <= 1e-15)
    assert not periodic().decreasing
    direct = Kernel("periodic", 0.3)
    assert direct.decreasing is False
    # both samples sit half a period from x, so the exact variance is ~1;
    # the isotropic formula at radius 0.95 would claim about 0.68
    rep = bound_report(TrainingSet([0.5, 1.5], 0.1), direct, 1.0, 0.95, 1.0)
    assert rep.exact > 0.99
    assert rep.isotropic is None


# ------------------------------------------------------- Lipschitz constants

def test_lipschitz_se_analytic():
    est = lipschitz_constant(squared_exponential(lengthscale=2.0), (0.0, 3.0))
    assert math.isclose(est, math.exp(-0.5) / 2.0, rel_tol=1e-15)


def test_lipschitz_matern_analytic():
    est = lipschitz_constant(matern_half(signal_variance=3.0), (0.0, 1.0))
    assert est == 3.0


def test_lipschitz_degenerate_domain():
    est = lipschitz_constant(rational_quadratic(), (1.0, 1.0))
    assert est == 0.0


def test_lipschitz_grid_vs_analytic_on_se():
    analytic = lipschitz_constant(squared_exponential(), (0.0, 3.0))
    grid = _grid_lipschitz(squared_exponential(), 0.0, 3.0)
    assert math.isclose(grid, 1.05 * analytic, rel_tol=2e-3)


@pytest.mark.parametrize("domain", [(math.nan, 1.0), (0.0, math.nan),
                                    (0.0, math.inf), (1.0, 0.0), (0.0, 1.0, 2.0)])
@pytest.mark.parametrize("kind", ["rational-quadratic", "neural-network"])
def test_lipschitz_rejects_a_bad_interval(kind, domain):
    """An end that is not finite or an inverted interval raises, rather than
    quoting a nan grid estimate."""
    with pytest.raises(KernelError):
        lipschitz_constant(Kernel(kind), domain)


def test_lipschitz_validity_sweep():
    """|k(x',z) - k(x,z)| <= L * |x' - x| for random in-domain triples."""
    rng = np.random.default_rng(15)
    domain = (0.5, 1.5)
    for k in all_kernels():
        L = lipschitz_constant(k, domain)
        x, xp, z = rng.uniform(0.5, 1.5, (3, 2000))
        lhs = np.abs([k(a, c) - k(b, c) for a, b, c in zip(x, xp, z)])
        assert np.all(lhs <= L * np.abs(x - xp) + 1e-12)


def test_lipschitz_grid_value_rq():
    # max |dk/dtau| for the alpha=1 form sits at tau = sqrt(2/3)
    tau = math.sqrt(2.0 / 3.0)
    exact = tau * (1.0 + 0.5 * tau * tau) ** -2
    est = lipschitz_constant(rational_quadratic(), (0.0, 2.0))
    assert math.isclose(est, 1.05 * exact, rel_tol=1e-3)


def test_lipschitz_grid_value_nn():
    """The neural-network constant on (0.5, 1.5) stays within 1e-10 of
    0.35728537002917066, the grid value of the textbook form
    2 (sb + sw x z) / sqrt(a_x a_z) for the arcsine argument."""
    est = lipschitz_constant(neural_network(), (0.5, 1.5))
    assert math.isclose(est, 0.35728537002917066, rel_tol=1e-10)


def _full_grid_lipschitz(kernel, lo, hi):
    """The whole 10^4 x 201 grid at once: the oracle for the column walk."""
    xs = np.linspace(lo, hi, GRID_POINTS)
    zs = np.linspace(lo, hi, 201)
    K = kernel_matrix(kernel, xs, zs)
    slope = float(np.max(np.abs(np.diff(K, axis=0)))) / (xs[1] - xs[0])
    return slope * SAFETY_FACTOR


INNER_PRODUCT_KERNELS = [polynomial(), polynomial(0.3, 5, 2.0),
                         neural_network(), neural_network(0.2, 3.0, 0.5)]


@pytest.mark.parametrize("domain", [(0.5, 1.5), (-2.0, -0.5), (-1.3, 2.7),
                                    (0.0, 1e-3), (1e3, 1e3 + 2.0), (-1e9, 1e9)])
@pytest.mark.parametrize("kernel", INNER_PRODUCT_KERNELS,
                         ids=["poly", "poly-d5", "nn", "nn-wide"])
def test_blocked_grid_equals_the_full_grid(kernel, domain):
    """The grid walked one column at a time gives the whole grid's constant,
    bit for bit."""
    assert lipschitz_constant(kernel, domain) == _full_grid_lipschitz(kernel, *domain)


@pytest.mark.parametrize("kernel", [polynomial(), neural_network()], ids=["poly", "nn"])
def test_grid_lipschitz_holds_little_memory(kernel):
    """The whole grid and its difference copies held 46 MiB; the column walk
    holds the grid's features and one column, under half a megabyte."""
    tracemalloc.start()
    try:
        lipschitz_constant(kernel, (0.5, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_lipschitz_value_is_a_python_float():
    # numpy parameters too: the closed forms are computed from the fields
    numpy_params = [squared_exponential(np.float64(0.5)), matern_half(np.float64(0.5))]
    for k in all_kernels() + numpy_params:
        for domain in [(0.5, 1.5), (1.0, 1.0)]:
            assert type(lipschitz_constant(k, domain)) is float
