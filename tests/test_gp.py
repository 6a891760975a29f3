import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

import gpbounds.gp as gp
import gpbounds.kernels as kernels
from gpbounds.gp import _GRAM_BLOCK, FactorizationError, GPPosterior, TrainingSet
from gpbounds.kernels import (KERNEL_PARAMS, Kernel, KernelError, _features, _gram,
                              gram_columns, kernel_diagonal, kernel_matrix,
                              lipschitz_constant, matern_half,
                              neural_network, periodic, polynomial,
                              squared_exponential)

KINDS = ("squared-exponential", "matern-1/2", "rational-quadratic",
         "periodic", "polynomial", "neural-network")


def dense_oracle(kernel, X, y, noise, x):
    """Independent reference: explicit inverse instead of a factorization."""
    A = kernel_matrix(kernel, X) + noise * np.eye(len(X))
    Ainv = np.linalg.inv(A)
    kx = kernel_matrix(kernel, X, x)[:, 0]
    var = kernel.prior_variance(x) - kx @ Ainv @ kx
    mean = None if y is None else kx @ Ainv @ np.asarray(y)
    return var, mean


def test_empty_training_set_gives_prior():
    train = TrainingSet(np.empty(0), 0.1)
    k = squared_exponential()
    assert GPPosterior(train, k).variance(0.7) == 1.0
    assert GPPosterior(TrainingSet(np.empty(0), 0.1, np.empty(0)), k).mean(0.7) == 0.0


def test_single_point_at_test_location():
    train = TrainingSet([1.0], 0.1, [1.0])
    k = squared_exponential()
    assert math.isclose(GPPosterior(train, k).variance(1.0), 1.0 / 11.0,
                        rel_tol=1e-14)
    assert math.isclose(GPPosterior(train, k).mean(1.0), 1.0 / 1.1,
                        rel_tol=1e-14)


def test_random_instance_matches_dense_oracle():
    rng = np.random.default_rng(21)
    k = squared_exponential()
    X = rng.uniform(0.5, 1.5, 30)
    y = rng.standard_normal(30)
    train = TrainingSet(X, 0.1, y)
    var, mean = dense_oracle(k, X.reshape(-1, 1), y, 0.1, 1.0)
    assert math.isclose(GPPosterior(train, k).variance(1.0), var, rel_tol=1e-10)
    assert math.isclose(GPPosterior(train, k).mean(1.0), mean, rel_tol=1e-10)


def test_oracle_sweep_all_kinds():
    rng = np.random.default_rng(22)
    for kind in KINDS:
        k = Kernel(kind)
        for _ in range(5):
            n = int(rng.integers(1, 40))
            X = rng.uniform(0.5, 1.5, n)
            y = rng.standard_normal(n)
            noise = float(rng.uniform(0.01, 0.5))
            x = float(rng.uniform(0.5, 1.5))
            train = TrainingSet(X, noise, y)
            var, mean = dense_oracle(k, X.reshape(-1, 1), y, noise, x)
            assert abs(GPPosterior(train, k).variance(x) - var) <= 1e-10 * max(1.0, abs(var))
            assert abs(GPPosterior(train, k).mean(x) - mean) <= 1e-10 * max(1.0, abs(mean))


def test_variance_within_prior_band():
    rng = np.random.default_rng(23)
    for kind in KINDS:
        k = Kernel(kind)
        X = rng.uniform(0.5, 1.5, 25)
        train = TrainingSet(X, 0.05)
        post = GPPosterior(train, k)
        for x in rng.uniform(0.5, 1.5, 50):
            v = post.variance(x)
            assert -1e-12 <= v <= k.prior_variance(x) + 1e-12


def test_adding_a_point_cannot_raise_variance():
    rng = np.random.default_rng(24)
    for _ in range(40):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        k = Kernel(kind)
        n = int(rng.integers(1, 30))
        X = rng.uniform(0.5, 1.5, n)
        extra = float(rng.uniform(0.5, 1.5))
        noise = float(rng.uniform(0.01, 0.5))
        x = float(rng.uniform(0.5, 1.5))
        before = GPPosterior(TrainingSet(X, noise), k).variance(x)
        after = GPPosterior(TrainingSet(np.append(X, extra), noise), k).variance(x)
        assert after <= before + 1e-10


def test_gershgorin_row_sum_dominates_top_eigenvalue():
    rng = np.random.default_rng(25)
    k = matern_half()
    for _ in range(10):
        n = int(rng.integers(2, 25))
        X = rng.uniform(0.5, 1.5, n)
        K = kernel_matrix(k, X)
        assert np.linalg.eigvalsh(K).max() <= n * K.max() + 1e-12


def test_batch_matches_scalar_queries():
    rng = np.random.default_rng(26)
    k = squared_exponential(lengthscale=0.3)
    train = TrainingSet(rng.uniform(0.0, 1.0, 50), 0.05)
    post = GPPosterior(train, k)
    xs = rng.uniform(0.0, 1.0, 20)
    batch = post.variance_batch(xs)
    singles = np.array([post.variance(x) for x in xs])
    assert np.allclose(batch, singles, rtol=1e-13, atol=1e-15)


def test_mean_requires_outputs():
    train = TrainingSet([1.0], 0.1)
    with pytest.raises(ValueError):
        GPPosterior(train, squared_exponential()).mean(1.0)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet([1.0], 0.0)
    with pytest.raises(ValueError):
        TrainingSet([1.0], -0.3)
    with pytest.raises(ValueError):
        TrainingSet([np.inf], 0.1)
    with pytest.raises(ValueError):
        TrainingSet([1.0, 2.0], 0.1, [1.0])


def test_factorization_failure_is_reported():
    # two coincident points with essentially no noise make A_N singular
    train = TrainingSet([1.0, 1.0], 1e-300)
    with pytest.raises(FactorizationError):
        GPPosterior(train, squared_exponential())


def test_batch_prior_is_each_points_prior_variance():
    """With no samples the batch returns the prior at each point, for
    isotropic and inner-product kernels alike."""
    xs = np.linspace(-1.0, 2.0, 7)
    for k in (squared_exponential(signal_variance=0.7), Kernel("polynomial")):
        post = GPPosterior(TrainingSet(np.empty(0), 0.1), k)
        expected = np.array([k.prior_variance(x) for x in xs])
        assert np.array_equal(post.variance_batch(xs), expected)


def test_triangular_quadratic_form_matches_cho_solve_oracle():
    """variance and variance_batch take k_x' A^{-1} k_x as |L^{-1} k_x|^2 on
    the dense route (N = 1, 50, and Matern-1/2 at 1220) and from the pivot
    features on the low-rank one.  On preset-shaped data both stay within
    1e-9 relative of the two-solve form prior - k_x' cho_solve(k_x), the
    benchmark's CSV tolerance.  The largest gap on this data is 1.9e-10
    (2.7e-10 over five other seeds), for the polynomial kernel at N = 1220,
    whose Gram has rank 4; every other kind stays below 2e-11."""
    rng = np.random.default_rng(27)
    xs = rng.uniform(0.5, 1.5, 200)
    for kind in KINDS:
        k = Kernel(kind)
        priors = np.array([k.prior_variance(x) for x in xs])
        for n in (1, 50, 1220):
            X = rng.uniform(0.5, 1.5, n)
            A = kernel_matrix(k, X) + 0.1 * np.eye(n)
            K_x = kernel_matrix(k, X, xs)
            oracle = priors - np.einsum("ij,ij->j", K_x,
                                        cho_solve(cho_factor(A, lower=True), K_x))
            post = GPPosterior(TrainingSet(X, 0.1), k)
            singles = np.array([post.variance(x) for x in xs[:20]])
            assert np.allclose(post.variance_batch(xs), oracle, rtol=1e-9, atol=0)
            assert np.allclose(singles, oracle[:20], rtol=1e-9, atol=0)


def test_two_column_points_are_rejected():
    """Inputs are scalars: a 2-column array, a length-2 point or a 2-row
    Lipschitz box raises KernelError rather than being read as 2-D."""
    X2 = np.random.default_rng(28).uniform(0.5, 1.5, (15, 2))
    k = squared_exponential(lengthscale=0.5)
    post = GPPosterior(TrainingSet(X2[:, 0], 0.1), k)
    with pytest.raises(KernelError):
        kernel_matrix(k, X2)
    with pytest.raises(KernelError):
        TrainingSet(X2, 0.1)
    with pytest.raises(KernelError):
        post.variance(np.array([1.0, 0.8]))
    with pytest.raises(KernelError):
        post.variance_batch(X2)
    with pytest.raises(KernelError):
        lipschitz_constant(Kernel("rational-quadratic"), [[0.5, 1.5], [0.5, 1.5]])


def _zero_above_diagonal_blocks(L):
    B = _GRAM_BLOCK
    return all(np.all(L[j:j + B, j + B:] == 0.0) for j in range(0, len(L), B))


def test_blocked_factor_equals_the_dense_factor(monkeypatch):
    """The factor built from the lower triangle, block by block, equals
    cho_factor of the full Gram bit for bit.  Above the diagonal blocks the
    buffer is never written and must stay exactly zero, since cho_factor's
    finiteness check scans it.  From N = _LOWRANK_MIN_N on, the smooth kinds
    take the low-rank route by default, so the dense route is compared with
    the threshold raised, and the factor the low-rank route makes for mean
    on first use is compared too.  The variance solves from the right, so
    it matches the left-side solve up to rounding, not bit for bit."""
    rng = np.random.default_rng(29)
    B = _GRAM_BLOCK
    xs = rng.uniform(0.5, 1.5, 50)
    for kind in KINDS:
        k = Kernel(kind)
        for n in (1, 2, B - 1, B, B + 1, B + 2, B + 3, 2 * B + 1, 300):
            X = rng.uniform(0.5, 1.5, n)
            oracle = cho_factor(kernel_matrix(k, X) + 0.1 * np.eye(n), lower=True)
            V = solve_triangular(oracle[0], kernel_matrix(k, X, xs), lower=True)
            priors = np.array([k.prior_variance(x) for x in xs])
            lazy = GPPosterior(TrainingSet(X, 0.1), k)
            with monkeypatch.context() as m:
                m.setattr(gp, "_LOWRANK_MIN_N", math.inf)
                post = GPPosterior(TrainingSet(X, 0.1), k)
            assert post.rank is None, (kind, n)
            for L in (post._cho, lazy._cho):
                assert np.array_equal(np.tril(L), np.tril(oracle[0])), (kind, n)
                assert _zero_above_diagonal_blocks(L), (kind, n)
            left = priors - np.einsum("ij,ij->j", V, V)
            assert np.all(np.abs(post.variance_batch(xs) - left) <= 1e-13 * priors), (kind, n)


def _left_side_variance(post, xs):
    """The posterior variance at xs from left-side solve_triangular calls on
    k(X, xs), with the factors of post's route made again."""
    k, X, s = post.kernel, post.train.inputs, post.train.noise_variance
    priors = kernel_diagonal(k, xs)
    if post.route == "dense":
        V = solve_triangular(post._cho, kernel_matrix(k, X, xs), lower=True)
        return priors - np.einsum("ij,ij->j", V, V)
    pivots, Phi = gp._pivoted_cholesky(k, X, s)
    R = cho_factor(Phi @ Phi.T + s * np.eye(pivots.size), lower=True)[0]
    G = solve_triangular(Phi[:, pivots], kernel_matrix(k, X[pivots], xs), trans="T")
    H = solve_triangular(R, G, lower=True)
    return priors - np.einsum("ij,ij->j", G, G) + s * np.einsum("ij,ij->j", H, H)


def test_right_side_solve_matches_the_left_side_oracle(monkeypatch):
    """The variance solves each query block k(xs, X) from the right with
    dtrsm.  On both routes (the dense one forced by raising _LOWRANK_MIN_N)
    it stays within 1e-13 k(x, x) of the left-side solve of k(X, xs) with
    the same factors, for one query and for 200, on both sides of the Gram
    block width and of _LOWRANK_MIN_N."""
    rng = np.random.default_rng(39)
    for kind in KINDS:
        k = Kernel(kind)
        for n in (1, 2, 20, 63, 64, 65, 127, 128, 300, 1220):
            X = rng.uniform(0.5, 1.5, n)
            xs = rng.uniform(0.5, 1.5, 200)
            with monkeypatch.context() as m:
                m.setattr(gp, "_LOWRANK_MIN_N", math.inf)
                dense = GPPosterior(TrainingSet(X, 0.1), k)
            for post in (dense, GPPosterior(TrainingSet(X, 0.1), k)):
                for queries in (xs[:1], xs):
                    oracle = _left_side_variance(post, queries)
                    gap = np.abs(post.variance_batch(queries) - oracle)
                    assert np.all(gap <= 1e-13 * kernel_diagonal(k, queries)), \
                        (kind, n, post.route, queries.size)
                gap = abs(post.variance(xs[0]) - oracle[0])
                assert gap <= 1e-13 * k.prior_variance(xs[0]), (kind, n, post.route)


def test_matern_half_never_enters_the_pivot_loop(monkeypatch):
    """A Matern-1/2 Gram is never low-rank, so _route takes the dense route
    without building a single pivot column, also from _LOWRANK_MIN_N on."""
    calls = []

    def spy(kernel, X):
        calls.append(X.size)
        return gram_columns(kernel, X)

    monkeypatch.setattr(gp, "gram_columns", spy)
    rng = np.random.default_rng(40)
    for n in (128, 300):
        post = GPPosterior(TrainingSet(rng.uniform(0.5, 1.5, n), 0.1), matern_half())
        assert post.route == "dense", n
    assert calls == []


def test_features_are_computed_once_per_point_set(monkeypatch):
    """A posterior computes its training inputs' features once, for the
    dense blocks, the diagonal, the pivot columns and the query blocks, and
    each variance_batch those of its query points once more.  The Gram
    blocks still come from kernel_matrix on both routes."""
    calls, blocks = [], []

    def spy_features(kernel, V):
        calls.append(V.size)
        return _features(kernel, V)

    def spy_matrix(kernel, X, Z=None):
        blocks.append(kernel)
        return kernel_matrix(kernel, X, Z)

    monkeypatch.setattr(kernels, "_features", spy_features)
    monkeypatch.setattr(gp, "kernel_matrix", spy_matrix)
    rng = np.random.default_rng(41)
    xs = rng.uniform(0.5, 1.5, 30)
    for kind in ("squared-exponential", "periodic", "neural-network"):
        for n, route in ((20, "dense"), (_GRAM_BLOCK + 36, "dense"), (300, "low-rank")):
            calls.clear()
            blocks.clear()
            post = GPPosterior(TrainingSet(rng.uniform(0.5, 1.5, n), 0.1), Kernel(kind))
            assert post.route == route, (kind, n)
            assert calls == [n], (kind, n)
            post.variance_batch(xs)
            post.variance_batch(xs[:1])
            assert calls == [n, xs.size, 1], (kind, n)
            assert blocks, (kind, n)


NN_KERNELS = (neural_network(),
              neural_network(bias_variance=0.3, weight_variance=7.0, signal_variance=2.5))


def _nn_ratio(kernel, X, Z):
    """The arcsine argument p_x p_z + q_x q_z, from p = sqrt(2 sb) r,
    q = sqrt(2 sw) x r and r = sqrt(a) / a with a = 1 + 2 (sb + sw x^2)."""
    sb, sw = kernel.bias_variance, kernel.weight_variance
    a_x, a_z = 1.0 + 2.0 * (sb + sw * (X * X)), 1.0 + 2.0 * (sb + sw * (Z * Z))
    r_x, r_z = np.sqrt(a_x) / a_x, np.sqrt(a_z) / a_z
    return (np.outer(math.sqrt(2.0 * sb) * r_x, math.sqrt(2.0 * sb) * r_z)
            + np.outer(math.sqrt(2.0 * sw) * X * r_x, math.sqrt(2.0 * sw) * Z * r_z))


def _nn_oracle(kernel, X, Z):
    ratio = np.clip(_nn_ratio(kernel, X, Z), -1.0, 1.0)
    return kernel.signal_variance * (2.0 / np.pi) * np.arcsin(ratio)


def test_in_place_nn_gram_equals_the_expression():
    """The in-place arcsine Gram, built from the per-point features p and q,
    equals the one-expression form bit for bit, and so do its pivot columns
    and its diagonal, also where the arcsine argument is clipped."""
    rng = np.random.default_rng(30)
    cases = [(rng.uniform(0.5, 1.5, n), rng.uniform(-2.0, 2.0, m))
             for n, m in ((1, 1), (10, 3), (300, 300), (1220, 64))]
    # coincident large points, where rounding pushes the ratio past 1
    big = np.repeat(rng.uniform(-1e9, 1e9, 40), 3)
    cases.append((big, big))
    clipped = False
    for k in NN_KERNELS:
        for X, Z in cases:
            clipped |= bool(np.any(_nn_ratio(k, X, Z) > 1.0))
            oracle = _nn_oracle(k, X, Z)
            fx, fz = _features(k, X), _features(k, Z)
            assert np.array_equal(_gram(k, [f[:, None] for f in fx], fz), oracle)
            assert np.array_equal(kernel_matrix(k, X, Z), oracle)
            column = gram_columns(k, Z)
            assert all(np.array_equal(column(j), col)
                       for j, col in enumerate(_nn_oracle(k, Z, Z).T))
            assert np.array_equal(kernel_diagonal(k, X), np.diag(_nn_oracle(k, X, X)))
    assert clipped


def _nn_textbook(kernel, X, Z):
    """s2 (2/pi) arcsin(2 (sb + sw x z) / sqrt(a_x a_z)) in np.longdouble."""
    ld = np.longdouble
    X, Z = X.astype(ld), Z.astype(ld)
    sb, sw = ld(kernel.bias_variance), ld(kernel.weight_variance)
    a_x, a_z = 1 + 2 * (sb + sw * X * X), 1 + 2 * (sb + sw * Z * Z)
    u = 2 * (sb + sw * np.multiply.outer(X, Z)) / np.sqrt(np.multiply.outer(a_x, a_z))
    return ld(kernel.signal_variance) * 2 / np.arccos(ld(-1)) * np.arcsin(u)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble has only double precision here")
def test_nn_gram_is_accurate_against_extended_precision():
    """The Gram from the features p and q stays within 16 eps s2 of the
    textbook form evaluated in extended precision, on [0.5, 1.5] and
    [-3, 3].  The worst case, over these draws and those of ten other
    seeds, measured 12.6 eps s2 (the form with a square root and a division
    per entry: 8.4), so the bound leaves about a quarter more."""
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for k in NN_KERNELS:
        for lo, hi in ((0.5, 1.5), (-3.0, 3.0)):
            for _ in range(5):
                X, Z = rng.uniform(lo, hi, (2, 300))
                err = np.abs(kernel_matrix(k, X, Z) - _nn_textbook(k, X, Z)).max()
                assert err <= 16 * eps * k.signal_variance, (k, lo, hi)


def test_non_finite_query_is_rejected():
    """A query whose covariances are not finite raises ValueError, from the
    mean as from the variance.  The squared-exponential covariance with an
    infinitely far point is a finite 0, so that query returns the prior."""
    X = np.linspace(0.0, 1.0, 5)
    for k in (squared_exponential(), Kernel("periodic"), neural_network()):
        post = GPPosterior(TrainingSet(X, 0.1, np.sin(X)), k)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                post.variance(np.nan)
            with pytest.raises(ValueError):
                post.mean(np.nan)
            with pytest.raises(ValueError):
                post.variance_batch([np.nan, 0.5])
            if k.kind != "squared-exponential":
                with pytest.raises(ValueError):
                    post.variance_batch([0.5, np.inf])
    post = GPPosterior(TrainingSet(X, 0.1), squared_exponential())
    assert post.variance_batch([0.5, np.inf])[1] == 1.0


def test_non_finite_covariance_is_rejected_on_both_routes(monkeypatch):
    """A training point at 1e200 gives the neural-network kernel a nan at
    k(x, x).  At N = 200 the checked kernel diagonal raises before the first
    pivot and before any dense factor is built; at N = 20 a checked block of
    the dense factor raises the same error."""
    rng = np.random.default_rng(34)
    k = neural_network()
    for n in (200, 20):
        X = rng.uniform(0.5, 1.5, n)
        X[n // 2] = 1e200
        with monkeypatch.context() as m:
            if n >= gp._LOWRANK_MIN_N:
                m.setattr(gp, "_dense_factor", lambda *args: pytest.fail("dense"))
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(ValueError, match="covariance matrix must be finite"):
                    GPPosterior(TrainingSet(X, 0.1), k)


def test_pivot_loop_rejects_a_non_finite_column(monkeypatch):
    """The pivot loop checks Phi once after its last step, not each column:
    an inf or a nan in the first or a later column still raises before any
    dense factor is built."""
    X = np.linspace(0.5, 1.5, 200)
    for bad, step in itertools.product((np.inf, np.nan), (0, 3)):
        def spoiled_columns(kernel, X):
            column, calls = gram_columns(kernel, X), []

            def spoiled(j):
                calls.append(j)
                c = column(j)
                if len(calls) == step + 1:
                    c[7] = bad
                return c
            return spoiled

        with monkeypatch.context() as m:
            m.setattr(gp, "gram_columns", spoiled_columns)
            m.setattr(gp, "_dense_factor", lambda *args: pytest.fail("dense"))
            with np.errstate(invalid="ignore"):
                with pytest.raises(FactorizationError, match="covariance matrix must be finite"):
                    GPPosterior(TrainingSet(X, 0.1), squared_exponential(0.3))


def test_grams_and_posteriors_do_not_call_iso(monkeypatch):
    """Gram blocks, diagonals, pivot columns and both posterior routes take
    k(tau) from the arithmetic of ``Kernel.iso`` without calling it, so
    without its tau >= 0 scan: with ``iso`` made to raise, each gives the
    bits it gave before."""
    rng = np.random.default_rng(21)
    X, Z = rng.uniform(0.5, 1.5, 40), rng.uniform(0.5, 1.5, 30)
    trains = [TrainingSet(rng.uniform(0.5, 1.5, n), 0.1) for n in (20, 300)]
    queries = rng.uniform(0.5, 1.5, 200)

    def results():
        out = []
        for kind in KINDS:
            k = Kernel(kind)
            column = gram_columns(k, X)
            out += [kernel_matrix(k, X, Z), kernel_diagonal(k, X), column(0), column(39)]
        posts = [GPPosterior(train, squared_exponential(0.3)) for train in trains]
        assert [post.rank is None for post in posts] == [True, False]
        return out + [post.variance_batch(queries) for post in posts]

    before = results()

    def refuse(self, tau):
        raise AssertionError("Kernel.iso called")

    monkeypatch.setattr(Kernel, "iso", refuse)
    for old, new in zip(before, results(), strict=True):
        assert old.tobytes() == new.tobytes()


SMOOTH_KINDS = tuple(kind for kind in KINDS if kind != "matern-1/2")


def _cho_solve_variance(kernel, X, noise, xs):
    """prior - k_x' A^{-1} k_x by cho_solve on the full Gram."""
    A = kernel_matrix(kernel, X) + noise * np.eye(X.size)
    K_x = kernel_matrix(kernel, X, xs)
    return (np.array([kernel.prior_variance(x) for x in xs])
            - np.einsum("ij,ij->j", K_x, cho_solve(cho_factor(A, lower=True), K_x)))


def _exact_polynomial_variance(kernel, X, noise, x):
    """The polynomial posterior variance in exact rational arithmetic.  With
    k(x, z) = s2 (xz + c)^d = sum_j w_j x^j z^j, w_j = s2 C(d, j) c^(d-j), V
    the Vandermonde rows of X and v that of x, the variance is
    s v'(V'V + s W^-1)^-1 v; the inputs are exact as rationals."""
    d = kernel.degree
    w = [Fraction(kernel.signal_variance) * math.comb(d, j)
         * Fraction(kernel.offset) ** (d - j) for j in range(d + 1)]
    s = Fraction(noise)
    ts = [Fraction(t) for t in X]
    power_sums = [sum(t ** p for t in ts) for p in range(2 * d + 1)]
    M = [[power_sums[i + j] + (s / w[i] if i == j else 0) for j in range(d + 1)]
         for i in range(d + 1)]
    v = [Fraction(x) ** j for j in range(d + 1)]
    a = list(v)
    # M is symmetric positive definite, so elimination needs no pivoting
    for c in range(d + 1):
        for r in range(c + 1, d + 1):
            f = M[r][c] / M[c][c]
            for cc in range(c, d + 1):
                M[r][cc] -= f * M[c][cc]
            a[r] -= f * a[c]
    for c in reversed(range(d + 1)):
        a[c] = (a[c] - sum(M[c][cc] * a[cc] for cc in range(c + 1, d + 1))) / M[c][c]
    return float(s * sum(vj * aj for vj, aj in zip(v, a)))


def test_low_rank_route_matches_the_dense_oracle():
    """On the variance presets' shape ([0.5, 1.5], s = 0.1, default
    parameters) and the learning curves' (l = 0.3 on [0, 1], s = 0.05), the
    variance at 1 and at 200 query points stays within 1e-10 relative of a
    dense cho_solve oracle on both sides of _LOWRANK_MIN_N.  The polynomial
    kernel gets 1e-9: its Gram has rank 4, and against a 40-digit value from
    its four exact features the dense oracle itself is off by up to 2.2e-10
    at N = 2000, the low-rank route by 7.4e-11."""
    rng = np.random.default_rng(31)
    n_min = gp._LOWRANK_MIN_N
    cases = [(Kernel(kind), (0.5, 1.5), 0.1) for kind in SMOOTH_KINDS]
    cases += [(Kernel(kind, lengthscale=0.3), (0.0, 1.0), 0.05)
              for kind in ("squared-exponential", "rational-quadratic", "periodic")]
    for k, domain, noise in cases:
        rtol = 1e-9 if k.kind == "polynomial" else 1e-10
        for n in (n_min - 1, n_min, n_min + 1, 300, 1220, 2000):
            X = rng.uniform(*domain, n)
            xs = rng.uniform(*domain, 200)
            post = GPPosterior(TrainingSet(X, noise), k)
            oracle = _cho_solve_variance(k, X, noise, xs)
            if n < n_min:
                assert post.rank is None, (k, n)
            if n >= 300:
                assert post.rank is not None, (k, n)
            assert np.allclose(post.variance_batch(xs), oracle, rtol=rtol, atol=0), (k, n)
            assert math.isclose(post.variance(xs[0]), oracle[0], rel_tol=rtol), (k, n)


def test_periodic_above_the_rank_cap_takes_the_dense_route(monkeypatch):
    """A periodic Gram (l = 0.3) at N = 200 needs more pivots than the cap
    N // 4 allows.  The posterior takes that many pivot columns, then builds
    the Gram once, block by block, and equals the dense route bit for bit."""
    rng = np.random.default_rng(32)
    k = periodic(lengthscale=0.3)
    n = 200
    X = rng.uniform(0.0, 1.0, n)
    xs = rng.uniform(0.0, 1.0, 20)
    with monkeypatch.context() as m:
        m.setattr(gp, "_LOWRANK_MIN_N", math.inf)
        dense = GPPosterior(TrainingSet(X, 0.05), k)
    shapes = []

    def spy_matrix(kernel, A, B=None):
        out = kernel_matrix(kernel, A, B)
        shapes.append(out.shape)
        return out

    def spy_columns(kernel, A):
        column = gram_columns(kernel, A)

        def spy(j):
            out = column(j)
            shapes.append((out.size, 1))
            return out
        return spy

    monkeypatch.setattr(gp, "kernel_matrix", spy_matrix)
    monkeypatch.setattr(gp, "gram_columns", spy_columns)
    post = GPPosterior(TrainingSet(X, 0.05), k)
    assert post.rank is None
    pivots = [(n, 1)] * (n // gp._RANK_CAP_DIVISOR)
    blocks = [(min(_GRAM_BLOCK, n - j), n - j) for j in range(0, n, _GRAM_BLOCK)]
    assert shapes == pivots + blocks
    assert np.array_equal(post._cho, dense._cho)
    assert np.array_equal(post.variance_batch(xs), dense.variance_batch(xs))
    assert post.variance(xs[0]) == dense.variance(xs[0])


def test_one_point_variance_runs_no_factorization(monkeypatch):
    """variance neither calls variance_batch, which the benchmark's tracer
    also counts, nor factors anything: the dense and low-rank routes factor
    at construction in ``_route``, and only mean makes the dense factor off
    the dense route."""
    rng = np.random.default_rng(33)
    X = rng.uniform(0.0, 1.0, 200)
    posts = [GPPosterior(TrainingSet(X, 0.05, np.sin(X)), kernel)
             for kernel in (squared_exponential(lengthscale=0.3),
                            matern_half(lengthscale=0.3))]
    assert [post.rank for post in posts] == [17, None]

    def fail(*args, **kwargs):
        raise AssertionError("called")

    with monkeypatch.context() as m:
        m.setattr(GPPosterior, "variance_batch", fail)
        m.setattr(gp, "dpotrf", fail)
        values = [post.variance(0.4) for post in posts]
    for post, v in zip(posts, values):
        assert post.variance_batch([0.4])[0] == v
    _, mean = dense_oracle(posts[0].kernel, X, np.sin(X), 0.05, 0.4)
    assert math.isclose(posts[0].mean(0.4), mean, rel_tol=1e-10)


def test_route_is_chosen_from_the_kind_and_n():
    """No training points is the prior route; below _LOWRANK_MIN_N every
    kind is dense; at it every kind but Matern-1/2, whose Gram is never
    low-rank, keeps its pivoted factor.  rank is set on the low-rank route
    alone."""
    rng = np.random.default_rng(36)
    for kind in KINDS:
        for n in (0, 1, 127, 128):
            post = GPPosterior(TrainingSet(rng.uniform(0.5, 1.5, n), 0.1), Kernel(kind))
            if n == 0:
                assert post.route == "prior", kind
                assert np.array_equal(post.variance_batch([0.7, 1.2]),
                                      kernel_diagonal(post.kernel, [0.7, 1.2]))
            elif n < 128 or kind == "matern-1/2":
                assert post.route == "dense", (kind, n)
            else:
                assert post.route == "low-rank", kind
            assert (post.rank is None) == (post.route != "low-rank"), (kind, n)
    with pytest.raises(AttributeError):
        post.route = "dense"
    # periodic with l = 0.3 needs more pivots than N // 4 and falls back
    post = GPPosterior(TrainingSet(rng.uniform(0.0, 1.0, 128), 0.05), periodic(0.3))
    assert (post.route, post.rank) == ("dense", None)


def test_mean_reuses_the_dense_route_factor(monkeypatch):
    """On the dense route the factor made at construction serves mean too:
    one dpotrf in all.  The low-rank route factors R at construction and
    makes the dense factor on the first mean only."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(gp, "dpotrf", counted)
    rng = np.random.default_rng(38)
    for n, route, sizes in ((20, "dense", [20]), (200, "low-rank", [10, 200])):
        calls.clear()
        X = rng.uniform(0.5, 1.5, n)
        post = GPPosterior(TrainingSet(X, 0.1, np.sin(X)), squared_exponential())
        assert post.route == route
        means = [post.mean(x) for x in (0.6, 0.9, 1.3)]
        post.variance_batch([0.6, 0.9])
        assert calls == sizes, route
        for x, m in zip((0.6, 0.9, 1.3), means):
            assert math.isclose(m, dense_oracle(post.kernel, X, np.sin(X), 0.1, x)[1],
                                rel_tol=1e-9), (route, x)


def test_construction_factors_where_cholesky_could_fail():
    """Matern-1/2, and tiny noise, whose pivot residual is not negligible
    against it, take the dense route, which factors at construction and so
    raises FactorizationError there; preset-sized noise on a smooth kernel
    takes the low-rank route."""
    X = np.linspace(0.5, 1.5, 1220)
    assert GPPosterior(TrainingSet(X, 0.1), matern_half()).rank is None
    assert GPPosterior(TrainingSet(X, 1e-12), squared_exponential()).rank is None
    assert GPPosterior(TrainingSet(X, 0.1), squared_exponential()).rank == 10
    with pytest.raises(FactorizationError):
        GPPosterior(TrainingSet(X, 1e-300), squared_exponential())
    with pytest.raises(FactorizationError):
        GPPosterior(TrainingSet([1.0, 1.0], 1e-300), squared_exponential())


def test_factorization_error_names_n_and_the_failing_minor():
    """The third point repeats the first, so with noise 1e-300 the leading
    minor of order 3 is the first that is not positive definite."""
    with pytest.raises(FactorizationError, match=r"^squared-exponential kernel, N=3: "
                                                 r"the leading minor of order 3 "):
        GPPosterior(TrainingSet([1.0, 0.5, 1.0], 1e-300), squared_exponential())


@st.composite
def smooth_posteriors(draw):
    """A smooth kernel with every parameter its kind reads drawn, noise, and
    N in [_LOWRANK_MIN_N, 400] inputs on [0.5, 1.5] from a drawn seed."""
    kind = draw(st.sampled_from(SMOOTH_KINDS))
    params = {"signal_variance": draw(st.floats(0.25, 4.0))}
    for name in KERNEL_PARAMS[kind]:
        if name == "degree":
            params[name] = draw(st.integers(1, 4))
        elif name != "signal_variance":
            params[name] = draw(st.floats(0.3, 2.0))
    n = draw(st.integers(gp._LOWRANK_MIN_N, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Kernel(kind, **params), rng.uniform(0.5, 1.5, n), draw(st.floats(0.01, 0.5))


@settings(max_examples=40, deadline=None)
@given(case=smooth_posteriors(), x=st.floats(0.5, 1.5))
# the polynomial case where the dense cho_solve value misses the exact value
# by 8.0e-10 relative; pinned because the drawn examples change with the
# literals of the project's modules
@example(case=(polynomial(offset=1.77, degree=4, signal_variance=3.97),
               np.random.default_rng(0).uniform(0.5, 1.5, 128), 0.01), x=1.5)
def test_low_rank_variance_is_dense_and_non_negative(case, x):
    """Whichever route a smooth kernel takes, the variance is non-negative
    and within 1e-10 relative of the dense cho_solve value.  The polynomial
    kernel is held to 1e-9 of its exact value: there the cho_solve value
    itself can be off by 8.5e-10 (degree 4, c = 1.77, N = 128, noise 0.01,
    x = 1.5, where the variance is 1e-6 of k(x, x))."""
    kernel, X, noise = case
    v = GPPosterior(TrainingSet(X, noise), kernel).variance(x)
    if kernel.kind == "polynomial":
        oracle, rtol = _exact_polynomial_variance(kernel, X, noise, x), 1e-9
    else:
        oracle, rtol = _cho_solve_variance(kernel, X, noise, [x])[0], 1e-10
    assert v >= 0
    assert abs(v - oracle) <= rtol * oracle
