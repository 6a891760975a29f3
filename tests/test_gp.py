import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from gpbounds.gp import _GRAM_BLOCK, FactorizationError, GPPosterior, TrainingSet
from gpbounds.kernels import (_nn_gram, kernel_matrix, kernel_vector, make_kernel,
                              matern_half, neural_network, squared_exponential)

KINDS = ("squared-exponential", "matern-1/2", "rational-quadratic",
         "periodic", "polynomial", "neural-network")


def dense_oracle(kernel, X, y, noise, x):
    """Independent reference: explicit inverse instead of a factorization."""
    A = kernel_matrix(kernel, X) + noise * np.eye(len(X))
    Ainv = np.linalg.inv(A)
    kx = kernel_vector(kernel, X, x)
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
        k = make_kernel(kind)
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
        k = make_kernel(kind)
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
        k = make_kernel(kind)
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
    for k in (squared_exponential(signal_variance=0.7), make_kernel("polynomial")):
        post = GPPosterior(TrainingSet(np.empty(0), 0.1), k)
        expected = np.array([k.prior_variance(x) for x in xs])
        assert np.array_equal(post.variance_batch(xs), expected)


def test_triangular_quadratic_form_matches_cho_solve_oracle():
    """variance and variance_batch take k_x' A^{-1} k_x as |L^{-1} k_x|^2.
    On preset-shaped data they stay within 1e-9 relative of the two-solve
    form prior - k_x' cho_solve(k_x), the benchmark's CSV tolerance.  The
    largest gap on this data is 3.4e-10 (4.2e-10 over five other seeds), for
    the polynomial kernel at N = 1220, whose Gram has rank 4; every other
    kind stays below 2e-11."""
    rng = np.random.default_rng(27)
    xs = rng.uniform(0.5, 1.5, 200)
    for kind in KINDS:
        k = make_kernel(kind)
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


def test_two_dimensional_point_is_one_query():
    """A length-2 point is one 2-D query, not two scalar ones."""
    rng = np.random.default_rng(28)
    X = rng.uniform(0.5, 1.5, (15, 2))
    x = np.array([1.0, 0.8])
    for k in (squared_exponential(lengthscale=0.5), make_kernel("neural-network")):
        post = GPPosterior(TrainingSet(X, 0.1), k)
        v = post.variance(x)
        assert v == post.variance_batch(x.reshape(1, -1))[0]
        A = kernel_matrix(k, X) + 0.1 * np.eye(len(X))
        k_x = kernel_vector(k, X, x)
        oracle = k.prior_variance(x) - k_x @ np.linalg.solve(A, k_x)
        assert math.isclose(v, oracle, rel_tol=1e-10)


def _zero_above_diagonal_blocks(L):
    B = _GRAM_BLOCK
    return all(np.all(L[j:j + B, j + B:] == 0.0) for j in range(0, len(L), B))


def test_blocked_factor_equals_the_dense_factor():
    """The factor built from the lower triangle, block by block, equals
    cho_factor of the full Gram bit for bit in 1-D.  Above the diagonal
    blocks the buffer is never written and must stay exactly zero, since
    cho_factor's finiteness check scans it.  In 2-D a block's matmul may
    round differently by an ulp, so that case is held to 1e-12."""
    rng = np.random.default_rng(29)
    B = _GRAM_BLOCK
    xs = rng.uniform(0.5, 1.5, 50)
    for kind in KINDS:
        k = make_kernel(kind)
        for n in (1, 2, B - 1, B, B + 1, 2 * B + 1, 300):
            X = rng.uniform(0.5, 1.5, n)
            oracle = cho_factor(kernel_matrix(k, X) + 0.1 * np.eye(n), lower=True)
            post = GPPosterior(TrainingSet(X, 0.1), k)
            L = post._cho[0]
            assert np.array_equal(np.tril(L), np.tril(oracle[0])), (kind, n)
            assert _zero_above_diagonal_blocks(L), (kind, n)
            V = solve_triangular(oracle[0], kernel_matrix(k, X, xs), lower=True)
            priors = np.array([k.prior_variance(x) for x in xs])
            assert np.array_equal(post.variance_batch(xs),
                                  priors - np.einsum("ij,ij->j", V, V)), (kind, n)
    X2 = rng.uniform(0.5, 1.5, (2 * B + 1, 2))
    for k in (squared_exponential(lengthscale=0.5), make_kernel("polynomial"),
              make_kernel("neural-network")):
        oracle = cho_factor(kernel_matrix(k, X2) + 0.1 * np.eye(len(X2)), lower=True)
        L = GPPosterior(TrainingSet(X2, 0.1), k)._cho[0]
        assert np.allclose(np.tril(L), np.tril(oracle[0]), rtol=1e-12, atol=0)
        assert _zero_above_diagonal_blocks(L)


def _nn_ratio(kernel, X, Z):
    sb, sw = kernel.bias_variance, kernel.weight_variance
    s_xz = sb + sw * (X @ Z.T)
    s_xx = sb + sw * np.sum(X * X, axis=1)
    s_zz = sb + sw * np.sum(Z * Z, axis=1)
    denom = np.sqrt(np.outer(1.0 + 2.0 * s_xx, 1.0 + 2.0 * s_zz))
    return 2.0 * s_xz / denom


def test_in_place_nn_gram_equals_the_expression():
    """The in-place arcsine Gram equals the one-expression form bit for bit."""
    rng = np.random.default_rng(30)
    kernels = (neural_network(),
               neural_network(bias_variance=0.3, weight_variance=7.0, signal_variance=2.5))
    cases = [(rng.uniform(0.5, 1.5, (n, 1)), rng.uniform(-2.0, 2.0, (m, 1)))
             for n, m in ((1, 1), (10, 3), (300, 300), (1220, 64))]
    # coincident large points, where rounding pushes the ratio past 1
    big = np.repeat(rng.uniform(-1e9, 1e9, (40, 1)), 3, axis=0)
    cases.append((big, big))
    cases.append((rng.uniform(-1.0, 1.0, (50, 2)), rng.uniform(-1.0, 1.0, (20, 2))))
    clipped = False
    for k in kernels:
        for X, Z in cases:
            ratio = _nn_ratio(k, X, Z)
            clipped |= bool(np.any(ratio > 1.0))
            oracle = k.signal_variance * (2.0 / np.pi) * np.arcsin(np.clip(ratio, -1.0, 1.0))
            assert np.array_equal(_nn_gram(k, X, Z), oracle)
            assert np.array_equal(kernel_matrix(k, X, Z), oracle)
    assert clipped


def test_non_finite_query_is_rejected():
    """A query whose covariances are not finite raises ValueError.  The
    squared-exponential covariance with an infinitely far point is a finite
    0, so that query returns the prior."""
    X = np.linspace(0.0, 1.0, 5)
    for k in (squared_exponential(), make_kernel("periodic"), neural_network()):
        post = GPPosterior(TrainingSet(X, 0.1), k)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                post.variance(np.nan)
            with pytest.raises(ValueError):
                post.variance_batch([np.nan, 0.5])
            if k.kind != "squared-exponential":
                with pytest.raises(ValueError):
                    post.variance_batch([0.5, np.inf])
    post = GPPosterior(TrainingSet(X, 0.1), squared_exponential())
    assert post.variance_batch([0.5, np.inf])[1] == 1.0
