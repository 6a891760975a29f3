import math

import numpy as np
import pytest

from gpbounds.gp import (FactorizationError, GPPosterior, TrainingSet,
                         posterior_mean, posterior_variance)
from gpbounds.kernels import (kernel_matrix, kernel_vector, make_kernel,
                              matern_half, squared_exponential)

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
    assert posterior_variance(train, k, 0.7) == 1.0
    assert posterior_mean(TrainingSet(np.empty(0), 0.1, np.empty(0)), k, 0.7) == 0.0


def test_single_point_at_test_location():
    train = TrainingSet([1.0], 0.1, [1.0])
    k = squared_exponential()
    assert math.isclose(posterior_variance(train, k, 1.0), 1.0 / 11.0,
                        rel_tol=1e-14)
    assert math.isclose(posterior_mean(train, k, 1.0), 1.0 / 1.1,
                        rel_tol=1e-14)


def test_random_instance_matches_dense_oracle():
    rng = np.random.default_rng(21)
    k = squared_exponential()
    X = rng.uniform(0.5, 1.5, 30)
    y = rng.standard_normal(30)
    train = TrainingSet(X, 0.1, y)
    var, mean = dense_oracle(k, X.reshape(-1, 1), y, 0.1, 1.0)
    assert math.isclose(posterior_variance(train, k, 1.0), var, rel_tol=1e-10)
    assert math.isclose(posterior_mean(train, k, 1.0), mean, rel_tol=1e-10)


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
            assert abs(posterior_variance(train, k, x) - var) <= 1e-10 * max(1.0, abs(var))
            assert abs(posterior_mean(train, k, x) - mean) <= 1e-10 * max(1.0, abs(mean))


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
        before = posterior_variance(TrainingSet(X, noise), k, x)
        after = posterior_variance(TrainingSet(np.append(X, extra), noise), k, x)
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


def test_query_record():
    train = TrainingSet([1.0], 0.1, [2.0])
    post = GPPosterior(train, squared_exponential())
    q = post.query(1.0)
    assert math.isclose(q.variance, 1.0 / 11.0, rel_tol=1e-13)
    assert math.isclose(q.mean, 2.0 / 1.1, rel_tol=1e-13)
    assert q.x.shape == (1,)


def test_mean_requires_outputs():
    train = TrainingSet([1.0], 0.1)
    with pytest.raises(ValueError):
        posterior_mean(train, squared_exponential(), 1.0)


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
