import math

import numpy as np
import pytest

from gpbounds.bounds import bound_report
from gpbounds.gp import TrainingSet
from gpbounds.kernels import (ALL_KINDS, ISOTROPIC_KINDS, Kernel, KernelError,
                              as_points, kernel_matrix, kernel_vector,
                              lipschitz_constant, make_kernel, matern_half,
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
        k = make_kernel(kind, signal_variance=1.7)
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
        make_kernel("triangle")
    with pytest.raises(KernelError):
        make_kernel("periodic", alpha=2.0)
    with pytest.raises(KernelError):
        make_kernel("periodic", perod=2.0)
    with pytest.raises(KernelError):
        Kernel("squared-exponential", alpha=2.0)
    with pytest.raises(KernelError):
        polynomial(degree=2.5)
    assert Kernel("polynomial") == polynomial()


def test_as_points_shapes():
    assert as_points(1.0).shape == (1, 1)
    assert as_points([1.0, 2.0, 3.0]).shape == (3, 1)
    assert as_points([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(KernelError):
        as_points(np.zeros((2, 2, 2)))


# ---------------------------------------------------------- matrix structure

def test_symmetry_exact():
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, 40)
    for k in all_kernels():
        K = kernel_matrix(k, X)
        assert np.array_equal(K, K.T)


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


def test_kernel_vector_matches_matrix_column():
    rng = np.random.default_rng(13)
    X = rng.uniform(0.0, 1.0, 9)
    for k in all_kernels():
        v = kernel_vector(k, X, 0.4)
        assert v.shape == (9,)
        assert np.allclose(v, kernel_matrix(k, X, [0.4])[:, 0], rtol=0,
                           atol=0)


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
    assert est.method == "analytic"
    assert math.isclose(est.value, math.exp(-0.5) / 2.0, rel_tol=1e-15)


def test_lipschitz_matern_analytic():
    est = lipschitz_constant(matern_half(signal_variance=3.0), (0.0, 1.0))
    assert est.method == "analytic"
    assert est.value == 3.0


def test_lipschitz_degenerate_domain():
    est = lipschitz_constant(rational_quadratic(), (1.0, 1.0))
    assert est.value == 0.0
    assert est.method == "analytic"


def test_lipschitz_grid_vs_analytic_on_se():
    analytic = lipschitz_constant(squared_exponential(), (0.0, 3.0))
    grid = lipschitz_constant(squared_exponential(), (0.0, 3.0),
                              method="grid-estimate")
    assert grid.method == "grid-estimate"
    assert grid.safety_factor == 1.05
    assert math.isclose(grid.value, 1.05 * analytic.value, rel_tol=2e-3)


def test_lipschitz_analytic_unavailable_rejected():
    with pytest.raises(KernelError):
        lipschitz_constant(periodic(), (0.0, 1.0), method="analytic")


def test_lipschitz_validity_sweep():
    """|k(x',z) - k(x,z)| <= L * |x' - x| for random in-domain triples."""
    rng = np.random.default_rng(15)
    domain = (0.5, 1.5)
    for k in all_kernels():
        L = lipschitz_constant(k, domain).value
        x, xp, z = rng.uniform(0.5, 1.5, (3, 2000))
        lhs = np.abs([k(a, c) - k(b, c) for a, b, c in zip(x, xp, z)])
        assert np.all(lhs <= L * np.abs(x - xp) + 1e-12)


def test_lipschitz_grid_value_rq():
    # max |dk/dtau| for the alpha=1 form sits at tau = sqrt(2/3)
    tau = math.sqrt(2.0 / 3.0)
    exact = tau * (1.0 + 0.5 * tau * tau) ** -2
    est = lipschitz_constant(rational_quadratic(), (0.0, 2.0))
    assert est.method == "grid-estimate"
    assert math.isclose(est.value, 1.05 * exact, rel_tol=1e-3)
