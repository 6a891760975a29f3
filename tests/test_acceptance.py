"""Acceptance gate: ten end-to-end checks with wall-clock budgets.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -s``) and fails if either the numerical check or the runtime
budget is violated.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from gpbounds.bounds import RadiusSchedule, bound_report, isotropic_bound
from gpbounds.cli import main as cli_main
from gpbounds.convergence import (bernoulli_central_moment,
                                  binomial_moment_bound, check_theorem32,
                                  uniform, vanishing)
from gpbounds.curves import (e1_bound, e2_bound, e_rho_bound,
                             greedy_select_n, monte_carlo_curve)
from gpbounds.experiments import log_grid
from gpbounds.gp import GPPosterior, TrainingSet
from gpbounds.kernels import (kernel_matrix, lipschitz_constant, make_kernel,
                              matern_half, neural_network, periodic, polynomial,
                              rational_quadratic, squared_exponential)

KINDS = ("squared-exponential", "matern-1/2", "rational-quadratic",
         "periodic", "polynomial", "neural-network")


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        over = elapsed > budget_s
        verdict = "PASS" if ok and not over else "FAIL"
        print(f"\n[criterion {num:02d}] {verdict} {label} "
              f"({elapsed:.1f}s, budget {budget_s:.0f}s)")
    if over:
        raise AssertionError(
            f"criterion {num} ran {elapsed:.1f}s, over the {budget_s:.0f}s budget")


def random_kernel(kind, rng):
    scale = float(rng.uniform(0.3, 2.0))
    amp = float(rng.uniform(0.5, 2.0))
    if kind == "squared-exponential":
        return squared_exponential(scale, amp)
    if kind == "matern-1/2":
        return matern_half(scale, amp)
    if kind == "rational-quadratic":
        return rational_quadratic(scale, amp)
    if kind == "periodic":
        return periodic(scale, amp)
    if kind == "polynomial":
        return polynomial(offset=float(rng.uniform(0.5, 2.0)))
    return neural_network(bias_variance=float(rng.uniform(0.5, 2.0)))


def dense_oracle(kernel, X, y, noise, x):
    A = kernel_matrix(kernel, X) + noise * np.eye(len(X))
    Ainv = np.linalg.inv(A)
    kx = kernel_matrix(kernel, X, x)[:, 0]
    var = kernel.prior_variance(x) - kx @ Ainv @ kx
    mean = None if y is None else kx @ Ainv @ np.asarray(y)
    return var, mean


def test_criterion_01_posterior_matches_dense_inverse():
    rng = np.random.default_rng(101)
    with criterion(1, "posterior variance and mean match a dense-inverse "
                      "oracle on 100 random instances", 10.0):
        for i in range(100):
            kernel = random_kernel(KINDS[i % len(KINDS)], rng)
            n = int(rng.integers(1, 51))
            noise = float(rng.uniform(0.01, 0.5))
            X = rng.uniform(0.5, 1.5, n)
            y = rng.standard_normal(n)
            x = float(rng.uniform(0.5, 1.5))
            post = GPPosterior(TrainingSet(X, noise, y), kernel)
            var, mean = dense_oracle(kernel, X.reshape(-1, 1), y, noise, x)
            assert abs(post.variance(x) - var) <= 1e-10 * max(1.0, abs(var))
            mean_scale = max(abs(mean), 1e-2 * max(1.0, float(np.max(np.abs(y)))))
            assert abs(post.mean(x) - mean) <= 1e-10 * mean_scale


def test_criterion_02_bounds_dominate_exact_variance():
    rng = np.random.default_rng(102)
    with criterion(2, "every applicable bound dominates the exact variance "
                      "on 1000 random configurations", 60.0):
        for i in range(1000):
            kernel = random_kernel(KINDS[i % len(KINDS)], rng)
            n = int(rng.integers(1, 201))
            noise = float(rng.uniform(0.01, 0.5))
            train = TrainingSet(rng.uniform(0.5, 1.5, n), noise)
            x = float(rng.uniform(0.5, 1.5))
            lip = lipschitz_constant(kernel, (0.5, 1.5))
            radius = float(rng.uniform(0.01, 0.6))
            if lip > 0:
                radius = min(radius, 0.99 * kernel.prior_variance(x) / lip)
            rep = bound_report(train, kernel, x, radius, lip)
            floor = rep.exact - 1e-10
            assert rep.lipschitz >= floor
            for value in (rep.isotropic, rep.one_point, rep.two_point):
                if value is not None:
                    assert value >= floor


def test_criterion_03_extra_sample_never_raises_variance():
    rng = np.random.default_rng(103)
    with criterion(3, "adding one training point never raises the "
                      "posterior variance (200 trials)", 10.0):
        for i in range(200):
            kernel = random_kernel(KINDS[i % len(KINDS)], rng)
            n = int(rng.integers(0, 31))
            noise = float(rng.uniform(0.01, 0.5))
            X = rng.uniform(0.5, 1.5, n)
            x = float(rng.uniform(0.5, 1.5))
            before = GPPosterior(TrainingSet(X, noise), kernel).variance(x)
            grown = np.append(X, rng.uniform(0.5, 1.5))
            after = GPPosterior(TrainingSet(grown, noise), kernel).variance(x)
            assert after <= before + 1e-10


def test_criterion_04_curve_bounds_reach_asymptotes():
    kernel = squared_exponential(lengthscale=0.3)
    s = 0.05
    with criterion(4, "nearest-sample and pair curve bounds land within 5% "
                      "of their large-N limits", 120.0):
        target1 = s * (2.0 + s) / (1.0 + s)
        target2 = s * (3.0 + s) / (2.0 + s)
        got1 = e1_bound(kernel, s, 10_000)
        got2 = e2_bound(kernel, s, 10_000)
        assert abs(got1 - target1) <= 0.05 * target1
        assert abs(got2 - target2) <= 0.05 * target2


def test_criterion_05_scheduled_bound_decay_rates():
    with criterion(5, "ball-count bound under a shrinking radius schedule "
                      "decays at the predicted log-log slope", 60.0):
        cases = (("squared-exponential", 1.0 / 3.0, -2.0 / 3.0, 0.15),
                 ("matern-1/2", 0.5, -0.5, 0.10))
        ns = np.unique(np.round(np.logspace(3, 5, 21)).astype(int))
        for kind, alpha, slope_target, slope_tol in cases:
            kernel = make_kernel(kind)
            schedule = RadiusSchedule(1.0, alpha)
            values = []
            for n in ns:
                rho = schedule.raw(int(n))
                # expected samples inside the ball on a width-one uniform
                # domain; the bound takes the integer count
                b = max(1, int(math.floor(n * min(1.0, 2.0 * rho))))
                values.append(isotropic_bound(kernel, b, rho, 0.1))
            slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
            assert abs(slope - slope_target) <= slope_tol


def test_criterion_06_section_bound_ordering_on_curve_grid():
    kernel = squared_exponential(lengthscale=0.3)
    s = 0.05
    with criterion(6, "section bound beats both pair bounds at the top of "
                      "the curve grid and merges with the nearest-sample "
                      "bound at the bottom", 180.0):
        grid = log_grid(1, 2000, 25)
        n_hi, n_lo = max(grid), min(grid)
        assert n_hi >= 2000 and n_lo == 1
        size = greedy_select_n(kernel, s, n_hi)
        assert size > 1
        best = e_rho_bound(kernel, s, n_hi, size)
        assert best < e1_bound(kernel, s, n_hi)
        assert best < e2_bound(kernel, s, n_hi)
        table = monte_carlo_curve(kernel, s, [n_lo], test_points=1,
                                  datasets=2, seed=1)
        row = table.rows[0]
        assert row.n_selected == 1
        assert row.e_rho == row.e1


def test_criterion_07_monte_carlo_curve_inside_envelope():
    s = 0.05
    kernels = (squared_exponential(lengthscale=0.3),
               matern_half(lengthscale=0.3),
               rational_quadratic(lengthscale=0.3),
               periodic(lengthscale=0.3))
    with criterion(7, "Monte Carlo learning curve stays between the noise "
                      "floor and the selected bound for four kernels", 300.0):
        grid = log_grid(1, 500, 10)
        for kernel in kernels:
            table = monte_carlo_curve(kernel, s, grid, test_points=200,
                                      datasets=20, seed=1)
            for row in table.rows:
                assert row.e_num >= s
                assert row.e_num <= row.e_rho + 3.0 * row.e_num_se


def test_criterion_08_moment_helpers_vs_enumeration():
    with criterion(8, "closed-form moment helpers match and dominate "
                      "direct enumeration", 30.0):
        for p in np.linspace(0.0, 1.0, 101):
            p = float(p)
            for k in range(1, 11):
                exact = (1.0 - p) * (0.0 - p) ** k + p * (1.0 - p) ** k
                assert abs(bernoulli_central_moment(p, k) - exact) <= 1e-12
        for n in range(1, 31):
            for p in np.linspace(0.05, 0.95, 19):
                p = float(p)
                for k in (1, 2, 3):
                    mean = n * p
                    exact = sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                                * (j - mean) ** (2 * k) for j in range(n + 1))
                    assert binomial_moment_bound(n, p, k) >= exact - 1e-12


def test_criterion_09_growth_checker_truth_table():
    U = uniform(0.5, 1.5)
    V = vanishing(1.0, 0.5)
    # (density, x, schedule coeff, schedule exponent, demand coeff,
    #  demand exponent, satisfied, first failing N)
    table = (
        (U, 1.0, 1.0, 0.5, 1.0, 0.5, True, None),
        (U, 1.0, 1.0, 0.5, 2.5, 0.5, False, 1),
        (U, 1.0, 0.5, 0.25, 1.0, 0.75, True, None),
        (U, 1.0, 1.0, 2.0 / 3.0, 1.0, 0.5, False, 65),
        (U, 1.0, 1.0, 1.0, 0.5, 0.9, False, 5),
        (U, 1.0, 2.0, 0.5, 1.0, 0.5, True, None),
        (U, 1.0, 1.0, 0.5, 2.0, 0.5, False, 1),
        (U, 0.5, 1.0, 0.5, 2.0, 0.5, False, 1),
        (U, 1.0, 0.25, 0.5, 0.5, 0.5, True, None),
        (U, 1.0, 1.0, 0.5, 1.0, 0.6, False, 1025),
        (U, 1.0, 0.1, 1.0, 1.5, 0.5, False, 1),
        (V, 1.0, 1.0, 0.5, 1.0, 0.5, False, 17),
        (V, 1.0, 1.0, 0.25, 1.0, 0.5, True, None),
        (V, 1.0, 1.0, 1.0 / 3.0, 1.0, 0.5, False, 4097),
        (V, 1.0, 1.0, 0.2, 1.0, 0.5, True, None),
        (V, 1.0, 1.0, 0.25, 1.5, 0.5, False, 1),
        (V, 1.0, 2.0, 0.25, 1.0, 0.5, True, None),
        (V, 1.0, 0.5, 0.25, 1.0, 0.5, True, None),
        (V, 1.0, 0.5, 0.5, 1.0, 0.5, False, 2),
        (V, 1.0, 1.0, 0.25, 1.0, 0.6, False, 1048577),
    )
    with criterion(9, "growth checker reproduces a 20-case closed-form "
                      "truth table", 5.0):
        for density, x, sc, sa, c, eps, want_sat, want_n in table:
            verdict = check_theorem32(density, x, RadiusSchedule(sc, sa),
                                      c, eps, (1, 10_000))
            assert verdict.satisfied is want_sat
            assert verdict.first_failing_n == want_n


def test_criterion_10_preset_runs_are_reproducible(tmp_path):
    runner = CliRunner()
    jobs = (("variance", "variance-uniform-se", "40"),
            ("convergence", "convergence-vanishing", "2000"))
    with criterion(10, "repeated preset CLI runs emit byte-identical CSV "
                      "files", 60.0):
        for command, preset, max_n in jobs:
            outputs = []
            for rep in range(2):
                out = tmp_path / f"{preset}-{rep}.csv"
                result = runner.invoke(cli_main, [
                    command, "--preset", preset, "--max-n", max_n,
                    "--out", str(out)])
                assert result.exit_code == 0, result.output
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
            assert len(outputs[0]) > 0
