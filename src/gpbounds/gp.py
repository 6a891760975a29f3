"""Exact Gaussian-process posterior mean and variance.

Zero prior mean throughout.  With scalar training inputs ``X`` (N points),
outputs ``y``, noise variance ``s``, and ``A = K + s I``:

    mean(x)     = k_x' A^{-1} y
    variance(x) = k(x, x) - k_x' A^{-1} k_x

``GPPosterior`` builds ``A`` once.  The variance at one point comes from a
Lanczos bracket on ``A`` when it closes; every other query, and a bracket
that does not close, uses the Cholesky factor of ``A``, made in place on
first use.  The handle is read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dsymv

from .kernels import Kernel, as_point, as_points, kernel_matrix, kernel_vector


# columns of the Gram built per kernel_matrix call; 64 and 128 ran alike
_GRAM_BLOCK = 64
# Lanczos steps before a one-point query falls back to the factor; the
# squared-exponential, rational-quadratic, polynomial and neural-network
# brackets close in at most 6, periodic in at most 14, Matern-1/2 in up to 34
_LANCZOS_STEPS = 16
# a one-point bracket closes when its width is at most this times the variance
_BRACKET_RTOL = 1e-13
# Each computed Gram entry is taken to lie within this multiple of max A_ii
# of its exact value: about 10^10 units of rounding, far more than any kernel
# formula here loses, the arcsine next to its branch point included.
_GRAM_REL_ERR = 2.0 ** -20


class FactorizationError(RuntimeError):
    """The regularized covariance could not be Cholesky-factored."""


@dataclass(frozen=True)
class TrainingSet:
    """Training inputs with observation-noise variance; outputs are optional
    because the posterior variance never looks at them."""

    inputs: np.ndarray
    noise_variance: float
    outputs: np.ndarray | None = None

    def __post_init__(self):
        X = as_points(self.inputs)
        object.__setattr__(self, "inputs", X)
        if not np.all(np.isfinite(X)):
            raise ValueError("training inputs must be finite")
        if not (self.noise_variance > 0 and np.isfinite(self.noise_variance)):
            raise ValueError("noise_variance must be positive and finite")
        if self.outputs is not None:
            y = np.asarray(self.outputs, dtype=float).reshape(-1)
            if y.shape[0] != X.shape[0]:
                raise ValueError("outputs length must match the number of inputs")
            if not np.all(np.isfinite(y)):
                raise ValueError("training outputs must be finite")
            object.__setattr__(self, "outputs", y)

    @property
    def n(self) -> int:
        return self.inputs.size


class GPPosterior:
    """Posterior for one (training set, kernel) pair."""

    def __init__(self, train: TrainingSet, kernel: Kernel):
        self.train = train
        self.kernel = kernel
        if train.n == 0:
            return
        # Only the lower triangle, which dsymv and cho_factor(lower=True)
        # read, is built, column block by column block.  Above the diagonal
        # blocks the buffer stays zero.
        X, n = train.inputs, train.n
        A = np.zeros((n, n), order="F")
        for j in range(0, n, _GRAM_BLOCK):
            block = kernel_matrix(kernel, X[j:], X[j:j + _GRAM_BLOCK])
            if not np.isfinite(block).all():
                raise ValueError("covariance matrix must be finite")
            A[j:, j:j + _GRAM_BLOCK] = block
        A.flat[::n + 1] += train.noise_variance
        self._A = A
        if not _cholesky_cannot_fail(n, train.noise_variance, A.diagonal().max()):
            self._cho = self._factor()      # so a failure surfaces here

    def _factor(self):
        try:
            return cho_factor(self._A, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"covariance factorization failed for N={self.train.n}: {exc}") from exc

    @cached_property
    def _cho(self):
        """Cholesky factor of A, made in place in A's buffer on first use."""
        return self._factor()

    @cached_property
    def _alpha(self):
        return cho_solve(self._cho, self.train.outputs, check_finite=False)

    def _priors(self, Xp) -> np.ndarray:
        if self.kernel.isotropic:
            return np.full(Xp.size, float(self.kernel.signal_variance))
        return np.array([self.kernel.prior_variance(x) for x in Xp])

    def _query_covariances(self, Xp) -> np.ndarray:
        K_x = kernel_matrix(self.kernel, self.train.inputs, Xp)
        # A was checked as it was built; only the queries are new
        if not np.all(np.isfinite(K_x)):
            raise ValueError("query covariances must be finite")
        return K_x

    def _dense_variance(self, priors, K_x) -> np.ndarray:
        """With ``A = L L'`` and ``V = L^{-1} K_x``, the quadratic form
        ``k_x' A^{-1} k_x`` is the squared norm of each column of ``V``."""
        V = solve_triangular(self._cho[0], K_x, lower=True, check_finite=False)
        return priors - np.einsum("ij,ij->j", V, V)

    def variance(self, x) -> float:
        """Posterior variance at one scalar point: the Lanczos bracket when
        it closes, else the dense path of ``variance_batch``."""
        Xp = as_points(as_point(x))
        priors = self._priors(Xp)
        if self.train.n == 0:
            return float(priors[0])
        K_x = self._query_covariances(Xp)
        if "_cho" not in self.__dict__:     # the factor overwrites A
            bracket = self._bracket(K_x[:, 0], float(priors[0]))
            if bracket is not None:
                return 0.5 * (bracket[0] + bracket[1])
        return float(self._dense_variance(priors, K_x)[0])

    def variance_batch(self, X) -> np.ndarray:
        """Posterior variance at each point of X through the Cholesky factor."""
        Xp = as_points(X)
        priors = self._priors(Xp)
        if self.train.n == 0:
            return priors
        return self._dense_variance(priors, self._query_covariances(Xp))

    def _bracket(self, k, prior: float) -> tuple[float, float] | None:
        """Lower and upper bounds on ``prior - k' A^{-1} k`` within
        _BRACKET_RTOL of each other, or None when the bracket is
        inconsistent or does not close in _LANCZOS_STEPS steps.

        Lanczos on A from k, with full reorthogonalization, gives the
        tridiagonal T_j with k' A^{-1} k = |k|^2 (T_n^{-1})_{11}.  The Gauss
        rule |k|^2 (T_j^{-1})_{11} is a lower bound on it; the Gauss-Radau
        rule with its fixed node at s, below every eigenvalue of A, is an
        upper bound (Golub & Meurant, "Matrices, moments and quadrature",
        1994).  Both follow from the LDL' pivots of T_j (delta) and of
        T_j - sI (d) in O(1) per step: with c_1 = 1 and
        c_{j+1} = c_j beta_j / delta_j,
        (T_j^{-1})_{11} = sum_i c_i^2 / delta_i, and the Radau rule adds
        c_{j+1}^2 / (s + beta_j^2 / d_j - beta_j^2 / delta_j).
        """
        A, s = self._A, self.train.noise_variance
        beta0 = math.sqrt(k @ k)
        if beta0 == 0.0:
            return prior, prior
        steps = min(k.size, _LANCZOS_STEPS)
        Q = np.empty((steps, k.size))
        Q[0] = k / beta0
        gauss = 0.0
        for j in range(steps):
            w = dsymv(1.0, A, Q[j], lower=1)
            # classical Gram-Schmidt twice against every Lanczos vector so far
            h = Q[:j + 1] @ w
            w -= h @ Q[:j + 1]
            h2 = Q[:j + 1] @ w
            w -= h2 @ Q[:j + 1]
            alpha = float(h[j] + h2[j])
            if j == 0:
                c2, delta, d = 1.0, alpha, alpha - s
            else:
                c2 *= (beta / delta) ** 2
                delta, d = alpha - beta * beta / delta, alpha - s - beta * beta / d
            beta = math.sqrt(w @ w)
            if not (delta > 0 and d > 0):
                return None
            gauss += beta0 * beta0 * c2 / delta
            radau_gap = s + beta * beta * (1.0 / d - 1.0 / delta)
            width = beta0 * beta0 * c2 * (beta / delta) ** 2 / radau_gap
            upper = prior - gauss
            if not (upper > 0 and width >= 0):
                return None
            if width <= _BRACKET_RTOL * (upper - width):
                return upper - width, upper
            if j + 1 < steps:
                Q[j + 1] = w / beta
        return None

    def mean(self, x) -> float:
        if self.train.n == 0:
            return 0.0
        if self.train.outputs is None:
            raise ValueError("posterior mean needs training outputs")
        k_x = kernel_vector(self.kernel, self.train.inputs, x)
        return float(k_x @ self._alpha)


def _cholesky_cannot_fail(n: int, s: float, top: float) -> bool:
    """Whether Cholesky of the computed A = K + sI provably runs to
    completion, given max A_ii = top.

    Demmel's condition (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Theorem 10.7 in section 10.1): Cholesky
    succeeds when lambda_min(H) > n g / (1 - n g), where H = D^-1 A D^-1,
    D = diag(A)^(1/2) and g = gamma_{n+1} = (n+1)u / (1 - (n+1)u).  K is
    positive semidefinite, so lambda_min(A) >= s and hence
    lambda_min(H) >= s / top.  Errors of at most _GRAM_REL_ERR * top in the
    computed entries, the noise's rounding included, move each eigenvalue
    by at most n times that.
    """
    u = np.finfo(float).eps / 2.0
    ng = n * (n + 1) * u / (1.0 - (n + 1) * u)
    return ng < 1.0 and s / top - n * _GRAM_REL_ERR > ng / (1.0 - ng)
