"""Exact Gaussian-process posterior mean and variance.

Zero prior mean throughout.  With scalar training inputs ``X`` (N points),
outputs ``y``, noise variance ``s``, and ``A = K + s I``:

    mean(x)     = k_x' A^{-1} y
    variance(x) = k(x, x) - k_x' A^{-1} k_x

``GPPosterior`` factors ``A`` once (Cholesky) and can then serve many
queries; the handle is read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .kernels import Kernel, as_point, as_points, kernel_matrix, kernel_vector


# columns of the Gram built per kernel_matrix call; 64 and 128 ran alike
_GRAM_BLOCK = 64


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
    """Factored posterior for one (training set, kernel) pair."""

    def __init__(self, train: TrainingSet, kernel: Kernel):
        self.train = train
        self.kernel = kernel
        if train.n == 0:
            self._cho = None
            self._alpha = None
            return
        # cho_factor(lower=True) reads only the lower triangle, so only that
        # is built, column block by column block, and factored in place.  The
        # buffer starts at zero because the finiteness check scans all of it.
        X, n = train.inputs, train.n
        A = np.zeros((n, n), order="F")
        for j in range(0, n, _GRAM_BLOCK):
            A[j:, j:j + _GRAM_BLOCK] = kernel_matrix(kernel, X[j:], X[j:j + _GRAM_BLOCK])
        A[np.diag_indices_from(A)] += train.noise_variance
        try:
            self._cho = cho_factor(A, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"covariance factorization failed for N={train.n}: {exc}") from exc
        self._alpha = None
        if train.outputs is not None:
            self._alpha = cho_solve(self._cho, train.outputs)

    def variance(self, x) -> float:
        """Posterior variance at one scalar point."""
        return float(self.variance_batch(as_point(x))[0])

    def variance_batch(self, X) -> np.ndarray:
        """Posterior variance at each point of X, reusing the factorization.

        With ``A = L L'`` and ``V = L^{-1} k(X_train, X)``, the quadratic form
        ``k_x' A^{-1} k_x`` is the squared norm of each column of ``V``.
        """
        Xp = as_points(X)
        if self.kernel.isotropic:
            priors = np.full(Xp.size, float(self.kernel.signal_variance))
        else:
            priors = np.array([self.kernel.prior_variance(x) for x in Xp])
        if self.train.n == 0:
            return priors
        K_x = kernel_matrix(self.kernel, self.train.inputs, Xp)
        # cho_factor has already checked the factor; only the queries are new
        if not np.all(np.isfinite(K_x)):
            raise ValueError("query covariances must be finite")
        V = solve_triangular(self._cho[0], K_x, lower=True, check_finite=False)
        return priors - np.einsum("ij,ij->j", V, V)

    def mean(self, x) -> float:
        if self.train.n == 0:
            return 0.0
        if self._alpha is None:
            raise ValueError("posterior mean needs training outputs")
        k_x = kernel_vector(self.kernel, self.train.inputs, x)
        return float(k_x @ self._alpha)

