"""Exact Gaussian-process posterior mean and variance.

Zero prior mean throughout.  With training inputs ``X`` (N rows), outputs
``y``, noise variance ``s``, and ``A = K + s I``:

    mean(x)     = k_x' A^{-1} y
    variance(x) = k(x, x) - k_x' A^{-1} k_x

``GPPosterior`` factors ``A`` once (Cholesky) and can then serve many
queries; the handle is read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kernels import Kernel, as_point, as_points, kernel_matrix, kernel_vector


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
        return self.inputs.shape[0]


@dataclass(frozen=True)
class PosteriorQuery:
    """One resolved query: the test point, its variance, and (when outputs
    were supplied) its mean."""

    x: np.ndarray
    variance: float
    mean: float | None = None


class GPPosterior:
    """Factored posterior for one (training set, kernel) pair."""

    def __init__(self, train: TrainingSet, kernel: Kernel):
        self.train = train
        self.kernel = kernel
        if train.n == 0:
            self._cho = None
            self._alpha = None
            return
        A = kernel_matrix(kernel, train.inputs)
        A[np.diag_indices_from(A)] += train.noise_variance
        try:
            self._cho = cho_factor(A, lower=True)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"covariance factorization failed for N={train.n}: {exc}") from exc
        self._alpha = None
        if train.outputs is not None:
            self._alpha = cho_solve(self._cho, train.outputs)

    def variance(self, x) -> float:
        prior = self.kernel.prior_variance(x)
        if self.train.n == 0:
            return prior
        k_x = kernel_vector(self.kernel, self.train.inputs, x)
        return prior - float(k_x @ cho_solve(self._cho, k_x))

    def variance_batch(self, X) -> np.ndarray:
        """Posterior variance at each row of X, reusing the factorization."""
        Xp = as_points(X)
        if self.kernel.isotropic:
            priors = np.full(Xp.shape[0], float(self.kernel.signal_variance))
        else:
            priors = np.array([self.kernel.prior_variance(row) for row in Xp])
        if self.train.n == 0:
            return priors
        K_x = kernel_matrix(self.kernel, self.train.inputs, Xp)
        sol = cho_solve(self._cho, K_x)
        return priors - np.einsum("ij,ij->j", K_x, sol)

    def mean(self, x) -> float:
        if self.train.n == 0:
            return 0.0
        if self._alpha is None:
            raise ValueError("posterior mean needs training outputs")
        k_x = kernel_vector(self.kernel, self.train.inputs, x)
        return float(k_x @ self._alpha)

    def query(self, x) -> PosteriorQuery:
        xp = as_point(x)
        mean = None
        if self.train.n == 0:
            mean = 0.0
        elif self._alpha is not None:
            mean = self.mean(xp)
        return PosteriorQuery(xp, self.variance(xp), mean)


def posterior_variance(train: TrainingSet, kernel: Kernel, x) -> float:
    """sigma_N^2(x) for one query; build a GPPosterior for repeated ones."""
    return GPPosterior(train, kernel).variance(x)


def posterior_mean(train: TrainingSet, kernel: Kernel, x) -> float:
    return GPPosterior(train, kernel).mean(x)
