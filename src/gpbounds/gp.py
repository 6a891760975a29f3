"""Exact Gaussian-process posterior mean and variance.

Zero prior mean throughout.  With scalar training inputs ``X`` (N points),
outputs ``y``, noise variance ``s``, and ``A = K + s I``:

    mean(x)     = k_x' A^{-1} y
    variance(x) = k(x, x) - k_x' A^{-1} k_x

``_route`` picks one of three routes at construction, named by ``route``:
``"prior"`` with no training points; ``"low-rank"`` where greedy pivoted
Cholesky (Harbrecht, Peters & Schneider, *Appl. Numer. Math.* 2012) gives
``K = Phi' Phi`` up to a residual negligible against the noise; ``"dense"``
elsewhere, which factors ``A`` at construction and raises a failure there.
``mean`` uses the dense factor, made on first use off the dense route.
A posterior computes its training inputs' features (``kernels.featurize``)
once, for every Gram block, diagonal and pivot column, and each variance
call those of its query points once.

The factorizations and solves call LAPACK (``dpotrf``, ``dpotrs``) and BLAS
(``dtrsm``) directly: ``cho_factor`` and ``cho_solve`` call the same LAPACK
routines with per-call checks and copies, which cost more than the work
itself for a small posterior (one BLAS thread, 20 x 20: 8.3 us per
``cho_factor`` against 4.0 us per ``dpotrf``).  Each query block is k(Xp, X),
one row per query point, solved from the right by one ``dtrsm`` per factor:
with 200 queries and the sum of squares, 15-23 us at N = 20 and 130 us at
N = 100 (two runs), against 31-49 and 188-199 us for the left-side LAPACK
solve of k(X, Xp) that ``solve_triangular`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs

from .kernels import (MATERN_HALF, Features, Kernel, as_point, as_points, featurize,
                      gram_columns, kernel_diagonal, kernel_matrix)


# columns of the Gram built per kernel_matrix call; 64 and 128 ran alike
_GRAM_BLOCK = 64
# smallest N that tries the low-rank route.  One BLAS thread, building the
# posterior and one query, ranges over four runs: squared-exponential
# 0.15-0.26 ms low-rank vs 0.19-0.25 dense at N = 128, 0.16-0.28 vs 0.63-0.95
# at 256 (neural-network 0.24-0.37 vs 0.28-0.31, 0.29-0.40 vs 0.88-0.92);
# with 200 queries (l = 0.3) 0.24-0.48 vs 0.50-0.70 ms at N = 128 already
_LOWRANK_MIN_N = 128
# pivoting stops once the largest residual diagonal is at most this times the
# largest kernel diagonal, about rounding level; on [0.5, 1.5] that is rank 4
# (polynomial), 10 (squared-exponential) and 14-16 (neural-network), and with
# l = 0.3 on [0, 1] 17-18 (squared-exponential) and 32-39 (rational-quadratic)
_PIVOT_RTOL = 1e-15
# the rank is capped at N // _RANK_CAP_DIVISOR, where the pivot loop costs
# about as much as the dense factor (Matern-1/2, l = 0.3: 4.3 vs 3.5 ms at
# N = 500, 133 vs 114 ms at N = 2000); periodic with l = 0.3 stops at rank
# 71 at N = 500 and 74 at N = 2000, below the cap
_RANK_CAP_DIVISOR = 4
# the factor is used only when N times the largest residual diagonal, a
# bound on the 2-norm of K - Phi' Phi, is at most this times the noise
_RESIDUAL_NOISE_RTOL = 1e-9


class FactorizationError(RuntimeError, ValueError):
    """The regularized covariance could not be Cholesky-factored: it is not
    finite, or not positive definite.  The message names the kernel kind and
    N, and the dataset once a runner adds it with ``at_dataset``.  A
    ValueError too, as numpy's LinAlgError is."""

    def __init__(self, kind: str, n: int, problem: str, dataset: int | None = None):
        self.kind, self.n, self.problem, self.dataset = kind, n, problem, dataset
        where = "" if dataset is None else f", dataset {dataset}"
        super().__init__(f"{kind} kernel, N={n}{where}: {problem}")

    def at_dataset(self, dataset: int) -> FactorizationError:
        """The same failure, named as that of the given dataset."""
        return FactorizationError(self.kind, self.n, self.problem, dataset)


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
        if not _all_finite(X):
            raise ValueError("training inputs must be finite")
        if not (self.noise_variance > 0 and math.isfinite(self.noise_variance)):
            raise ValueError("noise_variance must be positive and finite")
        if self.outputs is not None:
            y = np.asarray(self.outputs, dtype=float).reshape(-1)
            if y.shape[0] != X.shape[0]:
                raise ValueError("outputs length must match the number of inputs")
            if not _all_finite(y):
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
        # the training inputs' features, computed once for every Gram block
        self._X = featurize(kernel, train.inputs)
        self._name, self._rank, self._variance, self._factor = _route(
            kernel, self._X, train.noise_variance)

    @property
    def route(self) -> str:
        """The route ``_route`` chose: "prior", "dense" or "low-rank"."""
        return self._name

    @property
    def rank(self) -> int | None:
        """Rank of the low-rank factor, or None on the other routes."""
        return self._rank

    @cached_property
    def _cho(self):
        """Cholesky factor of A: the dense route's, else made on first use."""
        if self._factor is None:
            return _dense_factor(self.kernel, self._X, self.train.noise_variance)
        return self._factor

    @cached_property
    def _alpha(self):
        alpha, info = dpotrs(self._cho, self.train.outputs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return alpha

    def variance(self, x) -> float:
        """Posterior variance at one scalar point."""
        return float(self._variance(as_points(as_point(x)))[0])

    def variance_batch(self, X) -> np.ndarray:
        """Posterior variance at each point of X."""
        return self._variance(as_points(X))

    def mean(self, x) -> float:
        if self.route == "prior":
            return 0.0
        if self.train.outputs is None:
            raise ValueError("posterior mean needs training outputs")
        k_x = _query_block(self.kernel, as_points(as_point(x)), self._X)[0]
        return float(k_x @ self._alpha)


def _route(kernel: Kernel, X: Features, s: float):
    """The one choice of route, from the kernel kind and N: its name, rank
    (None unless low-rank), variance at query points and dense factor or None.
    The variance computes the query points' features once per call."""
    n = X.size
    if n == 0:
        return "prior", None, lambda Xp: kernel_diagonal(kernel, Xp), None
    # Matern-1/2 eigenvalues decay like k^-2: its Gram is never low-rank
    low_rank_kind = n >= _LOWRANK_MIN_N and kernel.kind != MATERN_HALF
    factor = _pivoted_cholesky(kernel, X, s) if low_rank_kind else None
    if factor is None:
        L = _dense_factor(kernel, X, s)

        def dense(Xp):
            # with A = L L' and W = K_x' L'^{-1}, k_x' A^{-1} k_x = |W[i]|^2
            P = featurize(kernel, Xp)
            W = dtrsm(1.0, L, _query_block(kernel, P, X), side=1, lower=1,
                      trans_a=1, overwrite_b=1)
            return kernel_diagonal(kernel, P) - _squared_norms(W)
        return "dense", None, dense, L
    pivots, Phi = factor
    # U_p = Phi[:, p] is upper triangular with U_p' U_p = K[p, p], and
    # Phi[:, i] = g(X_i) for the features g(x) = U_p'^{-1} k(X_p, x).
    X_p, U_p = X[pivots], Phi[:, pivots]
    M = Phi @ Phi.T
    M.ravel(order="K")[::pivots.size + 1] += s
    R = _cholesky(M, kernel, n)

    def low_rank(Xp):
        # With K = Phi' Phi, k_x = Phi' g and R R' = sI + Phi Phi', the form
        # k_x' A^{-1} k_x is |g|^2 - s |R^{-1} g|^2, so the variance is a sum
        # of two non-negative terms; the Woodbury form
        # (|k_x|^2 - |R^{-1} Phi k_x|^2) / s would cancel instead.
        # The rows of G = K_x' U_p^{-1} are the features g(x)'.
        P = featurize(kernel, Xp)
        G = dtrsm(1.0, U_p, _query_block(kernel, P, X_p), side=1, overwrite_b=1)
        v = kernel_diagonal(kernel, P) - _squared_norms(G.copy())
        H = dtrsm(1.0, R, G, side=1, lower=1, trans_a=1, overwrite_b=1)  # in G's buffer
        return v + s * _squared_norms(H)
    return "low-rank", pivots.size, low_rank, None


def _dense_factor(kernel: Kernel, X: Features, s: float) -> np.ndarray:
    """Lower Cholesky factor of A = K + s I, with K the Gram of X.

    Up to _GRAM_BLOCK points K is one block, and symmetric bit for bit, so
    its transpose is already the Fortran-ordered buffer dpotrf factors in
    place.  Above that only the lower triangle, which dpotrf reads, is
    built, _GRAM_BLOCK columns at a time, each C-ordered block of rows
    copied transposed into a zeroed Fortran-ordered buffer.  Each block has
    the bits of the same entries of the whole Gram, so the factor is the
    whole Gram's bit for bit."""
    n = X.size
    if n <= _GRAM_BLOCK:
        A = _finite_covariance(kernel_matrix(kernel, X), kernel, n).T
    else:
        A = np.zeros((n, n), order="F")
        for j in range(0, n, _GRAM_BLOCK):
            A[j:, j:j + _GRAM_BLOCK] = _finite_covariance(kernel_matrix(
                kernel, X[j:j + _GRAM_BLOCK], X[j:]), kernel, n).T
    # A += s I through a strided view of the buffer in memory order, which
    # costs less to make than numpy's flat iterator (A.flat)
    A.ravel(order="K")[::n + 1] += s
    return _cholesky(A, kernel, n)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the C-contiguous array a is finite.  A finite
    sum of squares proves it, and costs one BLAS reduction, less than the
    scan, which runs only where the sum is not finite; np.vdot, unlike
    a.sum(), raises no floating-point warning where the sum overflows or
    adds inf to -inf."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _finite_covariance(block: np.ndarray, kernel: Kernel, n: int) -> np.ndarray:
    """block, unless a value is not finite: then FactorizationError."""
    if not _all_finite(block):
        raise FactorizationError(kernel.kind, n, "covariance matrix must be finite")
    return block


def _query_block(kernel: Kernel, Xp, X: Features) -> np.ndarray:
    """k(Xp, X), one row per query point, as the transpose of k(X, Xp): the
    Fortran-ordered layout dtrsm overwrites without a copy; every kind's
    Gram is symmetric bit for bit under swapping its arguments.  ``variance``
    and ``mean`` both read their covariances here, so both raise ValueError
    for a query whose covariances are not finite."""
    K = kernel_matrix(kernel, X, Xp)
    if not _all_finite(K):
        raise ValueError("query covariances must be finite")
    return K.T


def _squared_norms(W: np.ndarray) -> np.ndarray:
    """|W[i]|^2 for each row of W, whose buffer is left holding the squares.
    The matrix-vector product with ones runs BLAS's blocked partial sums,
    which round less than einsum's one running sum per strided row: polynomial
    kernel, N in [128, 400], one query, up to 6.6e-10 relative error against
    the exact variance where einsum reached 1.9e-9."""
    return np.square(W, out=W) @ np.ones(W.shape[1])


def _cholesky(A: np.ndarray, kernel: Kernel, n: int) -> np.ndarray:
    """Lower Cholesky factor of A, made in A's buffer when A is
    Fortran-ordered; the strict upper triangle is left as it was.  A
    failure names the kernel and the N of the training set A comes from."""
    L, info = dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise FactorizationError(kernel.kind, n, f"the leading minor of order {info} "
                                 "of the covariance is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return L


def _pivoted_cholesky(kernel: Kernel, X, s: float):
    """Pivot indices p and rows Phi (r x N) with K = Phi' Phi up to a
    residual whose largest diagonal entry e has N e <= _RESIDUAL_NOISE_RTOL s;
    None when no rank up to the cap reaches that.

    Each step takes the point of largest residual diagonal as the next
    pivot and adds its residual column, scaled by the pivot's square root.
    Every Gram column is formed in one buffer that the loop owns, and the
    squares of each row in a second.  The diagonal is checked before the
    loop and Phi after it: a column that is not finite leaves a nan or inf
    in its row, and no check runs per step.  X is points or their
    ``Features``.
    """
    n = X.size
    d = _finite_covariance(kernel_diagonal(kernel, X), kernel, n)
    stop = _PIVOT_RTOL * d.max()
    Phi = np.empty((n // _RANK_CAP_DIVISOR, n))
    column = gram_columns(kernel, X)
    buffer, square = np.empty(n), np.empty(n)
    pivots = []
    for m in range(len(Phi)):
        i = int(d.argmax())
        pivot = d[i]
        if pivot <= stop:
            break
        row = np.dot(Phi[:m, i], Phi[:m], out=Phi[m])
        np.subtract(column(i, buffer), row, out=row)
        row /= math.sqrt(pivot)
        d -= np.multiply(row, row, out=square)
        d[i] = 0.0      # exactly, where rounding would leave a few ulps
        pivots.append(i)
    Phi = _finite_covariance(Phi[:len(pivots)], kernel, n)
    if n * d.max() > _RESIDUAL_NOISE_RTOL * s:
        return None
    return np.array(pivots, dtype=np.intp), Phi
