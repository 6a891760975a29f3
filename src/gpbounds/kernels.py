"""Covariance kernel catalog.

Six kernel families share one frozen ``Kernel`` record: four isotropic
(stationary) kinds evaluated through ``k.iso(tau)`` and two inner-product
kinds (cubic polynomial and arcsine neural-network).  Its typed fields hold
every parameter, and ``KERNEL_PARAMS`` names the fields each kind reads.
What the variance bounds need to know, whether the kernel is isotropic and
whether ``k(tau)`` is non-increasing, follows from the kind alone;
``lipschitz_constant`` gives a per-argument Lipschitz constant over an
interval.  Inputs are scalars: a point is a float, a set of points a 1-D
array (an (n, 1) column is read as one).

Each kind's values come from one formula: ``Kernel._iso`` for the isotropic
kinds and ``_gram``, from per-point ``_features``, for every Gram entry.
``kernel_matrix``, ``kernel_diagonal``, ``gram_columns`` and the Lipschitz
grid walk broadcast ``_gram`` to a Gram, its diagonal or one column.

Functional forms (``s2`` is the signal variance, ``l`` the lengthscale):

* squared-exponential   ``s2 * exp(-tau^2 / (2 l^2))``
* matern-1/2            ``s2 * exp(-tau / l)``
* rational-quadratic    ``s2 * (1 + tau^2 / (2 a l^2))^(-a)``
* periodic              ``s2 * exp(-2 sin^2(pi tau / p) / l^2)``
* polynomial            ``s2 * (x z + c)^d``           (default c=1, d=3)
* neural-network        arcsine form on the augmented input (1, x) with
                        bias/weight variances (default 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SQUARED_EXPONENTIAL = "squared-exponential"
MATERN_HALF = "matern-1/2"
RATIONAL_QUADRATIC = "rational-quadratic"
PERIODIC = "periodic"
POLYNOMIAL = "polynomial"
NEURAL_NETWORK = "neural-network"

ISOTROPIC_KINDS = (SQUARED_EXPONENTIAL, MATERN_HALF, RATIONAL_QUADRATIC, PERIODIC)
ALL_KINDS = ISOTROPIC_KINDS + (POLYNOMIAL, NEURAL_NETWORK)


class KernelError(ValueError):
    """Invalid kernel parameters or an operation unsupported by this kind."""


def as_points(x) -> np.ndarray:
    """Coerce a scalar, a 1-D array or an (n, 1) column to a 1-D float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim > 2 or (a.ndim == 2 and a.shape[1] != 1):
        raise KernelError(f"expected scalar points, got shape {a.shape}")
    return a.reshape(-1)


def as_point(x) -> float:
    """Coerce a scalar, or an array holding one value, to a float."""
    a = as_points(x)
    if a.size != 1:
        raise KernelError(f"expected a single point, got shape {np.shape(x)}")
    return float(a[0])


# kind -> the Kernel fields its formula reads; every other field must keep
# its default, so a parameter the kind ignores is rejected, not dropped
KERNEL_PARAMS = {
    SQUARED_EXPONENTIAL: ("lengthscale", "signal_variance"),
    MATERN_HALF: ("lengthscale", "signal_variance"),
    RATIONAL_QUADRATIC: ("lengthscale", "signal_variance", "alpha"),
    PERIODIC: ("lengthscale", "signal_variance", "period"),
    POLYNOMIAL: ("signal_variance", "offset", "degree"),
    NEURAL_NETWORK: ("signal_variance", "bias_variance", "weight_variance"),
}


@dataclass(frozen=True)
class Kernel:
    """One catalog entry: ``Kernel(kind, **params)`` or a factory function.

    Each parameter must be positive and finite, and ``degree`` an integer.
    """

    kind: str
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    alpha: float = 1.0
    period: float = 1.0
    offset: float = 1.0
    degree: int = 3
    bias_variance: float = 1.0
    weight_variance: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_PARAMS:
            raise KernelError(f"unknown kernel kind {self.kind!r}; choose from {ALL_KINDS}")
        used = KERNEL_PARAMS[self.kind]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in used:
                if value != f.default:
                    raise KernelError(f"{self.kind} takes no parameter {f.name!r}")
            elif not (value > 0 and math.isfinite(value)):
                raise KernelError(f"{self.kind} {f.name} must be positive and finite")
        if self.degree != int(self.degree):
            raise KernelError("polynomial degree must be a positive integer")
        object.__setattr__(self, "degree", int(self.degree))

    @property
    def isotropic(self) -> bool:
        return self.kind in ISOTROPIC_KINDS

    @property
    def decreasing(self) -> bool:
        """Whether k(tau) is non-increasing; periodic oscillates, so it is not."""
        return self.isotropic and self.kind != PERIODIC

    def iso(self, tau):
        """Evaluate k(tau) for an isotropic kernel; tau >= 0, scalar or array."""
        if not self.isotropic:
            raise KernelError(f"{self.kind} has no isotropic form")
        t = np.asarray(tau, dtype=float)
        if np.any(t < 0):
            raise KernelError("tau must be non-negative")
        v = self._iso(t)
        return float(v) if v.ndim == 0 else v

    def _iso(self, t: np.ndarray) -> np.ndarray:
        """k(t) for a float array t, unchecked: ``iso`` checks the kind and
        t >= 0 first, and ``_gram`` passes |x - z|, which is never negative."""
        s2, l = self.signal_variance, self.lengthscale
        # The steps and their order are those of the one-line forms, so they
        # round the same.  The first writes a buffer of tau's shape (0-d for
        # a scalar) that every later step changes in place, so a scalar gets
        # the bits of the array entry.
        v = np.empty(t.shape)
        if self.kind == RATIONAL_QUADRATIC:
            np.multiply(t, t, out=v)    # s2 (1 + t^2 / (2 a l^2))^-a
            v /= 2.0 * self.alpha * l * l
            v += 1.0
            v **= -self.alpha
        else:
            if self.kind == SQUARED_EXPONENTIAL:
                np.divide(t, l, out=v)  # s2 exp(-(t / l)^2 / 2)
                v **= 2
                v *= -0.5
            elif self.kind == MATERN_HALF:
                np.negative(t, out=v)   # s2 exp(-t / l)
                v /= l
            else:
                np.multiply(np.pi, t, out=v)  # s2 exp(-2 sin^2(pi t / p) / l^2)
                v /= self.period
                np.sin(v, out=v)
                v **= 2
                v *= -2.0
                v /= l * l
            np.exp(v, out=v)
        v *= s2
        return v

    def __call__(self, x, z) -> float:
        """Evaluate k(x, z) for a pair of points: the entry of their Gram."""
        return float(kernel_matrix(self, as_point(x), as_point(z))[0, 0])

    def prior_variance(self, x) -> float:
        """k(x, x) at one point: the entry of ``kernel_diagonal``."""
        return float(kernel_diagonal(self, as_point(x))[0])


def _features(kernel: Kernel, V: np.ndarray) -> tuple:
    """The per-point quantities ``_gram`` builds k(x, z) from, one array
    each: x; for the neural-network kind p = sqrt(2 sb) r and
    q = sqrt(2 sw) x r with r = 1 / sqrt(a), a = 1 + 2 (sb + sw x^2), the
    first two entries of (sqrt(2 sb), sqrt(2 sw) x, 1) scaled to unit
    length, so |p_x p_z + q_x q_z| < 1; for the periodic kind sin b and
    cos b with b = pi fmod(x, p) / p.  The reduction by fmod(x, p) is exact
    and leaves sin^2 unchanged, so the periodic features keep full accuracy
    for inputs far from 0."""
    if kernel.kind == PERIODIC:
        p = kernel.period
        b = np.pi * np.fmod(V, p) / p
        return np.sin(b), np.cos(b)
    if kernel.kind == NEURAL_NETWORK:
        a = 1.0 + 2.0 * (kernel.bias_variance + kernel.weight_variance * (V * V))
        # sqrt(a) / a, not 1 / sqrt(a): where a overflows this is inf / inf,
        # a nan the finite checks catch, where 1 / sqrt(a) would be a 0
        r = np.sqrt(a)
        r /= a
        return (math.sqrt(2.0 * kernel.bias_variance) * r,
                math.sqrt(2.0 * kernel.weight_variance) * V * r)
    return (V,)


def _gram(kernel: Kernel, fx, fz) -> np.ndarray:
    """k(x, z) from the features of x and z, which broadcast: (n, 1)
    against (m,) gives a Gram, (n,) against (n,) its diagonal and (n,)
    against scalars one column, entry for entry the same arithmetic.

    isotropic:       k(|x - z|) by the arithmetic of ``Kernel.iso``
    periodic:        s2 exp(-2 sin^2(b_x - b_z) / l^2), with
                     sin(b_x - b_z) = sin b_x cos b_z - cos b_x sin b_z; the
                     two products are the same pair with x and z swapped,
                     so k(X, Z) = k(Z, X)' bit for bit, and k(x, x) is
                     exactly the signal variance
    polynomial:      s2 (x z + c)^d
    neural-network:  s2 (2/pi) arcsin(u), with the argument
                     u = 2 (sb + sw x z) / sqrt(a_x a_z) = p_x p_z + q_x q_z,
                     two multiplies and an add per entry; each product
                     is the same for x and z swapped, so k(X, Z) = k(Z, X)'
                     bit for bit
    """
    if kernel.kind == POLYNOMIAL:
        return kernel.signal_variance * (fx[0] * fz[0] + kernel.offset) ** kernel.degree
    if kernel.kind == PERIODIC:
        (sin_x, cos_x), (sin_z, cos_z) = fx, fz
        l = kernel.lengthscale
        s = sin_x * cos_z
        s -= cos_x * sin_z
        s *= s
        s *= -2.0
        s /= l * l
        np.exp(s, out=s)
        s *= kernel.signal_variance
        return s
    if kernel.isotropic:
        t = np.subtract(fx[0], fz[0])
        return kernel._iso(np.abs(t, out=t))
    (p_x, q_x), (p_z, q_z) = fx, fz
    s = p_x * p_z
    s += q_x * q_z
    # rounding can push u a hair past 1 for coincident points
    np.minimum(s, 1.0, out=s)
    np.maximum(s, -1.0, out=s)
    np.arcsin(s, out=s)
    s *= kernel.signal_variance * (2.0 / np.pi)
    return s


def kernel_matrix(kernel: Kernel, X, Z=None) -> np.ndarray:
    """Cross-covariance matrix k(X, Z); Z defaults to X.  Each entry depends
    only on its own pair of points, so a block of a Gram equals the same
    entries of the whole Gram bit for bit."""
    fx = _features(kernel, as_points(X))
    fz = fx if Z is None else _features(kernel, as_points(Z))
    return _gram(kernel, [f[:, None] for f in fx], fz)


def kernel_diagonal(kernel: Kernel, X) -> np.ndarray:
    """k(x, x) at each point of X, equal to ``np.diag(kernel_matrix(kernel,
    X, X))`` bit for bit without forming the off-diagonal entries."""
    Xp = as_points(X)
    if kernel.isotropic:
        return np.full(Xp.size, float(kernel.signal_variance))
    f = _features(kernel, Xp)
    return _gram(kernel, f, f)


def gram_columns(kernel: Kernel, X):
    """A function j -> k(X, X[j]), shape (n,), equal bit for bit to
    ``kernel_matrix(kernel, X)[:, j]``.  The features of X are computed
    once, not once per column."""
    f = _features(kernel, as_points(X))
    return lambda j: _gram(kernel, f, [v[j] for v in f])


def squared_exponential(lengthscale: float = 1.0, signal_variance: float = 1.0) -> Kernel:
    return Kernel(SQUARED_EXPONENTIAL, lengthscale, signal_variance)


def matern_half(lengthscale: float = 1.0, signal_variance: float = 1.0) -> Kernel:
    return Kernel(MATERN_HALF, lengthscale, signal_variance)


def rational_quadratic(lengthscale: float = 1.0, signal_variance: float = 1.0,
                       alpha: float = 1.0) -> Kernel:
    return Kernel(RATIONAL_QUADRATIC, lengthscale, signal_variance, alpha=alpha)


def periodic(lengthscale: float = 1.0, signal_variance: float = 1.0,
             period: float = 1.0) -> Kernel:
    return Kernel(PERIODIC, lengthscale, signal_variance, period=period)


def polynomial(offset: float = 1.0, degree: int = 3, signal_variance: float = 1.0) -> Kernel:
    return Kernel(POLYNOMIAL, signal_variance=signal_variance, offset=offset, degree=degree)


def neural_network(bias_variance: float = 1.0, weight_variance: float = 1.0,
                   signal_variance: float = 1.0) -> Kernel:
    return Kernel(NEURAL_NETWORK, signal_variance=signal_variance,
                  bias_variance=bias_variance, weight_variance=weight_variance)


GRID_POINTS = 10_000
SAFETY_FACTOR = 1.05


def lipschitz_constant(kernel: Kernel, domain) -> float:
    """Upper bound on |k(x, z) - k(x', z)| / |x - x'| over an interval (lo, hi).

    Closed forms exist for the squared-exponential (s2 * e^(-1/2) / l, the
    maximum of tau * exp(-tau^2/2)) and the Matern-1/2 (s2 / l, the one-sided
    slope at tau -> 0+).  Every other kind is estimated on a grid (see
    ``_grid_lipschitz``).  A single-point domain admits any constant, so 0 is
    returned.
    """
    ends = np.asarray(domain, dtype=float)
    if ends.shape != (2,) or not np.all(np.isfinite(ends)) or ends[1] < ends[0]:
        raise KernelError("domain must be a finite interval (lo, hi) with lo <= hi")
    lo, hi = ends.tolist()
    if hi == lo:
        return 0.0
    s2, l = kernel.signal_variance, kernel.lengthscale
    if kernel.kind == SQUARED_EXPONENTIAL:
        return float(s2 * math.exp(-0.5) / l)
    if kernel.kind == MATERN_HALF:
        return float(s2 / l)
    return _grid_lipschitz(kernel, lo, hi)


def _grid_lipschitz(kernel: Kernel, lo: float, hi: float) -> float:
    """Largest absolute difference quotient on a 10^4-point grid, inflated
    by a 1.05 safety factor: down the one column k(tau) over [0, hi - lo]
    for isotropic kinds, down each of the 201 columns k(., z) of the
    interval otherwise.  The columns are walked one at a time, built by
    ``_gram`` from features of the 10^4 grid points computed once."""
    if kernel.isotropic:
        grid = np.linspace(0.0, hi - lo, GRID_POINTS)
        columns = [kernel.iso(grid)]
    else:
        grid = np.linspace(lo, hi, GRID_POINTS)
        fx = _features(kernel, grid)
        fz = _features(kernel, np.linspace(lo, hi, 201))
        columns = (_gram(kernel, fx, z) for z in zip(*fz))
    steepest = 0.0
    for column in columns:
        d = np.diff(column)
        # np.maximum, unlike max(), carries a nan through
        steepest = np.maximum(steepest, np.abs(d, out=d).max())
    return float(steepest / (grid[1] - grid[0]) * SAFETY_FACTOR)
