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
        s2, l = self.signal_variance, self.lengthscale
        if self.kind == SQUARED_EXPONENTIAL:
            out = s2 * np.exp(-0.5 * (t / l) ** 2)
        elif self.kind == MATERN_HALF:
            out = s2 * np.exp(-t / l)
        elif self.kind == RATIONAL_QUADRATIC:
            a = self.alpha
            out = s2 * (1.0 + t * t / (2.0 * a * l * l)) ** (-a)
        else:
            out = s2 * np.exp(-2.0 * np.sin(np.pi * t / self.period) ** 2 / (l * l))
        return float(out) if out.ndim == 0 else out

    def __call__(self, x, z) -> float:
        """Evaluate k(x, z) for a pair of points: the entry of their Gram."""
        return float(kernel_matrix(self, as_point(x), as_point(z))[0, 0])

    def prior_variance(self, x) -> float:
        """k(x, x) at one point: the entry of ``kernel_diagonal``."""
        return float(kernel_diagonal(self, as_point(x))[0])


def _inner_product_gram(kernel: Kernel, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The polynomial or neural-network k(X, Z) for X and Z that broadcast:
    (n, 1) against (m,) gives the Gram, (n,) against (n,) its diagonal,
    entry for entry the same arithmetic.

    polynomial:      s2 (x z + c)^d
    neural-network:  s2 (2/pi) arcsin(2 s_xz / sqrt((1 + 2 s_xx)(1 + 2 s_zz)))
                     with s_xz = sb + sw x z, computed in place in one buffer
    """
    if kernel.kind == POLYNOMIAL:
        return kernel.signal_variance * (X * Z + kernel.offset) ** kernel.degree
    sb, sw = kernel.bias_variance, kernel.weight_variance
    s = X * Z
    s *= sw
    s += sb
    s_xx = sb + sw * (X * X)
    s_zz = sb + sw * (Z * Z)
    denom = (1.0 + 2.0 * s_xx) * (1.0 + 2.0 * s_zz)
    np.sqrt(denom, out=denom)
    s *= 2.0
    s /= denom
    # rounding can push the ratio a hair past 1 for coincident points
    np.clip(s, -1.0, 1.0, out=s)
    np.arcsin(s, out=s)
    s *= kernel.signal_variance * (2.0 / np.pi)
    return s


def _periodic_features(kernel: Kernel, V: np.ndarray):
    """sin a and cos a with a = pi fmod(v, p) / p at each point.  The
    reduction by fmod(v, p) is exact and leaves sin^2 unchanged, so the
    features keep full accuracy for inputs far from 0."""
    p = kernel.period
    a = np.pi * np.fmod(V, p) / p
    return np.sin(a), np.cos(a)


def _periodic_gram(kernel: Kernel, fx, fz) -> np.ndarray:
    """The periodic Gram from the features of X and Z: with a = pi x / p and
    b = pi z / p, sin(a - b) = sin a cos b - cos a sin b.  The two products
    are the same pair with X and Z swapped, so k(X, Z) = k(Z, X)' bit for
    bit, and the diagonal is exactly the signal variance."""
    (sin_x, cos_x), (sin_z, cos_z) = fx, fz
    l = kernel.lengthscale
    s = np.multiply.outer(sin_x, cos_z)
    s -= np.multiply.outer(cos_x, sin_z)
    s *= s
    s *= -2.0
    s /= l * l
    np.exp(s, out=s)
    s *= kernel.signal_variance
    return s


def kernel_matrix(kernel: Kernel, X, Z=None) -> np.ndarray:
    """Cross-covariance matrix k(X, Z); Z defaults to X."""
    Xp = as_points(X)
    Zp = Xp if Z is None else as_points(Z)
    if kernel.kind == PERIODIC:
        return _periodic_gram(kernel, _periodic_features(kernel, Xp),
                              _periodic_features(kernel, Zp))
    if kernel.isotropic:
        return kernel.iso(np.abs(np.subtract.outer(Xp, Zp)))
    return _inner_product_gram(kernel, Xp[:, None], Zp)


def kernel_diagonal(kernel: Kernel, X) -> np.ndarray:
    """k(x, x) at each point of X, equal to ``np.diag(kernel_matrix(kernel,
    X, X))`` bit for bit without forming the off-diagonal entries."""
    Xp = as_points(X)
    if kernel.isotropic:
        return np.full(Xp.size, float(kernel.signal_variance))
    return _inner_product_gram(kernel, Xp, Xp)


def kernel_vector(kernel: Kernel, X, x) -> np.ndarray:
    """Covariances between the points X and a single point x, shape (n,)."""
    return kernel_matrix(kernel, X, as_point(x))[:, 0]


def gram_columns(kernel: Kernel, X):
    """A function j -> k(X, X[j]), shape (n,), equal bit for bit to
    ``kernel_matrix(kernel, X, X[j])[:, 0]``.  For the periodic kind the
    features of X are computed once, not once per column."""
    Xp = as_points(X)
    if kernel.kind != PERIODIC:
        return lambda j: kernel_matrix(kernel, Xp, Xp[j])[:, 0]
    sin_x, cos_x = fx = _periodic_features(kernel, Xp)
    return lambda j: _periodic_gram(kernel, fx, (sin_x[j:j + 1], cos_x[j:j + 1]))[:, 0]


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


def make_kernel(kind: str, **params) -> Kernel:
    """Build a kernel by kind name; unknown kinds or parameters raise KernelError."""
    if kind not in KERNEL_PARAMS:
        raise KernelError(f"unknown kernel kind {kind!r}; choose from {ALL_KINDS}")
    unused = sorted(set(params) - set(KERNEL_PARAMS[kind]))
    if unused:
        raise KernelError(f"{kind} takes no parameters {unused}")
    return Kernel(kind, **params)


@dataclass(frozen=True)
class LipschitzEstimate:
    """A per-argument Lipschitz constant with the method that produced it."""

    value: float
    method: str          # "analytic" or "grid-estimate"


def _as_interval(domain) -> tuple[float, float]:
    ends = np.asarray(domain, dtype=float)
    if ends.shape != (2,) or not np.all(np.isfinite(ends)) or ends[1] < ends[0]:
        raise KernelError("domain must be a finite interval (lo, hi) with lo <= hi")
    return float(ends[0]), float(ends[1])


GRID_POINTS = 10_000
SAFETY_FACTOR = 1.05
# grid rows per kernel_matrix call in _grid_lipschitz, about 0.4 MB a block
# where the whole grid held 46 MiB of temporaries.  Neural-network grid on a
# 2-vCPU host: 64 to 512 rows 24-27 ms, 1000 rows 33 ms, all rows 47 ms
_GRID_BLOCK = 256


def lipschitz_constant(kernel: Kernel, domain) -> LipschitzEstimate:
    """Upper bound on |k(x, z) - k(x', z)| / |x - x'| over an interval (lo, hi).

    Closed forms exist for the squared-exponential (s2 * e^(-1/2) / l, the
    maximum of tau * exp(-tau^2/2)) and the Matern-1/2 (s2 / l, the one-sided
    slope at tau -> 0+).  Every other kind is estimated on a grid (see
    ``_grid_lipschitz``) and quoted with method "grid-estimate".  A
    single-point domain admits any constant, so 0 is returned and quoted as
    analytic.
    """
    lo, hi = _as_interval(domain)
    if hi == lo:
        return LipschitzEstimate(0.0, "analytic")
    s2, l = kernel.signal_variance, kernel.lengthscale
    if kernel.kind == SQUARED_EXPONENTIAL:
        return LipschitzEstimate(s2 * math.exp(-0.5) / l, "analytic")
    if kernel.kind == MATERN_HALF:
        return LipschitzEstimate(s2 / l, "analytic")
    return _grid_lipschitz(kernel, lo, hi)


def _grid_lipschitz(kernel: Kernel, lo: float, hi: float) -> LipschitzEstimate:
    """Largest absolute difference quotient on a 10^4-point grid, inflated
    by a 1.05 safety factor: k(tau) over [0, hi - lo] for isotropic kinds,
    k(x, z) over a 10^4 x 201 grid of the interval otherwise.  That grid is
    built _GRID_BLOCK rows at a time; consecutive blocks share one row, so
    the differences across a block edge are taken too.  Each entry and the
    maximum are the same as from the whole grid at once, bit for bit."""
    if kernel.isotropic:
        taus = np.linspace(0.0, hi - lo, GRID_POINTS)
        vals = kernel.iso(taus)
        slope = float(np.max(np.abs(np.diff(vals)))) / (taus[1] - taus[0])
    else:
        xs = np.linspace(lo, hi, GRID_POINTS)
        zs = np.linspace(lo, hi, 201)
        steepest = 0.0
        for i in range(0, GRID_POINTS - 1, _GRID_BLOCK):
            K = kernel_matrix(kernel, xs[i:i + _GRID_BLOCK + 1], zs)
            d = np.subtract(K[1:], K[:-1])
            # np.maximum, unlike max(), carries a nan through
            steepest = np.maximum(steepest, np.abs(d, out=d).max())
        slope = steepest / (xs[1] - xs[0])
    return LipschitzEstimate(float(slope * SAFETY_FACTOR), "grid-estimate")
