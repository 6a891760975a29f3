"""Covariance kernel catalog.

Six kernel families share one frozen ``Kernel`` record: four isotropic
(stationary) kinds evaluated through ``k.iso(tau)`` and two inner-product
kinds (cubic polynomial and arcsine neural-network).  Its typed fields hold
every parameter, and ``KERNEL_PARAMS`` names the fields each kind reads.
What the variance bounds need to know, whether the kernel is isotropic and
whether ``k(tau)`` is non-increasing, follows from the kind alone;
``lipschitz_constant`` gives a per-argument Lipschitz constant over a box.

Functional forms (``s2`` is the signal variance, ``l`` the lengthscale):

* squared-exponential   ``s2 * exp(-tau^2 / (2 l^2))``
* matern-1/2            ``s2 * exp(-tau / l)``
* rational-quadratic    ``s2 * (1 + tau^2 / (2 a l^2))^(-a)``
* periodic              ``s2 * exp(-2 sin^2(pi tau / p) / l^2)``
* polynomial            ``s2 * (x.z + c)^d``           (default c=1, d=3)
* neural-network        arcsine form on the augmented input (1, x) with
                        bias/weight variances (default 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial.distance import cdist

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


def as_point(x) -> np.ndarray:
    """Coerce a scalar or length-d array to a single point of shape (d,)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise KernelError(f"expected a single point, got shape {a.shape}")
    return a


def as_points(x) -> np.ndarray:
    """Coerce input to an (n, d) array; a 1-d array is read as n scalar points."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise KernelError(f"expected points of shape (n, d), got {a.shape}")
    return a


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
        """Evaluate k(x, z) for a pair of points."""
        xp, zp = as_point(x), as_point(z)
        if xp.shape != zp.shape:
            raise KernelError("x and z must have the same dimension")
        if self.isotropic:
            return float(self.iso(float(np.linalg.norm(xp - zp))))
        return float(kernel_matrix(self, xp.reshape(1, -1), zp.reshape(1, -1))[0, 0])

    def prior_variance(self, x) -> float:
        """k(x, x); constant (= signal variance) for isotropic kinds."""
        if self.isotropic:
            return float(self.signal_variance)
        return self(x, x)


def _nn_gram(kernel: Kernel, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """s2 (2/pi) arcsin(2 s_xz / sqrt((1 + 2 s_xx)(1 + 2 s_zz))), with
    s_xz = sb + sw x.z, computed in place in one (n, m) buffer."""
    sb, sw = kernel.bias_variance, kernel.weight_variance
    s = X @ Z.T
    s *= sw
    s += sb
    s_xx = sb + sw * np.sum(X * X, axis=1)
    s_zz = sb + sw * np.sum(Z * Z, axis=1)
    denom = np.multiply.outer(1.0 + 2.0 * s_xx, 1.0 + 2.0 * s_zz)
    np.sqrt(denom, out=denom)
    s *= 2.0
    s /= denom
    # rounding can push the ratio a hair past 1 for coincident points
    np.clip(s, -1.0, 1.0, out=s)
    np.arcsin(s, out=s)
    s *= kernel.signal_variance * (2.0 / np.pi)
    return s


def kernel_matrix(kernel: Kernel, X, Z=None) -> np.ndarray:
    """Cross-covariance matrix k(X, Z); Z defaults to X."""
    Xp = as_points(X)
    Zp = Xp if Z is None else as_points(Z)
    if Xp.shape[1] != Zp.shape[1]:
        raise KernelError("point sets must share a dimension")
    if kernel.isotropic:
        return kernel.iso(cdist(Xp, Zp))
    if kernel.kind == POLYNOMIAL:
        return kernel.signal_variance * (Xp @ Zp.T + kernel.offset) ** kernel.degree
    return _nn_gram(kernel, Xp, Zp)


def kernel_vector(kernel: Kernel, X, x) -> np.ndarray:
    """Covariances between the rows of X and a single point x, shape (n,)."""
    xp = as_point(x)
    return kernel_matrix(kernel, X, xp.reshape(1, -1))[:, 0]


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
    safety_factor: float


def _as_box(domain) -> np.ndarray:
    box = np.asarray(domain, dtype=float)
    if box.ndim == 1 and box.size == 2:
        box = box.reshape(1, 2)
    if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 1] < box[:, 0]):
        raise KernelError("domain must be (lo, hi) or an array of per-axis (lo, hi)")
    return box


GRID_POINTS = 10_000
SAFETY_FACTOR = 1.05


def lipschitz_constant(kernel: Kernel, domain) -> LipschitzEstimate:
    """Upper bound on |k(x, z) - k(x', z)| / ||x - x'|| over a box domain.

    Closed forms exist for the squared-exponential (s2 * e^(-1/2) / l, the
    maximum of tau * exp(-tau^2/2)) and the Matern-1/2 (s2 / l, the one-sided
    slope at tau -> 0+).  Every other kind is estimated on a grid (see
    ``_grid_lipschitz``) and quoted with method "grid-estimate".  A
    single-point domain admits any constant, so 0 is returned and quoted as
    analytic.
    """
    box = _as_box(domain)
    diam = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    if diam == 0.0:
        return LipschitzEstimate(0.0, "analytic", 1.0)
    s2, l = kernel.signal_variance, kernel.lengthscale
    if kernel.kind == SQUARED_EXPONENTIAL:
        return LipschitzEstimate(s2 * math.exp(-0.5) / l, "analytic", 1.0)
    if kernel.kind == MATERN_HALF:
        return LipschitzEstimate(s2 / l, "analytic", 1.0)
    return _grid_lipschitz(kernel, box, diam)


def _grid_lipschitz(kernel: Kernel, box: np.ndarray, diam: float) -> LipschitzEstimate:
    """Largest absolute difference quotient on a 10^4-point grid, inflated
    by a 1.05 safety factor: k(tau) over [0, diam] for isotropic kinds,
    k(x, z) over a 10^4 x 201 grid of the (one-dimensional) box otherwise."""
    if kernel.isotropic:
        taus = np.linspace(0.0, diam, GRID_POINTS)
        vals = kernel.iso(taus)
        slope = float(np.max(np.abs(np.diff(vals)))) / (taus[1] - taus[0])
        return LipschitzEstimate(slope * SAFETY_FACTOR, "grid-estimate", SAFETY_FACTOR)

    if box.shape[0] != 1:
        raise KernelError("grid Lipschitz estimation is one-dimensional only")
    lo, hi = box[0]
    xs = np.linspace(lo, hi, GRID_POINTS).reshape(-1, 1)
    zs = np.linspace(lo, hi, 201).reshape(-1, 1)
    K = kernel_matrix(kernel, xs, zs)
    h = xs[1, 0] - xs[0, 0]
    slope = float(np.max(np.abs(np.diff(K, axis=0)))) / h
    return LipschitzEstimate(slope * SAFETY_FACTOR, "grid-estimate", SAFETY_FACTOR)
