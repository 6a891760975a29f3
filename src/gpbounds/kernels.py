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
kinds (and ``Kernel._complement`` for k(0) - k(tau), which the pointwise
bounds read) and, for every Gram entry, the argument of k formed from
per-point ``_features`` and finished by ``_finish`` in the argument's own
buffer; ``Kernel._iso`` takes the difference x - z of either sign there,
so no |x - z| pass and no second array are made.  Each step is one
rounded operation of the kind's one-line form below, or an exact rewrite
of one: the periodic -2 u / l^2 is u / (-0.5 l^2), the same quotient for
every l >= 2.2e-154, where -0.5 l^2 is exact, and the last factor s2 is
skipped where it is 1, the default of every factory, since x * 1 is x.
``kernel_matrix`` forms the arguments of a 2-D block as BLAS outer
products (``_block``); ``kernel_diagonal``, ``gram_columns`` and the
Lipschitz grid walk form those of a diagonal or one column elementwise
(``_gram``).  Each entry is rounded once either way, so both give the same
bits.  ``featurize`` computes a point set's features once, and those three
functions take its ``Features`` in place of the points.

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
        """Evaluate k(tau) for an isotropic kernel; tau >= 0, scalar or array.
        The values are a new array (a float for a scalar); tau is never
        written."""
        v = self._iso(self._distances(tau))
        return float(v) if v.ndim == 0 else v

    def complement(self, tau):
        """Evaluate k(0) - k(tau) for an isotropic kernel, as ``iso`` takes
        tau, with no cancellation where k(tau) is close to k(0)."""
        v = self._complement(self._distances(tau))
        return float(v) if v.ndim == 0 else v

    def _distances(self, tau) -> np.ndarray:
        """tau as a float array, checked: the kind is isotropic, tau >= 0."""
        if not self.isotropic:
            raise KernelError(f"{self.kind} has no isotropic form")
        t = np.asarray(tau, dtype=float)
        if np.any(t < 0):
            raise KernelError("tau must be non-negative")
        return t

    def _iso(self, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """k(|t|) for a float array t of any sign, unchecked: ``iso`` checks
        the kind and t >= 0 first, and ``_finish`` passes x - z.  The
        Matern-1/2 step takes |t| itself, and the squared-exponential and
        rational-quadratic steps read t only through a square, so -t gives
        the bits of t.  The values go into ``out``, which may be t itself,
        else into a new buffer of t's shape.  The periodic step divides
        sin^2 by -0.5 l^2, which has the bits of multiplying it by -2 and
        dividing by l^2 for every l >= 2.2e-154, and s2 = 1 multiplies
        nothing."""
        s2, l = self.signal_variance, self.lengthscale
        # The steps and their order are those of the one-line forms, or
        # exact rewrites of them, so they round the same.  The first writes the buffer (0-d for a scalar)
        # that every later step changes in place, so a scalar gets the bits
        # of the array entry.
        v = np.empty(t.shape) if out is None else out
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
                np.abs(t, out=v)        # s2 exp(|t| / -l), the bits of -|t| / l
                v /= -l
            else:
                np.multiply(np.pi, t, out=v)  # s2 exp(-2 sin^2(pi t / p) / l^2)
                v /= self.period
                np.sin(v, out=v)
                v **= 2
                v /= -0.5 * (l * l)
            np.exp(v, out=v)
        if s2 != 1.0:
            v *= s2
        return v

    def _complement(self, t: np.ndarray) -> np.ndarray:
        """k(0) - k(t) for a float array t >= 0, unchecked.  Each kind's
        k(t) is s2 exp(-r(t)), so the complement is -s2 expm1(-r(t)), with
        no cancellation as t -> 0:

        * squared-exponential   r = (t / l)^2 / 2
        * matern-1/2            r = t / l
        * rational-quadratic    r = a log1p((t / l)^2 / (2 a))
        * periodic              r = 2 (sin(pi u / p) / l)^2, u = min(f, p - f)
                                with f = fmod(t, p); both steps are exact,
                                and |pi u / p| <= pi / 2 keeps sin accurate
                                near the period's multiples, where k(t)
                                returns to k(0)
        """
        # one buffer of t's shape, changed in place, as in ``_iso``
        r = np.empty(t.shape)
        if self.kind == PERIODIC:
            p = self.period
            np.fmod(t, p, out=r)
            np.minimum(r, p - r, out=r)
            r *= np.pi
            r /= p
            np.sin(r, out=r)
            r /= self.lengthscale
            r *= r
            r *= 2.0
        else:
            np.divide(t, self.lengthscale, out=r)
            if self.kind == SQUARED_EXPONENTIAL:
                r *= r
                r *= 0.5
            elif self.kind == RATIONAL_QUADRATIC:
                r *= r
                r /= 2.0 * self.alpha
                np.log1p(r, out=r)
                r *= self.alpha
        np.negative(r, out=r)
        np.expm1(r, out=r)
        r *= -self.signal_variance
        return r

    def __call__(self, x, z) -> float:
        """Evaluate k(x, z) for a pair of points: the entry of their Gram."""
        return float(kernel_matrix(self, as_point(x), as_point(z))[0, 0])

    def prior_variance(self, x) -> float:
        """k(x, x) at one point: the entry of ``kernel_diagonal``."""
        return float(kernel_diagonal(self, as_point(x))[0])


def _features(kernel: Kernel, V: np.ndarray) -> tuple:
    """The per-point quantities k(x, z) is built from, one array each:
    x; for the neural-network kind p = sqrt(2 sb) r and
    q = sqrt(2 sw) x r with r = 1 / sqrt(a), a = 1 + 2 (sb + sw x^2), the
    first two entries of (sqrt(2 sb), sqrt(2 sw) x, 1) scaled to unit
    length, so |p_x p_z + q_x q_z| < 1; for the periodic kind sin b and
    cos b with b = pi fmod(x, p) / p.  The reduction by fmod(x, p) is exact
    and leaves sin^2 unchanged, so the periodic features keep full accuracy
    for inputs far from 0."""
    # formed in place, by the operations of the one-line forms in their
    # order: pi fmod(x, p) / p and 1 + 2 (sb + sw x^2), then
    # sqrt(2 sw) x r in a's buffer and sqrt(2 sb) r in r's
    if kernel.kind == PERIODIC:
        p = kernel.period
        b = np.fmod(V, p)
        b *= np.pi
        b /= p
        return np.sin(b), np.cos(b)
    if kernel.kind == NEURAL_NETWORK:
        a = np.multiply(V, V)
        a *= kernel.weight_variance
        a += kernel.bias_variance
        a *= 2.0
        a += 1.0
        # sqrt(a) / a, not 1 / sqrt(a): where a overflows this is inf / inf,
        # a nan the finite checks catch, where 1 / sqrt(a) would be a 0
        r = np.sqrt(a)
        r /= a
        q = np.multiply(math.sqrt(2.0 * kernel.weight_variance), V, out=a)
        q *= r
        r *= math.sqrt(2.0 * kernel.bias_variance)
        return r, q
    return (V,)


class Features:
    """One point set's features for one kernel, made by ``featurize``.
    ``flat`` holds the 1-D arrays ``_features`` returns, and ``left`` (n, k)
    and ``right`` (k, n) the BLAS operands ``_block`` multiplies, each built
    on first use: a query set is only ever a right operand, and the
    training set of a low-rank posterior neither.

    An isotropic argument x - z is the k = 2 product [x, 1] . [1, -z]: both
    terms are exact, so the one rounding is the subtraction's.  Every other
    argument is formed from k = 1 products, each rounded once as an
    elementwise product is: one for the polynomial kind, two for the
    periodic (sin x cos z less cos x sin z) and neural-network kinds.
    Each operand is an (n, k) C-ordered array or its transpose.  Row views
    of one (3, n) buffer would build faster, but OpenBLAS then raised a
    spurious invalid flag for an infinite query point."""

    __slots__ = ("kernel", "flat", "_left", "_right")

    def __init__(self, kernel: Kernel, flat: tuple, left=None, right=None):
        self.kernel, self.flat, self._left, self._right = kernel, flat, left, right

    @property
    def size(self) -> int:
        return self.flat[0].size

    @property
    def left(self) -> list:
        if self._left is None:
            if self.kernel.kind in _DIFFERENCE_KINDS:
                x = self.flat[0]
                left = np.empty((x.size, 2))
                left[:, 0] = x
                left[:, 1] = 1.0
                self._left = [left]
            else:
                self._left = [f.reshape(-1, 1) for f in self.flat]
        return self._left

    @property
    def right(self) -> list:
        if self._right is None:
            if self.kernel.kind in _DIFFERENCE_KINDS:
                x = self.flat[0]
                right = np.empty((x.size, 2))
                right[:, 0] = 1.0
                np.negative(x, out=right[:, 1])
                self._right = [right.T]
            else:
                right = [f.reshape(1, -1) for f in self.flat]
                if self.kernel.kind == PERIODIC:
                    right.reverse()     # (cos z, sin z)
                self._right = right
        return self._right

    def __getitem__(self, index) -> Features:
        """The features of the points [index], a slice or an index array,
        with the operands built so far."""
        left, right = self._left, self._right
        return Features(self.kernel, tuple(f[index] for f in self.flat),
                        None if left is None else [a[index] for a in left],
                        None if right is None else [b[:, index] for b in right])


# the kinds whose k reads x - z: the isotropic kinds but the periodic one
_DIFFERENCE_KINDS = (SQUARED_EXPONENTIAL, MATERN_HALF, RATIONAL_QUADRATIC)


def featurize(kernel: Kernel, X) -> Features:
    """The features of the points X, computed once for every block,
    diagonal and column built from them."""
    return Features(kernel, _features(kernel, as_points(X)))


def _featured(kernel: Kernel, X) -> Features:
    """X's features: X itself when it is a ``Features`` made for kernel."""
    if not isinstance(X, Features):
        return featurize(kernel, X)
    if X.kernel is not kernel:
        raise KernelError("features were made for another kernel")
    return X


def _gram(kernel: Kernel, fx, fz, out=None) -> np.ndarray:
    """k(x, z) entry for entry from the 1-D features of x and z, which
    broadcast: (n,) against (n,) gives a Gram's diagonal and (n,) against
    scalars one column.  The values go into ``out`` where it is given,
    else into a new array.

    isotropic:       k(|x - z|) from x - z by the arithmetic of ``Kernel.iso``
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
        s = np.multiply(fx[0], fz[0], out=out)
    elif kernel.kind == PERIODIC:
        (sin_x, cos_x), (sin_z, cos_z) = fx, fz
        s = np.multiply(sin_x, cos_z, out=out)
        s -= cos_x * sin_z
    elif kernel.isotropic:
        s = np.subtract(fx[0], fz[0], out=out)
    else:
        (p_x, q_x), (p_z, q_z) = fx, fz
        s = np.multiply(p_x, p_z, out=out)
        s += q_x * q_z
    return _finish(kernel, s)


def _block(kernel: Kernel, X: Features, Z: Features) -> np.ndarray:
    """k(X, Z) with the arguments of ``_gram`` formed as BLAS outer products
    of the ``Features`` operands.  Each entry has the bits of the
    elementwise form, except that BLAS may turn a -0 product into +0, which
    the abs, the square, c > 0 or p > 0 of every kind's formula erase."""
    s = np.dot(X.left[0], Z.right[0])
    if kernel.kind == PERIODIC:
        s -= np.dot(X.left[1], Z.right[1])
    elif kernel.kind == NEURAL_NETWORK:
        s += np.dot(X.left[1], Z.right[1])
    return _finish(kernel, s)


def _finish(kernel: Kernel, s: np.ndarray) -> np.ndarray:
    """k from the argument s that ``_gram`` or ``_block`` formed, in s's
    buffer for every kind: the isotropic kinds' difference x - z goes to
    ``Kernel._iso`` as it is, sign and all, to be evaluated in place.  As
    there, the periodic s^2 is divided by -0.5 l^2, the bits of
    -2 s^2 / l^2 for every l >= 2.2e-154, where -0.5 l^2 is exact (below
    it the two differ only where s^2 is itself near the subnormal range,
    else both give exp(-huge) = 0, and 0 / 0 a nan), and the periodic and
    polynomial values are scaled by s2 only where s2 != 1."""
    s2 = kernel.signal_variance
    if kernel.kind == POLYNOMIAL:
        s += kernel.offset
        s **= kernel.degree
        if s2 != 1.0:
            s *= s2
        return s
    if kernel.kind == PERIODIC:
        l = kernel.lengthscale
        s *= s
        s /= -0.5 * (l * l)
        np.exp(s, out=s)
        if s2 != 1.0:
            s *= s2
        return s
    if kernel.isotropic:
        return kernel._iso(s, out=s)
    # rounding can push u a hair past 1 for coincident points
    np.minimum(s, 1.0, out=s)
    np.maximum(s, -1.0, out=s)
    np.arcsin(s, out=s)
    s *= s2 * (2.0 / np.pi)
    return s


def kernel_matrix(kernel: Kernel, X, Z=None) -> np.ndarray:
    """Cross-covariance matrix k(X, Z); Z defaults to X.  X and Z may be
    points or their ``Features``.  Each entry depends only on its own pair
    of points, so a block of a Gram equals the same entries of the whole
    Gram bit for bit."""
    fx = _featured(kernel, X)
    return _block(kernel, fx, fx if Z is None else _featured(kernel, Z))


def kernel_diagonal(kernel: Kernel, X) -> np.ndarray:
    """k(x, x) at each point of X, points or their ``Features``, equal to
    ``np.diag(kernel_matrix(kernel, X, X))`` bit for bit without forming
    the off-diagonal entries."""
    if kernel.isotropic:
        # the points' count, without features where the points are raw
        n = _featured(kernel, X).size if isinstance(X, Features) else as_points(X).size
        return np.full(n, float(kernel.signal_variance))
    f = _featured(kernel, X).flat
    return _gram(kernel, f, f)


def gram_columns(kernel: Kernel, X):
    """A function (j, out=None) -> k(X, X[j]), shape (n,), equal bit for bit
    to ``kernel_matrix(kernel, X)[:, j]``; X may be points or their
    ``Features``, which are computed once, not once per column.  Each
    column is a new array, or is written into ``out`` where one is given,
    so that a caller walking many columns reuses one buffer."""
    f = _featured(kernel, X).flat
    return lambda j, out=None: _gram(kernel, f, [v[j] for v in f], out)


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
    ``_gram`` from features of the 10^4 grid points computed once, each in
    one reused buffer, and their differences, np.diff's subtraction, in a
    second."""
    if kernel.isotropic:
        grid = np.linspace(0.0, hi - lo, GRID_POINTS)
        columns = [kernel.iso(grid)]
    else:
        grid = np.linspace(lo, hi, GRID_POINTS)
        fx = _features(kernel, grid)
        fz = _features(kernel, np.linspace(lo, hi, 201))
        buffer = np.empty(GRID_POINTS)
        columns = (_gram(kernel, fx, z, buffer) for z in zip(*fz))
    steepest = 0.0
    d = np.empty(GRID_POINTS - 1)
    for column in columns:
        np.subtract(column[1:], column[:-1], out=d)
        # np.maximum, unlike max(), carries a nan through
        steepest = np.maximum(steepest, np.abs(d, out=d).max())
    return float(steepest / (grid[1] - grid[0]) * SAFETY_FACTOR)
