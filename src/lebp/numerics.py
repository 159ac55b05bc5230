"""Shared numerical infrastructure.

Quadrature rules on (0, pi), chamber integration, batched pivoted-LU
determinants (det_lu, the library's one determinant routine), batched
Pfaffians (plain and in the graded form Pf(B^T X B) that the chamber norms
and free-end minor sums reduce to), overflow-safe sinh ratios, and
certified tail bounds for polynomial-times-geometric series.  Everything
downstream (rectangle kernels, passage densities, correlation kernels,
lattice checks) builds on these primitives.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError


class TailBoundedValue(NamedTuple):
    """A computed value together with a certified bound on the truncation error."""

    value: float
    bound: float


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for sine-series evaluations.

    Parameters
    ----------
    tol : float
        Absolute truncation target.  Series evaluators stop once their
        certified tail bound drops below this (they may keep a few extra
        terms for free relative accuracy, but never fewer).
    n_max : int
        Hard cap on the series index; exceeding it raises TruncationError.
    min_gap : float
        Smallest geometric gap (distance to the boundary, or |x - x'| in
        kernel tails) accepted before the evaluator refuses to certify.
    """

    tol: float = 1e-12
    n_max: int = 100_000
    min_gap: float = 1e-3

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise PrecisionError("tol must be a positive finite number")
        if self.n_max < 1:
            raise PrecisionError("n_max must be at least 1")
        if not (self.min_gap > 0.0):
            raise PrecisionError("min_gap must be positive")


DEFAULT_POLICY = SeriesPolicy()

# entries (8 MB) of one working array in the blocked evaluators: sine
# series, sine sign kernel rows, free-end minor sums.  It bounds memory; the
# series and minor sums return the same bits at any value.  The graded
# Pfaffian of a block of combos holds about five such arrays at once
BLOCK_ENTRIES = 1_000_000


def block_rows(width):
    """Rows of `width` entries that fit in one block of BLOCK_ENTRIES (at least 1)."""
    return max(1, BLOCK_ENTRIES // max(1, width))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration over an interval (default (0, pi))."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise DomainError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self):
        return self.nodes.size


@lru_cache(maxsize=None)
def _leggauss_cached(order, a, b):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (b - a) * (x + 1.0) + a
    weights = 0.5 * (b - a) * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(order, a=0.0, b=math.pi):
    """Gauss-Legendre rule with `order` nodes on (a, b); exact through degree 2*order-1."""
    if order < 1:
        raise DomainError("order must be at least 1")
    if not b > a:
        raise DomainError("need b > a")
    nodes, weights = _leggauss_cached(int(order), float(a), float(b))
    return QuadratureRule(nodes, weights)


def chamber_integrate(f, rule, ndim):
    """Integrate a symmetric function over the ordered chamber 0 < t_1 < ... < t_ndim < b.

    The integrand is evaluated on the full tensor-product grid, in blocks of
    block_rows(ndim) points, and the cube integral is divided by ndim!; the
    two agree exactly when f is invariant under coordinate permutations (the
    only supported use).

    Parameters
    ----------
    f : callable
        Accepts an array of shape (m, ndim) and returns shape (m,).
    rule : QuadratureRule
        One-dimensional rule, used in tensor product.
    ndim : int
        Number of coordinates.
    """
    if ndim < 1:
        raise DomainError("ndim must be at least 1")
    shape = (rule.order,) * ndim
    count = rule.order**ndim
    step = block_rows(ndim)
    total = 0.0
    for start in range(0, count, step):
        idx = np.unravel_index(np.arange(start, min(start + step, count)), shape)
        pts = np.stack([rule.nodes[i] for i in idx], axis=-1)
        wt = np.prod([rule.weights[i] for i in idx], axis=0)
        vals = np.asarray(f(pts), dtype=float).ravel()
        if vals.shape != (pts.shape[0],):
            raise DomainError("integrand must return one value per point")
        total += float(wt @ vals)
    return total / math.factorial(ndim)


def det_lu(a):
    """Determinant of the square matrices stacked on the leading axes of a,
    via LU with partial pivoting: sign times the product of pivots.

    Vectorized over the stack; the Python loop runs over the matrix size
    only, and every matrix gets the bits it gets alone.  A zero pivot gives
    exactly +0.0 for its matrix.  Matrices larger than 64 x 64 are rejected;
    the library never needs them and the restriction keeps the plain
    product of pivots safe from gratuitous overflow.  The product is formed
    directly, never as exp(log|det|), so a tiny determinant keeps its
    relative accuracy.  Returns a float for a single matrix.
    """
    a = np.array(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("det_lu needs square matrices")
    batch, n = a.shape[:-2], a.shape[-1]
    if n > 64:
        raise DomainError("det_lu is limited to 64 x 64")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    a = a.reshape((math.prod(batch), n, n))
    det = np.ones(a.shape[0])
    singular = np.zeros(a.shape[0], dtype=bool)
    rows = np.arange(a.shape[0])
    for k in range(n):
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        swap = a[rows, p].copy()
        a[rows, p] = a[:, k]
        a[:, k] = swap
        pivot = a[:, k, k]
        det[p != k] *= -1.0
        det *= pivot
        # a zero pivot means a zero column; its determinant is +0.0
        singular |= pivot == 0.0
        tau = a[:, k + 1 :, k] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        a[:, k + 1 :, k + 1 :] -= tau[:, :, None] * a[:, k, None, k + 1 :]
    det[singular] = 0.0
    det = det.reshape(batch)
    return float(det) if det.ndim == 0 else det


def sinh_ratio(n, num, den):
    """sinh(n*num) / sinh(n*den) for positive arguments, in exponential form.

    Stable for arbitrarily large n*den when num <= den (never forms a large
    sinh).  For num > den the result grows like exp(n*(num-den)) and will
    overflow in the usual float sense; callers on that branch keep n*(num-den)
    moderate.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0.0):
        raise DomainError("n must be positive")
    if not (num > 0.0 and den > 0.0):
        raise DomainError("num and den must be positive")
    out = np.exp(n * (num - den)) * (np.expm1(-2.0 * n * num) / np.expm1(-2.0 * n * den))
    if out.ndim == 0:
        return float(out)
    return out


def poly_geom_tail(q, factors, n_start):
    """Upper bound for sum_{n >= n_start} q**n * prod_i (n + c_i)**p_i.

    factors is a sequence of (c, p) pairs with c > -n_start and p >= 0.  The
    sum is accumulated term by term until the one-step ratio drops below
    (1+q)/2, at which point a geometric majorant closes the tail; the ratio
    is monotone decreasing, so the bound is rigorous.
    """
    if not (0.0 < q < 1.0):
        raise DomainError("q must lie in (0, 1)")
    cutoff = 0.5 * (1.0 + q)

    def term(n):
        t = q**n
        for c, p in factors:
            t *= (n + c) ** p
        return t

    total = 0.0
    n = n_start
    t = term(n)
    while True:
        r = q
        for c, p in factors:
            r *= ((n + 1.0 + c) / (n + c)) ** p
        if r <= cutoff:
            return total + t / (1.0 - r)
        total += t
        n += 1
        t = term(n)


def pfaffian(a, border=None):
    """Pfaffian of the skew-symmetric matrices stacked on the leading axes of a.

    Pivoted Parlett-Reid elimination (Wimmer 2012, arXiv:1102.3440),
    vectorized over the stack; the Python loop runs over the matrix size
    only.  For odd size N the Pfaffian vanishes, unless `border` (shape
    (..., N)) is given: then the result is Pf[[A, v], [-v^T, 0]] of the
    matrix bordered by v.  Returns a float for a single matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("pfaffian needs square matrices")
    batch, n = a.shape[:-2], a.shape[-1]
    if n % 2:
        if border is None:
            out = np.zeros(batch)
            return float(out) if out.ndim == 0 else out
        bordered = np.zeros(batch + (n + 1, n + 1))
        bordered[..., :n, :n] = a
        bordered[..., :n, n] = border
        bordered[..., n, :n] = -np.asarray(border, dtype=float)
        a, n = bordered, n + 1
    a = a.reshape((math.prod(batch), n, n)).copy()
    out = np.ones(a.shape[0])
    rows = np.arange(a.shape[0])
    for k in range(0, n - 1, 2):
        # bring the largest entry of column k below the diagonal to row k+1
        kp = k + 1 + np.argmax(np.abs(a[:, k + 1 :, k]), axis=1)
        out[kp != k + 1] *= -1.0
        swap = a[rows, kp].copy()
        a[rows, kp] = a[:, k + 1]
        a[:, k + 1] = swap
        swap = a[rows, :, kp].copy()
        a[rows, :, kp] = a[:, :, k + 1]
        a[:, :, k + 1] = swap
        pivot = a[:, k, k + 1]
        out *= pivot
        if k + 2 < n:
            # a zero pivot means a zero column; its Pfaffian is already 0
            tau = a[:, k, k + 2 :] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
            col = a[:, k + 2 :, k + 1]
            a[:, k + 2 :, k + 2 :] += (
                tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
            )
    out = out.reshape(batch)
    return float(out) if out.ndim == 0 else out


def graded_pfaffian(b, apply_x, border):
    """Pf(B^T X B) for K x N matrices B stacked on the leading axes of b.

    X is a skew-symmetric K x K matrix given through apply_x(q) = X @ q
    (for q of shape (..., K, N)), so it is never formed by this function.
    For odd N the Pfaffian is bordered by B^T v with v = `border` (length
    K), i.e. by one extra unit column of B and row v of X.

    B = QR (Householder) turns this into det R * Pf(Q^T X Q): the scale and
    the near-dependence of B's columns go into the triangular factor, and
    the Pfaffian only sees an orthonormal frame.  Forming B^T X B directly
    instead cancels catastrophically when B's rows decay geometrically or
    its columns are nearly parallel.
    """
    b = np.asarray(b, dtype=float)
    q, r = np.linalg.qr(b)
    core = np.swapaxes(q, -1, -2) @ apply_x(q)
    core = 0.5 * (core - np.swapaxes(core, -1, -2))
    edge = np.asarray(border, dtype=float) @ q if b.shape[-1] % 2 else None
    return np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1) * pfaffian(core, edge)


def _apply_sign(q):
    """J @ q along axis -2 for J[b, b'] = sgn(b' - b), by prefix sums."""
    c = np.cumsum(q, axis=-2)
    return c[..., -1:, :] - 2.0 * c + q


def _ordered_minor_sums(m):
    """ordered_minor_sum over matrices stacked on the leading axes of m
    (shape (..., N, K) with N <= K)."""
    m = np.asarray(m, dtype=float)
    return graded_pfaffian(np.swapaxes(m, -1, -2), _apply_sign, np.ones(m.shape[-1]))


def ordered_minor_sum(m):
    """Sum of det M[:, (c_1..c_N)] over all strictly increasing column tuples.

    Ishikawa-Wakayama minor summation (Stembridge 1990): the sum equals
    Pf(M J M^T) with J[b, b'] = sgn(b' - b), bordered by M @ 1 for odd N.
    m has shape (N, K); N > K has no minors and gives exactly 0.0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DomainError("ordered_minor_sum needs a matrix")
    nrows, ncols = m.shape
    if nrows > ncols:
        return 0.0
    if nrows == 0:
        return 1.0
    return float(_ordered_minor_sums(m))
