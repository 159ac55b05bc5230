"""Shared numerical infrastructure.

Quadrature rules on (0, pi), chamber integration, batched pivoted-LU
determinants (det_lu, the library's one determinant routine, and
det_lu_bounded, the same value with a certified Hadamard-type bound on its
rounding and on given entrywise errors), batched
Pfaffians (plain and in the graded form Pf(B^T X B) that the chamber norms
and free-end minor sums reduce to), the graded determinant det(A C B^T) that
every kernel determinant reduces to, the sine tables sin(n * angle) of
every sine series (sine_multiples), and overflow-safe sinh ratios.
Everything downstream (rectangle kernels, passage densities, correlation
kernels, lattice checks) builds on these primitives.  The one truncation
rule of the sine series lives with their coefficients, in
rect_kernels._series_terms.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError


class TailBoundedValue(NamedTuple):
    """A computed value together with a certified bound on the truncation error."""

    value: float
    bound: float


UNIT_ROUNDOFF = 2.0**-53

# entries (1 MiB of doubles) that one block of a blocked evaluation holds at
# once, summed over every array the block keeps alive: its inputs, results
# and temporaries.  Every evaluation over a stack (sine series, kernel
# determinants, chamber norms and densities, minor sums, chamber quadrature
# and lattice Green sums) takes its rows through block_rows, so its memory
# stays bounded however large the stack.  A blocked evaluation that calls
# another counts only its own arrays; the callee blocks itself.  Stacked
# results have the same bits at any value (which is why the sine sign
# kernel's row blocks in passage_densities have a fixed size);
# chamber_integrate sums its blocks in order, so its value moves by
# rounding only
BLOCK_ENTRIES = 131_072


def block_rows(width):
    """Rows of a block within the budget: BLOCK_ENTRIES // width, at least 1.

    width is the cost of one row, counted in entries over every array the
    block holds at once (a row's share of its inputs, results and
    temporaries), not the length of one array's row.
    """
    return max(1, BLOCK_ENTRIES // max(1, width))


def stacked(f, stack, width, core=1):
    """f over a stack of items, in blocks of block_rows(width) items.

    The last `core` axes of `stack` form one item, and width is what one
    item costs f (see block_rows).  f maps an (m, ...) block of items to m
    values, each with the bits it gets alone, so the result does not depend
    on the blocks.  Returns the values in the stack's leading shape, a
    float for a single item.
    """
    stack = np.asarray(stack)
    batch = stack.shape[: stack.ndim - core]
    items = stack.reshape((-1,) + stack.shape[stack.ndim - core :])
    out = np.empty(items.shape[0])
    step = block_rows(width)
    for start in range(0, items.shape[0], step):
        out[start : start + step] = f(items[start : start + step])
    return _unstack(out, batch)


class QuadratureRule:
    """Nodes and weights for integration over an interval (default (0, pi)).

    Both are stored as float arrays, checked once, here: matching, 1-d and
    nonempty, with strictly increasing nodes."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise DomainError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        self.nodes = nodes
        self.weights = weights

    @property
    def order(self):
        return self.nodes.size


def _legendre(n, x):
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence
    P_{j+1} = x P_j + j/(j + 1) (x P_j - P_{j-1}), in place."""
    p0, p1, xp = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, n):
        np.multiply(x, p1, out=xp)
        p0 -= xp
        p0 *= -j / (j + 1)
        p0 += xp
        p0, p1 = p1, p0
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _legendre_rule(n):
    """Gauss-Legendre nodes (ascending) and weights on (-1, 1).

    Newton's method on P_n from Tricomi's estimate of each root
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)), all roots at once,
    O(n) work per root and step; only the roots x >= 0 are iterated (P_n is
    odd or even, and the middle root of odd n is exactly 0) and mirrored.
    Iteration stops once no step exceeds one unit roundoff (after four or
    five evaluations of the recurrence at any order up to 3000).  The weight
    2 / ((1 - x^2) P_n'(x)^2) is taken at the computed node x and moved to
    the exact root x - dx, dx the last Newton step, to first order: its
    logarithmic derivative there is 2x / (1 - x^2), which magnifies the
    node's rounding near the ends of the interval.
    """
    half = n // 2
    k = np.arange(half)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k + 3) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))
    for _ in range(20):
        p, dp = _legendre(n, x)
        dx = p / dp
        if np.all(np.abs(dx) <= UNIT_ROUNDOFF):
            break
        x = x - dx
    s = (1.0 - x) * (1.0 + x)
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * dx / s)
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def gauss_legendre(order, a=0.0, b=math.pi):
    """Gauss-Legendre rule with `order` nodes on (a, b); exact through degree 2*order-1."""
    if order < 1:
        raise DomainError("order must be at least 1")
    if not b > a:
        raise DomainError("need b > a")
    x, w = _legendre_rule(int(order))
    a, b = float(a), float(b)
    return QuadratureRule(0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w)


def chamber_integrate(f, rule, ndim):
    """Integrate a symmetric function over the ordered chamber 0 < t_1 < ... < t_ndim < b.

    The cube integral of the tensor-product rule, divided by ndim!, regrouped
    by ordered node multisets: f is evaluated once per non-decreasing index
    tuple i_1 <= ... <= i_ndim, with weight prod_k w_{i_k} / prod_j m_j!,
    where the m_j count the repeated indices.  That is C(order+ndim-1, ndim)
    points instead of order**ndim, taken in lexicographic order from
    itertools.combinations_with_replacement, in blocks (see below).  It equals
    the chamber integral exactly when f is invariant under coordinate
    permutations (the only supported use); f sees each point with its
    coordinates sorted.

    A block counts, per point, its own index, weight and node rows and the
    integrand's temporaries, taken to be as many again: 4 ndim + 12
    entries.  An integrand that evaluates a blocked stack function (say
    joint_pdf) bounds its own work.  The blocks are summed in order, so
    the value depends on BLOCK_ENTRIES by rounding only.

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
    total, step = 0.0, block_rows(4 * ndim + 12)
    tuples = itertools.combinations_with_replacement(range(rule.order), ndim)
    flat = itertools.chain.from_iterable(tuples)
    while (idx := np.fromiter(itertools.islice(flat, step * ndim), np.intp)).size:
        idx = idx.reshape(-1, ndim)
        # run counts each index's position within its run of repeats, so
        # dividing by it at every step divides by prod_j m_j! in all
        wt = rule.weights[idx[:, 0]]
        run = np.ones(wt.shape)
        for k in range(1, ndim):
            run = np.where(idx[:, k] == idx[:, k - 1], run + 1.0, 1.0)
            wt = wt * rule.weights[idx[:, k]] / run
        pts = rule.nodes[idx]
        vals = np.asarray(f(pts), dtype=float).ravel()
        if vals.shape != (pts.shape[0],):
            raise DomainError("integrand must return one value per point")
        total += float(wt @ vals)
    return total


def rounding_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = UNIT_ROUNDOFF: the relative
    error bound of k successive floating-point operations."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _lu_stack(a):
    """Pivoted LU of the square matrices stacked on the leading axes of a.

    Returns (det, lu, batch): det holds sign times the product of pivots for
    each matrix of the flattened stack, lu (shape (m, n, n)) holds U on and
    above the diagonal and the multipliers of L below it (rows in pivoted
    order), and batch is the leading shape to restore.
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
        a[:, k + 1 :, k] = tau
        a[:, k + 1 :, k + 1 :] -= tau[:, :, None] * a[:, k, None, k + 1 :]
    det[singular] = 0.0
    return det, a, batch


def _unstack(x, batch):
    x = x.reshape(batch)
    return float(x) if x.ndim == 0 else x


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
    det, _, batch = _lu_stack(a)
    return _unstack(det, batch)


def det_lu_bounded(a, err=0.0):
    """det_lu(a) together with a certified bound on its distance to det(a + e)
    for every e with |e| <= err entrywise.

    Returns (det, bound), each a float for a single matrix and an array over
    a stack; det is bitwise det_lu(a), and err broadcasts against a.  The
    computed factors satisfy L U = P (a + da) with |da| <= gamma_n |L| |U|,
    and the product of the n pivots adds a relative error gamma_n (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 9.3).  So det_lu(a)
    is det(a + e + f)(1 + theta) with f = da - e.  The Hadamard-type
    perturbation bound of Ipsen & Rehman (SIMAX 2008),
    |det(c + f) - det c| <= prod_j (|c_j| + |f_j|) - prod_j |c_j| over the
    columns c_j, f_j (2-norms), is increasing in |c_j|, so it holds with
    |c_j| replaced by |a_j| + |err_j|.  The difference of products is
    accumulated from positive terms, and the bound's own rounding is
    covered by a factor 1 + gamma_{4n+4}.
    """
    det, lu, batch = _lu_stack(a)
    n = lu.shape[-1]
    err = np.broadcast_to(np.abs(np.asarray(err, dtype=float)), batch + (n, n))
    err = err.reshape(lu.shape)
    lower = np.tril(lu, -1) + np.eye(n)
    llu = np.abs(lower) @ np.abs(np.triu(lu))
    gam = rounding_gamma(n)
    e_norm = np.linalg.norm(err, axis=-2)
    col = np.linalg.norm(np.asarray(a, dtype=float).reshape(lu.shape), axis=-2) + e_norm
    pert = gam * np.linalg.norm(llu, axis=-2) + e_norm
    # spread = prod(col + pert) - prod(col) over the columns seen so far,
    # grown by positive terms only
    spread, head = np.zeros(det.shape), np.ones(det.shape)
    for c, p in zip(col.T, pert.T):
        spread = c * spread + p * head
        head = head * (c + p)
    bound = (spread + gam / (1.0 - gam) * np.abs(det)) * (1.0 + rounding_gamma(4 * n + 4))
    return _unstack(det, batch), _unstack(bound, batch)


def graded_det(a, c, b, det_head):
    """det(A diag(c) B^T) / prod(C1) for an N x M matrix A (M >= N) and N x M
    matrices B stacked on the leading axes of b, given det_head = det A1; the
    determinant twin of graded_pfaffian.  Split after the first N columns,

        det(A C B^T) = det A1 * prod(C1) * det(B1 + B2 X^T),  X = C1^-1 A1^-1 A2 C2,

    and return det A1 * det(B1 + B2 X^T).  For decaying c the leading N
    terms go into prod(C1), which the caller multiplies back or cancels
    against other factors, instead of cancelling; X holds only the ratios
    c_m / c_n, m > N >= n.  Only A1 is solved with, so B may hold unordered
    or equal rows; every matrix of the stack gets the bits it gets alone,
    so callers may run a stack in blocks (stacked).  Beyond B it holds
    about 4 N^2 entries per matrix.
    """
    a, c, b = (np.asarray(v, dtype=float) for v in (a, c, b))
    n = a.shape[0]
    if np.any(c[:n] == 0.0):
        raise PrecisionError("leading coefficients underflow; the determinant is out of range")
    x = np.linalg.solve(a[:, :n], a[:, n:]) * (c[n:] / c[:n, None])
    # core[..., k, j] = (B1 + B2 X^T)[k, j], one dot product per entry
    core = np.vecdot(b[..., :, None, :], np.concatenate([np.eye(n), x], axis=1))
    return det_head * det_lu(core)


def sine_multiples(angles, terms):
    """sin(angle * n) for n = 1..terms, on a new last axis of `angles`.

    Each distinct angle is evaluated once.  Distinct means distinct bits,
    taken through an int64 view, so -0.0 stays apart from 0.0 (and
    np.unique on floats would load numpy.ma on a NaN).  Every entry is
    np.sin of the product angle * n, so it has the bits of the same entry
    in any other table, whatever the angles and terms around it.
    """
    a = np.asarray(angles, dtype=float)
    bits, index = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    table = np.sin(np.outer(bits.view(np.float64), np.arange(1, terms + 1)))
    return table[index].reshape(a.shape + (terms,))


def sinh_ratio(n, num, den):
    """sinh(n*num) / sinh(n*den) for positive arguments, in exponential form.

    Stable for arbitrarily large n*den when num <= den (never forms a large
    sinh).  For num > den the result grows like exp(n*(num-den)); once it
    leaves the double range (n*(num-den) beyond about 709) PrecisionError
    is raised instead of returning inf.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0.0):
        raise DomainError("n must be positive")
    if not (num > 0.0 and den > 0.0):
        raise DomainError("num and den must be positive")
    with np.errstate(over="ignore"):
        out = np.exp(n * (num - den)) * (np.expm1(-2.0 * n * num) / np.expm1(-2.0 * n * den))
    if not np.all(np.isfinite(out)):
        raise PrecisionError(
            f"sinh ratio overflows: n*(num - den) = {float(np.max(n)) * (num - den):.6g}"
            " is beyond the double range"
        )
    return float(out) if out.ndim == 0 else out


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


# K x N arrays per stacked matrix that a graded Pfaffian holds at once (B,
# the QR's working copy and Q, X Q), measured with tracemalloc
PFAFFIAN_COPIES = 4


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

    Every matrix of the stack gets the bits it gets alone, so callers may
    run a stack in blocks (stacked).  With B, its factors and X Q, a block
    holds about PFAFFIAN_COPIES arrays the size of B at once.
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


def ordered_minor_sum(m):
    """Sum of det M[:, (c_1..c_N)] over all strictly increasing column tuples.

    Ishikawa-Wakayama minor summation (Stembridge 1990): the sum equals
    Pf(M J M^T) with J[b, b'] = sgn(b' - b), bordered by M @ 1 for odd N.
    m has shape (..., N, K), one sum per stacked matrix, evaluated in
    blocks (stacked); each matrix gets the bits it gets alone, and a float
    comes back for a single matrix.  N > K has no minors and gives exactly
    0.0, and N = 0 gives 1.0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise DomainError("ordered_minor_sum needs a matrix")
    batch, (nrows, ncols) = m.shape[:-2], m.shape[-2:]
    if nrows > ncols or nrows == 0:
        return _unstack(np.full(batch, float(nrows == 0)), batch)
    border = np.ones(ncols)

    def minor_sums(block):
        return graded_pfaffian(np.swapaxes(block, -1, -2), _apply_sign, border)

    return stacked(minor_sums, m, PFAFFIAN_COPIES * nrows * ncols, core=2)
