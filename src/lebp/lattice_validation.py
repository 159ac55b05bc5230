"""Square-lattice strips with absorbing boundaries, as discrete checks of the
continuum formulas.

The walk lives on the interior vertices (i, j) of a rectangular strip,
i = 1..cols counting columns from the left, j = 1..rows counting rows from
the bottom, and steps to each of its four neighbours with weight 1/4; the
frame of boundary vertices (columns 0 and cols+1, rows 0 and rows+1)
absorbs.  With lattice spacing h = pi/(rows + 1) the strip has height pi
and length (cols + 1) h, so exit probabilities converge to the continuum
hitting kernels of the rectangle, with one factor of h per boundary
endpoint: exit probabilities from an interior start scale like h times the
interior-to-edge kernel, and from a start adjacent to the left edge like
h^2 times the edge-to-edge kernel.

The Green's function of the walk needs no linear solve: separation of
variables writes it as a finite sine series, sine modes across the strip
times a discrete sinh ratio along it (the discrete analogue of the
boundary Poisson kernel), or the same with the axes swapped.  Every
quantity below is an exit row through the right edge, so the Green
function is evaluated only on the exit column, next to that edge, by one
function, exit_right(strip, sources).

First-passage distributions across a cut column factor exactly through the
cut (strong Markov property), which is the discrete, quadrature-free form
of the semigroup identities the continuum kernels satisfy; determinants of
these matrices give the discrete nonintersecting first-passage densities.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import PFAFFIAN_COPIES, block_rows, det_lu, ordered_minor_sum, stacked
from .passage_densities import ChamberSequence, joint_pdf
from .rect_kernels import RectConfig, boundary_poisson_rect


# target rows per block of exit_right's columns-first products: with
# mu < 2 asinh 1 no referenced exponential exceeds exp(1.77 * 255) < 1e197
ROW_BLOCK = 256


@dataclass(frozen=True)
class LatticeStrip:
    """Interior grid of a strip of height pi: `rows` interior rows of
    spacing h = pi/(rows+1) and `cols` interior columns of the same spacing.
    """

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DomainError("need at least one interior row and column")

    @property
    def spacing(self):
        return math.pi / (self.rows + 1)

    @property
    def length(self):
        return (self.cols + 1) * self.spacing

    @property
    def size(self):
        return self.rows * self.cols

    def index(self, site):
        try:
            i, j = map(operator.index, site)
        except (TypeError, ValueError):
            raise DomainError(f"site {site!r} is not a (column, row) pair") from None
        if not (1 <= i <= self.cols and 1 <= j <= self.rows):
            raise DomainError(f"site {site} outside the interior grid")
        return (i - 1) * self.rows + (j - 1)


def _modes(n):
    """Orthonormal sine modes sqrt(2/(n+1)) sin(p k pi/(n+1)) across n
    interior points, symmetric in (p, k), and the rates mu_k with
    cosh mu_k = 2 - cos(k pi/(n+1)), i.e. sinh(mu_k/2) = sin(k pi/(2(n+1)))."""
    k = np.arange(1, n + 1)
    # reduce p*k modulo the period 2(n+1) in integers, so every sine
    # argument stays below 2 pi
    phase = np.outer(k, k) % (2 * (n + 1)) * (math.pi / (n + 1))
    modes = math.sqrt(2.0 / (n + 1)) * np.sin(phase)
    mu = 2.0 * np.arcsinh(np.sin(0.5 * math.pi / (n + 1) * k))
    return modes, mu


def _exp(mu, n):
    """exp(mu * n) for rates mu (last axis) and integers n, to a few units in
    the last place however large mu * n: mu splits into a float32 head,
    whose products with integers below 2**29 are exact, and a tail below
    2**-24 mu, whose products round invisibly."""
    head = mu.astype(np.float32).astype(float)
    return np.exp(head * n) * np.exp((mu - head) * n)


def _line_factors(mu, m):
    """The one-dimensional Green function along m points with rates mu,
    g_k(lo, hi) = 4 sinh(mu lo) sinh(mu (m+1-hi)) / (sinh mu sinh(mu (m+1)))
    for lo <= hi, split as 4 e^{-mu_k} e^{-mu_k (hi - lo)} a_k(lo) b_k(hi) /
    den_k in exponential form, so that no factor grows with m.  Returns
    4 e^{-mu} and den (over the rates) and the tables a, b (positions 1..m
    by rates)."""
    q = np.arange(1, m + 1)[:, None]
    den = np.expm1(-2.0 * mu) * np.expm1(-2.0 * mu * (m + 1))
    return 4.0 * np.exp(-mu), den, -np.expm1(-2.0 * mu * q), -np.expm1(-2.0 * mu * (m + 1 - q))


def exit_right(strip, sources):
    """Right-edge exit probabilities from each interior site in `sources`,
    one row per source over boundary rows 1..rows: G(source, (cols, j)) / 4,
    the Green function at the column next to the right edge.  Each row has
    the bits of a one-source call.

    Separation of variables gives two exact sums: sine modes across the rows
    with the one-dimensional Green function along the columns, and the same
    with the axes swapped.  Both are summed, and every entry takes the sum
    with the smaller condition number sum|terms| / |sum|: a small entry comes
    from cancelling terms in one form (source and target far apart across a
    narrow direction) and from a dominant first term in the other, so
    exponentially small entries keep their relative accuracy.

    Both sums are matrix products over the mode axis, per source, and the
    sums of |terms| are the same products of absolute values.  Rows first:
    (modes[j'] g_cols(i', cols)) @ modes.  Columns first, the row factor
    g_k(lo, hi) = lead a(lo) b(hi) exp(-mu (hi - lo)) of _line_factors
    (lead = 4 e^{-mu} / den) separates target row j from source row j', so
    with psi = modes[cols] modes[i'] the targets j <= j' take
    (psi lead b(j') e^{-mu j'}) @ (a(j) e^{mu j}) and those above take
    (psi lead a(j') e^{mu j'}) @ (b(j) e^{-mu j}).  Every exponential is
    referenced to an edge of its block of ROW_BLOCK target rows, so no factor
    exceeds e^{mu (ROW_BLOCK - 1)} whatever the strip's size, and its
    exponent is formed exactly (_exp).  A source costs O(rows * (rows +
    cols)) multiply-adds in BLAS and O(rows + cols) exponentials; the two
    mode tables, the factor tables and the target blocks' factors are
    evaluated once per call and shared by every source block.
    """
    for site in sources:
        strip.index(site)
    src = np.array(sources, dtype=int).reshape(-1, 2)
    rows, cols = strip.rows, strip.cols
    row_modes, row_mu = _modes(rows)
    col_modes, col_mu = _modes(cols)
    abs_row_modes = np.abs(row_modes)
    row_num, row_den, row_a, row_b = _line_factors(row_mu, cols)
    col_num, col_den, col_a, col_b = _line_factors(col_mu, rows)
    col_lead = col_num / col_den
    # per block of target rows r0..r1: the target factors of the j <= j'
    # and the j > j' products, each at most 1
    spans = []
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        t = np.arange(lo + 1, hi + 1)[:, None]
        down = (col_a[lo:hi] * _exp(col_mu, t - hi)).T
        up = (col_b[lo:hi] * _exp(col_mu, lo + 1 - t)).T
        spans.append((lo, hi, down, up))
    out = np.empty((len(src), rows))
    # per source: about 12 arrays across the rows (the rows-first factors,
    # terms and sums, the columns-first sums and the selection) and 6 across
    # the columns (the mode pairs and the scaled products)
    step = block_rows(12 * rows + 6 * cols)
    for start in range(0, len(src), step):
        ip, jp = src[start : start + step].T
        g = row_num * _exp(row_mu, (ip - cols)[:, None])
        g = g * (row_a[ip - 1] * row_b[cols - 1]) / row_den
        # one (1, modes) @ (modes, rows) product per source, so that a row's
        # bits do not depend on its block; the row modes are symmetric, so
        # terms @ row_modes sums over k
        terms = (row_modes[jp - 1] * g)[:, None, :]
        value = (terms @ row_modes)[:, 0]
        size = (np.abs(terms) @ abs_row_modes)[:, 0]
        pair = col_modes[cols - 1] * col_modes[ip - 1]
        alt, alt_size = np.empty_like(value), np.empty_like(value)
        for lo, hi, down, up in spans:
            # source factors, clipped to the block where their targets lie
            to_down = col_b[jp - 1] * _exp(col_mu, (hi - np.maximum(jp, lo + 1))[:, None])
            to_up = col_a[jp - 1] * _exp(col_mu, (np.minimum(jp, hi) - lo - 1)[:, None])
            x, y = pair * (col_lead * to_down), pair * (col_lead * to_up)
            # each product takes the terms and their absolute values at once
            x = np.stack((x, np.abs(x)), axis=1) @ down
            y = np.stack((y, np.abs(y)), axis=1) @ up
            below = np.arange(lo + 1, hi + 1) <= jp[:, None]
            alt[:, lo:hi] = np.where(below, x[:, 0], y[:, 0])
            alt_size[:, lo:hi] = np.where(below, x[:, 1], y[:, 1])
        better = alt_size * np.abs(value) < size * np.abs(alt)
        out[start : start + step] = 0.25 * np.where(better, alt, value)
    return out


def first_passage_decomposition(strip, cut, starts):
    """Matrices of the exact cut decomposition for walks from left-boundary
    rows `starts` to the right edge.

    Returns (lm, rm, f): lm[q, m] is the probability the walk from boundary
    row starts[q] first reaches column `cut` at row m+1, rm[m, b] the
    probability the walk from (cut, m+1) exits right at boundary row b+1,
    and f[q, b] the through probability, all read through exit_right(strip,
    sources): lm on the sub-strip of columns 1..cut-1, rm and f in one call
    on the whole strip; f = lm @ rm exactly.
    Given the first-passage row, a walk's pieces before and after the cut
    are independent, which is what lets discrete_first_passage_density
    impose Fomin's condition on each piece separately.
    """
    if not (1 <= cut <= strip.cols):
        raise DomainError("cut column must be an interior column")
    starts = tuple(int(s) for s in starts)
    if any(not 1 <= s <= strip.rows for s in starts):
        raise DomainError("start rows must lie on the left edge interior range")
    if cut == 1:
        lm = 0.25 * np.eye(strip.rows)[np.array(starts, dtype=int) - 1]
    else:
        lm = 0.25 * exit_right(LatticeStrip(strip.rows, cut - 1), [(1, s) for s in starts])
    cut_sites = [(cut, m) for m in range(1, strip.rows + 1)]
    right = exit_right(strip, cut_sites + [(1, s) for s in starts])
    return lm, right[: strip.rows], 0.25 * right[strip.rows :]


def discrete_first_passage_density(strip, n_paths, cut, starts, ends=None):
    """Joint density that n_paths nonintersecting walk families from left
    rows `starts` first reach column `cut` at row tuples m_1 < ... < m_N.

    The density at m is det lm[:, m], Fomin's determinant of the pieces from
    the starts to their first passages, times the minor sum of rm[m] over
    increasing end rows (det rm[m][:, ends] with `ends` given), the pieces
    from the cut to the right edge, divided by the through minor sum (det
    f[:, ends]); lm, rm and f are first_passage_decomposition's.  So
    Fomin's condition (walk j avoids the loop-erasure of every walk i < j)
    holds separately on the pieces before and after the first passage, not
    on whole walks.

    Returns an array of shape (rows,)*n_paths filled on strictly increasing
    index tuples (density of tuple (m_1..m_N) at index (m_1-1..m_N-1)) and
    zero elsewhere.  With `ends` given, densities are conditioned on those
    right-edge rows; otherwise the right ends are summed out.  The
    normalization is the absolute value of the through determinant, so for
    increasing starts and ends the entries are nonnegative and sum to
    exactly 1 by the cut decomposition; permuting the ends flips the sign
    of every entry but not the normalization.
    """
    starts = tuple(int(s) for s in starts)
    if len(starts) != n_paths:
        raise DomainError("need one start row per path")
    if len(set(starts)) != n_paths:
        raise DomainError("coincident start rows give a zero determinant")
    lm, rm, f = first_passage_decomposition(strip, cut, starts)
    if ends is None:
        norm = abs(ordered_minor_sum(f))
    else:
        ends = tuple(int(e) for e in ends)
        if len(ends) != n_paths or any(not 1 <= e <= strip.rows for e in ends):
            raise DomainError("need one right-edge row per path")
        cols = np.array(ends) - 1
        norm = abs(det_lu(f[:, cols]))
    if norm == 0.0:
        raise DomainError("zero through determinant; no nonintersecting weight")
    combos = np.array(
        list(itertools.combinations(range(strip.rows), n_paths)), dtype=int
    )

    def densities(block):
        left = det_lu(np.swapaxes(lm[:, block], 0, 1))
        if ends is None:
            right = ordered_minor_sum(rm[block])
        else:
            right = det_lu(rm[block[:, :, None], cols[None, None, :]])
        return left * right / norm

    # per combo: the rm rows and the minor sum's Pfaffian work on them, or
    # the gathered end columns, and the two N x N determinant copies
    width = (PFAFFIAN_COPIES + 1) * n_paths * strip.rows + 4 * n_paths * n_paths
    out = np.zeros((strip.rows,) * n_paths)
    out[tuple(combos.T)] = stacked(densities, combos, width)
    return out


# --- refinement against the continuum -----------------------------------------


# (left row, right row) points of boundary_refinement and the start rows of
# density_refinement, in sixteenths of pi
REFINEMENT_POINTS16 = ((4, 8), (8, 8), (12, 4), (6, 10), (10, 12))
REFINEMENT_STARTS16 = (6, 10)


def _sixteenth_indices(level, points16):
    if (level + 1) % 16:
        raise DomainError("levels must keep multiples of pi/16 on the grid")
    scale = (level + 1) // 16
    return [tuple(scale * p for p in pt) for pt in points16]


def boundary_refinement(levels=(15, 31, 63)):
    """Edge-to-edge kernel on square strips (height and length pi) against
    the continuum kernel at the (left row, right row) points
    REFINEMENT_POINTS16.  Returns one row per level: (h, [error per point]).
    """
    j16, k16 = np.array(REFINEMENT_POINTS16).T
    cont = boundary_poisson_rect(RectConfig(math.pi), j16 * math.pi / 16, k16 * math.pi / 16).value
    rows = []
    for level in sorted(levels):
        strip = LatticeStrip(level, level)
        h = strip.spacing
        j, k = np.array(_sixteenth_indices(level, REFINEMENT_POINTS16)).T
        scaled = exit_right(strip, [(1, r) for r in j])[np.arange(j.size), k - 1] / h**2
        rows.append((h, list(np.abs(scaled - cont))))
    return rows


def density_refinement(levels=(15, 31, 63)):
    """Two-path free-end first-passage density at the mid cut of square
    strips, started at the rows REFINEMENT_STARTS16, against the continuum
    two-path density (joint_pdf), compared at every ordered lattice row
    pair.  Returns one row per level: (h, max error).
    """
    cfg = RectConfig(math.pi)
    phi = tuple(s * math.pi / 16.0 for s in REFINEMENT_STARTS16)
    rows = []
    for level in sorted(levels):
        strip = LatticeStrip(level, level)
        h = strip.spacing
        starts = _sixteenth_indices(level, [REFINEMENT_STARTS16])[0]
        cut = (level + 1) // 2
        dens = discrete_first_passage_density(strip, 2, cut, starts)
        combos = np.array(list(itertools.combinations(range(level), 2)), dtype=int)
        cont = joint_pdf(cfg, ChamberSequence((cut * h,)), [(combos + 1) * h], phi)
        err = np.abs(dens[combos[:, 0], combos[:, 1]] / h**2 - cont)
        rows.append((h, float(err.max())))
    return rows
