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

First-passage distributions across a cut column factor exactly through the
cut (strong Markov property), which is the discrete, quadrature-free form
of the semigroup identities the continuum kernels satisfy; determinants of
these matrices give the discrete nonintersecting first-passage densities.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import _ordered_minor_sums, block_rows, ordered_minor_sum
from .passage_densities import _boundary_det_grid, _norm_inner_grid, norm_boundary
from .rect_kernels import RectConfig, boundary_poisson_rect


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
        i, j = site
        if not (1 <= i <= self.cols and 1 <= j <= self.rows):
            raise DomainError(f"site {site} outside the interior grid")
        return (i - 1) * self.rows + (j - 1)


@lru_cache(maxsize=32)
def _factorization(rows, cols):
    # imported here so that only the lattice solves load scipy
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import splu

    n = rows * cols
    entries = [(k, k, 1.0) for k in range(n)]
    for i in range(1, cols + 1):
        for j in range(1, rows + 1):
            k = (i - 1) * rows + (j - 1)
            if j < rows:
                entries.append((k, k + 1, -0.25))
                entries.append((k + 1, k, -0.25))
            if i < cols:
                entries.append((k, k + rows, -0.25))
                entries.append((k + rows, k, -0.25))
    r, c, v = zip(*entries)
    return splu(coo_matrix((v, (r, c)), shape=(n, n)).tocsc())


def _green_columns(strip, sources):
    """Green's function columns G(source, .) for a list of interior sources."""
    rhs = np.zeros((strip.size, len(sources)))
    for col, site in enumerate(sources):
        rhs[strip.index(site), col] = 1.0
    return _factorization(strip.rows, strip.cols).solve(rhs)


def discrete_green(strip, a, b):
    """Expected visits to b of the walk from a before absorption; symmetric."""
    g = _green_columns(strip, [a])
    return float(g[strip.index(b), 0])


def exit_right(strip, a):
    """Probabilities that the walk from interior site a exits through the
    right edge, one entry per boundary row 1..rows."""
    g = _green_columns(strip, [a])[:, 0]
    return 0.25 * g[(strip.cols - 1) * strip.rows :]


def first_passage_decomposition(strip, cut, starts):
    """Matrices of the exact cut decomposition for walks from left-boundary
    rows `starts` to the right edge.

    Returns (lm, rm, f): lm[q, m] is the probability the walk from boundary
    row starts[q] first reaches column `cut` at row m+1, rm[m, b] the
    probability the walk from (cut, m+1) exits right at boundary row b+1,
    and f[q, b] the through probability; f = lm @ rm exactly.
    """
    if not (1 <= cut <= strip.cols):
        raise DomainError("cut column must be an interior column")
    starts = tuple(int(s) for s in starts)
    if any(not 1 <= s <= strip.rows for s in starts):
        raise DomainError("start rows must lie on the left edge interior range")
    if cut == 1:
        lm = np.zeros((len(starts), strip.rows))
        for q, s in enumerate(starts):
            lm[q, s - 1] = 0.25
    else:
        sub = LatticeStrip(strip.rows, cut - 1)
        lm = 0.25 * np.stack([exit_right(sub, (1, s)) for s in starts])
    sources = [(cut, m) for m in range(1, strip.rows + 1)]
    g = _green_columns(strip, sources)
    rm = 0.25 * g[(strip.cols - 1) * strip.rows :, :].T
    f = 0.25 * np.stack([exit_right(strip, (1, s)) for s in starts])
    return lm, rm, f


def discrete_first_passage_density(strip, n_paths, cut, starts, ends=None):
    """Joint density that n_paths nonintersecting walk families from left
    rows `starts` first reach column `cut` at row tuples m_1 < ... < m_N.

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
        norm = abs(float(np.linalg.det(f[:, cols])))
    if norm == 0.0:
        raise DomainError("zero through determinant; no nonintersecting weight")
    combos = np.array(
        list(itertools.combinations(range(strip.rows), n_paths)), dtype=int
    )
    out = np.zeros((strip.rows,) * n_paths)
    step = block_rows(strip.rows * n_paths)
    for start in range(0, len(combos), step):
        block = combos[start : start + step]
        left = np.linalg.det(np.swapaxes(lm[:, block], 0, 1))
        if ends is None:
            right = _ordered_minor_sums(rm[block])
        else:
            right = np.linalg.det(rm[block[:, :, None], cols[None, None, :]])
        out[tuple(block.T)] = left * right / norm
    return out


# --- refinement against the continuum -----------------------------------------


def _sixteenth_indices(level, points16):
    if (level + 1) % 16:
        raise DomainError("levels must keep multiples of pi/16 on the grid")
    scale = (level + 1) // 16
    return [tuple(scale * p for p in pt) for pt in points16]


def boundary_refinement(
    pol,
    levels=(15, 31, 63),
    points16=((4, 8), (8, 8), (12, 4), (6, 10), (10, 12)),
):
    """Edge-to-edge kernel on square strips (height and length pi) against
    the continuum kernel, on a fixed set of (left row, right row) points
    given in sixteenths of pi.  Returns one row per level:
    (h, [absolute error per point]).
    """
    cfg = RectConfig(math.pi)
    rows = []
    for level in sorted(levels):
        strip = LatticeStrip(level, level)
        h = strip.spacing
        errs = []
        for (j, k), (j16, k16) in zip(_sixteenth_indices(level, points16), points16):
            scaled = exit_right(strip, (1, j))[k - 1] / h**2
            cont = boundary_poisson_rect(
                cfg, pol, j16 * math.pi / 16.0, k16 * math.pi / 16.0
            ).value
            errs.append(abs(scaled - cont))
        rows.append((h, errs))
    return rows


def density_refinement(pol, levels=(15, 31, 63), starts16=(6, 10)):
    """Two-path free-end first-passage density at the mid cut of square
    strips against the continuum two-path density, compared at every
    ordered lattice row pair.  Returns one row per level: (h, max error).
    """
    cfg = RectConfig(math.pi)
    phi = tuple(s * math.pi / 16.0 for s in starts16)
    denom = norm_boundary(cfg, pol, phi)
    rows = []
    for level in sorted(levels):
        strip = LatticeStrip(level, level)
        h = strip.spacing
        starts = _sixteenth_indices(level, [tuple(starts16)])[0]
        cut = (level + 1) // 2
        dens = discrete_first_passage_density(strip, 2, cut, starts)
        combos = np.array(list(itertools.combinations(range(level), 2)), dtype=int)
        theta = (combos + 1) * h
        x = cut * h
        cont = (
            _boundary_det_grid(RectConfig(x), pol, phi, theta)
            * _norm_inner_grid(cfg, pol, x, theta)
            / denom
        )
        err = np.abs(dens[combos[:, 0], combos[:, 1]] / h**2 - cont)
        rows.append((h, float(err.max())))
    return rows
