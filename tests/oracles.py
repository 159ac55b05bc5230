"""Closed forms and independent routes that only the tests use as oracles.

The midpoint start (phi None in passage_densities.joint_pdf) is the start
from x -> -infinity: the leading-mode density, the same at every cut.

The helpers below the continuum closed forms serve single test modules:
the biorthogonal basis builds the determinant route of
joint_pdf_special_start_dets (test_correlation), loop_erase and
walk_weight drive the walk enumeration that checks Fomin's identity and the
loop-erased weights (test_graph_fomin), and elementwise_green_block
evaluates the two mode sums of the lattice Green function term by term, the
reference for the exit rows of lattice_validation.exit_right
(test_lattice_validation).
"""

import math

import numpy as np

from lebp.errors import DomainError
from lebp.lattice_validation import _modes
from lebp.numerics import det_lu
from lebp.rect_kernels import RectConfig, fomin_inner_det, hat_h, weyl_point

_TWO_OVER_PI = 2.0 / math.pi


def pdf_special_start(theta):
    """First-passage density at any cut for the midpoint start:
    (2^{N^2} / pi^N) * hat_h(theta)^2, the same at every cut position."""
    theta = weyl_point(theta)
    n = theta.size
    return 2.0 ** (n * n) / math.pi**n * hat_h(theta) ** 2


def joint_pdf_special_start_dets(seq, thetas):
    """The joint passage density across the cuts of seq for the midpoint
    start as a product of determinants: a basis determinant at the first cut,
    sub-rectangle kernel determinants between consecutive cuts, and the dual
    basis determinant at the last cut.

    An evaluation route independent of passage_densities.joint_pdf with phi
    None.
    """
    thetas = [weyl_point(t) for t in thetas]
    if len(thetas) != seq.m:
        raise DomainError("need one angle tuple per cut")
    cuts = seq.cuts
    # basis matrices [n, j] over frequencies n = 1..N and angles theta_j
    n = np.arange(1.0, thetas[0].size + 1.0)[:, None]
    value = det_lu(basis_phi(n, cuts[0], thetas[0]))
    for m in range(seq.m - 1):
        value *= fomin_inner_det(RectConfig(cuts[m + 1]), cuts[m], thetas[m], thetas[m + 1])
    value *= det_lu(basis_phi_hat(n, cuts[-1], thetas[-1]))
    return value


def crossing_prefactor(phi, rho):
    """Limit of crossing_ratio * exp(N(N-1)/2 * L) as L grows.

    Equals 2^{N(N-1)} N! hat_h(phi) hat_h(rho) / prod_j sin(phi_j) sin(rho_j):
    the ratio of the leading large-L asymptotics of the boundary determinant to
    the exact n=1 asymptotics of the diagonal kernel product, whose
    sin(phi_j) sin(rho_j) factors cancel against those inside hat_h.
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
    if phi.size != rho.size:
        raise DomainError("phi and rho must have equal length")
    n = phi.size
    sines = np.prod(np.sin(phi) * np.sin(rho))
    return 2.0 ** (n * (n - 1)) * math.factorial(n) * hat_h(phi) * hat_h(rho) / sines


def poly_geom_tail(q, factors, n_start):
    """Upper bound for sum_{n >= n_start} q**n * prod_i (n + c_i)**p_i, the
    tail of the partition-expansion oracle in test_rect_kernels.

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


# --- biorthogonal basis (test_correlation) ------------------------------------


def _check_basis(n, x):
    n = np.asarray(n, dtype=float)
    if np.any(n < 1.0) or not (x > 0.0):
        raise DomainError("need n >= 1 and x > 0")
    return n


def basis_phi(n, x, theta):
    """phi_n(x, theta) = sqrt(2/pi) sin(n theta) / sinh(n x), stable form.

    n and theta broadcast together; x is a scalar.
    """
    n = _check_basis(n, x)
    inv_sinh = 2.0 * np.exp(-n * x) / -np.expm1(-2.0 * n * x)
    out = math.sqrt(_TWO_OVER_PI) * np.sin(n * theta) * inv_sinh
    return float(out) if out.ndim == 0 else out


def basis_phi_hat(n, x, theta):
    """phi_hat_n(x, theta) = sqrt(2/pi) sinh(n x) sin(n theta).

    n and theta broadcast together; x is a scalar.
    """
    n = _check_basis(n, x)
    out = math.sqrt(_TWO_OVER_PI) * np.sinh(n * x) * np.sin(n * theta)
    return float(out) if out.ndim == 0 else out


# --- walks on a network (test_graph_fomin) ------------------------------------


def loop_erase(walk):
    """Chronological loop erasure: truncate back to the first visit whenever a
    vertex repeats.  Equals iterated removal of the first loop."""
    if len(walk) == 0:
        raise DomainError("cannot loop-erase an empty walk")
    pos = {}
    out = []
    for v in walk:
        if v in pos:
            cut = pos[v] + 1
            for u in out[cut:]:
                del pos[u]
            del out[cut:]
        else:
            pos[v] = len(out)
            out.append(v)
    return tuple(out)


def walk_weight(net, walk):
    """Product of edge weights along a walk on a graph_fomin.Network;
    DomainError on a missing edge or a walk that passes through the
    absorbing boundary."""
    if len(walk) == 0:
        raise DomainError("empty walk")
    for v in walk[1:-1]:
        if not net.is_interior(v):
            raise DomainError("intermediate walk vertices must be interior")
    w = 1.0
    for t, h in zip(walk, walk[1:]):
        ew = dict(net.out_edges.get(t, ())).get(h, 0.0)
        if ew == 0.0:
            raise DomainError(f"no edge ({t}, {h})")
        w *= ew
    return w


# --- lattice Green function (test_lattice_validation) -------------------------


def _mode_terms(table, m, p, pp, q, qp):
    """Terms k = 1..n (last axis) of the Green's function between sites
    (q, p) and (q', p') of a grid with n interior points across and m along:
    modes[p, k] modes[p', k] g_k(q, q') with the one-dimensional Green
    function g_k(q, q') = 4 sinh(mu q<) sinh(mu (m+1-q>)) /
    (sinh mu sinh(mu (m+1))), in exponential form so that long grids never
    form a large sinh.  table is _modes(n)."""
    modes, mu = table
    lo = np.minimum(q, qp)[..., None]
    hi = np.maximum(q, qp)[..., None]
    g = (
        4.0
        * np.exp(-mu * (hi - lo + 1))
        * (np.expm1(-2.0 * mu * lo) * np.expm1(-2.0 * mu * (m + 1 - hi)))
        / (np.expm1(-2.0 * mu) * np.expm1(-2.0 * mu * (m + 1)))
    )
    return modes[p - 1] * modes[pp - 1] * g


def elementwise_green_block(strip, sources, columns):
    """The Green function G(source, (i, j)) for every row j of the columns i
    in `columns`, shape (sources, columns, rows): exit_right's two mode sums
    as full term tensors, sources by targets by modes, one closed-form term
    per entry, with the same per-entry choice of the sum whose
    sum|terms| / |sum| is smaller.  On the column next to the right edge it
    is the reference for exit_right's matrix products."""
    src = np.array(sources, dtype=int).reshape(-1, 2)
    i = np.asarray(columns, dtype=int)[None, :, None]
    j = np.arange(1, strip.rows + 1)
    ip, jp = src[:, 0, None, None], src[:, 1, None, None]
    rows_first = _mode_terms(_modes(strip.rows), strip.cols, j, jp, i, ip)
    value, size = rows_first.sum(axis=-1), np.abs(rows_first).sum(axis=-1)
    cols_first = _mode_terms(_modes(strip.cols), strip.rows, i, ip, j, jp)
    alt, alt_size = cols_first.sum(axis=-1), np.abs(cols_first).sum(axis=-1)
    better = alt_size * np.abs(value) < size * np.abs(alt)
    return np.where(better, alt, value)
