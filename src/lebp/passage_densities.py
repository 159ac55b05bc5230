"""First-passage-point densities for N nonintersecting loop-erased paths.

Paths start on the left edge of the rectangle (0, L) x (0, pi) at ordered
angles phi, or in the infinite strip also from x -> -infinity (the
midpoint start, phi None), and are conditioned to reach the right edge
with their loop erasures mutually avoiding.  The joint density of their
ordered first-passage points on cuts x_1 < ... < x_M is one telescoped
product (joint_pdf) for both starts: the boundary determinant at the
first cut (for the midpoint start its leading-mode term), interior
determinants between consecutive cuts, and the normalization at the
ends.  The density on one cut is the M = 1 case.  The
determinants are graded (numerics.graded_det): their leading coefficients
are split off and telescope exactly, so in the strip the density never
forms a sinh and keeps its relative accuracy at cuts far from the start
edge, where each determinant is exponentially small or large.  joint_pdf
takes a stack of angle tuples at its last cut, as the determinants and
norm_inner do, so a grid of densities is one call; every stack runs in
blocks of numerics.BLOCK_ENTRIES, so its memory stays bounded.

The chamber integrals (norms) integrate a kernel determinant over the
ordered chamber.  The kernel is a separable sine series, so by de Bruijn
(1955) each norm is one Pfaffian, Pf(Phi^T S Phi): Phi[m, j] = c_m
sin(m theta_j) holds the series coefficients at the fixed angles, and S is
the closed-form sine sign kernel (bordered by the single-sine integrals for
odd N).  A single determinant is antisymmetric, so symmetrized cube
quadrature would pick up a non-smooth sign factor; the Pfaffian route keeps
spectral accuracy, costs polynomial time in N, and its truncation carries a
certified bound.  It is evaluated in graded form (numerics.graded_pfaffian)
so that exponentially small norms keep their relative accuracy.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import rect_kernels
from .errors import DomainError, PrecisionError, TruncationError
from .numerics import PFAFFIAN_COPIES, graded_pfaffian, pfaffian, sine_multiples, stacked
from .rect_kernels import _TWO_OVER_PI, _coeffs, _kernel_det, _majorant, _majorant_tail
from .rect_kernels import _series_terms, angle_tuples, boundary_coeffs, hat_h, weyl_point


@dataclass(frozen=True)
class ChamberSequence:
    """Ordered cut positions 0 < x_1 < ... < x_M."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(float(x) for x in self.cuts)
        if not cuts:
            raise DomainError("need at least one cut")
        if cuts[0] <= 0.0 or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise DomainError("cuts must be strictly increasing and positive")
        object.__setattr__(self, "cuts", cuts)

    @property
    def m(self):
        return len(self.cuts)


# --- exact ordered integrals of sine determinants ---------------------------


def _sine_sign_kernel(m, n):
    """S[m, n] = double integral over (0, pi)^2 of sgn(t - s) sin(m s) sin(n t).

    Closed form for positive integer frequencies (broadcast): zero unless
    m + n is odd, and otherwise +-4e / (o (o^2 - e^2)) with o the odd and e
    the even frequency, the sign + when m is the odd one.
    """
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    m_odd = m % 2.0 == 1.0
    o = np.where(m_odd, m, n)
    e = np.where(m_odd, n, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 4.0 * e / (o * (o * o - e * e))
    return np.where((m + n) % 2.0 == 1.0, np.where(m_odd, val, -val), 0.0)


def _sine_integrals(m):
    """int_0^pi sin(m t) dt for positive integer frequencies m."""
    m = np.asarray(m, dtype=float)
    return np.where(m % 2.0 == 1.0, 2.0 / m, 0.0)


# entries of one row block of the sine sign kernel in _apply_sine_sign.
# Forming it holds about seven such arrays, so a block fits the default
# BLOCK_ENTRIES; the size is fixed, not taken from the budget, because a
# BLAS product's bits depend on how its rows are split, and the norms must
# keep their bits at any budget
_SIGN_BLOCK_ENTRIES = 16_384


def _apply_sine_sign(q):
    """S @ q along axis -2, S the (K, K) sine sign kernel for frequencies
    1..K, built in row blocks of _SIGN_BLOCK_ENTRIES entries (one block for
    K <= 128).  The result has q's shape; the caller bounds q."""
    k = q.shape[-2]
    freqs = np.arange(1, k + 1)
    out = np.empty(q.shape)
    step = max(1, _SIGN_BLOCK_ENTRIES // k)
    for start in range(0, k, step):
        rows = freqs[start : start + step, None]
        out[..., start : start + step, :] = _sine_sign_kernel(rows, freqs[None, :]) @ q
    return out


def ordered_sine_det_integral(freqs):
    """Integral of det[sin(freqs_i * t_k)] over the ordered chamber in (0, pi)^k,
    for any sequence of k frequencies.

    de Bruijn (1955): the Pfaffian of the sine sign kernel on the
    frequencies, bordered by the single-sine integrals for odd k.
    """
    f = np.asarray(freqs, dtype=float)
    return pfaffian(_sine_sign_kernel(f[:, None], f[None, :]), _sine_integrals(f))


# --- chamber norms as one Pfaffian -------------------------------------------


def _norm_series(x, L, n):
    """Truncated kernel coefficients for an N-path chamber norm.

    The kernel is sum_m c_m sin(m theta) sin(m rho), c_m = _coeffs(m, x, L)
    (x = 0 the start edge), and T is the closed-form sum over every m of
    the majorant of c_m (rect_kernels._majorant).  Dropping every m > M
    changes the norm by at most

        N^N pi^N / (N! (N-1)!) * T^(N-1) * sum_{m>M} c_m

    (Cauchy-Binet over frequency sets: Hadamard bounds both sine
    determinants, and the sets using some m > M carry at most that tail
    times the elementary symmetric sum of the rest).  So M is the
    rect_kernels._series_terms truncation at the norm's target over that
    factor: SERIES_TOL, sharpened toward machine relative precision of the
    leading term so exponentially small norms stay relatively accurate.

    Returns (c_1..c_M, bound on the norm).
    """
    lead_coeffs = _coeffs(np.arange(1.0, n + 1), x, L)
    lead = abs(float(np.prod(lead_coeffs)) * ordered_sine_det_integral(range(1, n + 1)))
    if lead < sys.float_info.min:
        raise PrecisionError("chamber norm underflows; it is out of range")
    factor = n**n * math.pi**n / (math.factorial(n) * math.factorial(n - 1))
    factor *= _majorant_tail(*_majorant(x, L), 0) ** (n - 1)
    try:
        coefs, tail = _series_terms(x, L, min(rect_kernels.SERIES_TOL, lead * 1e-15) / factor, n)
    except TruncationError as exc:
        raise TruncationError(f"norm {exc}", factor * exc.achieved) from None
    return coefs, factor * tail


def _chamber_norm(coefs, angles):
    """Pf(Phi^T S Phi) with Phi[m, j] = c_m sin(m angles_j), for one N-tuple
    (a float) or every tuple of a (..., N) stack; bordered by the
    single-sine integrals for odd N.  A stack runs in blocks (stacked),
    each tuple with its single-tuple bits."""
    border = _sine_integrals(np.arange(1.0, coefs.size + 1))

    def norms(block):
        phi = coefs[:, None] * np.swapaxes(sine_multiples(block, coefs.size), -1, -2)
        return graded_pfaffian(phi, _apply_sine_sign, border)

    return stacked(norms, angles, PFAFFIAN_COPIES * coefs.size * np.shape(angles)[-1])


def _norm(x, L, angles):
    """Chamber integral over rho of det[H(x + i*angles_j, L + i*rho_k)] for
    one tuple (a float) or a (..., N) stack of tuples."""
    coefs, _ = _norm_series(x, L, angles.shape[-1])
    return _chamber_norm(coefs, angles)


def norm_boundary(cfg, phi):
    """Chamber integral over rho of det[H_boundary(i*phi_j, L + i*rho_k)].

    The total crossing weight of N paths started at phi, summed over ordered
    right-edge exits.  The series is summed down to SERIES_TOL or to machine
    relative precision of its leading term, whichever is sharper, so the value
    carries full relative accuracy even when it is exponentially small; a
    leading term below the normal double range raises PrecisionError.
    """
    return _norm(0.0, cfg.L, weyl_point(phi))


def norm_inner(cfg, x, theta):
    """Chamber integral over rho of det[H(x + i*theta_j, L + i*rho_k)].

    The total crossing weight of N paths currently at (x, theta), summed over
    ordered right-edge exits.  Tolerance handling as in norm_boundary; a gap
    L - x below MIN_GAP raises PrecisionError.  theta is one ordered
    tuple (a float comes back) or a (..., N) stack of tuples (see
    rect_kernels.angle_tuples), where the norm is continued antisymmetrically
    off the ordered chamber.  A stack runs in blocks of bounded memory, each
    tuple with the bits of its single-tuple call.
    """
    theta = angle_tuples(theta)
    if not (0.0 < x < cfg.L):
        raise DomainError("need 0 < x < L")
    return _norm(x, cfg.L, theta)


# --- densities ---------------------------------------------------------------


def joint_pdf(cfg, seq, thetas, phi=None):
    """Joint density of the ordered passage points at every cut of `seq`.

    thetas holds one ordered angle tuple per cut; the last may instead be a
    (..., N) stack of tuples (see rect_kernels.angle_tuples), which gives
    one density per tuple, with the bits of its single-tuple call.  A stack
    runs in blocks, so memory stays bounded however many tuples it holds.

    One telescoped product: the boundary determinant at the first cut, an
    interior determinant between each pair of consecutive cuts, and the
    normalization at the ends.  Each determinant is graded with its leading
    coefficients prod_{n<=N} c_n split off; across the product those
    telescope exactly to (2/pi)^{NM} N! / prod_n sinh(n x_M).  In the
    infinite strip (cfg None) the end normalization, prod_n sinh(n x_M) / N!
    * hat_h(theta_M) / hat_h(phi), cancels the sinh product, so none is ever
    formed and the density keeps its relative accuracy at every cut where
    c_N is representable.  In the rectangle of length cfg.L the end
    normalization is the norm ratio norm_inner(x_M, theta_M) /
    norm_boundary(phi).

    The conditioning is chamber by chamber, as in the lattice model of
    lattice_validation.discrete_first_passage_density: each determinant is
    Fomin's determinant of the path pieces in one chamber (start to the
    first cut, between consecutive cuts, after the last cut), so Fomin's
    condition holds on each chamber's pieces separately, not on whole
    paths.

    phi None is the midpoint start, in the strip only: the paths enter from
    x -> -infinity, the origin of the half-plane under w = e^z.  Only the
    leading modes n <= N reach the first cut, so the boundary determinant
    over hat_h(phi) is replaced by its leading-mode term 2^{N(N-1)}
    hat_h(theta_1) (without its leading coefficients).  That is the limit of
    every phi start far from the start edge, not the limit of paths that
    coalesce at pi/2 on the left edge.  Its density at one cut is the
    leading-mode density (2^{N^2} / pi^N) hat_h(theta)^2, the same at every
    cut.
    """
    thetas = list(thetas)
    if len(thetas) != seq.m:
        raise DomainError("need one angle tuple per cut")
    thetas = [weyl_point(t) for t in thetas[:-1]] + [angle_tuples(thetas[-1])]
    n = thetas[-1].shape[-1]
    if any(t.size != n for t in thetas[:-1]):
        raise DomainError("all angle tuples must have equal length")
    cuts = seq.cuts
    if cfg is not None and not (cuts[-1] < cfg.L):
        raise DomainError("cuts must lie inside (0, L)")
    if phi is None:
        if cfg is not None:
            raise DomainError("the midpoint start lives in the infinite strip; give no L")
        start = 1.0
    else:
        phi = weyl_point(phi)
        if phi.size != n:
            raise DomainError("all angle tuples must match phi in length")
        start = hat_h(phi)

    def link(m, to, hat_to):
        """The determinant that ends at cut m on the tuples `to` (hat_to is
        hat_h(to)), without its leading coefficients."""
        if m > 0:
            return _kernel_det(cuts[m - 1], cuts[m], thetas[m - 1], to)[1]
        if phi is None:
            return 2.0 ** (n * (n - 1)) * hat_to
        return _kernel_det(0.0, cuts[0], phi, to)[1]

    # everything before the last cut is one number for the whole stack
    head = math.prod(link(m, thetas[m], hat_h(thetas[m])) for m in range(seq.m - 1))
    if cfg is None:
        scale = _TWO_OVER_PI ** (n * seq.m)

        def densities(block):
            end = hat_h(block)
            return scale * (head * link(seq.m - 1, block, end)) * end / start

    else:
        # nothing cancels N! / prod_n sinh(n x_M) here; put it back in the
        # exponential form (pi/2)^N prod_n boundary_coeffs(n, x_M)
        lead = float(np.prod(boundary_coeffs(np.arange(1.0, n + 1), cuts[-1])))
        scale = _TWO_OVER_PI ** (n * (seq.m - 1)) * lead
        total = norm_boundary(cfg, phi)

        def densities(block):
            ratio = norm_inner(cfg, cuts[-1], block) / total
            return scale * (head * link(seq.m - 1, block, None)) * ratio

    # the determinants and norms block themselves; a block here holds the
    # tuples and a few values per tuple
    return stacked(densities, thetas[-1], 4 * n + 8)
