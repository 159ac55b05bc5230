"""First-passage-point densities for N nonintersecting loop-erased paths.

Paths start on the left edge of the rectangle (0, L) x (0, pi) at ordered
angles phi and are conditioned to reach the right edge with their loop
erasures mutually avoiding.  The joint density of their ordered
first-passage points on cuts x_1 < ... < x_M is one telescoped product
(joint_pdf): the boundary determinant at the first cut, interior
determinants between consecutive cuts, and a norm ratio at the last cut.
The density on one cut is the M = 1 case of that product.  The
determinants (rect_kernels.fomin_*_det) and the norms (norm_inner) take a
stack of angle tuples as well as one tuple, so a grid of densities is one
call of each.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, TruncationError
from .numerics import block_rows, graded_pfaffian, pfaffian, poly_geom_tail
from .rect_kernels import (
    RectConfig,
    angle_tuples,
    as_weyl,
    boundary_coeffs,
    fomin_boundary_det,
    fomin_inner_det,
    hat_h,
    inner_coeffs,
)

_TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class ChamberSequence:
    """Ordered cut positions 0 < x_1 < ... < x_M, optionally inside (0, L)."""

    cuts: tuple
    L: float = None

    def __post_init__(self):
        cuts = tuple(float(x) for x in self.cuts)
        if not cuts:
            raise DomainError("need at least one cut")
        if cuts[0] <= 0.0 or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise DomainError("cuts must be strictly increasing and positive")
        if self.L is not None and not (float(self.L) > cuts[-1]):
            raise DomainError("L must exceed the last cut")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "L", None if self.L is None else float(self.L))

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


def _apply_sine_sign(q):
    """S @ q along axis -2, S the (K, K) sine sign kernel for frequencies
    1..K; S is built in row blocks of at most BLOCK_ENTRIES entries."""
    k = q.shape[-2]
    freqs = np.arange(1, k + 1)
    out = np.empty(q.shape)
    step = block_rows(k)
    for start in range(0, k, step):
        rows = freqs[start : start + step, None]
        out[..., start : start + step, :] = _sine_sign_kernel(rows, freqs[None, :]) @ q
    return out


@lru_cache(maxsize=None)
def ordered_sine_det_integral(freqs):
    """Integral of det[sin(freqs_i * t_k)] over the ordered chamber in (0, pi)^k.

    de Bruijn (1955): the Pfaffian of the sine sign kernel on the
    frequencies, bordered by the single-sine integrals for odd k.
    """
    f = np.asarray(freqs, dtype=float)
    return pfaffian(_sine_sign_kernel(f[:, None], f[None, :]), _sine_integrals(f))


# --- chamber norms as one Pfaffian -------------------------------------------


@lru_cache(maxsize=64)
def _norm_series(kind, L, x, n, tol, n_max):
    """Truncated kernel coefficients for an N-path chamber norm.

    The kernel is sum_m c_m sin(m theta) sin(m rho).  Dropping every m > M
    changes the norm by at most

        N^N pi^N / (N! (N-1)!) * sum_{m>M} c_m * (sum_m c_m)^(N-1)

    (Cauchy-Binet over frequency sets: Hadamard bounds both sine
    determinants, and the sets using some m > M carry at most that tail
    times the elementary symmetric sum of the rest).  M is the first
    truncation whose bound meets the policy tol, sharpened toward machine
    relative precision of the leading term so exponentially small norms
    keep their relative accuracy.

    kind "boundary" uses the boundary-kernel coefficients (x ignored); kind
    "inner" the interior ones at cut x.  Returns (c_1..c_M, bound); the
    array is cached, callers must not mutate it.
    """
    if kind == "boundary":
        q, factors, coeff = math.exp(-L), [(0.0, 1)], lambda f: boundary_coeffs(f, L)
    else:
        q, factors, coeff = math.exp(-(L - x)), [], lambda f: inner_coeffs(f, x, L)

    # c_m <= majorant * m^(1 or 0) * q^m for both kinds
    majorant = _TWO_OVER_PI * 2.0 / -math.expm1(-2.0 * L)
    const = n**n * math.pi**n / (math.factorial(n) * math.factorial(n - 1))

    def bound(m_max):
        tail = majorant * poly_geom_tail(q, factors, m_max + 1)
        total = float(coeff(np.arange(1.0, m_max + 1)).sum()) + tail
        return const * tail * total ** (n - 1)

    lead = abs(
        float(np.prod(coeff(np.arange(1.0, n + 1))))
        * ordered_sine_det_integral(tuple(range(1, n + 1)))
    )
    target = min(tol, max(lead * 1e-15, 5e-324)) if lead > 0.0 else tol
    m_max = n
    achieved = bound(m_max)
    while achieved > target:
        if m_max >= n_max:
            raise TruncationError(
                f"norm series reached frequency budget {n_max}", achieved=achieved
            )
        m_max = min(n_max, m_max + max(1, m_max // 4))
        achieved = bound(m_max)
    return coeff(np.arange(1.0, m_max + 1)), achieved


def _chamber_norm(coefs, angles):
    """Pf(Phi^T S Phi) with Phi[m, j] = c_m sin(m angles_j), for every (..., N)
    angle tuple; bordered by the single-sine integrals for odd N."""
    freqs = np.arange(1.0, coefs.size + 1)
    phi = coefs[:, None] * np.sin(freqs[:, None] * np.asarray(angles)[..., None, :])
    return graded_pfaffian(phi, _apply_sine_sign, _sine_integrals(freqs))


def norm_boundary(cfg, pol, phi):
    """Chamber integral over rho of det[H_boundary(i*phi_j, L + i*rho_k)].

    The total crossing weight of N paths started at phi, summed over ordered
    right-edge exits.  The series is summed down to pol.tol or to machine
    relative precision of its leading term, whichever is sharper, so the value
    carries full relative accuracy even when it is exponentially small.
    """
    phi = as_weyl(phi)
    coefs, _ = _norm_series("boundary", cfg.L, 0.0, phi.n, pol.tol, pol.n_max)
    return float(_chamber_norm(coefs, phi.angles))


def _check_cut(cfg, pol, x):
    if not (0.0 < x < cfg.L):
        raise DomainError("need 0 < x < L")
    if cfg.L - x < pol.min_gap:
        raise PrecisionError(f"gap {cfg.L - x:.3g} below policy min_gap")


def norm_inner(cfg, pol, x, theta):
    """Chamber integral over rho of det[H(x + i*theta_j, L + i*rho_k)].

    The total crossing weight of N paths currently at (x, theta), summed over
    ordered right-edge exits.  Tolerance handling as in norm_boundary.
    theta is one ordered tuple (a float comes back) or a (..., N) stack of
    tuples (see rect_kernels.angle_tuples), where the norm is continued
    antisymmetrically off the ordered chamber.
    """
    theta = angle_tuples(theta)
    _check_cut(cfg, pol, x)
    coefs, _ = _norm_series("inner", cfg.L, x, theta.shape[-1], pol.tol, pol.n_max)
    out = _chamber_norm(coefs, theta)
    return float(out) if np.ndim(out) == 0 else out


# --- densities ---------------------------------------------------------------


def pdf_first_passage_finite(cfg, pol, x, theta, phi):
    """Density of the ordered first-passage points theta on the cut at x for N
    paths from phi, in the rectangle of length L = cfg.L: joint_pdf at the
    one cut x.

    The crossing determinant at the cut times the ratio of the remaining
    norm from the cut to the total norm from the start.
    """
    return joint_pdf(cfg, pol, ChamberSequence((x,)), [theta], phi)


def start_weight(x, n):
    """prod_{j=1..N} sinh(j x) / N!, the infinite-strip norm prefactor."""
    if not (x > 0.0):
        raise DomainError("x must be positive")
    w = 1.0
    for j in range(1, n + 1):
        w *= math.sinh(j * x)
    return w / math.factorial(n)


def pdf_first_passage(pol, x, theta, phi):
    """Infinite-strip first-passage density on the cut at x: joint_pdf at the
    one cut x with cfg None.

    The large-L limit of pdf_first_passage_finite: the norm ratio collapses
    to start_weight(x) * hat_h(theta) / hat_h(phi).
    """
    return joint_pdf(None, pol, ChamberSequence((x,)), [theta], phi)


def transition_factor(cfg, pol, x_m, theta_m, x_next, theta_next):
    """Conditional density factor for the passage points at the next cut.

    The interior determinant of the sub-rectangle ending at x_next times a
    norm ratio: in the rectangle of length cfg.L, or in the infinite strip
    when cfg is None, where the ratio collapses to start-weight and hat_h
    ratios.
    """
    theta_m, theta_next = as_weyl(theta_m), as_weyl(theta_next)
    if theta_m.n != theta_next.n:
        raise DomainError("angle tuples must have equal length")
    if not (0.0 < x_m < x_next):
        raise DomainError("cuts must satisfy 0 < x_m < x_next")
    det = fomin_inner_det(RectConfig(x_next), pol, x_m, theta_m, theta_next)
    if cfg is None:
        ratio = (
            start_weight(x_next, theta_m.n)
            * hat_h(theta_next)
            / (start_weight(x_m, theta_m.n) * hat_h(theta_m))
        )
        return det * ratio
    if not (x_next < cfg.L):
        raise DomainError("cuts must lie inside (0, L)")
    ratio = norm_inner(cfg, pol, x_next, theta_next) / norm_inner(cfg, pol, x_m, theta_m)
    return det * ratio


def joint_pdf(cfg, pol, seq, thetas, phi):
    """Joint density of the ordered passage points at every cut of `seq`.

    Telescoped product of the first-cut density and the transition factors:
    the boundary determinant at the first cut, interior determinants between
    consecutive cuts, and a single norm ratio at the last cut.  cfg of None
    selects the infinite strip; otherwise seq.L, when given, must equal
    cfg.L.
    """
    phi = as_weyl(phi)
    thetas = [as_weyl(t) for t in thetas]
    if len(thetas) != seq.m:
        raise DomainError("need one angle tuple per cut")
    if any(t.n != phi.n for t in thetas):
        raise DomainError("all angle tuples must match phi in length")
    finite = cfg is not None
    if finite and seq.L is not None and seq.L != cfg.L:
        raise DomainError("sequence and config disagree about L")
    cuts = seq.cuts
    if finite and not (cuts[-1] < cfg.L):
        raise DomainError("cuts must lie inside (0, L)")

    value = fomin_boundary_det(RectConfig(cuts[0]), pol, phi, thetas[0])
    for m in range(seq.m - 1):
        value *= fomin_inner_det(
            RectConfig(cuts[m + 1]), pol, cuts[m], thetas[m], thetas[m + 1]
        )
    if finite:
        value *= norm_inner(cfg, pol, cuts[-1], thetas[-1]) / norm_boundary(cfg, pol, phi)
    else:
        value *= start_weight(cuts[-1], phi.n) * hat_h(thetas[-1]) / hat_h(phi)
    return value
