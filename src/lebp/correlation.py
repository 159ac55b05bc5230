"""Determinantal correlation structure of paths started at the midpoint.

When all N paths start at the same left-edge midpoint angle pi/2 (the limit
of a coalescing ordered start), the passage points across any family of
vertical cuts form a determinantal point process.  This module provides the
two-branch correlation kernel in the strip, its conformal image in the
half-disk |w| > 1 under w = e^z, closed-form densities and two-point
functions there, and the scaling limit of the kernel for large N.
"""

import math

import numpy as np

from .errors import DomainError, PrecisionError, TruncationError
from .numerics import TailBoundedValue, det_lu, sinh_ratio
from .passage_densities import start_weight, transition_factor
from .rect_kernels import (
    RectConfig,
    as_weyl,
    fomin_boundary_det,
    fomin_inner_det,
    hat_h,
    poisson_rect,
)
from .rect_kernels import _sine_series

_TWO_OVER_PI = 2.0 / math.pi


# --- biorthogonal basis -------------------------------------------------------


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


# --- strip kernel -------------------------------------------------------------


def _check_paths(n_paths):
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise DomainError("n_paths must be an integer >= 1")


def kernel_strip(pol, n_paths, x, theta, x_prime, theta_prime):
    """Correlation kernel between cut points (x, theta) and (x', theta').

    For x <= x' the kernel is the exact finite sum
    (2/pi) sum_{n<=N} [sinh(n x')/sinh(n x)] sin(n theta) sin(n theta');
    for x > x' it is minus the tail of the same series over n > N, truncated
    with a certified geometric bound.  Angles broadcast; positions are
    scalars.  Returns TailBoundedValue (bound 0 on the finite branch).
    """
    _check_paths(n_paths)
    if not (x > 0.0 and x_prime > 0.0):
        raise DomainError("cut positions must be positive")
    if x <= x_prime:
        n = np.arange(1, n_paths + 1)
        coeffs = _TWO_OVER_PI * sinh_ratio(n, x_prime, x)
        value = _sine_series(np.atleast_1d(coeffs), theta, theta_prime)
        return TailBoundedValue(value, 0.0)
    gap = x - x_prime
    if gap < pol.min_gap:
        raise PrecisionError(f"cut gap {gap:.3g} below policy min_gap")
    q = math.exp(-gap)
    c = _TWO_OVER_PI / -math.expm1(-2.0 * x)
    n0 = max(n_paths, int(math.ceil(math.log(c / (pol.tol * (1.0 - q))) / gap)) - 1)
    if n0 > pol.n_max:
        raise TruncationError(
            f"kernel tail needs {n0} terms, budget {pol.n_max}",
            achieved=c * q ** (pol.n_max + 1) / (1.0 - q),
        )
    coeffs = np.zeros(n0)
    n = np.arange(n_paths + 1, n0 + 1)
    coeffs[n_paths:] = _TWO_OVER_PI * sinh_ratio(n, x_prime, x)
    value = -_sine_series(coeffs, theta, theta_prime)
    bound = c * q ** (n0 + 1) / (1.0 - q)
    return TailBoundedValue(value, bound)


def kernel_strip_dual(pol, n_paths, x, theta, x_prime, theta_prime):
    """The x > x' kernel by its other representation: the full finite sum
    minus the sub-rectangle kernel H_{R_x}(x' + i theta', x + i theta).

    Independent of the tail-sum branch of kernel_strip; the two must agree.
    """
    _check_paths(n_paths)
    if not (x > x_prime > 0.0):
        raise DomainError("dual form needs x > x' > 0")
    n = np.arange(1, n_paths + 1)
    coeffs = _TWO_OVER_PI * sinh_ratio(n, x_prime, x)
    finite = _sine_series(np.atleast_1d(coeffs), theta, theta_prime)
    h = poisson_rect(RectConfig(x), pol, x_prime, theta_prime, theta)
    return TailBoundedValue(finite - h.value, h.bound)


def corr_strip(pol, n_paths, cuts, angle_lists):
    """Multipoint correlation function on cut columns: the determinant of the
    kernel matrix over all listed points.

    cuts is a sequence of positive positions, angle_lists one angle sequence
    per cut.  A single point returns the one-point density.  The matrix is
    built one broadcast kernel_strip call per pair of cuts.
    """
    if len(cuts) != len(angle_lists):
        raise DomainError("need one angle list per cut")
    groups = [
        (float(x), np.asarray(angles, dtype=float).reshape(-1))
        for x, angles in zip(cuts, angle_lists)
    ]
    groups = [(x, t) for x, t in groups if t.size]
    if not groups:
        raise DomainError("need at least one point")
    mat = np.block(
        [
            [kernel_strip(pol, n_paths, x, t[:, None], xp, tp[None, :]).value for xp, tp in groups]
            for x, t in groups
        ]
    )
    return det_lu(mat)


# --- midpoint-start densities -------------------------------------------------


def pdf_special_start(x, theta):
    """First-passage density at any cut for the midpoint start:
    (2^{N^2} / pi^N) * hat_h(theta)^2, independent of the cut position x."""
    theta = as_weyl(theta)
    n = theta.n
    del x  # the one-cut density carries no x dependence
    return 2.0 ** (n * n) / math.pi**n * hat_h(theta) ** 2


def joint_pdf_special_start(pol, seq, thetas):
    """Joint passage density across the cuts of seq for the midpoint start,
    telescoped as first-cut density times transition factors."""
    thetas = [as_weyl(t) for t in thetas]
    if seq.L is not None:
        raise DomainError("midpoint start lives in the infinite strip; seq.L must be None")
    if len(thetas) != seq.m:
        raise DomainError("need one angle tuple per cut")
    if any(t.n != thetas[0].n for t in thetas):
        raise DomainError("all angle tuples must have equal length")
    cuts = seq.cuts
    value = pdf_special_start(cuts[0], thetas[0])
    for m in range(seq.m - 1):
        value *= transition_factor(None, pol, cuts[m], thetas[m], cuts[m + 1], thetas[m + 1])
    return value


def joint_pdf_special_start_dets(pol, seq, thetas):
    """The same joint density as a product of determinants: a basis
    determinant at the first cut, sub-rectangle kernel determinants between
    consecutive cuts, and the dual basis determinant at the last cut.

    Fully independent evaluation route from joint_pdf_special_start.
    """
    thetas = [as_weyl(t) for t in thetas]
    if seq.L is not None:
        raise DomainError("midpoint start lives in the infinite strip; seq.L must be None")
    if len(thetas) != seq.m:
        raise DomainError("need one angle tuple per cut")
    if any(t.n != thetas[0].n for t in thetas):
        raise DomainError("all angle tuples must have equal length")
    cuts = seq.cuts
    # basis matrices [n, j] over frequencies n = 1..N and angles theta_j
    n = np.arange(1.0, thetas[0].n + 1.0)[:, None]
    value = det_lu(basis_phi(n, cuts[0], thetas[0].angles))
    for m in range(seq.m - 1):
        value *= fomin_inner_det(
            RectConfig(cuts[m + 1]), pol, cuts[m], thetas[m], thetas[m + 1]
        )
    value *= det_lu(basis_phi_hat(n, cuts[-1], thetas[-1].angles))
    return value


def schur_limit_factor(cfg, pol, phi, rho):
    """Diagnostic ratio det[H_boundary(i phi_j, L + i rho_k)] / hat_h(phi).

    As the start angles phi coalesce at pi/2 the ratio approaches
    coincident_limit_value(cfg, rho), up to corrections exponentially small
    in L from higher terms of the partition expansion.
    """
    phi = as_weyl(phi)
    return fomin_boundary_det(cfg, pol, phi, rho) / hat_h(phi)


def coincident_limit_value(cfg, rho):
    """Limit of schur_limit_factor at the coalescing midpoint start:
    (2^{N^2} / (pi^N C_N(L))) * hat_h(rho), C_N(L) = prod_j sinh(jL) / N!."""
    rho = as_weyl(rho)
    n = rho.n
    return 2.0 ** (n * n) / math.pi**n / start_weight(cfg.L, n) * hat_h(rho)


# --- half-disk image ----------------------------------------------------------


def _check_radius(r):
    if not (r > 1.0):
        raise DomainError("radius must exceed 1")


def kernel_semicircle(pol, n_paths, r, theta, r_prime, theta_prime):
    """Correlation kernel on semicircular arcs of radii r, r' > 1: the strip
    kernel at x = log r with the 1/r Jacobian of w = e^z."""
    _check_radius(r)
    _check_radius(r_prime)
    ks = kernel_strip(pol, n_paths, math.log(r), theta, math.log(r_prime), theta_prime)
    return TailBoundedValue(ks.value / r, ks.bound / r)


def kernel_semicircle_equal_radius(n_paths, r, theta, theta_prime):
    """Equal-radius kernel in closed form:
    [sin((N+1)theta) sin(N theta') - sin(N theta) sin((N+1)theta')]
    / (pi r (cos theta - cos theta')),
    with the explicit finite sum taking over near the diagonal.
    """
    _check_paths(n_paths)
    _check_radius(r)
    th = np.asarray(theta, dtype=float)
    tp = np.asarray(theta_prime, dtype=float)
    th, tp = np.broadcast_arrays(th, tp)
    denom = np.cos(th) - np.cos(tp)
    near = np.abs(denom) < 1e-6
    num = np.sin((n_paths + 1) * th) * np.sin(n_paths * tp) - np.sin(
        n_paths * th
    ) * np.sin((n_paths + 1) * tp)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = num / (math.pi * r * denom)
    if np.any(near):
        # frequencies on the last axis: every entry sums as a scalar call does
        n = np.arange(1.0, n_paths + 1.0)
        th_n, tp_n = th[..., None] * n, tp[..., None] * n
        series = 2.0 / (math.pi * r) * np.sum(np.sin(th_n) * np.sin(tp_n), axis=-1)
        closed = np.where(near, series, closed)
    if closed.ndim == 0:
        return float(closed)
    return closed


def density_semicircle(n_paths, r, theta):
    """One-point density on the arc of radius r:
    [N sin(th) - cos(th) cos(N th) sin(N th) + sin(th) sin^2(N th)]
    / (pi r sin(th)), the removable sin(th) -> 0 limit taken by the
    underlying finite sum.  theta may be an array.
    """
    _check_paths(n_paths)
    _check_radius(r)
    th = np.asarray(theta, dtype=float)
    s = np.sin(th)
    small = np.abs(s) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (
            n_paths * s
            - np.cos(th) * np.cos(n_paths * th) * np.sin(n_paths * th)
            + s * np.sin(n_paths * th) ** 2
        ) / (math.pi * r * s)
    if np.any(small):
        # frequencies on the last axis: every entry sums as a scalar call does
        n = np.arange(1.0, n_paths + 1.0)
        series = 2.0 / (math.pi * r) * np.sum(np.sin(th[..., None] * n) ** 2, axis=-1)
        closed = np.where(small, series, closed)
    if closed.ndim == 0:
        return float(closed)
    return closed


def two_point_semicircle(pol, n_paths, r, theta, r_prime, theta_prime):
    """Two-point correlation function on the arcs, rho rho' - K(w, w') K(w', w).

    Equal radii use the closed-form equal-radius kernel and carry bound 0.
    Distinct radii take both kernels from kernel_semicircle; one of them is
    a truncated tail, and the bound |K| b' + |K'| b + b b' covers each
    returned entry.  Angles broadcast.  Returns TailBoundedValue.
    """
    _check_paths(n_paths)
    _check_radius(r)
    _check_radius(r_prime)
    rho = density_semicircle(n_paths, r, theta)
    rho_p = density_semicircle(n_paths, r_prime, theta_prime)
    if r == r_prime:
        k = kernel_semicircle_equal_radius(n_paths, r, theta, theta_prime)
        return TailBoundedValue(rho * rho_p - k * k, 0.0)
    k12 = kernel_semicircle(pol, n_paths, r, theta, r_prime, theta_prime)
    k21 = kernel_semicircle(pol, n_paths, r_prime, theta_prime, r, theta)
    value = rho * rho_p - k12.value * k21.value
    bound = abs(k12.value) * k21.bound + abs(k21.value) * k12.bound + k12.bound * k21.bound
    return TailBoundedValue(value, bound)


# --- large-N limit --------------------------------------------------------------


def limit_kernel(u, a, u_prime, a_prime):
    """Scaling limit of the arc kernel at r = N + u, theta = a/N.

    u < u':  (2/pi) * int_0^1 e^{-(u-u')s} sin(as) sin(a's) ds
    u > u': -(2/pi) * int_1^inf e^{-(u-u')s} sin(as) sin(a's) ds
    both in closed form; the u = u' case is undefined.
    """
    c = u - u_prime
    if c == 0.0:
        raise DomainError("the equal-level case u == u' is undefined")
    if a < 0.0 or a_prime < 0.0:
        raise DomainError("scaled angles must be nonnegative")

    if c < 0.0:

        def f(b):
            return (c - math.exp(-c) * (c * math.cos(b) - b * math.sin(b))) / (
                c * c + b * b
            )

        return (f(a - a_prime) - f(a + a_prime)) / math.pi

    def g(b):
        return math.exp(-c) * (c * math.cos(b) - b * math.sin(b)) / (c * c + b * b)

    return -(g(a - a_prime) - g(a + a_prime)) / math.pi
