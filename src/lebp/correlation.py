"""Determinantal correlation structure of the midpoint start.

In the midpoint start (passage_densities.joint_pdf with phi None) the N
paths enter the strip from x -> -infinity, the origin of the half-plane
under w = e^z.  It is the limit of every ordered start far from the start
edge, not the limit of paths that coalesce at pi/2 on the left edge.  Its
passage points across any family of vertical cuts form a determinantal
point process.  This module provides the two-branch correlation kernel in
the strip, its conformal image in the half-disk |w| > 1 under w = e^z, and
the scaling limit of the kernel for large N.  Every arc quantity (kernel,
density, two-point function) is the strip kernel pulled back through
w = e^z; at equal radii that is its exact finite branch.  Cut positions and
radii broadcast like the angles: one call evaluates a whole grid of them,
with one sine per distinct angle and term.
"""

import math

import numpy as np

from . import rect_kernels
from .errors import DomainError
from .numerics import TailBoundedValue, det_lu
from .rect_kernels import _TWO_OVER_PI, RectConfig, _series_terms, _sine_series
from .rect_kernels import inner_coeffs, poisson_rect


# --- strip kernel -------------------------------------------------------------


def _check_paths(n_paths):
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise DomainError("n_paths must be an integer >= 1")


def kernel_strip(n_paths, x, theta, x_prime, theta_prime):
    """Correlation kernel between cut points (x, theta) and (x', theta').

    For x <= x' the kernel is the exact finite sum
    (2/pi) sum_{n<=N} [sinh(n x')/sinh(n x)] sin(n theta) sin(n theta');
    for x > x' it is minus the tail of the same series over n > N, truncated
    with a certified geometric bound.  Positions and angles all broadcast
    together: each (x, x') pair takes its own branch, and every entry has
    the bits of its single-point call.  Returns TailBoundedValue; the bound
    has the broadcast shape of the positions (0 on the finite branch), a
    float when they are scalars.
    """
    _check_paths(n_paths)
    x, x_prime = np.asarray(x, dtype=float), np.asarray(x_prime, dtype=float)
    if not ((x > 0.0).all() and (x_prime > 0.0).all()):
        raise DomainError("cut positions must be positive")
    cuts = np.broadcast(x, x_prime)
    pairs = cuts.shape
    coeffs, sign, bound = np.empty(pairs, dtype=object), np.ones(pairs), np.zeros(pairs)
    for i, (u, v) in enumerate(cuts):
        if u <= v:
            coeffs.flat[i] = inner_coeffs(np.arange(1, n_paths + 1), v, u)
        else:
            tail, bound.flat[i] = _series_terms(v, u, rect_kernels.SERIES_TOL, n_paths)
            tail[:n_paths] = 0.0
            coeffs.flat[i], sign.flat[i] = tail, -1.0
    value = sign * _sine_series(coeffs, theta, theta_prime)
    return TailBoundedValue(*(a if a.ndim else float(a) for a in (value, bound)))


def kernel_strip_dual(n_paths, x, theta, x_prime, theta_prime):
    """The x > x' kernel by its other representation: the full finite sum
    minus the sub-rectangle kernel H_{R_x}(x' + i theta', x + i theta).

    Independent of the tail-sum branch of kernel_strip; the two must agree.
    """
    _check_paths(n_paths)
    if not (x > x_prime > 0.0):
        raise DomainError("dual form needs x > x' > 0")
    coeffs = inner_coeffs(np.arange(1, n_paths + 1), x_prime, x)
    finite = _sine_series(coeffs, theta, theta_prime)
    h = poisson_rect(RectConfig(x), x_prime, theta_prime, theta)
    return TailBoundedValue(finite - h.value, h.bound)


def corr_strip(n_paths, cuts, angle_lists):
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
            [kernel_strip(n_paths, x, t[:, None], xp, tp[None, :]).value for xp, tp in groups]
            for x, t in groups
        ]
    )
    return det_lu(mat)


# --- half-disk image ----------------------------------------------------------


def _check_radius(r):
    if not np.all(np.asarray(r) > 1.0):
        raise DomainError("radius must exceed 1")


def _log(r):
    """math.log of each radius, as a single-point call takes it (np.log may
    round differently)."""
    r = np.asarray(r, dtype=float)
    return np.reshape([math.log(v) for v in r.ravel().tolist()], r.shape)


def kernel_semicircle(n_paths, r, theta, r_prime, theta_prime):
    """Correlation kernel on semicircular arcs of radii r, r' > 1: the strip
    kernel at x = log r with the 1/r Jacobian of w = e^z.  At r = r' it is
    the exact N-term sum (2/(pi r)) sum_n sin(n theta) sin(n theta') with
    bound 0.  Radii and angles broadcast together, as in kernel_strip."""
    _check_radius(r)
    _check_radius(r_prime)
    ks = kernel_strip(n_paths, _log(r), theta, _log(r_prime), theta_prime)
    return TailBoundedValue(ks.value / r, ks.bound / r)


def density_semicircle(n_paths, r, theta):
    """One-point density on the arc of radius r, the kernel diagonal
    (2/(pi r)) sum_{n<=N} sin^2(n theta).  Radii and angles broadcast
    together: the series is summed once over theta, then divided by r."""
    _check_paths(n_paths)
    _check_radius(r)
    return _sine_series(np.full(n_paths, _TWO_OVER_PI), theta, theta) / r


def two_point_semicircle(n_paths, r, theta, r_prime, theta_prime):
    """Two-point correlation function on the arcs, rho rho' - K(w, w') K(w', w).

    Both kernels come from kernel_semicircle.  At distinct radii one of them
    is a truncated tail, and the bound |K| b' + |K'| b + b b' covers each
    returned entry; at equal radii both are exact and the bound is 0.
    Radii and angles broadcast together; each kernel is one call over the
    whole grid.  Returns TailBoundedValue.
    """
    _check_paths(n_paths)
    _check_radius(r)
    _check_radius(r_prime)
    rho = density_semicircle(n_paths, r, theta)
    rho_p = density_semicircle(n_paths, r_prime, theta_prime)
    k12 = kernel_semicircle(n_paths, r, theta, r_prime, theta_prime)
    k21 = kernel_semicircle(n_paths, r_prime, theta_prime, r, theta)
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
