"""Poisson kernels of the rectangle (0, L) x (0, pi) and their determinants.

The interior-to-edge kernel and the edge-to-edge (normal derivative) kernel
are Fourier sine series with sinh-ratio coefficients; both are evaluated with
certified geometric tail bounds.  Determinants of these kernels over tuples of
ordered angles give the building blocks of nonintersecting-path densities.  A
Schur-type expansion re-derives the boundary determinant as a sum over integer
partitions, which isolates its leading exponential decay; the crossing ratio
measures that decay against the product of diagonal kernel values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, TruncationError
from .numerics import TailBoundedValue, block_rows, det_lu, poly_geom_tail, sinh_ratio

_TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class RectConfig:
    """Rectangle (0, L) x (0, pi); paths run from the left edge to the right."""

    L: float

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise DomainError("rectangle length L must be positive and finite")


def weyl_point(angles):
    """A strictly increasing, nonempty tuple of angles inside (0, pi), as a
    read-only 1-d array."""
    a = np.array(angles, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("need a nonempty 1-d angle tuple")
    if not np.all((a > 0.0) & (a < math.pi)):
        raise DomainError("angles must lie strictly inside (0, pi)")
    if np.any(np.diff(a) <= 0.0):
        raise DomainError("angles must be strictly increasing")
    a.setflags(write=False)
    return a


def _check_angles(*arrays):
    for arr in arrays:
        if np.any((arr < 0.0) | (arr > math.pi)):
            raise DomainError("angles must lie in [0, pi]")


def angle_tuples(angles):
    """One angle tuple or a (..., N) stack of them, as an array.

    A 1-d argument is one tuple and is validated by weyl_point; a stack is
    only range-checked, so its tuples may be unordered or hold equal angles.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim < 2:
        return weyl_point(a)
    _check_angles(a)
    return a


def boundary_coeffs(n, L):
    """Edge-to-edge kernel coefficients (2/pi) n / sinh(n L), in exponential form."""
    n = np.asarray(n, dtype=float)
    return _TWO_OVER_PI * 2.0 * n * np.exp(-n * L) / -np.expm1(-2.0 * n * L)


def inner_coeffs(n, x, L):
    """Interior-to-edge kernel coefficients (2/pi) sinh(n x) / sinh(n L)."""
    return _TWO_OVER_PI * sinh_ratio(n, x, L)


def _sine_series(coeffs, theta, rho):
    """sum_n coeffs[n-1] * sin(n*theta) * sin(n*rho), broadcast over angles.

    Each point's whole series is one contiguous dot product over a
    (points x terms) block, chunked over points, so an entry has the same
    bits however many other points share the call.
    """
    th, rh = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(rho, dtype=float)
    )
    _check_angles(th, rh)
    ft = th.reshape(-1)
    fr = rh.reshape(-1)
    n = np.arange(1, coeffs.size + 1)
    total = np.empty(ft.size)
    step = block_rows(coeffs.size)
    for start in range(0, ft.size, step):
        block = np.sin(np.outer(ft[start : start + step], n))
        block *= np.sin(np.outer(fr[start : start + step], n))
        total[start : start + step] = np.vecdot(block, coeffs)
    out = total.reshape(th.shape)
    if out.ndim == 0:
        return float(out)
    return out


def _interior_series(pol, x, L, theta, rho, skip=0):
    """(2/pi) * sum_{n > skip} sinh(n x)/sinh(n L) * sin(n theta) * sin(n rho),
    truncated after the first n0 >= max(skip, 1) terms whose geometric tail
    c q^(n0+1) / (1 - q), q = e^{x - L}, meets pol.tol.

    Needs L - x >= pol.min_gap, the gap that makes the tail certifiable.
    Returns TailBoundedValue(value, bound); bound covers every entry.
    """
    gap = L - x
    if gap < pol.min_gap:
        raise PrecisionError(f"gap {gap:.3g} below policy min_gap {pol.min_gap:.3g}")
    q = math.exp(-gap)
    c = _TWO_OVER_PI / -math.expm1(-2.0 * L)
    # smallest n0 with c * q^(n0+1) / (1-q) <= tol
    n0 = max(skip, 1, math.ceil(math.log(c / (pol.tol * (1.0 - q))) / gap - 1.0))
    if n0 > pol.n_max:
        achieved = c * q ** (pol.n_max + 1) / (1.0 - q)
        raise TruncationError(
            f"series needs {n0} terms, policy allows {pol.n_max}", achieved=achieved
        )
    coeffs = np.zeros(n0)
    coeffs[skip:] = inner_coeffs(np.arange(skip + 1, n0 + 1), x, L)
    return TailBoundedValue(_sine_series(coeffs, theta, rho), c * q ** (n0 + 1) / (1.0 - q))


def poisson_rect(cfg, pol, x, theta, rho):
    """Poisson kernel of the rectangle from x + i*theta to the right-edge point
    L + i*rho: (2/pi) * sum_n sinh(n x)/sinh(n L) * sin(n theta) * sin(n rho).

    theta and rho broadcast together; x is a scalar with 0 < x < L and
    L - x >= pol.min_gap.  Returns the TailBoundedValue of _interior_series.
    """
    if not (0.0 < x < cfg.L):
        raise DomainError("need 0 < x < L")
    return _interior_series(pol, x, cfg.L, theta, rho)


def boundary_poisson_rect(cfg, pol, phi, rho):
    """Edge-to-edge kernel from the left-edge point i*phi to L + i*rho:
    (2/pi) * sum_n n * sin(n phi) * sin(n rho) / sinh(n L).

    phi and rho broadcast together.  Returns TailBoundedValue(value, bound).
    """
    L = cfg.L
    q = math.exp(-L)
    c = 2.0 * _TWO_OVER_PI / -math.expm1(-2.0 * L)

    def tail(n0):
        # sum_{n > n0} n q^n in closed form, times c
        return c * q ** (n0 + 1) * ((n0 + 1) * (1.0 - q) + q) / (1.0 - q) ** 2

    n0 = max(1, math.ceil(math.log(c / (pol.tol * (1.0 - q))) / L - 1.0))
    while tail(n0) > pol.tol:
        n0 += max(1, n0 // 8)
        if n0 > pol.n_max:
            raise TruncationError(
                f"series needs more than {pol.n_max} terms", achieved=tail(pol.n_max)
            )
    value = _sine_series(boundary_coeffs(np.arange(1, n0 + 1), L), phi, rho)
    return TailBoundedValue(value, tail(n0))


def _kernel_det(kernel, start, rho):
    """det[ kernel(start_j, rho_k) ] for an ordered tuple `start` and one
    tuple or a (..., N) stack of tuples `rho` (see angle_tuples); a stack
    gives one determinant per tuple, a float for a single tuple.  Every
    entry and determinant has the bits it has alone."""
    start, rho = weyl_point(start), angle_tuples(rho)
    if rho.shape[-1] != start.size:
        raise DomainError("angle tuples must have equal length")
    return det_lu(kernel(start[:, None], rho[..., None, :]).value)


def fomin_boundary_det(cfg, pol, phi, rho):
    """det[ H_boundary(i*phi_j, L + i*rho_k) ] for an ordered tuple phi and
    one rho tuple or a (..., N) stack of them (antisymmetric in rho)."""
    return _kernel_det(lambda p, r: boundary_poisson_rect(cfg, pol, p, r), phi, rho)


def fomin_inner_det(cfg, pol, x, theta, rho):
    """det[ H(x + i*theta_j, L + i*rho_k) ] for an ordered tuple theta and
    one rho tuple or a (..., N) stack of them (antisymmetric in rho)."""
    return _kernel_det(lambda t, r: poisson_rect(cfg, pol, x, t, r), theta, rho)


def hat_h(theta):
    """prod_j sin(theta_j) * prod_{k<l} (cos(theta_l) - cos(theta_k)).

    Accepts any array whose last axis lists the angles (ordering not
    required; the sign follows the formula).
    """
    t = np.asarray(theta, dtype=float)
    if t.ndim == 0:
        t = t[None]
    out = np.prod(np.sin(t), axis=-1)
    c = np.cos(t)
    npts = t.shape[-1]
    for k in range(npts):
        for l in range(k + 1, npts):
            out = out * (c[..., l] - c[..., k])
    if np.ndim(out) == 0:
        return float(out)
    return out


def partitions(cap, parts):
    """Yield integer partitions with at most `parts` parts and weight <= cap,
    graded by weight and lexicographic within each weight.  Tuples are padded
    with zeros to length `parts`."""
    if parts < 1:
        raise DomainError("parts must be positive")

    def fixed_weight(w, slots, maximum):
        if slots == 1:
            if w <= maximum:
                yield (w,)
            return
        for first in range(min(w, maximum), (w + slots - 1) // slots - 1, -1):
            for rest in fixed_weight(w - first, slots - 1, first):
                yield (first,) + rest

    for w in range(cap + 1):
        for lam in fixed_weight(w, parts, w):
            yield lam


def fomin_expansion(cfg, phi, rho, partition_cap, tol=None):
    """Boundary determinant as a partition sum.

    Cancelling the staircase prefactors against the ratio-of-determinant
    weights leaves

        f(phi, rho) = sum_lambda a_lambda * D_lambda(phi) * D_lambda(rho)

    with m_k = lambda_k + N - k + 1, a_lambda = prod_k c_{m_k} over the
    boundary_coeffs c_m = (2/pi) m / sinh(m L), and D_lambda(theta) =
    det[sin(m_k theta_j)].  Every partition of weight up to `partition_cap`
    contributes, the D_lambda of one angle tuple as one stacked determinant,
    and math.fsum adds the terms; the returned bound certifies the rest of
    the sum.  With `tol` given, a bound above it raises TruncationError.
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
    if phi.size != rho.size:
        raise DomainError("phi and rho must have equal length")
    if partition_cap < 0:
        raise DomainError("partition_cap must be nonnegative")
    n = phi.size
    L = cfg.L
    # m[lambda, k] = lambda_k + N - k + 1
    m = np.array(list(partitions(partition_cap, n))) + np.arange(n, 0, -1)
    a = np.prod(boundary_coeffs(m, L), axis=-1)
    d_phi, d_rho = (det_lu(np.sin(t[:, None] * m[:, None, :])) for t in (phi, rho))
    total = math.fsum(a * d_phi * d_rho)

    # |D_lambda| <= N!, a_lambda <= (2/(1-e^{-2L}))^N (w+N)^N e^{-L(w + N(N+1)/2)},
    # and the number of partitions of w into <= N parts is at most (w+1)^(N-1)
    q = math.exp(-L)
    const = (
        _TWO_OVER_PI**n
        * math.factorial(n) ** 2
        * (2.0 / -math.expm1(-2.0 * L)) ** n
        * q ** (n * (n + 1) // 2)
    )
    bound = const * poly_geom_tail(q, [(1.0, n - 1), (float(n), n)], partition_cap + 1)
    if tol is not None and bound > tol:
        raise TruncationError(
            f"partition cap {partition_cap} certifies only {bound:.3g}", achieved=bound
        )
    return TailBoundedValue(total, bound)


def crossing_ratio(cfg, phi, rho, partition_cap=8):
    """Boundary determinant divided by the product of its diagonal entries.

    Measures the cost of keeping N paths mutually avoiding: decays like
    exp(-N(N-1)/2 * L) as the rectangle stretches.  Numerator and diagonal
    entries are all partition expansions with the same cap, so the ratio
    keeps its relative accuracy where the plain determinant cancels.
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
    num = fomin_expansion(cfg, phi, rho, partition_cap).value
    den = 1.0
    for p, r in zip(phi, rho):
        den *= fomin_expansion(cfg, (p,), (r,), partition_cap).value
    if den == 0.0:
        raise DomainError("diagonal kernel product vanishes")
    return num / den


# start and end angles of the built-in crossing fits, by number of paths
CROSSING_CASES = {
    2: ((1.0, 2.0), (1.2, 1.9)),
    3: ((0.8, 1.6, 2.4), (0.9, 1.7, 2.5)),
}


def crossing_exponent_fit(phi, rho, lengths, partition_cap=8):
    """Crossing ratios at each rectangle length and the decay exponent
    -d log(ratio)/dL of their least-squares line; returns (ratios, slope).
    A line needs at least two distinct lengths."""
    lengths = np.asarray(lengths, dtype=float)
    if np.unique(lengths).size < 2:
        raise DomainError("need at least two distinct rectangle lengths to fit a slope")
    ratios = np.array(
        [crossing_ratio(RectConfig(float(L)), phi, rho, partition_cap) for L in lengths]
    )
    slope = -float(np.polyfit(lengths, np.log(ratios), 1)[0])
    return ratios, slope


def crossing_decay_rate(n):
    """Exponential decay rate N(N-1)/2 of the crossing ratio in L."""
    if n < 1:
        raise DomainError("n must be positive")
    return n * (n - 1) / 2.0


def crossing_prefactor(phi, rho):
    """Limit of crossing_ratio * exp(N(N-1)/2 * L) as L grows.

    Equals 2^{N(N-1)} N! prod_{k<l}(cos phi_l - cos phi_k)(cos rho_l - cos rho_k):
    the ratio of the leading large-L asymptotics of the boundary determinant to
    the exact n=1 asymptotics of the diagonal kernel product (whose sin(phi_j)
    sin(rho_j) factors cancel against those inside hat_h).
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
    if phi.size != rho.size:
        raise DomainError("phi and rho must have equal length")
    n = phi.size
    cphi, crho = np.cos(phi), np.cos(rho)
    prod = 1.0
    for k in range(n):
        for l in range(k + 1, n):
            prod *= (cphi[l] - cphi[k]) * (crho[l] - crho[k])
    return 2.0 ** (n * (n - 1)) * math.factorial(n) * prod
