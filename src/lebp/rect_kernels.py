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


class WeylPoint:
    """A strictly increasing tuple of angles inside (0, pi)."""

    def __init__(self, angles):
        a = np.array(tuple(float(v) for v in angles), dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise DomainError("need a nonempty 1-d angle tuple")
        if not np.all((a > 0.0) & (a < math.pi)):
            raise DomainError("angles must lie strictly inside (0, pi)")
        if np.any(np.diff(a) <= 0.0):
            raise DomainError("angles must be strictly increasing")
        a.setflags(write=False)
        self.angles = a

    @property
    def n(self):
        return self.angles.size

    def __len__(self):
        return self.angles.size

    def __iter__(self):
        return iter(self.angles)

    def __getitem__(self, i):
        return self.angles[i]

    def __repr__(self):
        return f"WeylPoint({tuple(self.angles)!r})"


def as_weyl(point):
    """Pass WeylPoint through; coerce any other angle sequence (validating it)."""
    if isinstance(point, WeylPoint):
        return point
    return WeylPoint(point)


def _check_angles(*arrays):
    for arr in arrays:
        if np.any((arr < 0.0) | (arr > math.pi)):
            raise DomainError("angles must lie in [0, pi]")


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


def poisson_rect(cfg, pol, x, theta, rho):
    """Poisson kernel of the rectangle from x + i*theta to the right-edge point
    L + i*rho: (2/pi) * sum_n sinh(n x)/sinh(n L) * sin(n theta) * sin(n rho).

    theta and rho broadcast together; x is a scalar with 0 < x < L and
    L - x >= pol.min_gap (the geometric gap that makes the tail certifiable).
    Returns TailBoundedValue(value, bound); bound covers every returned entry.
    """
    L = cfg.L
    if not (0.0 < x < L):
        raise DomainError("need 0 < x < L")
    gap = L - x
    if gap < pol.min_gap:
        raise PrecisionError(f"gap {gap:.3g} below policy min_gap {pol.min_gap:.3g}")
    q = math.exp(-gap)
    c = _TWO_OVER_PI / -math.expm1(-2.0 * L)
    # smallest n0 with c * q^(n0+1) / (1-q) <= tol
    n0 = max(1, math.ceil(math.log(c / (pol.tol * (1.0 - q))) / gap - 1.0))
    if n0 > pol.n_max:
        achieved = c * q ** (pol.n_max + 1) / (1.0 - q)
        raise TruncationError(
            f"series needs {n0} terms, policy allows {pol.n_max}", achieved=achieved
        )
    n = np.arange(1, n0 + 1)
    coeffs = _TWO_OVER_PI * sinh_ratio(n, x, L)
    value = _sine_series(np.atleast_1d(coeffs), theta, rho)
    bound = c * q ** (n0 + 1) / (1.0 - q)
    return TailBoundedValue(value, bound)


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
    n = np.arange(1, n0 + 1)
    # n / sinh(nL) in exponential form
    coeffs = _TWO_OVER_PI * 2.0 * n * np.exp(-n * L) / -np.expm1(-2.0 * n * L)
    value = _sine_series(coeffs, phi, rho)
    return TailBoundedValue(value, tail(n0))


def fomin_boundary_det(cfg, pol, phi, rho):
    """det[ H_boundary(i*phi_j, L + i*rho_k) ] over two ordered angle tuples."""
    phi, rho = as_weyl(phi), as_weyl(rho)
    if phi.n != rho.n:
        raise DomainError("phi and rho must have equal length")
    m = boundary_poisson_rect(cfg, pol, phi.angles[:, None], rho.angles[None, :]).value
    return det_lu(np.atleast_2d(m))


def fomin_inner_det(cfg, pol, x, theta, rho):
    """det[ H(x + i*theta_j, L + i*rho_k) ] over two ordered angle tuples."""
    theta, rho = as_weyl(theta), as_weyl(rho)
    if theta.n != rho.n:
        raise DomainError("theta and rho must have equal length")
    m = poisson_rect(cfg, pol, x, theta.angles[:, None], rho.angles[None, :]).value
    return det_lu(np.atleast_2d(m))


def hat_h(theta):
    """prod_j sin(theta_j) * prod_{k<l} (cos(theta_l) - cos(theta_k)).

    Accepts any array whose last axis lists the angles (ordering not
    required; the sign follows the formula).
    """
    t = np.asarray(theta.angles if isinstance(theta, WeylPoint) else theta, dtype=float)
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


def _staircase_det(m_freqs, angles):
    """det[ sin(m_k * angle_j) ]_{j,k}."""
    mat = np.sin(np.outer(angles, m_freqs))
    return det_lu(mat)


def fomin_expansion(cfg, phi, rho, partition_cap, tol=None):
    """Boundary determinant as a partition sum.

    Cancelling the staircase prefactors against the ratio-of-determinant
    weights leaves

        f(phi, rho) = (2/pi)^N * sum_lambda a_lambda * D_lambda(phi) * D_lambda(rho)

    with m_k = lambda_k + N - k + 1, a_lambda = prod_k m_k / sinh(m_k L) and
    D_lambda(theta) = det[sin(m_k theta_j)].  Terms are summed in graded order
    through weight `partition_cap`; the returned bound certifies the rest of
    the sum.  With `tol` given, a bound above it raises TruncationError.
    """
    phi, rho = as_weyl(phi), as_weyl(rho)
    if phi.n != rho.n:
        raise DomainError("phi and rho must have equal length")
    if partition_cap < 0:
        raise DomainError("partition_cap must be nonnegative")
    n = phi.n
    L = cfg.L
    staircase = np.arange(n, 0, -1)  # N, N-1, .., 1

    total = 0.0
    for lam in partitions(partition_cap, n):
        m = np.asarray(lam) + staircase
        a = float(np.prod(2.0 * m * np.exp(-m * L) / -np.expm1(-2.0 * m * L)))
        total += a * _staircase_det(m, phi.angles) * _staircase_det(m, rho.angles)
    total *= _TWO_OVER_PI**n

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
    phi, rho = as_weyl(phi), as_weyl(rho)
    num = fomin_expansion(cfg, phi, rho, partition_cap).value
    den = 1.0
    for p, r in zip(phi.angles, rho.angles):
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
    phi, rho = as_weyl(phi), as_weyl(rho)
    if phi.n != rho.n:
        raise DomainError("phi and rho must have equal length")
    n = phi.n
    cphi, crho = np.cos(phi.angles), np.cos(rho.angles)
    prod = 1.0
    for k in range(n):
        for l in range(k + 1, n):
            prod *= (cphi[l] - cphi[k]) * (crho[l] - crho[k])
    return 2.0 ** (n * (n - 1)) * math.factorial(n) * prod
