"""Poisson kernels of the rectangle (0, L) x (0, pi) and their determinants.

The kernels are one family keyed by the start position x: the interior
kernel for 0 < x < L and, at x = 0, its normal derivative there, the
edge-to-edge kernel.  Each is a Fourier sine series with coefficients
_coeffs(n, x, L); one rule (_series_terms) truncates every series with a
certified geometric tail bound over the gap L - x, at the fixed targets
below, and refuses an interior gap below MIN_GAP or a series longer than
N_MAX terms.  Their determinants over tuples of ordered angles, the
building blocks of nonintersecting-path densities, all factor as
det(A diag(c) B^T) with A[j, n] = sin(n phi_j), B[k, n] = sin(n rho_k), and go
through numerics.graded_det (_kernel_det), which keeps their leading
exponential decay out of the cancellation; the crossing ratio measures that
decay against the product of diagonal kernel values.
"""

import itertools
import math

import numpy as np

from .errors import DomainError, PrecisionError, TruncationError
from .numerics import UNIT_ROUNDOFF, TailBoundedValue
from .numerics import block_rows, graded_det, sine_multiples, sinh_ratio, stacked

_TWO_OVER_PI = 2.0 / math.pi

# the fixed targets of _series_terms: the absolute truncation target of a
# single series (kernel entries), the largest number of terms, and the
# smallest interior gap L - x it certifies
SERIES_TOL = 1e-12
N_MAX = 100_000
MIN_GAP = 1e-3


class RectConfig:
    """Rectangle (0, L) x (0, pi); paths run from the left edge to the right.

    L is checked once, here; nothing assigns it afterwards."""

    __slots__ = ("L",)

    def __init__(self, L):
        if not (L > 0.0 and math.isfinite(L)):
            raise DomainError("rectangle length L must be positive and finite")
        self.L = L


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
        if not np.all((arr >= 0.0) & (arr <= math.pi)):
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


def _coeffs(n, x, L):
    """Coefficients of the kernel family from x + i*theta to L + i*rho: the
    interior ones for 0 < x < L, and at x = 0 (the start edge) their normal
    derivative there, the edge-to-edge ones."""
    return boundary_coeffs(n, L) if x == 0.0 else inner_coeffs(n, x, L)


def _sine_series(coeffs, theta, rho):
    """sum_n coeffs[n-1] * sin(n*theta) * sin(n*rho), broadcast over angles.

    coeffs is one coefficient vector, or an object array of them laid out
    over a grid of pairs (a kernel's cut pairs): then each pair's series is
    summed over every angle point, and the result has the broadcast shape
    of the pair grid and the angles.  The pairs may have different lengths.

    Each point's whole series is one contiguous dot product over a
    (points x terms) block, chunked over angle points; a pair reads the
    prefix of the block that its own coefficients cover (a prefix of
    sin(n * angle) has the bits of the narrower table).  So an entry has
    the same bits however many other points and pairs share the call.

    Cost: each chunk takes its sine rows from numerics.sine_multiples, at
    the longest pair's length, so sines are paid per distinct angle in a
    chunk, not per broadcast point or pair: a theta[:, None] x
    rho[None, :] grid pays for its rows and columns, and rho is theta
    costs one table.  Pairs and angles that vary along the same axis are
    evaluated over their product, pairs times angle points.

    Memory: a chunk holds the block, the second argument's sine rows and
    their table of distinct angles, three rows of `terms` entries per point
    (the longest pair's), so a chunk has block_rows(3 * terms) points.
    """
    stack = np.asarray(coeffs)
    pairs, series = (stack.shape, list(stack.flat)) if stack.dtype == object else ((), [stack])
    args = [np.asarray(theta, dtype=float)]
    if rho is not theta:
        args.append(np.asarray(rho, dtype=float))
    _check_angles(*args)
    shape = np.broadcast_shapes(*(a.shape for a in args))
    size = math.prod(shape)
    width = max((c.size for c in series), default=0)
    flats = [np.broadcast_to(a, shape).reshape(-1) for a in args]
    total = np.empty((len(series), size))
    step = block_rows(3 * width)
    for start in range(0, size, step):
        rows = [sine_multiples(f[start : start + step], width) for f in flats]
        block = rows[0]
        block *= rows[-1]
        for row, c in zip(total, series):
            row[start : start + step] = np.vecdot(block[:, : c.size], c)
    out = total[np.arange(len(series)).reshape(pairs), np.arange(size).reshape(shape)]
    return float(out) if out.ndim == 0 else out


def _majorant(x, L):
    """(c, p, gap) with every coefficient _coeffs(n, x, L) at most
    c n^p e^{-n gap}, gap = L - x: (2/pi) sinh(n x)/sinh(n L) <= C e^{-n (L - x)}
    and, at x = 0, (2/pi) n/sinh(n L) <= 2C n e^{-n L}; C = (2/pi)/(1 - e^{-2L})."""
    p, gap = int(x == 0.0), L - x
    if math.exp(-gap) == 1.0:
        raise TruncationError(f"no number of terms certifies a gap of {gap:.3g}", math.inf)
    return (1 + p) * _TWO_OVER_PI / -math.expm1(-2.0 * L), p, gap


def _majorant_tail(c, p, gap, n0):
    """sum_{n > n0} c n^p q^n, q = e^{-gap}, in closed form (p = 0 or 1)."""
    q = math.exp(-gap)
    return c * q ** (n0 + 1) * ((n0 + 1) * (1.0 - q) + q) ** p / (1.0 - q) ** (1 + p)


def _series_terms(x, L, target, at_least):
    """The one truncation rule of every sine series: (c_1..c_n0, tail) of
    _coeffs(., x, L) for the first n0 >= at_least whose _majorant_tail is at
    most target.  An interior gap L - x (x > 0) below MIN_GAP raises
    PrecisionError.  n0 starts at the closed-form inverse of the p = 0 tail
    (which meets the target of the interior family, up to rounding) and
    steps by n0 // 8; more than N_MAX terms raise TruncationError with the
    tail at N_MAX."""
    if x > 0.0 and L - x < MIN_GAP:
        raise PrecisionError(f"gap {L - x:.3g} below MIN_GAP {MIN_GAP:.3g}")
    if not target > 0.0:
        raise PrecisionError("kernel coefficients underflow; the value is out of range")
    c, p, gap = _majorant(x, L)
    q = math.exp(-gap)
    n0 = max(at_least, math.ceil((math.log(c) - math.log(target) - math.log1p(-q)) / gap - 1.0))
    while n0 < N_MAX and _majorant_tail(c, p, gap, n0) > target:
        n0 = min(N_MAX, n0 + max(1, n0 // 8))
    if n0 > N_MAX or _majorant_tail(c, p, gap, n0) > target:
        raise TruncationError(
            f"series needs more than {N_MAX} terms", achieved=_majorant_tail(c, p, gap, N_MAX)
        )
    return _coeffs(np.arange(1, n0 + 1), x, L), _majorant_tail(c, p, gap, n0)


def _series(x, L, theta, rho):
    """sum_n _coeffs(n, x, L) * sin(n theta) * sin(n rho), truncated by
    _series_terms at SERIES_TOL.  Returns TailBoundedValue(value, bound);
    bound covers every entry."""
    coeffs, tail = _series_terms(x, L, SERIES_TOL, 1)
    return TailBoundedValue(_sine_series(coeffs, theta, rho), tail)


def poisson_rect(cfg, x, theta, rho):
    """Poisson kernel of the rectangle from x + i*theta to the right-edge point
    L + i*rho: (2/pi) * sum_n sinh(n x)/sinh(n L) * sin(n theta) * sin(n rho).

    theta and rho broadcast together; x is a scalar with 0 < x < L and
    L - x >= MIN_GAP.  Returns the TailBoundedValue of _series.
    """
    if not (0.0 < x < cfg.L):
        raise DomainError("need 0 < x < L")
    return _series(x, cfg.L, theta, rho)


def boundary_poisson_rect(cfg, phi, rho):
    """Edge-to-edge kernel from the left-edge point i*phi to L + i*rho, the
    x = 0 member of the family:
    (2/pi) * sum_n n * sin(n phi) * sin(n rho) / sinh(n L).

    phi and rho broadcast together.  Returns TailBoundedValue(value, bound).
    """
    return _series(0.0, cfg.L, phi, rho)


def _kernel_det(x, L, start, rho):
    """(prod_{n<=N} c_n, the rest) of det[ H(x + i*start_j, L + i*rho_k) ],
    c_n = _coeffs(n, x, L), for an ordered tuple `start` and one tuple or a
    (..., N) stack of tuples `rho` (see angle_tuples), one rest per tuple (a
    float for one tuple).

    The series is truncated at min(SERIES_TOL, u c_N), so the rest needs only
    c_N representable; it is the graded_det of the factored kernel with
    det A1 the sine Vandermonde 2^{N(N-1)/2} hat_h(start).  A stack runs
    in blocks (numerics.stacked), each tuple with its single-tuple bits.
    """
    start, rho = weyl_point(start), angle_tuples(rho)
    n = start.size
    if rho.shape[-1] != n:
        raise DomainError("angle tuples must have equal length")
    target = min(SERIES_TOL, UNIT_ROUNDOFF * float(_coeffs(n, x, L)))
    coeffs, _ = _series_terms(x, L, target, n)
    a = sine_multiples(start, coeffs.size)
    head = 2.0 ** (n * (n - 1) // 2) * hat_h(start)

    def rests(block):
        return graded_det(a, coeffs, sine_multiples(block, coeffs.size), head)

    # a block holds the N x M sine rows, their table of distinct angles and
    # the graded_det's N x N work per tuple
    return np.prod(coeffs[:n]), stacked(rests, rho, 2 * n * (coeffs.size + 2 * n))


def _assembled(lead, rest):
    """lead * rest, refusing a leading coefficient product that underflowed."""
    if lead == 0.0:
        raise PrecisionError("leading coefficients underflow; the determinant is out of range")
    return lead * rest


def fomin_boundary_det(cfg, phi, rho):
    """det[ H_boundary(i*phi_j, L + i*rho_k) ] for an ordered tuple phi and
    one rho tuple or a (..., N) stack of them (antisymmetric in rho).  A
    stack runs in blocks of bounded memory, each tuple with the bits of its
    single-tuple call."""
    return _assembled(*_kernel_det(0.0, cfg.L, phi, rho))


def fomin_inner_det(cfg, x, theta, rho):
    """det[ H(x + i*theta_j, L + i*rho_k) ] for an ordered tuple theta and
    one rho tuple or a (..., N) stack of them (antisymmetric in rho).  A
    stack runs in blocks of bounded memory, each tuple with the bits of its
    single-tuple call."""
    if not (0.0 < x < cfg.L):
        raise DomainError("need 0 < x < L")
    return _assembled(*_kernel_det(x, cfg.L, theta, rho))


def hat_h(theta):
    """prod_j sin(theta_j) * prod_{k<l} (cos(theta_l) - cos(theta_k)).

    Accepts any array whose last axis lists the angles (ordering not
    required; the sign follows the formula).
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.prod(np.sin(t), axis=-1)
    c = np.cos(t)
    for k, l in itertools.combinations(range(t.shape[-1]), 2):
        out = out * (c[..., l] - c[..., k])
    return float(out) if np.ndim(out) == 0 else out


def crossing_ratio(cfg, phi, rho):
    """Boundary determinant divided by the product of its diagonal entries.

    Measures the cost of keeping N paths mutually avoiding: decays like
    exp(-N(N-1)/2 * L) as the rectangle stretches.  The numerator and every
    diagonal entry are graded determinants (fomin_boundary_det, N x N and
    1 x 1) truncated at min(SERIES_TOL, u c_N), so the ratio keeps its relative
    accuracy where the assembled determinant cancels.
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
    den = math.prod(fomin_boundary_det(cfg, (p,), (r,)) for p, r in zip(phi, rho))
    if den == 0.0:
        raise DomainError("diagonal kernel product vanishes")
    return fomin_boundary_det(cfg, phi, rho) / den


# start and end angles of the built-in crossing fits, by number of paths
CROSSING_CASES = {
    2: ((1.0, 2.0), (1.2, 1.9)),
    3: ((0.8, 1.6, 2.4), (0.9, 1.7, 2.5)),
}


def crossing_exponent_fit(phi, rho, lengths):
    """Crossing ratios at each rectangle length and the decay exponent
    -d log(ratio)/dL of their least-squares line; returns (ratios, slope).
    A line needs at least two distinct lengths.

    Every ratio is positive, so a computed ratio that is not (rounding of
    the numerator swamps the diagonal product at short lengths) raises
    PrecisionError naming the first such length."""
    lengths = np.asarray(lengths, dtype=float)
    # min < max rather than np.unique, which imports numpy.ma on float input
    if not (lengths.size and lengths.min() < lengths.max()):
        raise DomainError("need at least two distinct rectangle lengths to fit a slope")
    ratios = np.array([crossing_ratio(RectConfig(float(L)), phi, rho) for L in lengths])
    for L, q in zip(lengths.tolist(), ratios.tolist()):
        if not q > 0.0:
            raise PrecisionError(
                f"crossing ratio {q:.6g} at length {L:g} is not positive: rounding swamps"
                " the diagonal product"
            )
    slope = -float(np.polyfit(lengths, np.log(ratios), 1)[0])
    return ratios, slope


def crossing_decay_rate(n):
    """Exponential decay rate N(N-1)/2 of the crossing ratio in L."""
    if n < 1:
        raise DomainError("n must be positive")
    return n * (n - 1) / 2.0

