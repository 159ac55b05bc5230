"""End-to-end cross-checks pairing every headline quantity with an
independent route: walk determinants against brute-force enumeration,
kernel composition under quadrature, crossing-exponent fits, density
normalizations, closed forms against series, lattice refinement against
the continuum, and conformal covariance under w = cosh z.  Each check
calls the production route its record names, never a copy of its formula.

`RECORDS` declares every record once: its name, the check that measures
it, its tolerance and pass rule, and the production route it checks with
the scaling of that route's value that must fail it.  Each check takes no
arguments and returns only what it measured, one `Measured` per record in
table order; `run_check` pairs those with the table into `CheckResult`s,
and `run_suite` runs the named suites exposed by the command line.  Every
check runs at the library's fixed series targets (rect_kernels.SERIES_TOL,
N_MAX, MIN_GAP), the ones its tolerance was set against.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from typing import Callable, NamedTuple

import numpy as np

from .correlation import (
    corr_strip,
    density_semicircle,
    kernel_semicircle,
    kernel_strip,
    kernel_strip_dual,
    limit_kernel,
    two_point_semicircle,
)
from .errors import DomainError
from .graph_fomin import grid_fomin_check
from .lattice_validation import boundary_refinement, density_refinement
from .numerics import UNIT_ROUNDOFF, chamber_integrate, gauss_legendre
from .passage_densities import ChamberSequence, joint_pdf, norm_boundary, norm_inner
from .rect_kernels import (
    CROSSING_CASES,
    RectConfig,
    boundary_poisson_rect,
    crossing_decay_rate,
    crossing_exponent_fit,
    fomin_boundary_det,
    poisson_rect,
)

# orders of the fixed Gauss-Legendre rules the checks integrate with; the
# command line records this table in every validate manifest
QUADRATURE_ORDERS = {
    "composition": 200,
    "marginal": 200,
    "rectangle_mass": 48,
    "midpoint_mass": 48,
    "joint_mass": 48,
    "limit_panel": 20,
}

# truncation target for the infinite range of the limit-kernel quadrature
LIMIT_TAIL = 1e-15


class CheckResult(NamedTuple):
    """One measured quantity next to the tolerance it must meet.

    `elapsed` is the wall time in seconds of the computation the check
    times for this quantity.  Where the check does not time it, run_check
    sets it to the wall time of the whole check function that produced it.
    _asdict() gives the report's keys, in field order.
    """

    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""
    elapsed: float | None = None


class Measured(NamedTuple):
    """What a check measured for one record: the value, a detail line, the
    tolerance where the check computes it, and the wall time of the
    computation where the check times it."""

    value: float
    detail: str = ""
    tolerance: float | None = None
    elapsed: float | None = None


# --- walk determinants ---------------------------------------------------------


def check_fomin_identity():
    """Two-path walk determinant on the 3x3 grid against the exact
    enumeration over self-avoiding paths; must agree within the sum of both
    sides' certified rounding bounds."""
    start = time.perf_counter()
    det, brute, bound = grid_fomin_check(3, (0, 2))
    elapsed = time.perf_counter() - start
    detail = f"determinant={det:.9e} enumeration={brute:.9e} tail_bound={bound:.3e}"
    return [Measured(abs(det - brute), detail, bound, elapsed)]


# --- kernel composition ----------------------------------------------------------


def _rd_points(d):
    """The additive R_d low-discrepancy sequence (Roberts, 2018): point
    i = 1, 2, ... has coordinates t_j = (0.5 + i g^-j) mod 1, j = 1..d, where
    g is the positive root of x^(d+1) = x + 1.  Each sample maps t_j, in its
    draw order, onto its range (lo, hi) as lo + t_j (hi - lo)."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (d + 1))
    for i in itertools.count(1):
        yield [(0.5 + i * g**-j) % 1.0 for j in range(1, d + 1)]


def _span(t, lo, hi):
    return lo + t * (hi - lo)


def _semigroup_sample():
    """(length, x_mid, x, theta, rho, phi) at 10 points of the R_6 sequence."""
    for t in itertools.islice(_rd_points(6), 10):
        length = _span(t[0], 1.5, 3.0)
        x_mid = _span(t[1], 0.4, length - 0.4)
        x = _span(t[2], 0.1, x_mid - 0.1)
        yield (length, x_mid, x, *(_span(s, 0.1, math.pi - 0.1) for s in t[3:]))


def check_semigroup():
    """Interior and edge-start kernels composed across an intermediate cut
    reproduce the single-step kernel (quadrature over the cut)."""
    order = QUADRATURE_ORDERS["composition"]
    rule = gauss_legendre(order)
    nodes, weights = rule.nodes, rule.weights
    err_int = 0.0
    err_bdy = 0.0
    t_int = 0.0
    t_bdy = 0.0
    for length, x_mid, x, th, rho, phi in _semigroup_sample():
        cfg = RectConfig(length)
        mid = RectConfig(x_mid)
        start = time.perf_counter()
        second = poisson_rect(cfg, x_mid, nodes, rho).value
        lhs = poisson_rect(cfg, x, th, rho).value
        rhs = weights @ (poisson_rect(mid, x, th, nodes).value * second)
        t_int += time.perf_counter() - start
        err_int = max(err_int, abs(lhs - rhs))
        start = time.perf_counter()
        lhs_b = boundary_poisson_rect(cfg, phi, rho).value
        rhs_b = weights @ (boundary_poisson_rect(mid, phi, nodes).value * second)
        t_bdy += time.perf_counter() - start
        err_bdy = max(err_bdy, abs(lhs_b - rhs_b))
    detail = f"10 points of the R_6 sequence, {order}-node quadrature"
    return [Measured(err_int, detail, elapsed=t_int), Measured(err_bdy, detail, elapsed=t_bdy)]


def _kernel_dual_sample():
    """(paths, x, theta, x', theta') at 20 points of the R_5 sequence."""
    for t in itertools.islice(_rd_points(5), 20):
        x_prime = _span(t[0], 0.2, 2.0)
        th, tp = (_span(s, 0.05, math.pi - 0.05) for s in t[2:4])
        yield 1 + math.floor(5 * t[4]), x_prime + _span(t[1], 0.1, 1.5), th, x_prime, tp


def check_kernel_dual():
    """Backward-cut correlation kernel: certified tail sum against the
    (finite sum - interior kernel) rearrangement."""
    worst = 0.0
    for n, x, th, x_prime, tp in _kernel_dual_sample():
        a = kernel_strip(n, x, th, x_prime, tp).value
        b = kernel_strip_dual(n, x, th, x_prime, tp).value
        worst = max(worst, abs(a - b))
    return [Measured(worst, "20 points of the R_5 sequence with cut separation >= 0.1")]


# --- crossing exponent ---------------------------------------------------------


def check_crossing_exponent():
    """Least-squares slope of the log nonintersection ratio over rectangle
    lengths 6, 8, 10, 12 against the exact decay rate n(n-1)/2."""
    out = []
    for n, (phi, rho) in CROSSING_CASES.items():
        _, slope = crossing_exponent_fit(phi, rho, (6.0, 8.0, 10.0, 12.0))
        target = float(crossing_decay_rate(n))
        rel = abs(slope - target) / target
        out.append(Measured(rel, f"fitted={slope:.8f} expected={target:g} (relative error)"))
    return out


# --- normalizations --------------------------------------------------------------


def check_normalization():
    """Total mass one: joint_pdf for two paths in a finite rectangle and for
    the midpoint start with two and three paths, and the two-cut two-path
    joint density, both composed from its kernels and through joint_pdf's
    multi-cut route, whose last-cut marginal is the one-cut density."""
    out, x = [], 0.8

    def mass(cfg, phi, n, rule, cuts=(x,), head=()):
        # the density is symmetric in the last cut's angles, as chamber_integrate needs
        seq = ChamberSequence(cuts)
        return chamber_integrate(lambda t: joint_pdf(cfg, seq, [*head, t], phi), rule, n)

    length, phi = 2.0, (0.9, 2.1)
    order = QUADRATURE_ORDERS["rectangle_mass"]
    out.append(
        Measured(
            abs(mass(RectConfig(length), phi, 2, gauss_legendre(order)) - 1.0),
            f"length={length} cut={x} starts={phi} order={order}",
        )
    )

    order = QUADRATURE_ORDERS["midpoint_mass"]
    rule = gauss_legendre(order)
    for n in (2, 3):
        out.append(Measured(abs(mass(None, None, n, rule) - 1.0), f"cut={x} order={order}"))

    length, x1, x2, phi = 2.0, 0.7, 1.2, (0.9, 2.0)
    cfg = RectConfig(length)
    order = QUADRATURE_ORDERS["joint_mass"]
    rule = gauss_legendre(order)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    first = fomin_boundary_det(RectConfig(x1), phi, grid) * np.outer(w, w)
    last = norm_inner(cfg, x2, grid) * np.outer(w, w)
    step = poisson_rect(RectConfig(x2), x1, nodes[:, None], nodes[None, :]).value
    t1 = np.einsum("ab,ac,bd,cd->", first, step, step, last, optimize=True)
    t2 = np.einsum("ab,ad,bc,cd->", first, step, step, last, optimize=True)
    composed = abs((t1 - t2) / 4.0 / norm_boundary(cfg, phi) - 1.0)
    single = joint_pdf(cfg, ChamberSequence((x1,)), [phi], phi)
    marginal = abs(mass(cfg, phi, 2, rule, (x1, x2), [phi]) / single - 1.0)
    out.append(
        Measured(
            max(composed, marginal),
            f"cuts=({x1}, {x2}) starts={phi} order={order}; composed {composed:.2e}, "
            f"last-cut marginal at theta_1=starts vs one cut {marginal:.2e} (relative)",
        )
    )
    return out


def check_kernel_marginal():
    """One-point function of the two-path determinantal kernel (corr_strip)
    against the quadrature marginal of the midpoint-start density
    (joint_pdf), both at the cut 0.9."""
    x, angles = 0.9, (0.7, 1.3, 2.9)
    rule = gauss_legendre(QUADRATURE_ORDERS["marginal"])
    pairs = np.stack(np.broadcast_arrays(np.array(angles)[:, None], rule.nodes), axis=-1)
    marginal = joint_pdf(None, ChamberSequence((x,)), [pairs]) @ rule.weights
    worst = max(abs(corr_strip(2, [x], [[th]]) - m) for th, m in zip(angles, marginal))
    return [Measured(worst, "angles 0.7, 1.3, 2.9")]


# --- closed forms and figure shapes ------------------------------------------------


def _closed_density(n, r, th):
    """Arc density in closed form, [N sin th - cos th cos(N th) sin(N th)
    + sin th sin^2(N th)] / (pi r sin th); a 0/0 form at th = 0 and pi."""
    s = math.sin(th)
    num = n * s - math.cos(th) * math.cos(n * th) * math.sin(n * th) + s * math.sin(n * th) ** 2
    return num / (math.pi * r * s)


def _closed_kernel(n, r, th, tp):
    """Equal-radius arc kernel in closed form (Christoffel-Darboux),
    [sin((N+1)th) sin(N tp) - sin(N th) sin((N+1)tp)] / (pi r (cos th - cos tp));
    a 0/0 form on the diagonal."""
    num = math.sin((n + 1) * th) * math.sin(n * tp) - math.sin(n * th) * math.sin((n + 1) * tp)
    return num / (math.pi * r * (math.cos(th) - math.cos(tp)))


def check_closed_density():
    """The arc density and the equal-radius kernel, both the exact finite
    sum of the strip kernel, against their closed forms away from the 0/0
    points, also at 200 paths relative to the value; and the exact
    three-path value 4/(pi r) on the imaginary axis."""
    angles = (0.4, 1.234, 2.8)
    worst = 0.0
    for n in (1, 3, 7):
        for th in angles:
            worst = max(worst, abs(density_semicircle(n, 2.0, th) - _closed_density(n, 2.0, th)))
            for tp in angles:
                if tp != th:
                    k = kernel_semicircle(n, 2.0, th, 2.0, tp).value
                    worst = max(worst, abs(k - _closed_kernel(n, 2.0, th, tp)))
    th = np.linspace(math.pi / 6, 5 * math.pi / 6, 1001)
    many = max(
        abs(d / _closed_density(200, 3.7, t) - 1.0)
        for t, d in zip(th, density_semicircle(200, 3.7, th))
    )
    axis = 0.0
    for r in (1.5, 2.0, 10.0):
        expect = 4.0 / (math.pi * r)
        axis = max(axis, abs(density_semicircle(3, r, math.pi / 2) - expect) / expect)
    return [
        Measured(worst, "paths in {1,3,7}, three angles and their pairs, radius 2"),
        Measured(many, "radius 3.7, 1001 angles over the middle two thirds of the arc"),
        Measured(axis, "radii 1.5, 2, 10 (relative error)"),
    ]


def check_figure_shapes():
    """Shape counts behind the figures: three density ridges for three
    paths, four repulsion peaks in the five-path two-point scan, and the
    two-point function near coincident angles against its cancellation-free
    form."""
    th = np.linspace(0.0, math.pi, 4001)
    rho = density_semicircle(3, 2.0, th)
    inner = rho[1:-1]
    ridges = int(np.sum((inner > rho[:-2]) & (inner > rho[2:])))

    g2 = two_point_semicircle(5, 4.0, math.pi / 2, 4.0, th).value
    inner = g2[1:-1]
    peaks = int(np.sum((inner > g2[:-2]) & (inner > g2[2:])))

    # near coincidence rho rho' - K^2 cancels to 1.5e-7; Lagrange's identity
    # gives it without cancellation, (2/(pi r))^2 sum_{m<n} (a_m b_n - a_n b_m)^2
    # with a_k = sin k theta, b_k = sin k theta'.  The route's rounding is
    # within 16 u (rho rho' + K^2)
    c = 2.0 / (math.pi * 4.0)
    a = [math.sin(k * math.pi / 2) for k in range(1, 6)]
    near, tol = 0.0, math.inf
    for s in (1.0, -1.0):
        tp = math.pi / 2 + s * 1e-4 * math.pi
        b = [math.sin(k * tp) for k in range(1, 6)]
        pairs = ((a[m] * b[n] - a[n] * b[m]) ** 2 for n in range(5) for m in range(n))
        exact = c * c * math.fsum(pairs)
        aa, bb, ab = (math.fsum(x * y for x, y in zip(u, v)) for u, v in ((a, a), (b, b), (a, b)))
        g2 = two_point_semicircle(5, 4.0, math.pi / 2, 4.0, tp).value
        near = max(near, abs(g2 - exact))
        tol = min(tol, 16 * UNIT_ROUNDOFF * c * c * (aa * bb + ab * ab))
    return [
        Measured(ridges, "4001-point angle scan"),
        Measured(peaks, "radius 4, probe at the top of the arc"),
        Measured(
            near,
            "five paths, radius 4, angle offset 1e-4*pi both ways, "
            "vs Lagrange's identity within 16 u (rho rho' + K^2)",
            tol,
        ),
    ]


def _limit_kernel_quadrature(u, a, u_prime, a_prime, rule, t_max=None):
    """The limit kernel's defining integral by the composite rule that
    repeats `rule` (on (0, 1)) over unit panels, independent of its closed
    form.

    For u > u' the range (1, inf) stops at t_max, by default the first
    integer T >= 2 whose tail bound e^{-cT}/c (c = u - u' and
    |integrand| <= e^{-cs}) is at most LIMIT_TAIL.  Returns (value, bound),
    the bound being that tail in units of the value (times 2/pi); 0 for
    u < u', whose range is (0, 1).
    """
    c = u - u_prime
    if c < 0.0:
        lo, hi, scale = 0, 1, 2.0 / math.pi
    else:
        if t_max is None:
            t_max = max(2, math.ceil(math.log(1.0 / (LIMIT_TAIL * c)) / c))
        lo, hi, scale = 1, int(t_max), -2.0 / math.pi
    s = (np.arange(lo, hi)[:, None] + rule.nodes).ravel()
    w = np.tile(rule.weights, hi - lo)
    value = scale * float(w @ (np.exp(-c * s) * np.sin(a * s) * np.sin(a_prime * s)))
    bound = 0.0 if c < 0.0 else 2.0 / math.pi * math.exp(-c * hi) / c
    return value, bound


def _scaling_sample():
    """(u, a, u', a') at the first 10 points of the R_4 sequence outside the
    limit kernel's excluded band |u - u'| < 0.05."""
    kept = []
    for t in _rd_points(4):
        u, up = _span(t[0], -2.0, 3.0), _span(t[1], -2.0, 3.0)
        if abs(u - up) >= 0.05:
            kept.append((u, _span(t[2], 0.0, 5.0), up, _span(t[3], 0.0, 5.0)))
        if len(kept) == 10:
            return kept


def check_scaling_limit():
    """Edge scaling: the 500-path kernel at radius N+u, angle a/N against
    the closed-form limit kernel, and the limit kernel against direct
    quadrature of its defining integral."""
    big = 500
    worst = 0.0
    for u, up, a, ap in [(0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 2.0), (-1.0, 2.0, 2.0, 1.0)]:
        scaled = kernel_semicircle(big, big + u, a / big, big + up, ap / big).value
        worst = max(worst, abs(scaled - limit_kernel(u, a, up, ap)))

    order = QUADRATURE_ORDERS["limit_panel"]
    rule = gauss_legendre(order, 0.0, 1.0)
    quad_err, tail = 0.0, 0.0
    for point in _scaling_sample():
        ref, bound = _limit_kernel_quadrature(*point, rule)
        quad_err = max(quad_err, abs(limit_kernel(*point) - ref))
        tail = max(tail, bound)
    return [
        Measured(worst, "three scaled evaluation points"),
        Measured(
            quad_err,
            f"10 points of the R_4 sequence, {order}-node unit panels, tail bound {tail:.2e}",
        ),
    ]


def _conformal_sample():
    """(x, theta, phi) at 50 points of the R_3 sequence."""
    for t in itertools.islice(_rd_points(3), 50):
        yield (_span(t[0], 0.05, 2.0), *(_span(s, 0.05, math.pi - 0.05) for s in t[1:]))


def check_conformal():
    """Conformal covariance: poisson_rect read off the right edge of a long
    rectangle, the half-strip Poisson kernel (2/pi) sum_n e^{-nx} sin(n theta)
    sin(n phi) up to a gap, against the half-plane Poisson kernel
    Im w sin(phi) / (pi |w - cos phi|^2) pulled back through w = cosh z.
    A point's tolerance is the series' tail bound, plus that gap (2/pi)
    sum_n e^{-n(2L - x)} / (1 - e^{-2nL}), plus 64 unit roundoffs of the
    closed form and of the absolute series (2/pi) q / (1 - q), q = e^{-x}.
    The record is the worst ratio of error to tolerance."""
    length, worst = 30.0, (0.0, 0.0, 0.0)
    for x, th, phi in _conformal_sample():
        series = poisson_rect(RectConfig(length), length - x, th, phi)
        w = complex(math.cosh(x) * math.cos(th), math.sinh(x) * math.sin(th))
        closed = w.imag * math.sin(phi) / (math.pi * abs(w - math.cos(phi)) ** 2)
        q, far = math.exp(-x), math.exp(x - 2.0 * length)
        gap = 2.0 / math.pi * far / ((1.0 - far) * -math.expm1(-2.0 * length))
        rounding = 64 * UNIT_ROUNDOFF * (2.0 / math.pi * q / (1.0 - q) + abs(closed))
        err, tol = abs(series.value - closed), series.bound + gap + rounding
        worst = max(worst, (err / tol, err, tol))
    ratio, err, tol = worst
    return [
        Measured(
            ratio,
            f"50 points of the R_3 sequence, length {length:g}; worst error {err:.2e} against "
            f"its tolerance {tol:.2e} (measured = worst error / tolerance)",
        )
    ]


# --- lattice refinement -----------------------------------------------------------


def _ratio_rows(rows, errs):
    return "; ".join(f"h={h:.5f} err={err:.3e}" for (h, _), err in zip(rows, errs))


def check_lattice_refinement():
    """Random-walk boundary kernel and two-path first-passage density on
    square strips: errors against the continuum must fall strictly at
    every halving of the mesh."""
    rows = boundary_refinement()
    per_point = np.array([errs for _, errs in rows])
    boundary = Measured(
        (per_point[1:] / per_point[:-1]).max(),
        _ratio_rows(rows, per_point.max(axis=1)) + " (max over 5 points; measured = worst ratio)",
    )
    rows = density_refinement()
    errs = np.array([err for _, err in rows])
    density = Measured(
        (errs[1:] / errs[:-1]).max(), _ratio_rows(rows, errs) + " (measured = worst ratio)"
    )
    return [boundary, density]


# --- records and suites -----------------------------------------------------------


class Record(NamedTuple):
    """One validate record, declared once.

    `check` measures it; `tolerance` is None where the check computes it;
    `rule(measured, tolerance)` is the pass rule.  `route` is the
    production route the record checks, as `module.attribute` of lebp, and
    scaling that route's value by 1 + `eps` must fail the record; `eps` is
    None where no scaling of the route fails it yet.
    """

    name: str
    check: Callable
    tolerance: float | None
    route: str
    eps: float | None
    rule: Callable = operator.le


# every record, in report order within each check
RECORDS = (
    Record("walk determinant vs brute force, 3x3 grid, two paths", check_fomin_identity,
           None, "graph_fomin.fomin_det", 1e-6),
    Record("interior kernel composition across a cut", check_semigroup,
           1e-10, "rect_kernels.poisson_rect", 1e-6),
    # scaling boundary_poisson_rect cannot fail this one: it scales both sides
    Record("edge-start kernel composition across a cut", check_semigroup,
           1e-10, "rect_kernels.poisson_rect", 1e-6),
    Record("backward kernel: tail sum vs finite-sum rearrangement", check_kernel_dual,
           1e-10, "correlation.kernel_strip", 1e-6),
    Record("crossing exponent fit, 2 paths", check_crossing_exponent,
           0.01, "rect_kernels.crossing_exponent_fit", None),
    Record("crossing exponent fit, 3 paths", check_crossing_exponent,
           0.01, "rect_kernels.crossing_exponent_fit", None),
    Record("two-path density mass, finite rectangle", check_normalization,
           1e-12, "passage_densities.joint_pdf", 1e-6),
    Record("midpoint-start density mass, 2 paths", check_normalization,
           1e-12, "passage_densities.joint_pdf", 1e-6),
    Record("midpoint-start density mass, 3 paths", check_normalization,
           1e-12, "passage_densities.joint_pdf", 1e-6),
    Record("two-cut two-path joint mass, finite rectangle", check_normalization,
           1e-12, "rect_kernels.poisson_rect", 1e-6),
    Record("two-path one-point function vs density marginal", check_kernel_marginal,
           1e-8, "passage_densities.joint_pdf", 1e-6),
    Record("arc density and equal-radius kernel vs closed forms", check_closed_density,
           1e-13, "correlation.density_semicircle", 1e-6),
    Record("200-path arc density vs closed form (relative)", check_closed_density,
           1e-13, "correlation.density_semicircle", 1e-6),
    Record("three-path density on the imaginary axis vs 4/(pi r)", check_closed_density,
           1e-14, "correlation.density_semicircle", 1e-6),
    Record("three-path density ridge count", check_figure_shapes,
           3, "correlation.density_semicircle", None, operator.eq),
    Record("five-path two-point repulsion peak count", check_figure_shapes,
           4, "correlation.two_point_semicircle", None, operator.eq),
    Record("two-point function vanishes at coincident angles", check_figure_shapes,
           None, "correlation.two_point_semicircle", 1e-6),
    Record("500-path kernel vs limit kernel", check_scaling_limit,
           1e-2, "correlation.kernel_semicircle", None),
    Record("limit kernel closed form vs quadrature", check_scaling_limit,
           1e-10, "correlation.limit_kernel", 1e-6),
    Record("rectangle kernel vs half-plane kernel under w = cosh z", check_conformal,
           1.0, "rect_kernels.poisson_rect", 1e-8),
    Record("boundary kernel error falls at every refinement", check_lattice_refinement,
           1.0, "rect_kernels.boundary_poisson_rect", None, operator.lt),
    Record("two-path density error falls at every refinement", check_lattice_refinement,
           1.0, "passage_densities.joint_pdf", None, operator.lt),
)


SUITES = {
    "fomin": (check_fomin_identity,),
    "semigroup": (check_semigroup, check_kernel_dual),
    "normalization": (check_normalization, check_kernel_marginal),
    "crossing": (check_crossing_exponent,),
    "limits": (
        check_closed_density,
        check_figure_shapes,
        check_scaling_limit,
        check_conformal,
    ),
    "lattice": (check_lattice_refinement,),
}


def run_check(check):
    """Run one check and pair what it measured with its RECORDS, in table
    order: the CheckResult list, every record with its elapsed time set."""
    start = time.perf_counter()
    measured = check()
    elapsed = time.perf_counter() - start
    results = []
    for record, m in zip([r for r in RECORDS if r.check is check], measured, strict=True):
        value = float(m.value)
        tol = float(m.tolerance if record.tolerance is None else record.tolerance)
        passed = record.rule(value, tol)
        spent = elapsed if m.elapsed is None else m.elapsed
        results.append(CheckResult(record.name, value, tol, passed, m.detail, spent))
    return results


def run_suite(name):
    """Run one named suite and return its CheckResult list."""
    if name not in SUITES:
        raise DomainError(
            "unknown suite %r; choose from %s" % (name, ", ".join(sorted(SUITES)))
        )
    return [r for check in SUITES[name] for r in run_check(check)]


def suite_report(name):
    """Machine-readable report for one suite: dict with per-check rows and
    an overall flag."""
    results = run_suite(name)
    return {
        "suite": name,
        "passed": all(r.passed for r in results),
        "checks": [r._asdict() for r in results],
    }
