"""End-to-end cross-checks pairing every headline quantity with an
independent route: walk determinants against brute-force enumeration,
kernel composition under quadrature, crossing-exponent fits, density
normalizations, closed forms against series, lattice refinement against
the continuum, and the conformal strip/semicircle identity.

Each check returns `CheckResult` records carrying the measured error and
the tolerance it must meet; `run_suite` groups the checks into the named
suites exposed by the command line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
from .graph_fomin import brute_force_fomin, fomin_det, square_grid_network
from .lattice_validation import boundary_refinement, density_refinement
from .numerics import DEFAULT_POLICY, chamber_integrate, gauss_legendre
from .passage_densities import norm_boundary, norm_inner
from .rect_kernels import (
    CROSSING_CASES,
    RectConfig,
    boundary_poisson_rect,
    crossing_decay_rate,
    crossing_exponent_fit,
    fomin_boundary_det,
    hat_h,
    poisson_rect,
)

# orders of the fixed Gauss-Legendre rules the checks integrate with; the
# command line records this table in every validate manifest
QUADRATURE_ORDERS = {
    "composition": 200,
    "marginal": 200,
    "rectangle_mass": 64,
    "midpoint_mass": 120,
    "joint_mass": 48,
}


@dataclass
class CheckResult:
    """One measured quantity next to the tolerance it must meet.

    `elapsed` is the wall time in seconds of the computation the check
    times for this quantity, or None where the check does not time it.
    """

    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""
    elapsed: float | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed": self.elapsed,
        }


def _within(name, measured, tolerance, detail="", elapsed=None):
    measured = float(measured)
    return CheckResult(name, measured, float(tolerance), measured <= tolerance, detail, elapsed)


def _count(name, got, expected, detail=""):
    return CheckResult(name, float(got), float(expected), got == expected, detail)


# --- walk determinants ---------------------------------------------------------


def check_fomin_identity(pol=DEFAULT_POLICY):
    """Two-path walk determinant on the 3x3 grid against truncated
    brute-force enumeration; must agree within the enumeration's own
    certified tail bound."""
    del pol  # exact rational walk sums; no series policy involved
    net, id_of = square_grid_network(3, 3)
    a = (id_of[(0, -1)], id_of[(2, -1)])
    b = (id_of[(0, 3)], id_of[(2, 3)])
    start = time.perf_counter()
    det = fomin_det(net, (a, b))
    brute, bound = brute_force_fomin(net, (a, b), 14)
    elapsed = time.perf_counter() - start
    diff = abs(det - brute)
    return [
        _within(
            "walk determinant vs brute force, 3x3 grid, two paths",
            diff,
            bound,
            f"determinant={det:.9e} enumeration={brute:.9e} tail_bound={bound:.3e}",
            elapsed,
        )
    ]


# --- kernel composition ----------------------------------------------------------


def _semigroup_sample(seed=7, count=10):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        length = rng.uniform(1.5, 3.0)
        x_mid = rng.uniform(0.4, length - 0.4)
        x = rng.uniform(0.1, x_mid - 0.1)
        th, rho, phi = rng.uniform(0.1, math.pi - 0.1, 3)
        out.append((length, x_mid, x, th, rho, phi))
    return out


def check_semigroup(pol=DEFAULT_POLICY):
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
        second = poisson_rect(cfg, pol, x_mid, nodes, rho).value
        lhs = poisson_rect(cfg, pol, x, th, rho).value
        rhs = weights @ (poisson_rect(mid, pol, x, th, nodes).value * second)
        t_int += time.perf_counter() - start
        err_int = max(err_int, abs(lhs - rhs))
        start = time.perf_counter()
        lhs_b = boundary_poisson_rect(cfg, pol, phi, rho).value
        rhs_b = weights @ (boundary_poisson_rect(mid, pol, phi, nodes).value * second)
        t_bdy += time.perf_counter() - start
        err_bdy = max(err_bdy, abs(lhs_b - rhs_b))
    return [
        _within(
            "interior kernel composition across a cut",
            err_int,
            1e-10,
            f"10-point sample, {order}-node quadrature",
            t_int,
        ),
        _within(
            "edge-start kernel composition across a cut",
            err_bdy,
            1e-10,
            f"10-point sample, {order}-node quadrature",
            t_bdy,
        ),
    ]


def check_kernel_dual(pol=DEFAULT_POLICY):
    """Backward-cut correlation kernel: certified tail sum against the
    (finite sum - interior kernel) rearrangement."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        x_prime = rng.uniform(0.2, 2.0)
        x = x_prime + rng.uniform(0.1, 1.5)
        th, tp = rng.uniform(0.05, math.pi - 0.05, 2)
        n = int(rng.integers(1, 6))
        a = kernel_strip(pol, n, x, th, x_prime, tp).value
        b = kernel_strip_dual(pol, n, x, th, x_prime, tp).value
        worst = max(worst, abs(a - b))
    return [
        _within(
            "backward kernel: tail sum vs finite-sum rearrangement",
            worst,
            1e-10,
            "20-point sample with cut separation >= 0.1",
        )
    ]


# --- crossing exponent ---------------------------------------------------------


def check_crossing_exponent(pol=DEFAULT_POLICY):
    """Least-squares slope of the log nonintersection ratio over rectangle
    lengths 6, 8, 10, 12 against the exact decay rate n(n-1)/2."""
    del pol  # partition expansions only; no series policy involved
    out = []
    for n, (phi, rho) in CROSSING_CASES.items():
        _, slope = crossing_exponent_fit(phi, rho, (6.0, 8.0, 10.0, 12.0))
        target = float(crossing_decay_rate(n))
        rel = abs(slope - target) / target
        out.append(
            _within(
                f"crossing exponent fit, {n} paths",
                rel,
                0.01,
                f"fitted={slope:.8f} expected={target:g} (relative error)",
            )
        )
    return out


# --- normalizations --------------------------------------------------------------


def check_normalization(pol=DEFAULT_POLICY):
    """Total mass one: the two-path density in a finite rectangle, the
    midpoint-start densities for two and three paths, and the two-cut
    two-path joint density."""
    out = []

    length, x, phi = 2.0, 0.8, (0.9, 2.1)
    cfg = RectConfig(length)
    order = QUADRATURE_ORDERS["rectangle_mass"]
    rule = gauss_legendre(order)
    w = rule.weights
    grid = np.stack(np.meshgrid(rule.nodes, rule.nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), pol, phi, grid)
    ni = norm_inner(cfg, pol, x, grid)
    mass = float(np.einsum("i,j,ij->", w, w, fb * ni)) / (
        2.0 * norm_boundary(cfg, pol, phi)
    )
    out.append(
        _within(
            "two-path density mass, finite rectangle",
            abs(mass - 1.0),
            1e-6,
            f"length={length} cut={x} starts={phi} order={order}",
        )
    )

    order = QUADRATURE_ORDERS["midpoint_mass"]
    rule = gauss_legendre(order)
    for n in (2, 3):
        scale = 2.0 ** (n * n) / math.pi**n

        def integrand(pts, scale=scale):
            return scale * hat_h(pts) ** 2

        mass = chamber_integrate(integrand, rule, n)
        out.append(
            _within(
                f"midpoint-start density mass, {n} paths",
                abs(mass - 1.0),
                1e-8,
                f"order={order} chamber quadrature",
            )
        )

    length, x1, x2, phi = 2.0, 0.7, 1.2, (0.9, 2.0)
    cfg = RectConfig(length)
    order = QUADRATURE_ORDERS["joint_mass"]
    rule = gauss_legendre(order)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    first = fomin_boundary_det(RectConfig(x1), pol, phi, grid) * np.outer(w, w)
    last = norm_inner(cfg, pol, x2, grid) * np.outer(w, w)
    step = poisson_rect(RectConfig(x2), pol, x1, nodes[:, None], nodes[None, :]).value
    t1 = np.einsum("ab,ac,bd,cd->", first, step, step, last, optimize=True)
    t2 = np.einsum("ab,ad,bc,cd->", first, step, step, last, optimize=True)
    mass = (t1 - t2) / 4.0 / norm_boundary(cfg, pol, phi)
    out.append(
        _within(
            "two-cut two-path joint mass, finite rectangle",
            abs(mass - 1.0),
            1e-4,
            f"cuts=({x1}, {x2}) starts={phi} order={order}",
        )
    )
    return out


def check_kernel_marginal(pol=DEFAULT_POLICY):
    """One-point function of the two-path determinantal kernel against the
    direct quadrature marginal of the midpoint-start density."""
    rule = gauss_legendre(QUADRATURE_ORDERS["marginal"])
    worst = 0.0
    for th in (0.7, 1.3, 2.9):
        hh = math.sin(th) * np.sin(rule.nodes) * (np.cos(rule.nodes) - math.cos(th))
        marginal = 16.0 / math.pi**2 * (rule.weights @ hh**2)
        one_point = corr_strip(pol, 2, [0.9], [[th]])
        worst = max(worst, abs(one_point - marginal))
    return [
        _within(
            "two-path one-point function vs density marginal",
            worst,
            1e-8,
            "angles 0.7, 1.3, 2.9",
        )
    ]


# --- closed forms and figure shapes ------------------------------------------------


def check_closed_density(pol=DEFAULT_POLICY):
    """Closed-form arc density against the kernel diagonal, and the exact
    three-path value 4/(pi r) on the imaginary axis."""
    worst = 0.0
    for n in (1, 3, 7):
        for th in (0.4, 1.234, 2.8):
            a = density_semicircle(n, 2.0, th)
            b = kernel_semicircle(pol, n, 2.0, th, 2.0, th).value
            worst = max(worst, abs(a - b))
    axis = 0.0
    for r in (1.5, 2.0, 10.0):
        expect = 4.0 / (math.pi * r)
        axis = max(axis, abs(density_semicircle(3, r, math.pi / 2) - expect) / expect)
    return [
        _within(
            "arc density vs kernel diagonal",
            worst,
            1e-10,
            "paths in {1,3,7}, three angles, radius 2",
        ),
        _within(
            "three-path density on the imaginary axis vs 4/(pi r)",
            axis,
            1e-14,
            "radii 1.5, 2, 10 (relative error)",
        ),
    ]


def check_figure_shapes(pol=DEFAULT_POLICY):
    """Shape counts behind the figures: three density ridges for three
    paths, four repulsion peaks in the five-path two-point scan, and the
    two-point function vanishing at coincident angles."""
    th = np.linspace(0.0, math.pi, 4001)
    rho = density_semicircle(3, 2.0, th)
    inner = rho[1:-1]
    ridges = int(np.sum((inner > rho[:-2]) & (inner > rho[2:])))

    g2 = two_point_semicircle(pol, 5, 4.0, math.pi / 2, 4.0, th).value
    inner = g2[1:-1]
    peaks = int(np.sum((inner > g2[:-2]) & (inner > g2[2:])))

    near = max(
        abs(
            two_point_semicircle(
                pol, 5, 4.0, math.pi / 2, 4.0, math.pi / 2 + sign * 1e-4 * math.pi
            ).value
        )
        for sign in (1.0, -1.0)
    )
    return [
        _count("three-path density ridge count", ridges, 3, "4001-point angle scan"),
        _count(
            "five-path two-point repulsion peak count",
            peaks,
            4,
            "radius 4, probe at the top of the arc",
        ),
        _within(
            "two-point function vanishes at coincident angles",
            near,
            1e-6,
            "five paths, angle offset 1e-4*pi both ways",
        ),
    ]


def check_uniform_density(pol=DEFAULT_POLICY):
    """Many-path flatness: pi*r*density/N within 2% of one away from the
    arc endpoints."""
    del pol
    th = np.linspace(math.pi / 6, 5 * math.pi / 6, 1001)
    rho = density_semicircle(200, 3.7, th)
    dev = float(np.max(np.abs(math.pi * 3.7 * rho / 200.0 - 1.0)))
    return [
        _within(
            "many-path density flatness",
            dev,
            0.02,
            "200 paths, radius 3.7, middle two thirds of the arc",
        )
    ]


def check_scaling_limit(pol=DEFAULT_POLICY):
    """Edge scaling: the 500-path kernel at radius N+u, angle a/N against
    the closed-form limit kernel, and the limit kernel against direct
    quadrature of its defining integral."""
    # the independent quadrature oracle, imported here so that only this
    # check loads scipy
    from scipy.integrate import quad

    big = 500
    worst = 0.0
    for u, up, a, ap in [(0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 2.0), (-1.0, 2.0, 2.0, 1.0)]:
        scaled = kernel_semicircle(pol, big, big + u, a / big, big + up, ap / big).value
        worst = max(worst, abs(scaled - limit_kernel(u, a, up, ap)))

    rng = np.random.default_rng(3)
    quad_err = 0.0
    for _ in range(10):
        u, up = rng.uniform(-2.0, 3.0, 2)
        if abs(u - up) < 0.05:
            continue
        a, ap = rng.uniform(0.0, 5.0, 2)
        c = u - up
        if c < 0:
            ref = 2.0 / math.pi * quad(
                lambda s: math.exp(-c * s) * math.sin(a * s) * math.sin(ap * s), 0.0, 1.0
            )[0]
        else:
            ref = -2.0 / math.pi * quad(
                lambda s: math.exp(-c * s) * math.sin(a * s) * math.sin(ap * s),
                1.0,
                np.inf,
            )[0]
        quad_err = max(quad_err, abs(limit_kernel(u, a, up, ap) - ref))
    return [
        _within(
            "500-path kernel vs limit kernel",
            worst,
            1e-2,
            "three scaled evaluation points",
        ),
        _within(
            "limit kernel closed form vs quadrature",
            quad_err,
            1e-10,
            "10-point random sample",
        ),
    ]


def check_conformal(pol=DEFAULT_POLICY):
    """Semicircle kernel against the strip kernel carried through the
    exponential map with its derivative factor."""
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 50:
        r, rp = np.exp(rng.uniform(0.05, 2.0, 2))
        if abs(math.log(r) - math.log(rp)) < pol.min_gap:
            continue
        th, tp = rng.uniform(0.05, math.pi - 0.05, 2)
        n = int(rng.integers(1, 6))
        a = kernel_semicircle(pol, n, r, th, rp, tp).value
        b = kernel_strip(pol, n, math.log(r), th, math.log(rp), tp).value / r
        worst = max(worst, abs(a - b))
        checked += 1
    return [
        _within(
            "semicircle kernel vs mapped strip kernel",
            worst,
            1e-12,
            "50-point random sample",
        )
    ]


# --- lattice refinement -----------------------------------------------------------


def _ratio_rows(rows, errs):
    parts = []
    for (h, _), err in zip(rows, errs):
        parts.append(f"h={h:.5f} err={err:.3e}")
    return "; ".join(parts)


def check_lattice_refinement(pol=DEFAULT_POLICY):
    """Random-walk boundary kernel and two-path first-passage density on
    square strips: errors against the continuum must fall strictly at
    every halving of the mesh."""
    rows = boundary_refinement(pol)
    per_point = np.array([errs for _, errs in rows])
    ratios = per_point[1:] / per_point[:-1]
    worst_ratio = float(ratios.max())
    maxerr = per_point.max(axis=1)
    boundary = CheckResult(
        "boundary kernel error falls at every refinement",
        worst_ratio,
        1.0,
        bool(np.all(ratios < 1.0)),
        _ratio_rows(rows, maxerr) + " (max over 5 points; measured = worst ratio)",
    )

    rows = density_refinement(pol)
    errs = np.array([err for _, err in rows])
    ratios = errs[1:] / errs[:-1]
    density = CheckResult(
        "two-path density error falls at every refinement",
        float(ratios.max()),
        1.0,
        bool(np.all(ratios < 1.0)),
        _ratio_rows(rows, errs) + " (measured = worst ratio)",
    )
    return [boundary, density]


# --- suites ---------------------------------------------------------------------


SUITES = {
    "fomin": (check_fomin_identity,),
    "semigroup": (check_semigroup, check_kernel_dual),
    "normalization": (check_normalization, check_kernel_marginal),
    "crossing": (check_crossing_exponent,),
    "limits": (
        check_closed_density,
        check_figure_shapes,
        check_uniform_density,
        check_scaling_limit,
        check_conformal,
    ),
    "lattice": (check_lattice_refinement,),
}


def run_suite(name, pol=DEFAULT_POLICY):
    """Run one named suite and return its CheckResult list."""
    if name not in SUITES:
        raise DomainError(
            "unknown suite %r; choose from %s" % (name, ", ".join(sorted(SUITES)))
        )
    results = []
    for fn in SUITES[name]:
        results.extend(fn(pol))
    return results


def suite_report(name, pol=DEFAULT_POLICY):
    """Machine-readable report for one suite: dict with per-check rows and
    an overall flag."""
    results = run_suite(name, pol)
    return {
        "suite": name,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
