import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from lebp.errors import DomainError, PrecisionError, TruncationError
from lebp import rect_kernels
from lebp.numerics import gauss_legendre
from lebp.passage_densities import (
    ChamberSequence,
    _chamber_norm,
    _norm_series,
    _sine_sign_kernel,
    joint_pdf,
    norm_boundary,
    norm_inner,
    ordered_sine_det_integral,
)
from lebp.rect_kernels import (
    RectConfig,
    boundary_poisson_rect,
    fomin_boundary_det,
    fomin_inner_det,
    hat_h,
    poisson_rect,
)
from oracles import pdf_special_start

def _one_cut(cfg, x, theta, phi):
    # the first-passage density on the single cut x (cfg None: infinite strip)
    return joint_pdf(cfg, ChamberSequence((x,)), [theta], phi)


def _strip_weight(x, n):
    # prod_{j=1..N} sinh(j x) / N!, the infinite-strip norm over hat_h
    return math.prod(math.sinh(j * x) for j in range(1, n + 1)) / math.factorial(n)


# --- references -------------------------------------------------------------


def _single_sine_integral(n):
    # int_0^pi sin(n t) dt
    return (1 - (-1) ** n) / n


def _pair_lower_integral(n, m):
    # int_0^pi sin(n t) * [int_0^t sin(m s) ds] dt, by product-to-sum
    if n == m:
        cross = 0.0
    else:
        cross = (1 - (-1) ** (n + m)) * n / (n * n - m * m)
    return (_single_sine_integral(n) - cross) / m


@lru_cache(maxsize=None)
def chamber_points(order, n):
    """Ordered-chamber quadrature by nested linear maps: (P, n) points, (P,) weights,
    built once per (order, n) and returned read-only."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    pts = [([], 1.0, 0.0)]
    for _ in range(n):
        nxt = []
        for prefix, w, lo in pts:
            t = 0.5 * (math.pi - lo) * xs + 0.5 * (math.pi + lo)
            wt = 0.5 * (math.pi - lo) * ws
            for ti, wi in zip(t, wt):
                nxt.append((prefix + [ti], w * wi, ti))
        pts = nxt
    arr = np.array([p for p, _, _ in pts])
    wts = np.array([w for _, w, _ in pts])
    arr.setflags(write=False)
    wts.setflags(write=False)
    return arr, wts


# --- ordered sine-determinant integrals --------------------------------------


def test_sine_sign_kernel_matches_pair_integrals():
    # S[m, n] = 2 * (ordered pair integral) - (product of single integrals)
    for m in range(1, 9):
        for n in range(1, 9):
            ref = 2.0 * _pair_lower_integral(n, m) - _single_sine_integral(
                m
            ) * _single_sine_integral(n)
            assert _sine_sign_kernel(m, n) == pytest.approx(ref, abs=1e-14)


def test_ordered_integral_frozen_rationals():
    # values derived by running the same recurrence in exact rational arithmetic
    cases = {
        (1,): Fraction(2),
        (2,): Fraction(0),
        (5,): Fraction(2, 5),
        (1, 2): Fraction(-8, 3),
        (2, 5): Fraction(-16, 210),
        (1, 2, 3): Fraction(-128, 45),
        (2, 3, 7): Fraction(-128, 945),
    }
    for tup, frac in cases.items():
        assert ordered_sine_det_integral(tup) == pytest.approx(float(frac), rel=1e-13)


def test_ordered_integral_reflection_parity():
    # reflecting the chamber through t -> pi - t flips the sign by
    # sum(freqs) + N + N(N-1)/2; the integral vanishes when that is odd
    import itertools

    for n in (1, 2, 3):
        for tup in itertools.combinations(range(1, 8), n):
            parity = (sum(tup) + n + n * (n - 1) // 2) % 2
            val = ordered_sine_det_integral(tup)
            if parity:
                assert val == pytest.approx(0.0, abs=1e-14)


def test_ordered_integral_matches_simplex_quadrature():
    for tup in [(2, 5), (1, 4), (3, 7), (1, 2, 3), (1, 3, 4), (2, 3, 7)]:
        pts, wts = chamber_points(48, len(tup))
        mats = np.sin(np.asarray(tup, float)[:, None, None] * pts[None, :, :])
        dets = np.linalg.det(np.swapaxes(mats, 0, 1))
        ref = float(dets @ wts)
        assert ordered_sine_det_integral(tup) == pytest.approx(ref, abs=2e-13)


# --- chamber norms -----------------------------------------------------------


def test_norm_frozen_high_precision_values():
    # 30-digit references from an exact-rational version of the chamber
    # integrals combined with a 40-digit evaluation of the series
    nb = norm_boundary(RectConfig(2.0), [0.9, 2.1])
    assert nb == pytest.approx(0.0328334204323592209747022822839, rel=5e-15)
    ni = norm_inner(RectConfig(2.0), 0.8, [0.9, 2.1])
    assert ni == pytest.approx(0.0339327867123395464593390468185, rel=5e-15)


def _norm_boundary_quad(L, phi, order):
    cfg = RectConfig(L)
    n = len(phi)
    rho, w = chamber_points(order, n)
    ent = boundary_poisson_rect(cfg, np.asarray(phi)[:, None, None], rho[None, :, :]).value
    vals = np.linalg.det(np.swapaxes(ent, 0, 1))
    return float(vals @ w)


def _norm_inner_quad(L, x, theta, order):
    cfg = RectConfig(L)
    rho, w = chamber_points(order, len(theta))
    ent = poisson_rect(cfg, x, np.asarray(theta)[:, None, None], rho[None, :, :]).value
    vals = np.linalg.det(np.swapaxes(ent, 0, 1))
    return float(vals @ w)


def test_norm_boundary_matches_chamber_quadrature():
    for L, phi in [(2.0, [1.0]), (2.0, [0.9, 2.1]), (3.0, [0.7, 1.5, 2.5])]:
        mine = norm_boundary(RectConfig(L), phi)
        ref = _norm_boundary_quad(L, phi, 48)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_norm_inner_matches_chamber_quadrature():
    for L, x, theta in [
        (2.0, 1.0, [1.3]),
        (2.0, 0.8, [0.9, 2.1]),
        (3.0, 1.5, [0.7, 1.5, 2.5]),
        (1.5, 0.4, [1.1, 1.9]),
    ]:
        mine = norm_inner(RectConfig(L), x, theta)
        ref = _norm_inner_quad(L, x, theta, 48)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_norm_series_tail_bound_is_honest(monkeypatch):
    # the certified bound covers the truncation error of the default run
    # (against a run at target 1e-22), and of every shorter truncation, whose
    # bound the budget error reports.
    def at_targets(target, n_max, *args):
        with monkeypatch.context() as m:
            m.setattr(rect_kernels, "SERIES_TOL", target)
            m.setattr(rect_kernels, "N_MAX", n_max)
            return _norm_series(*args)

    for kind, L, x, theta in [
        ("boundary", 2.0, 0.0, [0.9, 2.1]),
        ("inner", 2.0, 0.8, [0.9, 2.1]),
        ("inner", 3.0, 1.5, [0.7, 1.5, 2.5]),
    ]:
        n = len(theta)
        full, _ = at_targets(1e-22, rect_kernels.N_MAX, x, L, n)
        exact = _chamber_norm(full, theta)
        coefs, bound = _norm_series(x, L, n)
        assert coefs.size < full.size
        assert abs(_chamber_norm(coefs, theta) - exact) <= bound
        for m_max in range(n, coefs.size // 2 + 1, 2):
            with pytest.raises(TruncationError) as exc:
                at_targets(rect_kernels.SERIES_TOL, m_max, x, L, n)
            assert abs(_chamber_norm(full[:m_max], theta) - exact) <= exc.value.achieved


def test_norm_series_reads_the_target_in_force(monkeypatch):
    # every call truncates at the targets set when it runs, not at those of
    # an earlier call with the same (x, L, n).  An interior norm's leading
    # term is below 1e3, so its target is lead * 1e-15 unless SERIES_TOL is
    # set tighter than that.
    x, L, theta = 0.8, 2.0, [0.9, 2.1]
    norm_inner(RectConfig(L), x, theta)
    default, _ = _norm_series(x, L, len(theta))
    monkeypatch.setattr(rect_kernels, "SERIES_TOL", 1e-22)
    tight, _ = _norm_series(x, L, len(theta))
    assert tight.size > default.size


def _exact_single(k):
    return Fraction(1 - (-1) ** k, k)


def _exact_sine_sign(m, n):
    # S[m, n] = 2 * (ordered pair integral) - (product of single integrals)
    cross = 0 if m == n else Fraction((1 - (-1) ** (n + m)) * n, n * n - m * m)
    return 2 * (_exact_single(n) - cross) / m - _exact_single(m) * _exact_single(n)


def _expanded_pfaffian(a):
    # expansion along the first row
    if not a:
        return 1
    total = 0
    for j in range(1, len(a)):
        keep = [k for k in range(1, len(a)) if k != j]
        minor = [[a[r][c] for c in keep] for r in keep]
        total += (-1) ** (j - 1) * a[0][j] * _expanded_pfaffian(minor)
    return total


def _mp_chamber_norm(mp, coef, angles, size=60):
    """Plain Pf(Phi^T S Phi), bordered for odd N, in the working precision."""

    def frac(x):
        return mp.mpf(x.numerator) / x.denominator

    freqs = range(1, size + 1)
    phi = mp.matrix([[coef(m) * mp.sin(m * mp.mpf(a)) for a in angles] for m in freqs])
    sign = mp.matrix([[frac(_exact_sine_sign(m, k)) for k in freqs] for m in freqs])
    gram = phi.T * sign * phi
    n = len(angles)
    rows = [[gram[i, j] for j in range(n)] for i in range(n)]
    if n % 2:
        edge = phi.T * mp.matrix([frac(_exact_single(m)) for m in freqs])
        rows = [row + [edge[i]] for i, row in enumerate(rows)]
        rows.append([-edge[i] for i in range(n)] + [0])
    return _expanded_pfaffian(rows)


def test_norm_matches_mpmath_pfaffian_oracle():
    # 50-digit de Bruijn Pfaffian with a longer series; the last two cases
    # are exponentially small (about 3e-31 and 8e-31), where forming
    # Phi^T S Phi in double precision cancels away most digits
    import mpmath as mp

    def boundary(L):
        return lambda m: 2 / mp.pi * m / mp.sinh(m * L)

    def inner(L, x):
        return lambda m: 2 / mp.pi * mp.sinh(m * x) / mp.sinh(m * L)

    cases = []
    for n in (2, 3, 4, 5):
        phi = [0.3 + 2.5 * (j + 0.5) / n for j in range(n)]
        cases.append((norm_boundary(RectConfig(2.0), phi), boundary(2), phi))
    theta = [0.2 + 2.7 * j / 7 for j in range(8)]
    cases.append((norm_inner(RectConfig(3.0), 1.0, theta), inner(3, 1), theta))
    theta = [0.4, 1.1, 1.9, 2.7]
    cases.append((norm_inner(RectConfig(8.0), 1.0, theta), inner(8, 1), theta))
    with mp.workdps(50):
        for value, coef, angles in cases:
            ref = _mp_chamber_norm(mp, coef, angles)
            assert abs(value - ref) <= 1e-13 * abs(ref)
    assert 8e-31 < cases[-1][0] < 9e-31


def test_norm_inner_grid_matches_scalar():
    cfg = RectConfig(2.0)
    grid = np.array([[0.9, 2.1], [0.4, 1.0], [1.5, 2.8]])
    vals = norm_inner(cfg, 0.8, grid)
    for row, v in zip(grid, vals):
        assert v == pytest.approx(norm_inner(cfg, 0.8, row), rel=1e-13)
    # antisymmetric continuation: swapping two angles flips the sign
    swapped = norm_inner(cfg, 0.8, grid[:, ::-1].copy())
    assert np.allclose(swapped, -vals, rtol=1e-13)


def test_boundary_det_grid_matches_determinant():
    cfg = RectConfig(1.1)
    phi = [0.9, 2.0]
    grid = np.array([[0.7, 1.9], [1.2, 2.4]])
    vals = fomin_boundary_det(cfg, phi, grid)
    for row, v in zip(grid, vals):
        ref = fomin_boundary_det(cfg, phi, row)
        assert v == pytest.approx(ref, rel=1e-12)


def test_norm_series_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(rect_kernels, "N_MAX", 4)
    with pytest.raises(TruncationError) as exc:
        _norm_series(1.0, 2.0, 3)
    assert exc.value.achieved > 0.0


# --- densities ---------------------------------------------------------------


@pytest.mark.parametrize("start", ["strip", "midpoint", "rectangle"])
@pytest.mark.parametrize("m", [1, 2])
def test_joint_pdf_stack_at_last_cut_matches_single_calls_bitwise(start, m):
    # a (..., N) stack at the last cut gives every tuple the bits of its
    # single-tuple call; earlier cuts take one tuple each
    cfg = RectConfig(2.0) if start == "rectangle" else None
    phi = None if start == "midpoint" else (0.8, 2.1)
    seq = ChamberSequence((0.5, 1.1)[2 - m :])
    earlier = [(0.9, 1.9)] * (m - 1)
    rng = np.random.default_rng(5)
    stack = np.sort(rng.uniform(0.05, math.pi - 0.05, size=(3, 4, 2)), axis=-1)
    out = joint_pdf(cfg, seq, [*earlier, stack], phi)
    assert out.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        single = joint_pdf(cfg, seq, [*earlier, stack[idx]], phi)
        assert isinstance(single, float) and single == out[idx]
    if m == 2:
        with pytest.raises(DomainError):
            joint_pdf(cfg, seq, [stack, stack[0, 0]], phi)


def test_pdf_single_path_matches_direct_series():
    L, x, phi, th = 2.0, 0.9, 1.2, 2.0
    p = _one_cut(RectConfig(L), x, [th], [phi])

    def sinh_ratio(n, a, b):
        return math.exp(n * (a - b)) * math.expm1(-2 * n * a) / math.expm1(-2 * n * b)

    hb = boundary_poisson_rect(RectConfig(x), phi, th).value
    n1 = sum(
        (2 / math.pi) * sinh_ratio(n, x, L) * math.sin(n * th) * _single_sine_integral(n)
        for n in range(1, 400)
    )
    nb = sum(
        (2 / math.pi)
        * n
        * 2
        * math.exp(-n * L)
        / -math.expm1(-2 * n * L)
        * math.sin(n * phi)
        * _single_sine_integral(n)
        for n in range(1, 400)
    )
    assert p == pytest.approx(hb * n1 / nb, rel=1e-13)


def test_pdf_two_paths_normalizes():
    L, x, phi = 2.0, 0.9, [0.9, 2.0]
    cfg = RectConfig(L)
    rule = gauss_legendre(64)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), phi, grid)
    ni = norm_inner(cfg, x, grid)
    mass = float(np.einsum("i,j,ij->", w, w, fb * ni)) / 2.0
    mass /= norm_boundary(cfg, phi)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pdf_positive_on_chamber():
    cfg = RectConfig(2.0)
    for th in ([0.5, 1.5], [1.0, 2.8], [2.0, 2.5]):
        assert _one_cut(cfg, 0.9, th, [0.9, 2.0]) > 0.0
        assert _one_cut(None, 0.9, th, [0.9, 2.0]) > 0.0


def test_joint_pdf_telescopes_into_transitions():
    cfg = RectConfig(2.0)
    phi = [0.9, 2.0]
    th_a, th_b = [1.0, 2.2], [0.8, 1.9]
    seq = ChamberSequence((0.7, 1.2))
    # the transition factor to the second cut: the interior determinant of
    # the sub-rectangle ending there times a norm ratio
    det = fomin_inner_det(RectConfig(1.2), 0.7, th_a, th_b)
    j = joint_pdf(cfg, seq, [th_a, th_b], phi)
    p1 = _one_cut(cfg, 0.7, th_a, phi)
    q = det * norm_inner(cfg, 1.2, th_b) / norm_inner(cfg, 0.7, th_a)
    assert j == pytest.approx(p1 * q, rel=1e-12)

    j_inf = joint_pdf(None, ChamberSequence((0.7, 1.2)), [th_a, th_b], phi)
    p1_inf = _one_cut(None, 0.7, th_a, phi)
    ratio = _strip_weight(1.2, 2) * hat_h(th_b) / (_strip_weight(0.7, 2) * hat_h(th_a))
    assert j_inf == pytest.approx(p1_inf * det * ratio, rel=1e-12)


def test_joint_pdf_single_cut_reduces_to_marginal():
    cfg = RectConfig(2.0)
    phi = [0.9, 2.0]
    th = [1.0, 2.2]
    seq = ChamberSequence((0.9,))
    assert joint_pdf(cfg, seq, [th], phi) == pytest.approx(_one_cut(cfg, 0.9, th, phi), rel=1e-13)


def test_joint_mass_two_cuts_two_paths():
    L, x1, x2, phi = 2.0, 0.7, 1.2, [0.9, 2.0]
    cfg = RectConfig(L)
    rule = gauss_legendre(48)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    A = fomin_boundary_det(RectConfig(x1), phi, grid)
    B = norm_inner(cfg, x2, grid)
    K = poisson_rect(RectConfig(x2), x1, nodes[:, None], nodes[None, :]).value
    Aw = A * np.outer(w, w)
    Bw = B * np.outer(w, w)
    t1 = np.einsum("ab,ac,bd,cd->", Aw, K, K, Bw, optimize=True)
    t2 = np.einsum("ab,ad,bc,cd->", Aw, K, K, Bw, optimize=True)
    mass = (t1 - t2) / 4.0 / norm_boundary(cfg, phi)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_finite_pdf_approaches_infinite_strip():
    x, th, phi = 0.9, [1.0, 2.2], [0.9, 2.0]
    p_inf = _one_cut(None, x, th, phi)
    errs = [
        abs(_one_cut(RectConfig(L), x, th, phi) - p_inf) / p_inf
        for L in (6.0, 10.0, 14.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-11


def test_strip_pdf_approaches_the_midpoint_start_density():
    # far from the start edge the density forgets the start angles: its
    # excess over the midpoint-start density decays like e^{-x}, so each
    # step of 2 in x divides it by e^2.  (From x = 4 to 6 the e^{-2x} term
    # still shows: the 50-digit excesses fall by 12.7 there.)
    th, phi = (0.6, 1.2, 1.9, 2.6), (0.5, 1.1, 1.8, 2.5)
    limit = pdf_special_start(th)
    excess = [_one_cut(None, float(x), th, phi) - limit for x in range(6, 21, 2)]
    assert all(e > 0.0 for e in excess)
    for near, far in zip(excess, excess[1:]):
        assert abs(near / far / math.e**2 - 1.0) <= 0.2, (near, far)


def test_infinite_pdf_normalizes():
    x, phi = 0.9, np.array([0.9, 2.0])
    rule = gauss_legendre(64)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), phi, grid)
    pdf = _strip_weight(x, 2) * fb * hat_h(grid) / hat_h(phi)
    mass = float(np.einsum("i,j,ij->", w, w, pdf)) / 2.0
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_infinite_pdf_normalizes_three_paths():
    x, phi = 0.9, np.array([0.7, 1.5, 2.5])
    rule = gauss_legendre(40)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), phi, grid)
    pdf = _strip_weight(x, 3) * fb * hat_h(grid) / hat_h(phi)
    mass = float(np.einsum("i,j,k,ijk->", w, w, w, pdf)) / math.factorial(3)
    assert mass == pytest.approx(1.0, abs=1e-10)


# --- validation --------------------------------------------------------------


def test_chamber_sequence_validation():
    assert ChamberSequence((0.5, 1.0, 2.0)).m == 3
    with pytest.raises(DomainError):
        ChamberSequence(())
    with pytest.raises(DomainError):
        ChamberSequence((1.0, 0.5))
    with pytest.raises(DomainError):
        ChamberSequence((-0.5, 1.0))


def test_density_domain_errors():
    cfg = RectConfig(2.0)
    with pytest.raises(DomainError):
        _one_cut(cfg, 2.5, [1.0], [1.0])
    with pytest.raises(DomainError):
        _one_cut(cfg, 0.9, [1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        norm_inner(cfg, -0.1, [1.0])
    with pytest.raises(PrecisionError):
        norm_inner(cfg, 2.0 - 1e-6, [1.0])
    # below the normal double range a norm keeps no relative accuracy
    with pytest.raises(PrecisionError, match="norm underflows"):
        norm_boundary(RectConfig(120.0), [0.5, 1.8, 2.5])
    with pytest.raises(DomainError):
        joint_pdf(cfg, ChamberSequence((1.2, 0.7)), [[1.0], [1.0]], [1.0])
    with pytest.raises(DomainError):
        joint_pdf(cfg, ChamberSequence((0.7, 2.5)), [[1.0], [1.0]], [1.0])
    with pytest.raises(DomainError):
        joint_pdf(cfg, ChamberSequence((0.5, 1.0)), [[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(DomainError):
        joint_pdf(cfg, ChamberSequence((0.5, 2.5)), [[1.0], [1.1]], [1.0])
    with pytest.raises(DomainError, match="all angle tuples must have equal length"):
        joint_pdf(cfg, ChamberSequence((0.5, 1.0)), [[1.0, 2.0], [1.0]], [1.0])
