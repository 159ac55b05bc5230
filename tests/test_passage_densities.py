import math
from fractions import Fraction

import numpy as np
import pytest

from lebp.errors import DomainError, PrecisionError, TruncationError
from lebp.numerics import DEFAULT_POLICY, SeriesPolicy, gauss_legendre
from lebp.passage_densities import (
    ChamberSequence,
    _chamber_norm,
    _norm_series,
    _sine_sign_kernel,
    joint_pdf,
    norm_boundary,
    norm_inner,
    ordered_sine_det_integral,
    pdf_first_passage,
    pdf_first_passage_finite,
    start_weight,
    transition_factor,
)
from lebp.rect_kernels import (
    RectConfig,
    boundary_poisson_rect,
    fomin_boundary_det,
    hat_h,
    poisson_rect,
)

POL = DEFAULT_POLICY


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


def chamber_points(order, n):
    """Ordered-chamber quadrature by nested linear maps: (P, n) points, (P,) weights."""
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
    nb = norm_boundary(RectConfig(2.0), POL, [0.9, 2.1])
    assert nb == pytest.approx(0.0328334204323592209747022822839, rel=5e-15)
    ni = norm_inner(RectConfig(2.0), POL, 0.8, [0.9, 2.1])
    assert ni == pytest.approx(0.0339327867123395464593390468185, rel=5e-15)


def _norm_boundary_quad(L, phi, order):
    cfg = RectConfig(L)
    n = len(phi)
    rho, w = chamber_points(order, n)
    ent = boundary_poisson_rect(
        cfg, POL, np.asarray(phi)[:, None, None], rho[None, :, :]
    ).value
    vals = np.linalg.det(np.swapaxes(ent, 0, 1))
    return float(vals @ w)


def _norm_inner_quad(L, x, theta, order):
    cfg = RectConfig(L)
    rho, w = chamber_points(order, len(theta))
    ent = poisson_rect(cfg, POL, x, np.asarray(theta)[:, None, None], rho[None, :, :]).value
    vals = np.linalg.det(np.swapaxes(ent, 0, 1))
    return float(vals @ w)


def test_norm_boundary_matches_chamber_quadrature():
    for L, phi in [(2.0, [1.0]), (2.0, [0.9, 2.1]), (3.0, [0.7, 1.5, 2.5])]:
        mine = norm_boundary(RectConfig(L), POL, phi)
        ref = _norm_boundary_quad(L, phi, 48)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_norm_inner_matches_chamber_quadrature():
    for L, x, theta in [
        (2.0, 1.0, [1.3]),
        (2.0, 0.8, [0.9, 2.1]),
        (3.0, 1.5, [0.7, 1.5, 2.5]),
        (1.5, 0.4, [1.1, 1.9]),
    ]:
        mine = norm_inner(RectConfig(L), POL, x, theta)
        ref = _norm_inner_quad(L, x, theta, 48)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_norm_series_tail_bound_is_honest():
    # the certified bound covers the truncation error of the default run
    # (against a much tighter run), and of every shorter truncation, whose
    # bound the budget error reports
    tight = SeriesPolicy(tol=1e-22)
    for kind, L, x, theta in [
        ("boundary", 2.0, 0.0, [0.9, 2.1]),
        ("inner", 2.0, 0.8, [0.9, 2.1]),
        ("inner", 3.0, 1.5, [0.7, 1.5, 2.5]),
    ]:
        n = len(theta)
        full, _ = _norm_series(kind, L, x, n, tight.tol, tight.n_max)
        exact = _chamber_norm(full, theta)
        coefs, bound = _norm_series(kind, L, x, n, POL.tol, POL.n_max)
        assert coefs.size < full.size
        assert abs(_chamber_norm(coefs, theta) - exact) <= bound
        for m_max in range(n, coefs.size // 2 + 1, 2):
            with pytest.raises(TruncationError) as exc:
                _norm_series(kind, L, x, n, POL.tol, m_max)
            assert abs(_chamber_norm(full[:m_max], theta) - exact) <= exc.value.achieved


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
        cases.append((norm_boundary(RectConfig(2.0), POL, phi), boundary(2), phi))
    theta = [0.2 + 2.7 * j / 7 for j in range(8)]
    cases.append((norm_inner(RectConfig(3.0), POL, 1.0, theta), inner(3, 1), theta))
    theta = [0.4, 1.1, 1.9, 2.7]
    cases.append((norm_inner(RectConfig(8.0), POL, 1.0, theta), inner(8, 1), theta))
    with mp.workdps(50):
        for value, coef, angles in cases:
            ref = _mp_chamber_norm(mp, coef, angles)
            assert abs(value - ref) <= 1e-13 * abs(ref)
    assert 8e-31 < cases[-1][0] < 9e-31


def test_norm_inner_grid_matches_scalar():
    cfg = RectConfig(2.0)
    grid = np.array([[0.9, 2.1], [0.4, 1.0], [1.5, 2.8]])
    vals = norm_inner(cfg, POL, 0.8, grid)
    for row, v in zip(grid, vals):
        assert v == pytest.approx(norm_inner(cfg, POL, 0.8, row), rel=1e-13)
    # antisymmetric continuation: swapping two angles flips the sign
    swapped = norm_inner(cfg, POL, 0.8, grid[:, ::-1].copy())
    assert np.allclose(swapped, -vals, rtol=1e-13)


def test_boundary_det_grid_matches_determinant():
    cfg = RectConfig(1.1)
    phi = [0.9, 2.0]
    grid = np.array([[0.7, 1.9], [1.2, 2.4]])
    vals = fomin_boundary_det(cfg, POL, phi, grid)
    for row, v in zip(grid, vals):
        ref = fomin_boundary_det(cfg, POL, phi, row)
        assert v == pytest.approx(ref, rel=1e-12)


def test_norm_series_budget_exhaustion():
    pol = SeriesPolicy(tol=1e-12, n_max=4)
    with pytest.raises(TruncationError) as exc:
        _norm_series.cache_clear()
        _norm_series("inner", 2.0, 1.0, 3, pol.tol, pol.n_max)
    assert exc.value.achieved > 0.0


# --- densities ---------------------------------------------------------------


def test_pdf_single_path_matches_direct_series():
    L, x, phi, th = 2.0, 0.9, 1.2, 2.0
    p = pdf_first_passage_finite(RectConfig(L), POL, x, [th], [phi])

    def sinh_ratio(n, a, b):
        return math.exp(n * (a - b)) * math.expm1(-2 * n * a) / math.expm1(-2 * n * b)

    hb = boundary_poisson_rect(RectConfig(x), POL, phi, th).value
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
    fb = fomin_boundary_det(RectConfig(x), POL, phi, grid)
    ni = norm_inner(cfg, POL, x, grid)
    mass = float(np.einsum("i,j,ij->", w, w, fb * ni)) / 2.0
    mass /= norm_boundary(cfg, POL, phi)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pdf_positive_on_chamber():
    cfg = RectConfig(2.0)
    for th in ([0.5, 1.5], [1.0, 2.8], [2.0, 2.5]):
        assert pdf_first_passage_finite(cfg, POL, 0.9, th, [0.9, 2.0]) > 0.0
        assert pdf_first_passage(POL, 0.9, th, [0.9, 2.0]) > 0.0


def test_joint_pdf_telescopes_into_transitions():
    cfg = RectConfig(2.0)
    phi = [0.9, 2.0]
    th_a, th_b = [1.0, 2.2], [0.8, 1.9]
    seq = ChamberSequence((0.7, 1.2), L=2.0)
    j = joint_pdf(cfg, POL, seq, [th_a, th_b], phi)
    p1 = pdf_first_passage_finite(cfg, POL, 0.7, th_a, phi)
    q = transition_factor(cfg, POL, 0.7, th_a, 1.2, th_b)
    assert j == pytest.approx(p1 * q, rel=1e-12)

    j_inf = joint_pdf(None, POL, ChamberSequence((0.7, 1.2)), [th_a, th_b], phi)
    p1_inf = pdf_first_passage(POL, 0.7, th_a, phi)
    q_inf = transition_factor(None, POL, 0.7, th_a, 1.2, th_b)
    assert j_inf == pytest.approx(p1_inf * q_inf, rel=1e-12)


def test_joint_pdf_single_cut_reduces_to_marginal():
    cfg = RectConfig(2.0)
    phi = [0.9, 2.0]
    th = [1.0, 2.2]
    seq = ChamberSequence((0.9,), L=2.0)
    assert joint_pdf(cfg, POL, seq, [th], phi) == pytest.approx(
        pdf_first_passage_finite(cfg, POL, 0.9, th, phi), rel=1e-13
    )


def test_joint_mass_two_cuts_two_paths():
    L, x1, x2, phi = 2.0, 0.7, 1.2, [0.9, 2.0]
    cfg = RectConfig(L)
    rule = gauss_legendre(48)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    A = fomin_boundary_det(RectConfig(x1), POL, phi, grid)
    B = norm_inner(cfg, POL, x2, grid)
    K = poisson_rect(RectConfig(x2), POL, x1, nodes[:, None], nodes[None, :]).value
    Aw = A * np.outer(w, w)
    Bw = B * np.outer(w, w)
    t1 = np.einsum("ab,ac,bd,cd->", Aw, K, K, Bw, optimize=True)
    t2 = np.einsum("ab,ad,bc,cd->", Aw, K, K, Bw, optimize=True)
    mass = (t1 - t2) / 4.0 / norm_boundary(cfg, POL, phi)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_finite_pdf_approaches_infinite_strip():
    x, th, phi = 0.9, [1.0, 2.2], [0.9, 2.0]
    p_inf = pdf_first_passage(POL, x, th, phi)
    errs = [
        abs(pdf_first_passage_finite(RectConfig(L), POL, x, th, phi) - p_inf) / p_inf
        for L in (6.0, 10.0, 14.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-11


def test_infinite_pdf_normalizes():
    x, phi = 0.9, np.array([0.9, 2.0])
    rule = gauss_legendre(64)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), POL, phi, grid)
    pdf = start_weight(x, 2) * fb * hat_h(grid) / hat_h(phi)
    mass = float(np.einsum("i,j,ij->", w, w, pdf)) / 2.0
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_infinite_pdf_normalizes_three_paths():
    x, phi = 0.9, np.array([0.7, 1.5, 2.5])
    rule = gauss_legendre(40)
    nodes, w = rule.nodes, rule.weights
    grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
    fb = fomin_boundary_det(RectConfig(x), POL, phi, grid)
    pdf = start_weight(x, 3) * fb * hat_h(grid) / hat_h(phi)
    mass = float(np.einsum("i,j,k,ijk->", w, w, w, pdf)) / math.factorial(3)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_start_weight_values():
    assert start_weight(1.3, 1) == pytest.approx(math.sinh(1.3), rel=1e-15)
    x = 0.7
    expect = math.sinh(x) * math.sinh(2 * x) * math.sinh(3 * x) / 6.0
    assert start_weight(x, 3) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(DomainError):
        start_weight(0.0, 2)


# --- validation --------------------------------------------------------------


def test_chamber_sequence_validation():
    assert ChamberSequence((0.5, 1.0, 2.0)).m == 3
    with pytest.raises(DomainError):
        ChamberSequence(())
    with pytest.raises(DomainError):
        ChamberSequence((1.0, 0.5))
    with pytest.raises(DomainError):
        ChamberSequence((-0.5, 1.0))
    with pytest.raises(DomainError):
        ChamberSequence((0.5, 1.0), L=1.0)


def test_density_domain_errors():
    cfg = RectConfig(2.0)
    with pytest.raises(DomainError):
        pdf_first_passage_finite(cfg, POL, 2.5, [1.0], [1.0])
    with pytest.raises(DomainError):
        pdf_first_passage_finite(cfg, POL, 0.9, [1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        norm_inner(cfg, POL, -0.1, [1.0])
    with pytest.raises(PrecisionError):
        norm_inner(cfg, POL, 2.0 - 1e-6, [1.0])
    with pytest.raises(DomainError):
        transition_factor(cfg, POL, 1.2, [1.0], 0.7, [1.0])
    with pytest.raises(DomainError):
        transition_factor(cfg, POL, 0.7, [1.0], 2.5, [1.0])
    with pytest.raises(DomainError):
        joint_pdf(cfg, POL, ChamberSequence((0.5, 1.0)), [[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(DomainError):
        joint_pdf(
            cfg,
            POL,
            ChamberSequence((0.5, 1.0), L=3.0),
            [[1.0], [1.1]],
            [1.0],
        )
    with pytest.raises(DomainError):
        joint_pdf(cfg, POL, ChamberSequence((0.5, 2.5)), [[1.0], [1.1]], [1.0])
