"""Tests for the determinantal correlation kernel and its half-disk image."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lebp.correlation import (
    corr_strip,
    density_semicircle,
    kernel_semicircle,
    kernel_strip,
    kernel_strip_dual,
    limit_kernel,
    two_point_semicircle,
)
from lebp.errors import DomainError, PrecisionError, TruncationError
from lebp import rect_kernels
from lebp.numerics import gauss_legendre
from lebp.passage_densities import ChamberSequence, joint_pdf
from lebp.rect_kernels import MIN_GAP, RectConfig, fomin_boundary_det, hat_h, weyl_point
from oracles import basis_phi, basis_phi_hat, joint_pdf_special_start_dets, pdf_special_start

RULE = gauss_legendre(200)


# --- strip kernel ------------------------------------------------------------


def test_kernel_finite_branch_oracle():
    # 40-digit reference for the two-term exact sum, N=2
    got = kernel_strip(2, 0.7, 1.1, 1.3, 2.2)
    assert got.bound == 0.0
    assert math.isclose(got.value, -0.6949160730421223861414, rel_tol=1e-13)


def test_kernel_tail_branch_oracle():
    # 40-digit reference for the n > 2 tail, summed far past any truncation
    got = kernel_strip(2, 1.3, 2.2, 0.7, 1.1)
    ref = 0.01223128637321123035332
    assert got.bound > 0.0
    assert abs(got.value - ref) <= got.bound + 1e-14
    assert got.bound < 1e-11


def test_kernel_finite_branch_refuses_coefficient_overflow():
    # sinh(n x')/sinh(n x) leaves the double range once N (x' - x) passes
    # about 709; pytest turns any numpy warning on the way into an error
    with pytest.raises(PrecisionError, match="sinh ratio overflows"):
        kernel_strip(20, 0.1, 1.0, 40.0, 2.0)
    with pytest.raises(PrecisionError, match="sinh ratio overflows"):
        kernel_strip(3, 1e-7, np.array([1.0, 2.0]), 690.0, 2.0)
    # just inside the range the coefficients stay finite
    assert math.isfinite(kernel_strip(7, 0.1, 1.0, 100.0, 2.0).value)


def test_kernel_dual_form():
    # the tail-sum branch against the independent finite-sum-minus-kernel form
    rng = np.random.default_rng(7)
    for _ in range(20):
        xp = rng.uniform(0.2, 2.0)
        x = xp + rng.uniform(0.1, 2.0)
        th, tp = rng.uniform(0.05, math.pi - 0.05, 2)
        n = int(rng.integers(1, 5))
        a = kernel_strip(n, x, th, xp, tp)
        b = kernel_strip_dual(n, x, th, xp, tp)
        assert abs(a.value - b.value) < 1e-10
        assert abs(a.value - b.value) <= a.bound + b.bound + 1e-12


def test_kernel_equal_cut_symmetric_cross_cut_not():
    a = kernel_strip(2, 0.8, 1.0, 0.8, 2.0).value
    b = kernel_strip(2, 0.8, 2.0, 0.8, 1.0).value
    assert a == b
    fwd = kernel_strip(2, 0.5, 1.0, 1.2, 2.0).value
    bwd = kernel_strip(2, 1.2, 2.0, 0.5, 1.0).value
    assert abs(fwd - bwd) > 0.1


@given(
    n=st.integers(1, 8),
    x=st.floats(0.1, 3.0),
    th=st.floats(0.0, math.pi),
    tp=st.floats(0.0, math.pi),
)
@settings(max_examples=40, deadline=None)
def test_kernel_equal_cut_symmetry_property(n, x, th, tp):
    a = kernel_strip(n, x, th, x, tp).value
    b = kernel_strip(n, x, tp, x, th).value
    assert a == pytest.approx(b, abs=1e-14)


def test_kernel_angle_broadcast():
    theta = np.array([0.3, 1.1, 2.7])
    got = kernel_strip(3, 0.6, theta, 1.1, 1.9).value
    for i, t in enumerate(theta):
        assert got[i] == kernel_strip(3, 0.6, float(t), 1.1, 1.9).value


def test_kernel_tail_grid_matches_scalar_calls_bitwise():
    # x > x' with a 0.05 gap: a tail of several hundred terms
    theta = np.linspace(0.05, 3.05, 13)
    theta_p = np.linspace(0.1, 3.0, 17)
    got = kernel_strip(3, 1.05, theta[:, None], 1.0, theta_p[None, :])
    assert got.value.shape == (13, 17) and got.bound > 0.0
    for i, t in enumerate(theta):
        for j, tp in enumerate(theta_p):
            assert got.value[i, j] == kernel_strip(3, 1.05, float(t), 1.0, float(tp)).value


def test_kernel_position_broadcast_matches_scalar_calls():
    # cut positions broadcast like angles, each pair on its own branch
    # (x <, = and > x', tails of different lengths), with scalar-call bits
    x, xp = np.array([0.4, 0.9, 1.05, 1.6])[:, None, None], np.array([0.9, 1.0])[:, None]
    theta, theta_p = np.array([0.3, 1.9])[:, None, None, None], np.array([0.0, 1.1, 2.9])
    got = kernel_strip(3, x, theta, xp, theta_p)
    assert got.value.shape == (2, 4, 2, 3) and got.bound.shape == (4, 2, 1)
    assert np.count_nonzero(got.bound) == 4
    for (a, i, j, k), value in np.ndenumerate(got.value):
        one = kernel_strip(3, x[i, 0, 0], theta[a, 0, 0, 0], xp[j, 0], theta_p[k])
        assert value == one.value and got.bound[i, j, 0] == one.bound


def test_kernel_position_preconditions_hold_elementwise(monkeypatch):
    with pytest.raises(DomainError, match="cut positions must be positive"):
        kernel_strip(2, np.array([0.5, 0.0]), 1.0, 1.0, 1.0)
    with pytest.raises(PrecisionError, match="below MIN_GAP"):
        kernel_strip(2, np.array([0.5, 1.0 + 1e-5]), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="radius must exceed 1"):
        kernel_semicircle(2, np.array([2.0, 1.0]), 1.0, 2.0, 1.0)
    with pytest.raises(DomainError, match="radius must exceed 1"):
        two_point_semicircle(2, 2.0, 1.0, np.array([[3.0], [0.5]]), 1.2)
    monkeypatch.setattr(rect_kernels, "N_MAX", 10)
    with pytest.raises(TruncationError):
        kernel_strip(1, 1.0, 1.0, np.array([2.0, 0.999]), 1.0)


def test_kernel_trace_counts_paths():
    for n in (1, 2, 5):
        diag = kernel_strip(n, 0.7, RULE.nodes, 0.7, RULE.nodes).value
        assert abs(RULE.weights @ diag - n) < 1e-10


def test_kernel_reproducing_property():
    # integrating out a middle cut x <= x'' <= x' reproduces the kernel
    for n, (x1, x2, x3) in [(1, (0.5, 0.9, 1.4)), (3, (0.4, 1.0, 1.3)), (2, (0.6, 0.6, 1.1))]:
        th, tp = 1.1, 2.3
        a = kernel_strip(n, x1, th, x2, RULE.nodes).value
        b = kernel_strip(n, x2, RULE.nodes, x3, tp).value
        lhs = RULE.weights @ (a * b)
        rhs = kernel_strip(n, x1, th, x3, tp).value
        assert abs(lhs - rhs) < 1e-9


def test_kernel_composition_needs_ordering():
    # with the middle cut outside [x, x'] the composition identity fails
    a = kernel_strip(2, 0.5, 1.1, 0.9, RULE.nodes).value
    b = kernel_strip(2, 0.9, RULE.nodes, 0.7, 2.3).value
    rhs = kernel_strip(2, 0.5, 1.1, 0.7, 2.3).value
    assert abs(RULE.weights @ (a * b) - rhs) > 0.1


def test_kernel_domain_and_budget_errors(monkeypatch):
    with pytest.raises(DomainError):
        kernel_strip(0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_strip(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(PrecisionError):
        kernel_strip(2, 1.0 + 1e-5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_strip_dual(2, 0.5, 1.0, 1.0, 1.0)
    monkeypatch.setattr(rect_kernels, "N_MAX", 10)
    with pytest.raises(TruncationError) as err:
        kernel_strip(1, 1.0012, 1.0, 1.0, 1.0)
    assert err.value.achieved > 0.0


# --- correlation functions ----------------------------------------------------


def test_corr_strip_matches_explicit_determinant():
    x1, x2, t1, t2 = 0.6, 1.1, 0.9, 2.1
    got = corr_strip(2, [x1, x2], [[t1], [t2]])
    k = lambda xa, ta, xb, tb: kernel_strip(2, xa, ta, xb, tb).value
    det = k(x1, t1, x1, t1) * k(x2, t2, x2, t2) - k(x1, t1, x2, t2) * k(x2, t2, x1, t1)
    assert got == pytest.approx(det, rel=1e-12)


def test_corr_strip_matrix_matches_scalar_construction(monkeypatch):
    import lebp.correlation as correlation

    seen = []
    monkeypatch.setattr(correlation, "det_lu", lambda m: seen.append(m) or 0.0)
    cuts = [0.6, 1.1, 0.6, 0.9]
    angle_lists = [[0.4, 2.0], [1.3], [2.7, 0.9, 1.8], [1.1, 2.2]]
    corr_strip(3, cuts, angle_lists)
    points = [(x, t) for x, angles in zip(cuts, angle_lists) for t in angles]
    want = np.array(
        [[kernel_strip(3, xi, ti, xj, tj).value for xj, tj in points] for xi, ti in points]
    )
    assert np.array_equal(seen[0], want)


def test_corr_strip_repeated_point_vanishes():
    assert corr_strip(3, [0.8], [[1.0, 1.0]]) == 0.0


def test_corr_strip_validates_input():
    with pytest.raises(DomainError):
        corr_strip(2, [0.5, 1.0], [[1.0]])
    with pytest.raises(DomainError):
        corr_strip(2, [], [])


def test_one_point_function_matches_density_marginal():
    # N=2 midpoint start: the kernel's one-point function must agree with the
    # quadrature marginal of the two-path passage density
    for th in (0.7, 1.3, 2.9):
        hh = (
            math.sin(th)
            * np.sin(RULE.nodes)
            * (np.cos(RULE.nodes) - math.cos(th))
        )
        marginal = 16.0 / math.pi**2 * (RULE.weights @ hh**2)
        one_point = corr_strip(2, [0.9], [[th]])
        assert abs(one_point - marginal) < 1e-8


# --- midpoint-start densities ---------------------------------------------------


def test_pdf_special_start_single_path():
    th = 1.1
    assert pdf_special_start((th,)) == pytest.approx(
        2.0 / math.pi * math.sin(th) ** 2, rel=1e-15
    )


def test_pdf_special_start_frozen_and_cut_free():
    # 40-digit reference at N=2, theta=(0.8, 1.9)
    got = pdf_special_start((0.8, 1.9))
    assert math.isclose(got, 0.7772214013996608959975, rel_tol=1e-13)


def test_pdf_special_start_normalized():
    # total mass over the ordered chamber is 1 (checked as 1/N! of the cube)
    rule = gauss_legendre(120)
    for n in (2, 3):
        grids = np.meshgrid(*([rule.nodes] * n), indexing="ij")
        th = np.stack(grids, axis=-1).reshape(-1, n)
        hh = np.prod(np.sin(th), axis=1)
        for k in range(n):
            for l in range(k + 1, n):
                hh = hh * (np.cos(th[:, l]) - np.cos(th[:, k]))
        vals = 2.0 ** (n * n) / math.pi**n * hh**2
        w = rule.weights
        for _ in range(1, n):
            w = np.multiply.outer(w, rule.weights)
        mass = (w.reshape(-1) @ vals) / math.factorial(n)
        assert abs(mass - 1.0) < 1e-8


def test_joint_special_start_routes_agree():
    # the telescoped product against the product of basis and kernel
    # determinants; fully independent evaluations
    seq = ChamberSequence((0.4, 0.9, 1.7))
    cases = [
        [(0.9,), (1.4,), (2.0,)],
        [(0.8, 1.9), (1.0, 2.2), (0.6, 2.8)],
        [(0.5, 1.2, 2.0), (0.7, 1.5, 2.3), (0.4, 1.1, 2.6)],
    ]
    for thetas in cases:
        a = joint_pdf(None, seq, thetas)
        b = joint_pdf_special_start_dets(seq, thetas)
        assert a == pytest.approx(b, rel=1e-10)


def test_joint_special_start_marginalizes():
    # integrating out the second cut recovers the one-cut density
    seq = ChamberSequence((0.5, 1.1))
    th1 = 1.3
    vals = np.array([joint_pdf(None, seq, [(th1,), (t,)]) for t in RULE.nodes])
    marginal = RULE.weights @ vals
    assert abs(marginal - pdf_special_start((th1,))) < 1e-12


def test_joint_special_start_validates_input():
    seq = ChamberSequence((0.4, 0.9))
    with pytest.raises(DomainError, match="midpoint start"):
        joint_pdf(RectConfig(2.0), seq, [(1.0,), (1.1,)])
    with pytest.raises(DomainError):
        joint_pdf(None, seq, [(1.0,)])
    with pytest.raises(DomainError):
        joint_pdf_special_start_dets(seq, [(1.0,), (1.1, 2.0)])


@given(
    n=st.integers(1, 40),
    x=st.floats(0.05, 5.0),
    th=st.floats(0.0, math.pi),
)
@settings(max_examples=60, deadline=None)
def test_basis_product_invariant(n, x, th):
    prod = basis_phi(n, x, th) * basis_phi_hat(n, x, th)
    assert prod == pytest.approx(2.0 / math.pi * math.sin(n * th) ** 2, abs=1e-12)


# --- coalescing start limit -----------------------------------------------------


def schur_limit_factor(cfg, phi, rho):
    """Diagnostic ratio det[H_boundary(i phi_j, L + i rho_k)] / hat_h(phi).

    As the start angles phi coalesce at pi/2 the ratio approaches
    coincident_limit_value(cfg, rho), up to corrections exponentially small
    in L from higher terms of the partition expansion.
    """
    phi = weyl_point(phi)
    return fomin_boundary_det(cfg, phi, rho) / hat_h(phi)


def coincident_limit_value(cfg, rho):
    """Limit of schur_limit_factor at the coalescing midpoint start:
    (2^{N^2} / (pi^N C_N(L))) * hat_h(rho), C_N(L) = prod_j sinh(jL) / N!."""
    rho = weyl_point(rho)
    n = rho.size
    c_n = math.prod(math.sinh(j * cfg.L) for j in range(1, n + 1)) / math.factorial(n)
    return 2.0 ** (n * n) / math.pi**n / c_n * hat_h(rho)


def test_schur_limit_factor_converges():
    # the ratio at start angles pi/2 -+ eps settles, Cauchy fashion, onto the
    # coincident limit value; the rectangle length caps agreement at O(1e-3)
    cfg = RectConfig(4.0)
    rho = (0.9, 2.0)
    limit = coincident_limit_value(cfg, rho)
    assert math.isclose(limit, -5.892055138345347332775e-5, rel_tol=1e-13)
    vals = []
    for eps in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
        phi = (math.pi / 2 - eps, math.pi / 2 + eps)
        vals.append(schur_limit_factor(cfg, phi, rho))
    steps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    assert all(s1 > s2 for s1, s2 in zip(steps, steps[1:]))
    assert abs(vals[-1] / limit - 1.0) < 2e-3


def test_schur_limit_factor_single_path():
    # N=1: the ratio at phi = pi/2 is the boundary kernel itself over sin(pi/2)
    got = schur_limit_factor(RectConfig(3.0), (math.pi / 2,), (1.1,))
    direct = sum(
        2.0 / math.pi * n * math.sin(n * math.pi / 2) * math.sin(n * 1.1) / math.sinh(3.0 * n)
        for n in range(1, 200)
    )
    assert got == pytest.approx(direct, rel=1e-12)


def test_coincident_limit_longer_rectangle_tightens():
    # the residual error of the coalescing ratio decays with L
    rho = (0.9, 2.0)
    residuals = []
    for length in (3.0, 4.0, 5.0):
        cfg = RectConfig(length)
        phi = (math.pi / 2 - 1e-3, math.pi / 2 + 1e-3)
        val = schur_limit_factor(cfg, phi, rho)
        residuals.append(abs(val / coincident_limit_value(cfg, rho) - 1.0))
    assert residuals[0] > residuals[1] > residuals[2]


# --- half-disk image ------------------------------------------------------------


def test_semicircle_kernel_matches_strip():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        r, rp = np.exp(rng.uniform(0.05, 2.0, 2))
        if abs(math.log(r) - math.log(rp)) < MIN_GAP:
            continue
        th, tp = rng.uniform(0.05, math.pi - 0.05, 2)
        n = int(rng.integers(1, 6))
        a = kernel_semicircle(n, r, th, rp, tp).value
        b = kernel_strip(n, math.log(r), th, math.log(rp), tp).value / r
        assert abs(a - b) < 1e-12
        checked += 1


def test_semicircle_needs_radius_beyond_one():
    with pytest.raises(DomainError):
        kernel_semicircle(2, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        density_semicircle(2, 0.9, 1.0)
    with pytest.raises(DomainError):
        density_semicircle(2, np.array([[2.0], [0.9]]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        two_point_semicircle(2, 2.0, 1.0, 0.5, 1.2)


def test_equal_radius_closed_form():
    # 40-digit reference, N=3, r=2, angles (0.9, 2.2); the Christoffel-Darboux
    # closed form of the validation suite agrees off the diagonal
    from lebp.validation import _closed_kernel

    got = kernel_semicircle(3, 2.0, 0.9, 2.0, 2.2)
    assert got.bound == 0.0
    assert math.isclose(got.value, -0.05100977204597252439616, rel_tol=1e-13)
    for n in (1, 2, 5):
        a = _closed_kernel(n, 2.0, 0.9, 2.2)
        b = kernel_semicircle(n, 2.0, 0.9, 2.0, 2.2).value
        assert a == pytest.approx(b, abs=1e-13)


def _mp_arc_kernel(n, r, th, tp):
    # (2 / (pi r)) sum_{k<=n} sin(k th) sin(k tp) at 50 digits, exact inputs
    import mpmath as mp

    with mp.workdps(50):
        th, tp = mp.mpf(th), mp.mpf(tp)
        total = mp.fsum(mp.sin(k * th) * mp.sin(k * tp) for k in range(1, n + 1))
        return 2 * total / (mp.pi * r)


def test_equal_radius_kernel_near_diagonal_matches_mpmath():
    # no switch near cos theta = cos theta': the exact finite sum throughout
    for n in (3, 5, 20):
        for th in (0.3, 1.0, 2.6):
            for d in (1e-9, 1e-8, 1e-7, 1e-6, 1.001e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for tp in (th + d, th - d):
                    got = kernel_semicircle(n, 2.0, th, 2.0, tp)
                    want = _mp_arc_kernel(n, 2.0, th, tp)
                    assert got.bound == 0.0
                    assert abs(got.value / float(want) - 1.0) < 1e-14, (n, th, tp)


def test_density_near_the_arc_ends_matches_mpmath():
    # 1e-3 from either end, where a closed form divided by sin theta loses
    # digits, and a spread of interior angles
    angles = [1.001e-3, math.pi - 1.001e-3, 0.01, 0.7, 1.6, 2.9, math.pi - 0.01]
    for n in (3, 5, 20):
        for th in angles:
            want = float(_mp_arc_kernel(n, 2.0, th, th))
            assert abs(density_semicircle(n, 2.0, th) / want - 1.0) < 1e-12, (n, th)


def test_series_branches_match_scalar_calls_bitwise():
    # near-diagonal and small-angle points, with enough paths (9) that a
    # sum over the wrong axis would change the last bits
    th = np.concatenate([np.linspace(0.0, 9e-4, 7), np.linspace(1.0, 1.0 + 1e-7, 5), [math.pi]])
    radii = np.array([1.05, 2.0, 3.7])
    dens = density_semicircle(9, radii[:, None], th)
    kern = kernel_semicircle(9, 2.0, th[:, None], 2.0, th[None, :]).value
    for i, t in enumerate(th.tolist()):
        for k, r in enumerate(radii.tolist()):
            assert dens[k, i] == density_semicircle(9, r, t)
        for j, tp in enumerate(th.tolist()):
            assert kern[i, j] == kernel_semicircle(9, 2.0, t, 2.0, tp).value


def test_density_matches_kernel_diagonal():
    for n in (1, 3, 7):
        for th in (0.4, 1.234, 2.8):
            a = density_semicircle(n, 2.0, th)
            b = kernel_semicircle(n, 2.0, th, 2.0, th).value
            assert abs(a - b) < 1e-10


def test_density_closed_form_values():
    # 40-digit reference, N=4, r=2, theta=1.1
    assert math.isclose(
        density_semicircle(4, 2.0, 1.1), 0.7570514280235496625156, rel_tol=1e-13
    )
    # three paths through i r: exactly 4 / (pi r)
    for r in (1.5, 2.0, 10.0):
        assert density_semicircle(3, r, math.pi / 2) == pytest.approx(
            4.0 / (math.pi * r), rel=1e-15
        )
    # single path: (2 / (pi r)) sin^2
    th = np.linspace(0.1, 3.0, 7)
    got = density_semicircle(1, 3.0, th)
    assert np.allclose(got, 2.0 / (3.0 * math.pi) * np.sin(th) ** 2, rtol=1e-14)


def test_density_endpoint_limits():
    assert density_semicircle(3, 2.0, 0.0) == 0.0
    assert abs(density_semicircle(3, 2.0, math.pi)) < 1e-30
    # continuity near the arc ends
    lo = density_semicircle(3, 2.0, 1e-3 - 1e-9)
    hi = density_semicircle(3, 2.0, 1e-3 + 1e-9)
    assert lo == pytest.approx(hi, rel=1e-4)


def test_density_ridge_count():
    th = np.linspace(0.0, math.pi, 4001)
    for n in (3, 5):
        rho = density_semicircle(n, 2.0, th)
        assert np.all(rho >= 0.0)
        inner = rho[1:-1]
        peaks = int(np.sum((inner > rho[:-2]) & (inner > rho[2:])))
        assert peaks == n


def test_density_flattens_for_many_paths():
    th = np.linspace(math.pi / 6, 5 * math.pi / 6, 1001)
    rho = density_semicircle(200, 3.7, th)
    assert np.max(np.abs(math.pi * 3.7 * rho / 200 - 1.0)) < 0.02


def test_two_point_matches_kernel_determinant():
    for r, th, rp, tp in [(2.0, 1.0, 3.0, 2.0), (4.0, 0.8, 1.5, 2.5), (2.0, 1.0, 2.0, 2.2)]:
        n = 3
        det = density_semicircle(n, r, th) * density_semicircle(n, rp, tp) - (
            kernel_semicircle(n, r, th, rp, tp).value
            * kernel_semicircle(n, rp, tp, r, th).value
        )
        got = two_point_semicircle(n, r, th, rp, tp).value
        assert got == pytest.approx(det, abs=1e-10)
        swapped = two_point_semicircle(n, rp, tp, r, th).value
        assert got == pytest.approx(swapped, rel=1e-12)


def test_two_point_frozen_oracle():
    # 40-digit reference: N=3, (r, theta) = (2, 1), (r', theta') = (3, 2)
    got = two_point_semicircle(3, 2.0, 1.0, 3.0, 2.0).value
    assert math.isclose(got, 0.1565720742434987580453, rel_tol=1e-11)


def test_two_point_repulsion_peaks():
    # five paths, probe at i*4: four peaks left for the other four paths
    tp = np.linspace(0.0, math.pi, 4001)
    g2 = two_point_semicircle(5, 4.0, math.pi / 2, 4.0, tp).value
    inner = g2[1:-1]
    peaks = int(np.sum((inner > g2[:-2]) & (inner > g2[2:])))
    assert peaks == 4
    for sign in (+1.0, -1.0):
        near = two_point_semicircle(
            5, 4.0, math.pi / 2, 4.0, math.pi / 2 + sign * 1e-4 * math.pi
        ).value
        assert abs(near) < 1e-6


def test_two_point_close_radii_need_the_minimum_gap():
    with pytest.raises(PrecisionError):
        two_point_semicircle(2, 2.0, 1.0, 2.0 * (1.0 + 1e-9), 1.5)


# --- large-N limit ----------------------------------------------------------------


def test_limit_kernel_frozen_values():
    # 40-digit quadrature references
    cases = {
        (0.0, 1.0, 1.0, 1.0): 0.3679127639567623891671,
        (1.0, 1.0, 0.0, 2.0): 0.001083065017095817217241,
        (-1.0, 2.0, 2.0, 1.0): 2.436395280051634118007,
        (0.5, 0.3, 2.5, 4.0): 0.001976064510999741234505,
    }
    for (u, a, up, ap), ref in cases.items():
        assert math.isclose(limit_kernel(u, a, up, ap), ref, rel_tol=1e-13)


def _scipy_limit_kernel(u, a, up, ap):
    """The limit kernel's defining integral by scipy's adaptive quadrature:
    over (0, 1) for u < u'; over (1, inf) for u > u', where sin(a s) sin(a' s)
    is (cos((a - a')s) - cos((a + a')s)) / 2 and each e^{-cs} cos(w s) goes to
    QUADPACK's Fourier-integral routine (QAWF), or to e^{-c}/c at w = 0.  The
    absolute targets are the tightest that raise no roundoff warning on the
    tests' points: QAWF's first cycle cannot meet 1e-14 where c is near 0.5
    and w below 1, nor can a pure relative target on (0, 1) meet 1e-13 at a
    value of -0.03."""
    c = u - up
    if c < 0:
        return 2.0 / math.pi * quad(
            lambda s: math.exp(-c * s) * math.sin(a * s) * math.sin(ap * s), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13,
        )[0]

    def tail(w):
        if w == 0.0:
            return math.exp(-c) / c
        return quad(lambda s: math.exp(-c * s), 1.0, np.inf, weight="cos", wvar=w, epsabs=1e-13)[0]

    return -(tail(abs(a - ap)) - tail(a + ap)) / math.pi


def test_limit_kernel_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        u, up = rng.uniform(-2.0, 3.0, 2)
        if abs(u - up) < 0.05:
            continue
        a, ap = rng.uniform(0.0, 5.0, 2)
        assert abs(limit_kernel(u, a, up, ap) - _scipy_limit_kernel(u, a, up, ap)) < 1e-10


def test_scaling_check_quadrature_matches_scipy():
    # the numpy panel quadrature behind check_scaling_limit against scipy's
    # adaptive quadrature on the check's own sample
    from lebp.validation import QUADRATURE_ORDERS, _limit_kernel_quadrature, _scaling_sample

    rule = gauss_legendre(QUADRATURE_ORDERS["limit_panel"], 0.0, 1.0)
    for point in _scaling_sample():
        assert abs(_limit_kernel_quadrature(*point, rule)[0] - _scipy_limit_kernel(*point)) < 1e-13


def test_scaling_check_tail_bound_covers_doubled_range():
    from lebp.validation import (
        LIMIT_TAIL,
        QUADRATURE_ORDERS,
        _limit_kernel_quadrature,
        _scaling_sample,
        check_scaling_limit,
    )

    rule = gauss_legendre(QUADRATURE_ORDERS["limit_panel"], 0.0, 1.0)
    printed = check_scaling_limit()[1].detail
    bound = float(printed.rsplit("tail bound ", 1)[1])
    assert 0.0 < bound <= LIMIT_TAIL
    infinite = [p for p in _scaling_sample() if p[0] > p[2]]
    assert infinite
    for u, a, up, ap in infinite:
        c = u - up
        value, own = _limit_kernel_quadrature(u, a, up, ap, rule)
        t = max(2, math.ceil(math.log(1.0 / (LIMIT_TAIL * c)) / c))
        assert own == pytest.approx(2.0 / math.pi * math.exp(-c * t) / c)
        longer, _ = _limit_kernel_quadrature(u, a, up, ap, rule, t_max=2 * t)
        assert abs(longer - value) < min(own, bound)


def test_limit_kernel_edge_cases():
    with pytest.raises(DomainError):
        limit_kernel(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        limit_kernel(0.0, -0.5, 1.0, 2.0)
    assert limit_kernel(0.0, 0.0, 1.0, 1.0) == 0.0
    assert limit_kernel(2.0, 1.0, 0.0, 0.0) == 0.0


def test_scaled_kernel_approaches_limit():
    # kernel at radius N+u and angle a/N against the limit, N = 500
    big = 500
    for u, up, a, ap in [(0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 2.0), (-1.0, 2.0, 2.0, 1.0)]:
        scaled = kernel_semicircle(big, big + u, a / big, big + up, ap / big).value
        assert abs(scaled - limit_kernel(u, a, up, ap)) < 1e-2
