import math

import numpy as np
import pytest

from lebp.errors import DomainError, PrecisionError, TruncationError
from lebp.numerics import SeriesPolicy, det_lu, gauss_legendre
from lebp.rect_kernels import (
    RectConfig,
    WeylPoint,
    as_weyl,
    boundary_poisson_rect,
    crossing_decay_rate,
    crossing_exponent_fit,
    crossing_prefactor,
    crossing_ratio,
    fomin_boundary_det,
    fomin_expansion,
    fomin_inner_det,
    hat_h,
    partitions,
    poisson_rect,
)

PI = math.pi
POL = SeriesPolicy(tol=1e-14)

# reference values computed by 400-term direct summation at 50 decimal digits
POISSON_REFS = [
    ((2.0, 1.0, PI / 2, PI / 2), 0.24285984246718472653),
    ((2.0, 0.7, 1.1, 2.3), 0.051535288420726140208),
    ((0.8, 0.3, 2.0, 0.6), 0.0046721118393633281201),
]
BOUNDARY_REFS = [
    ((3.0, 1.0, 2.0), 0.044239155918210454278),
    ((1.5, 0.4, 2.9), 0.0037783777960370722062),
]


def test_poisson_rect_reference_values():
    for (L, x, th, rho), want in POISSON_REFS:
        got = poisson_rect(RectConfig(L), POL, x, th, rho)
        assert abs(got.value - want) <= got.bound + 1e-14
        assert got.bound <= POL.tol


def test_boundary_poisson_reference_values():
    for (L, phi, rho), want in BOUNDARY_REFS:
        got = boundary_poisson_rect(RectConfig(L), POL, phi, rho)
        assert abs(got.value - want) <= got.bound + 1e-14


def test_poisson_rect_broadcasts():
    cfg = RectConfig(2.0)
    th = np.linspace(0.3, 2.8, 7)
    out = poisson_rect(cfg, POL, 1.0, th[:, None], th[None, :])
    assert out.value.shape == (7, 7)
    # symmetric in (theta, rho)
    assert np.abs(out.value - out.value.T).max() < 1e-15
    single = poisson_rect(cfg, POL, 1.0, th[2], th[5]).value
    assert abs(out.value[2, 5] - single) < 1e-15


def test_matrix_grids_match_scalar_calls_bitwise():
    # a broadcast grid returns the scalar call's bits at every entry, on
    # series of a few hundred terms
    th = np.linspace(0.05, 3.0, 9)
    rho = np.linspace(0.2, 3.1, 11)
    grids = [
        (poisson_rect, (RectConfig(2.0), POL, 1.9)),
        (boundary_poisson_rect, (RectConfig(0.3), POL)),
    ]
    for kernel, args in grids:
        got = kernel(*args, th[:, None], rho[None, :]).value
        assert got.shape == (9, 11)
        for i, t in enumerate(th):
            for j, r in enumerate(rho):
                assert got[i, j] == kernel(*args, float(t), float(r)).value


def test_poisson_rect_domain_checks():
    cfg = RectConfig(2.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, POL, 2.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, POL, -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, POL, 1.0, 3.5, 1.0)
    with pytest.raises(PrecisionError):
        poisson_rect(cfg, POL, 2.0 - 1e-5, 1.0, 1.0)  # gap below min_gap
    with pytest.raises(TruncationError):
        poisson_rect(cfg, SeriesPolicy(tol=1e-14, n_max=3, min_gap=1e-6), 1.999, 1.0, 1.0)


def test_truncation_error_carries_achieved_bound():
    try:
        poisson_rect(RectConfig(2.0), SeriesPolicy(tol=1e-14, n_max=3, min_gap=1e-6), 1.99, 1.0, 1.0)
    except TruncationError as err:
        assert err.achieved is not None and err.achieved > 1e-14
    else:
        pytest.fail("expected TruncationError")


def test_tail_bound_is_honest():
    # a loose-tolerance evaluation must sit within its own bound of a tight one
    cfg = RectConfig(1.2)
    loose_pol = SeriesPolicy(tol=1e-5)
    for x, th, rho in [(0.4, 0.9, 2.0), (1.0, 2.7, 0.3)]:
        loose = poisson_rect(cfg, loose_pol, x, th, rho)
        tight = poisson_rect(cfg, POL, x, th, rho)
        assert abs(loose.value - tight.value) <= loose.bound
    loose = boundary_poisson_rect(cfg, loose_pol, 0.9, 2.0)
    tight = boundary_poisson_rect(cfg, POL, 0.9, 2.0)
    assert abs(loose.value - tight.value) <= loose.bound


def test_kernels_are_positive_inside():
    cfg = RectConfig(2.0)
    th = np.linspace(0.1, PI - 0.1, 9)
    assert np.all(poisson_rect(cfg, POL, 0.8, th[:, None], th[None, :]).value > 0)
    assert np.all(boundary_poisson_rect(cfg, POL, th[:, None], th[None, :]).value > 0)


# --- determinants ----------------------------------------------------------


def test_fomin_boundary_det_reference():
    # 50-digit reference for L=4, phi=(1, 2), rho=(1.2, 1.9)
    got = fomin_boundary_det(RectConfig(4.0), POL, (1.0, 2.0), (1.2, 1.9))
    assert abs(got - 3.5335356527294706959e-05) < 1e-15


def test_fomin_inner_det_reference():
    got = fomin_inner_det(RectConfig(3.0), POL, 1.3, (0.9, 2.0), (1.1, 2.4))
    assert abs(got - 0.004666554921820348305) < 1e-14


def test_fomin_det_single_point_reduces_to_kernel():
    cfg = RectConfig(2.0)
    d = fomin_boundary_det(cfg, POL, (1.1,), (2.0,))
    k = boundary_poisson_rect(cfg, POL, 1.1, 2.0).value
    assert abs(d - k) < 1e-16


def test_stacked_fomin_dets_match_per_tuple_calls_bitwise():
    cfg = RectConfig(2.5)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        start = np.sort(rng.uniform(0.2, 2.9, n))
        stack = np.sort(rng.uniform(0.05, PI - 0.05, (3, 5, n)), axis=-1)
        evaluations = [
            lambda rho: fomin_boundary_det(cfg, POL, start, rho),
            lambda rho: fomin_inner_det(cfg, POL, 1.1, start, rho),
        ]
        for det in evaluations:
            dets = det(stack)
            assert dets.shape == (3, 5)
            for idx in np.ndindex(3, 5):
                assert dets[idx] == det(tuple(stack[idx])), (n, idx)
            # off the ordered chamber a stack is range-checked only; a swap
            # of two angles flips the sign (the antisymmetric continuation)
            if n > 1:
                off = stack.copy()
                off[..., [0, 1]] = stack[..., [1, 0]]
                swapped = det(off)
                for idx in np.ndindex(3, 5):
                    assert swapped[idx] == det(off[idx][None, :])[0]
                assert np.allclose(swapped, -dets, rtol=1e-10, atol=0.0)
    with pytest.raises(DomainError):
        fomin_boundary_det(cfg, POL, (0.5, 1.5), np.full((2, 2), 4.0))
    with pytest.raises(DomainError):
        fomin_inner_det(cfg, POL, 1.1, (0.5, 1.5), np.ones((2, 3)))


def test_weyl_point_validation():
    with pytest.raises(DomainError):
        WeylPoint((2.0, 1.0))
    with pytest.raises(DomainError):
        WeylPoint((0.0, 1.0))
    with pytest.raises(DomainError):
        WeylPoint(())
    wp = as_weyl((0.5, 1.5, 2.5))
    assert wp.n == 3 and as_weyl(wp) is wp
    with pytest.raises(DomainError):
        fomin_boundary_det(RectConfig(2.0), POL, (0.5, 1.5), (1.0,))


# --- hat_h and the sine Vandermonde ----------------------------------------


def test_hat_h_reference_value():
    # sin(pi/3) sin(2pi/3) (cos(2pi/3) - cos(pi/3)) = (3/4) * (-1)
    assert abs(hat_h((PI / 3, 2 * PI / 3)) + 0.75) < 1e-14


def test_hat_h_vectorized():
    pts = np.stack([np.linspace(0.2, 1.0, 5), np.linspace(1.5, 2.5, 5)], axis=-1)
    vals = hat_h(pts)
    assert vals.shape == (5,)
    assert abs(vals[3] - hat_h(pts[3])) < 1e-15


def test_hat_h_antisymmetric_under_swap():
    a = hat_h((0.7, 1.9, 2.3))
    b = hat_h((1.9, 0.7, 2.3))
    assert abs(a + b) < 1e-15


def test_sine_vandermonde_identity():
    # det[sin(l * theta_m)] = 2^{N(N-1)/2} hat_h(theta)
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        theta = np.sort(rng.uniform(0.05, PI - 0.05, size=n))
        det = det_lu(np.sin(np.outer(np.arange(1, n + 1), theta)))
        want = 2.0 ** (n * (n - 1) // 2) * hat_h(theta)
        assert abs(det - want) <= 1e-12 * max(1.0, abs(want))


# --- partition expansion ----------------------------------------------------


def test_partitions_graded_order():
    got = list(partitions(3, 2))
    assert got == [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1)]
    assert all(len(p) == 3 for p in partitions(4, 3))
    # weights never decrease along the stream
    weights = [sum(p) for p in partitions(6, 3)]
    assert weights == sorted(weights)


def test_fomin_expansion_matches_determinant():
    cfg = RectConfig(2.5)
    phi, rho = (0.8, 1.7), (1.1, 2.2)
    det = fomin_boundary_det(cfg, POL, phi, rho)
    for cap in (8, 16):
        ex = fomin_expansion(cfg, phi, rho, cap)
        assert abs(ex.value - det) <= ex.bound + 1e-15
    # N = 3 as well
    cfg3 = RectConfig(3.0)
    phi3, rho3 = (0.8, 1.6, 2.4), (0.9, 1.7, 2.5)
    det3 = fomin_boundary_det(cfg3, POL, phi3, rho3)
    ex3 = fomin_expansion(cfg3, phi3, rho3, 14)
    assert abs(ex3.value - det3) <= ex3.bound + 1e-15 + 1e-12 * abs(det3)


def test_fomin_expansion_single_point_is_kernel_series():
    ex = fomin_expansion(RectConfig(3.0), (1.0,), (2.0,), 30)
    assert abs(ex.value - 0.044239155918210454278) <= ex.bound + 1e-15


def test_fomin_expansion_tol_enforcement():
    with pytest.raises(TruncationError):
        fomin_expansion(RectConfig(1.0), (0.8, 1.7), (1.1, 2.2), 2, tol=1e-12)
    ex = fomin_expansion(RectConfig(1.0), (0.8, 1.7), (1.1, 2.2), 40, tol=1e-10)
    assert ex.bound <= 1e-10


# --- semigroup property -----------------------------------------------------


def test_interior_kernel_semigroup_single_point():
    cfg = RectConfig(2.0)
    rule = gauss_legendre(200)
    x, xp = 0.5, 1.2
    theta0, rho0 = 1.3, 2.1
    lhs = poisson_rect(cfg, POL, x, theta0, rho0).value
    first = poisson_rect(RectConfig(xp), POL, x, theta0, rule.nodes).value
    second = poisson_rect(cfg, POL, xp, rule.nodes, rho0).value
    assert abs(lhs - rule.weights @ (first * second)) < 1e-12


def test_boundary_kernel_semigroup_single_point():
    cfg = RectConfig(2.0)
    rule = gauss_legendre(200)
    xp = 1.2
    phi0, rho0 = 1.3, 2.1
    lhs = boundary_poisson_rect(cfg, POL, phi0, rho0).value
    first = boundary_poisson_rect(RectConfig(xp), POL, phi0, rule.nodes).value
    second = poisson_rect(cfg, POL, xp, rule.nodes, rho0).value
    assert abs(lhs - rule.weights @ (first * second)) < 1e-12


# --- crossing ratio ----------------------------------------------------------


def test_crossing_decay_rate_values():
    assert crossing_decay_rate(1) == 0.0
    assert crossing_decay_rate(2) == 1.0
    assert crossing_decay_rate(3) == 3.0
    assert crossing_decay_rate(4) == 6.0


def test_crossing_ratio_converges_to_prefactor():
    phi, rho = WeylPoint((1.0, 2.0)), WeylPoint((1.2, 1.9))
    pref = crossing_prefactor(phi, rho)
    rel = [
        crossing_ratio(RectConfig(L), phi, rho) * math.exp(L) / pref - 1.0
        for L in (6.0, 10.0, 14.0)
    ]
    assert abs(rel[0]) > abs(rel[1]) > abs(rel[2])
    assert abs(rel[2]) < 1e-4


def test_crossing_ratio_single_path_is_one():
    val = crossing_ratio(RectConfig(3.0), (1.0,), (2.0,))
    assert abs(val - 1.0) < 1e-14


def _mp_crossing_ratio(length, phi, rho):
    """det[H_b(phi_j, rho_k)] / prod_j H_b(phi_j, rho_j) at 40 digits, each
    entry summed directly until its terms fall below 1e-45."""
    import mpmath as mp

    with mp.workdps(40):
        big_l = mp.mpf(length)
        last = int(45 * math.log(10) / length) + 10

        def h_b(p, r):
            p, r = mp.mpf(p), mp.mpf(r)
            s = mp.fsum(
                n * mp.sin(n * p) * mp.sin(n * r) / mp.sinh(n * big_l) for n in range(1, last + 1)
            )
            return 2 * s / mp.pi

        m = mp.matrix([[h_b(p, r) for r in rho] for p in phi])
        return float(mp.det(m) / mp.fprod(m[j, j] for j in range(len(phi))))


@pytest.mark.parametrize(
    "phi, rho", [((1.0, 2.0), (1.2, 1.9)), ((0.8, 1.6, 2.4), (0.9, 1.7, 2.5))]
)
def test_crossing_ratio_matches_mpmath_oracle(phi, rho):
    # the ratio falls to 5e-14 at L = 12 (N = 3), far below the cancellation
    # floor of a determinant of double-precision kernel values
    for length in (6.0, 8.0, 10.0, 12.0):
        want = _mp_crossing_ratio(length, phi, rho)
        got = crossing_ratio(RectConfig(length), phi, rho, 12)
        assert abs(got - want) <= 1e-13 * abs(want), (length, got, want)


@pytest.mark.parametrize("lengths", [(6.0,), (6.0, 6.0), (8.0, 8.0, 8.0)])
def test_crossing_exponent_fit_needs_two_distinct_lengths(lengths):
    # one repeated length has no slope; polyfit would warn and return one anyway
    with pytest.raises(DomainError, match="two distinct"):
        crossing_exponent_fit((1.0, 2.0), (1.2, 1.9), lengths)
