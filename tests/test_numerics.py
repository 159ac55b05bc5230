import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lebp.errors import DomainError, PrecisionError
from lebp.rect_kernels import hat_h
from lebp.numerics import (
    QuadratureRule,
    SeriesPolicy,
    TailBoundedValue,
    chamber_integrate,
    det_lu,
    gauss_legendre,
    graded_pfaffian,
    ordered_minor_sum,
    pfaffian,
    poly_geom_tail,
    sinh_ratio,
)


def test_weights_sum_to_interval_length():
    for order in (2, 8, 32, 64, 200):
        rule = gauss_legendre(order)
        assert abs(rule.weights.sum() - math.pi) <= 1e-14 * math.pi


def test_polynomial_exactness():
    rule = gauss_legendre(8)
    # exact through degree 15
    for k in range(0, 15):
        got = rule.weights @ rule.nodes**k
        want = math.pi ** (k + 1) / (k + 1)
        assert abs(got - want) <= 1e-13 * want


def test_sine_orthogonality_order_64_low_frequencies():
    rule = gauss_legendre(64)
    s = np.sin(np.outer(np.arange(1, 16), rule.nodes))
    gram = (s * rule.weights) @ s.T
    err = np.abs(gram - np.eye(15) * (math.pi / 2)).max()
    assert err < 1e-12


def test_sine_orthogonality_order_200_through_frequency_50():
    # 64 nodes cannot resolve frequency-100 oscillations; 200 nodes can.
    rule = gauss_legendre(200)
    s = np.sin(np.outer(np.arange(1, 51), rule.nodes))
    gram = (s * rule.weights) @ s.T
    err = np.abs(gram - np.eye(50) * (math.pi / 2)).max()
    assert err < 1e-12


def test_quadrature_rule_validation():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        gauss_legendre(0)


def test_series_policy_validation():
    with pytest.raises(PrecisionError):
        SeriesPolicy(tol=0.0)
    with pytest.raises(PrecisionError):
        SeriesPolicy(n_max=0)
    with pytest.raises(PrecisionError):
        SeriesPolicy(min_gap=-1.0)
    pol = SeriesPolicy(tol=1e-10)
    assert pol.n_max == 100_000 and pol.min_gap == 1e-3


def test_chamber_volume():
    rule = gauss_legendre(24)
    for ndim in (1, 2, 3):
        got = chamber_integrate(lambda p: np.ones(len(p)), rule, ndim)
        want = math.pi**ndim / math.factorial(ndim)
        assert abs(got - want) <= 1e-12 * want


def test_chamber_product_of_sines_squared():
    rule = gauss_legendre(64)
    got = chamber_integrate(lambda p: np.prod(np.sin(p) ** 2, axis=1), rule, 2)
    assert abs(got - math.pi**2 / 8) <= 1e-12


def test_chamber_blocks_do_not_change_the_value(monkeypatch):
    from lebp import numerics

    def f(p):
        return hat_h(p) ** 2 * np.exp(np.cos(p).sum(axis=1))

    rule = gauss_legendre(16)
    want = [chamber_integrate(f, rule, ndim) for ndim in (1, 2, 3)]
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 7)
    got = [chamber_integrate(f, rule, ndim) for ndim in (1, 2, 3)]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_chamber_matches_monte_carlo():
    # symmetric but non-separable integrand; fixed-seed MC as an independent check
    def f(p):
        return np.exp(np.sin(p).sum(axis=1)) * np.cos(p.prod(axis=1))

    rule = gauss_legendre(48)
    quad = chamber_integrate(f, rule, 2)
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(0.0, math.pi, size=(200_000, 2))
    vals = f(pts)
    mc = vals.mean() * math.pi**2 / 2
    sigma = vals.std(ddof=1) / math.sqrt(len(vals)) * math.pi**2 / 2
    assert abs(quad - mc) < 3 * sigma


def test_chamber_andreief_identity():
    # cube integral of det[phi_k(t_j)] det[psi_k(t_j)] / N! equals the Gram determinant
    rng = np.random.default_rng(3)
    cphi = rng.normal(size=(3, 6))
    cpsi = rng.normal(size=(3, 6))

    def basis(coeff, t):
        return np.stack([np.polynomial.polynomial.polyval(t, c) for c in coeff], axis=-1)

    def f(p):
        a = basis(cphi, p)  # (m, N[t_j], N[k]) after stacking? build explicitly
        b = basis(cpsi, p)
        da = np.linalg.det(a)
        db = np.linalg.det(b)
        return da * db

    rule = gauss_legendre(32)
    lhs = chamber_integrate(f, rule, 3)
    phi_vals = basis(cphi, rule.nodes)
    psi_vals = basis(cpsi, rule.nodes)
    gram = (phi_vals * rule.weights[:, None]).T @ psi_vals
    rhs = np.linalg.det(gram)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_det_lu_against_numpy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 12):
        a = rng.normal(size=(n, n))
        assert abs(det_lu(a) - np.linalg.det(a)) <= 1e-10 * max(1.0, abs(np.linalg.det(a)))


def test_det_lu_singular_returns_zero():
    assert det_lu(np.ones((3, 3))) == 0.0
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert det_lu(a) == 0.0


def _mp_det_rel_err(got, a):
    """|got - det a| / |det a|, with det a taken at 40 digits from the exact
    double entries of a."""
    import mpmath as mp

    with mp.workdps(40):
        ref = mp.det(mp.matrix([[mp.mpf(float(v)) for v in row] for row in a]))
        return float(abs(mp.mpf(got) - ref) / abs(ref))


def test_det_lu_matches_mpmath_oracle():
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        a = rng.normal(size=(n, n))
        assert _mp_det_rel_err(det_lu(a), a) <= 1e-14, n

    # an odd row permutation flips the sign and nothing else
    a = rng.normal(size=(6, 6))
    perm = [3, 0, 5, 1, 4, 2]
    assert det_lu(a[perm]) == -det_lu(a)
    assert _mp_det_rel_err(det_lu(a[perm]), a[perm]) <= 1e-14

    # eight pivots of 1e-2.5 .. 1e-4 multiply to about 1e-27: the product of
    # pivots keeps a few ulps, where sign * exp(log|det|) loses about 2e-15
    rng = np.random.default_rng(1)
    d = 10.0 ** -rng.uniform(2.5, 4.0, 8)
    a = 1e-3 * np.sqrt(np.outer(d, d)) * rng.uniform(-1.0, 1.0, (8, 8))
    a[np.diag_indices(8)] = d
    assert 1e-28 < det_lu(a) < 1e-26
    assert _mp_det_rel_err(det_lu(a), a) <= 1e-15


def test_staircase_det_at_close_angles_matches_mpmath_oracle():
    # det[sin(m_k angle_j)] at angles 1e-3 and 1e-4 apart is ill-conditioned;
    # LU keeps the error within n * eps * cond of the exact determinant of
    # the rounded sine matrix
    for angles in ([1.0, 1.001, 1.002], [1.2, 1.2001, 1.2003], [0.5, 0.51, 0.52, 0.53, 0.54]):
        angles = np.array(angles)
        m = np.arange(1.0, angles.size + 1)
        mat = np.sin(np.outer(angles, m))
        err = _mp_det_rel_err(det_lu(mat), mat)
        assert err <= angles.size * np.finfo(float).eps * np.linalg.cond(mat), angles


def test_stacked_det_lu_matches_each_matrix_bitwise():
    rng = np.random.default_rng(8)
    for n in range(1, 13):
        stack = rng.normal(size=(2, 3, n, n))
        # a zero column: the pivot vanishes at the first step
        stack[0, 1, :, 0] = 0.0
        # rows that cancel exactly: the pivot vanishes at a later step
        stack[1, 2] = 1.0
        dets = det_lu(stack)
        assert dets.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert dets[idx] == det_lu(stack[idx]), (n, idx)
            assert type(det_lu(stack[idx])) is float
        assert dets[0, 1] == 0.0 and not np.signbit(dets[0, 1])
        if n > 1:
            assert dets[1, 2] == 0.0 and not np.signbit(dets[1, 2])
    assert det_lu(np.zeros((4, 0, 0))).tolist() == [1.0] * 4


def test_det_lu_rejects_oversize_and_nonfinite():
    with pytest.raises(DomainError):
        det_lu(np.eye(65))
    with pytest.raises(DomainError):
        det_lu(np.array([[np.nan]]))
    with pytest.raises(DomainError):
        det_lu(np.ones((2, 3)))
    with pytest.raises(DomainError):
        det_lu(np.ones(3))
    with pytest.raises(DomainError):
        det_lu(np.stack([np.eye(2), np.full((2, 2), np.inf)]))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    num=st.floats(min_value=0.01, max_value=4.0),
    gap=st.floats(min_value=0.0, max_value=4.0),
)
def test_sinh_ratio_matches_direct_evaluation(n, num, gap):
    den = num + gap
    direct = math.sinh(n * num) / math.sinh(n * den)
    assert abs(sinh_ratio(n, num, den) - direct) <= 5e-14 * direct


def test_sinh_ratio_huge_argument():
    # sinh(600)/sinh(1000); direct evaluation overflows. 40-digit reference value.
    assert abs(sinh_ratio(200, 3.0, 5.0) - 1.9151695967140057e-174) <= 1e-188


def test_sinh_ratio_vectorized_and_validated():
    n = np.arange(1, 10)
    out = sinh_ratio(n, 1.0, 2.0)
    assert out.shape == (9,)
    assert abs(out[2] - math.sinh(3.0) / math.sinh(6.0)) < 1e-16
    with pytest.raises(DomainError):
        sinh_ratio(0, 1.0, 2.0)
    with pytest.raises(DomainError):
        sinh_ratio(1, -1.0, 2.0)


def test_poly_geom_tail_is_a_valid_and_reasonable_bound():
    cases = [
        (0.7, [(0.0, 2)], 5),
        (0.95, [(1.0, 3)], 10),
        (0.1, [(2.0, 1), (0.0, 1)], 1),
    ]
    for q, factors, n0 in cases:
        actual = 0.0
        for n in range(n0, 5000):
            t = q**n
            for c, p in factors:
                t *= (n + c) ** p
            actual += t
        bound = poly_geom_tail(q, factors, n0)
        assert bound >= actual
        assert bound <= 100 * actual


def test_ordered_minor_sum_matches_brute_force():
    rng = np.random.default_rng(7)
    for nrows, ncols in [(1, 4), (2, 5), (3, 6), (4, 6)]:
        m = rng.normal(size=(nrows, ncols))
        brute = sum(
            np.linalg.det(m[:, list(c)]) for c in itertools.combinations(range(ncols), nrows)
        )
        assert abs(ordered_minor_sum(m) - brute) <= 1e-12 * max(1.0, abs(brute))


def test_pfaffian_against_expansion_and_determinant():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(4, 4))
    a -= a.T
    expansion = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert pfaffian(a) == pytest.approx(expansion, rel=1e-13)
    for n in (2, 6, 8):
        stack = rng.normal(size=(5, n, n))
        stack -= np.swapaxes(stack, -1, -2)
        pf = pfaffian(stack)
        assert pf.shape == (5,)
        assert np.allclose(pf**2, np.linalg.det(stack), rtol=1e-12)
    # odd size: zero, or the Pfaffian of the bordered matrix
    b = a[:3, :3]
    v = rng.normal(size=3)
    bordered = np.block([[b, v[:, None]], [-v[None, :], np.zeros((1, 1))]])
    assert pfaffian(b) == 0.0
    assert pfaffian(b, v) == pytest.approx(pfaffian(bordered), rel=1e-13)
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_graded_pfaffian_matches_plain_form():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(7, 7))
    x -= x.T
    v = rng.normal(size=7)
    for n in (2, 3, 4):
        b = rng.normal(size=(7, n))
        plain = pfaffian(b.T @ x @ b, b.T @ v)
        assert graded_pfaffian(b, lambda q: x @ q, v) == pytest.approx(plain, rel=1e-12)


def test_tail_bounded_value_fields():
    tv = TailBoundedValue(1.5, 1e-14)
    assert tv.value == 1.5 and tv.bound == 1e-14
