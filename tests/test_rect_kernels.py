import math

import numpy as np
import pytest

from lebp.errors import DomainError, PrecisionError, TruncationError
from lebp.numerics import (
    TailBoundedValue,
    det_lu,
    gauss_legendre,
    graded_det,
)
from lebp import numerics, rect_kernels
from lebp.correlation import density_semicircle, kernel_strip
from lebp.passage_densities import ChamberSequence, joint_pdf, norm_inner
from lebp.rect_kernels import (
    RectConfig,
    _series_terms,
    _sine_series,
    boundary_coeffs,
    boundary_poisson_rect,
    crossing_decay_rate,
    crossing_exponent_fit,
    crossing_ratio,
    fomin_boundary_det,
    fomin_inner_det,
    hat_h,
    inner_coeffs,
    poisson_rect,
    weyl_point,
)
from oracles import crossing_prefactor, poly_geom_tail

PI = math.pi
# the single-series target of these checks, two digits below SERIES_TOL
TIGHT = 1e-14


@pytest.fixture(autouse=True)
def tight_series(monkeypatch):
    """Truncate every single series and kernel determinant of rect_kernels
    at TIGHT instead of SERIES_TOL."""
    monkeypatch.setattr(rect_kernels, "SERIES_TOL", TIGHT)

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
        got = poisson_rect(RectConfig(L), x, th, rho)
        assert abs(got.value - want) <= got.bound + 1e-14
        assert got.bound <= TIGHT


def test_boundary_poisson_reference_values():
    for (L, phi, rho), want in BOUNDARY_REFS:
        got = boundary_poisson_rect(RectConfig(L), phi, rho)
        assert abs(got.value - want) <= got.bound + 1e-14


def test_poisson_rect_broadcasts():
    cfg = RectConfig(2.0)
    th = np.linspace(0.3, 2.8, 7)
    out = poisson_rect(cfg, 1.0, th[:, None], th[None, :])
    assert out.value.shape == (7, 7)
    # symmetric in (theta, rho)
    assert np.abs(out.value - out.value.T).max() < 1e-15
    single = poisson_rect(cfg, 1.0, th[2], th[5]).value
    assert abs(out.value[2, 5] - single) < 1e-15


def test_matrix_grids_match_scalar_calls_bitwise():
    # a broadcast grid returns the scalar call's bits at every entry, on
    # series of a few hundred terms
    th = np.linspace(0.05, 3.0, 9)
    rho = np.linspace(0.2, 3.1, 11)
    grids = [
        (poisson_rect, (RectConfig(2.0), 1.9)),
        (boundary_poisson_rect, (RectConfig(0.3),)),
    ]
    for kernel, args in grids:
        got = kernel(*args, th[:, None], rho[None, :]).value
        assert got.shape == (9, 11)
        for i, t in enumerate(th):
            for j, r in enumerate(rho):
                assert got[i, j] == kernel(*args, float(t), float(r)).value


def _scalar_calls(evaluate, *angles):
    """evaluate at every broadcast point of `angles`, one scalar call each."""
    grids = np.broadcast_arrays(*angles)
    want = np.empty(grids[0].shape)
    for idx in np.ndindex(want.shape):
        want[idx] = evaluate(*(float(g[idx]) for g in grids))
    return want


TH = np.linspace(0.05, 3.0, 9)
RHO = np.linspace(0.2, 3.1, 11)


@pytest.mark.parametrize(
    "evaluate, angles",
    [
        # x <= x': the exact four-term sum
        (lambda t, r: kernel_strip(4, 0.7, t, 1.3, r).value, (TH[:, None], RHO[None, :])),
        # x > x': the tail, several hundred terms
        (lambda t, r: kernel_strip(3, 1.05, t, 1.0, r).value, (TH[:, None], RHO[None, :])),
        # the same array as both arguments: one sine table
        (lambda t: density_semicircle(7, 2.0, t), (np.concatenate([TH, RHO]).reshape(4, 5),)),
        # three axes: theta varies along two of them, rho along the third
        (
            lambda t, r: poisson_rect(RectConfig(2.0), 1.9, t, r).value,
            (TH[:3, None, None] + RHO[None, None, :4] / 10.0, RHO[None, :5, None]),
        ),
        # equal shapes: nothing is broadcast
        (
            lambda t, r: boundary_poisson_rect(RectConfig(0.3), t, r).value,
            (np.resize(TH, (6, 7)), np.resize(RHO[::-1], (6, 7))),
        ),
    ],
    ids=["finite-branch", "tail-branch", "same-array", "three-axes", "equal-shapes"],
)
def test_factored_sine_tables_keep_scalar_bits(evaluate, angles):
    assert np.array_equal(evaluate(*angles), _scalar_calls(evaluate, *angles))


@pytest.mark.parametrize("block", [numerics.BLOCK_ENTRIES, 7 * 600])
def test_factored_sine_tables_cross_chunk_edges(monkeypatch, block):
    # 41 x 50 points of 600 terms exceed BLOCK_ENTRIES, so chunks end inside
    # rows of the grid; 2-point chunks also span more theta' than they hold
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", block)
    coeffs = 1.0 / np.arange(1.0, 601.0) ** 2
    th, tp = np.linspace(0.0, math.pi, 41), np.linspace(0.1, 3.0, 50)
    assert th.size * tp.size * coeffs.size > numerics.BLOCK_ENTRIES
    got = _sine_series(coeffs, th[:, None], tp[None, :])
    want = _scalar_calls(lambda t, r: _sine_series(coeffs, t, r), th[:, None], tp[None, :])
    assert np.array_equal(got, want)


def test_poisson_rect_domain_checks(monkeypatch):
    cfg = RectConfig(2.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, 2.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        poisson_rect(cfg, 1.0, 3.5, 1.0)
    with pytest.raises(PrecisionError):
        poisson_rect(cfg, 2.0 - 1e-5, 1.0, 1.0)  # gap below MIN_GAP
    monkeypatch.setattr(rect_kernels, "N_MAX", 3)
    monkeypatch.setattr(rect_kernels, "MIN_GAP", 1e-6)
    with pytest.raises(TruncationError):
        poisson_rect(cfg, 1.999, 1.0, 1.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: kernel_strip(3, 1.0, math.nan, 2.0, 0.5),
        lambda: density_semicircle(3, 2.0, np.array([0.5, math.nan])),
        lambda: norm_inner(RectConfig(2.0), 1.0, np.array([[0.5, math.nan]])),
        lambda: fomin_boundary_det(RectConfig(2.0), (0.5, 1.5), np.array([[0.5, math.nan]])),
    ],
    ids=["kernel_strip", "density_semicircle", "norm_inner", "fomin_boundary_det"],
)
def test_nan_angles_are_out_of_range(evaluate):
    with pytest.raises(DomainError, match=r"angles must lie in \[0, pi\]"):
        evaluate()


def test_truncation_error_carries_achieved_bound(monkeypatch):
    monkeypatch.setattr(rect_kernels, "N_MAX", 3)
    monkeypatch.setattr(rect_kernels, "MIN_GAP", 1e-6)
    try:
        poisson_rect(RectConfig(2.0), 1.99, 1.0, 1.0)
    except TruncationError as err:
        assert err.achieved is not None and err.achieved > 1e-14
    else:
        pytest.fail("expected TruncationError")


def test_tail_bound_is_honest(monkeypatch):
    # a loose-target evaluation must sit within its own bound of a tight one
    cfg = RectConfig(1.2)

    def loose(kernel, *args):
        with monkeypatch.context() as m:
            m.setattr(rect_kernels, "SERIES_TOL", 1e-5)
            return kernel(cfg, *args)

    for x, th, rho in [(0.4, 0.9, 2.0), (1.0, 2.7, 0.3)]:
        got = loose(poisson_rect, x, th, rho)
        tight = poisson_rect(cfg, x, th, rho)
        assert abs(got.value - tight.value) <= got.bound
    got = loose(boundary_poisson_rect, 0.9, 2.0)
    tight = boundary_poisson_rect(cfg, 0.9, 2.0)
    assert abs(got.value - tight.value) <= got.bound
    # the strip kernel's tail branch reads the same target when it runs
    with monkeypatch.context() as m:
        m.setattr(rect_kernels, "SERIES_TOL", 1e-5)
        got = kernel_strip(3, 1.5, 1.0, 1.0, 2.0)
    tight = kernel_strip(3, 1.5, 1.0, 1.0, 2.0)
    assert got.bound > 1e-12  # measured 6.3e-6, against a gap of 5.3e-7
    assert abs(got.value - tight.value) <= got.bound


@pytest.mark.parametrize(
    "kind, x, L, target, at_least",
    [
        ("inner", 0.4, 1.2, 1e-12, 1),
        ("inner", 1.1, 1.2, 1e-16, 3),
        ("inner", 2.0, 9.0, 1e-3, 5),
        ("boundary", 0.0, 0.3, 2e-16, 3),
        ("boundary", 0.0, 2.5, 1e-12, 1),
        ("boundary", 0.0, 12.0, 1e-25, 2),
    ],
)
def test_series_terms_certify_their_tail(monkeypatch, kind, x, L, target, at_least):
    # the one truncation rule of every series: the closed-form majorant tail
    # meets the target and bounds the true tail of the coefficients
    coeffs, tail = _series_terms(x, L, target, at_least)
    n0 = coeffs.size
    assert n0 >= at_least and tail <= target
    rest = np.arange(n0 + 1, 40 * n0 + 200)
    true_tail = (boundary_coeffs(rest, L) if kind == "boundary" else inner_coeffs(rest, x, L)).sum()
    assert true_tail <= tail
    # the search steps by n0 // 8, so half the terms never suffice
    if n0 // 2 >= at_least:
        monkeypatch.setattr(rect_kernels, "N_MAX", n0 // 2)
        with pytest.raises(TruncationError) as exc:
            _series_terms(x, L, target, at_least)
        assert exc.value.achieved > target


def test_one_gap_precondition_for_every_interior_series():
    # every route to an interior series refuses a gap below MIN_GAP with the
    # one message of _series_terms
    length = 2.0
    x = length - 2.0**-12
    cfg, pair = RectConfig(length), (1.0, 2.0)
    calls = [
        lambda: poisson_rect(cfg, x, 1.0, 2.0),
        lambda: fomin_inner_det(cfg, x, pair, pair),
        lambda: norm_inner(cfg, x, pair),
        lambda: joint_pdf(cfg, ChamberSequence((x,)), [pair], (0.8, 2.1)),
        lambda: kernel_strip(2, length, 1.0, x, 2.0),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(PrecisionError) as exc:
            call()
        messages.add(str(exc.value))
    assert len(messages) == 1
    assert "below MIN_GAP" in messages.pop()


def test_kernels_are_positive_inside():
    cfg = RectConfig(2.0)
    th = np.linspace(0.1, PI - 0.1, 9)
    assert np.all(poisson_rect(cfg, 0.8, th[:, None], th[None, :]).value > 0)
    assert np.all(boundary_poisson_rect(cfg, th[:, None], th[None, :]).value > 0)


# --- determinants ----------------------------------------------------------


def test_fomin_boundary_det_reference():
    # 50-digit reference for L=4, phi=(1, 2), rho=(1.2, 1.9)
    got = fomin_boundary_det(RectConfig(4.0), (1.0, 2.0), (1.2, 1.9))
    assert abs(got - 3.5335356527294706959e-05) < 1e-15


def test_fomin_inner_det_reference():
    got = fomin_inner_det(RectConfig(3.0), 1.3, (0.9, 2.0), (1.1, 2.4))
    assert abs(got - 0.004666554921820348305) < 1e-14


def test_fomin_det_single_point_reduces_to_kernel():
    # the 1 x 1 determinant and the kernel are separate truncations of one
    # series: the determinant is held to rounding, the kernel to its bound
    cfg = RectConfig(2.0)
    want = 0.1126154911851301650623237  # 50 digits
    d = fomin_boundary_det(cfg, (1.1,), (2.0,))
    k = boundary_poisson_rect(cfg, 1.1, 2.0)
    assert abs(d - want) <= 1e-15 * want
    assert abs(d - k.value) <= k.bound


def test_stacked_fomin_dets_match_per_tuple_calls_bitwise():
    cfg = RectConfig(2.5)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        start = np.sort(rng.uniform(0.2, 2.9, n))
        stack = np.sort(rng.uniform(0.05, PI - 0.05, (3, 5, n)), axis=-1)
        evaluations = [
            lambda rho: fomin_boundary_det(cfg, start, rho),
            lambda rho: fomin_inner_det(cfg, 1.1, start, rho),
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
        fomin_boundary_det(cfg, (0.5, 1.5), np.full((2, 2), 4.0))
    with pytest.raises(DomainError):
        fomin_inner_det(cfg, 1.1, (0.5, 1.5), np.ones((2, 3)))


# 50-digit oracles: each entry summed directly until its terms fall below 1e-60

DET_CASES = {
    2: ((1.0, 2.0), (1.2, 1.9)),
    3: ((0.8, 1.6, 2.4), (0.9, 1.7, 2.5)),
    4: ((0.5, 1.1, 1.8, 2.5), (0.6, 1.2, 1.9, 2.6)),
}


def _mp_kernel_det(coeff, decay, start, rho):
    """det[(2/pi) sum_n coeff(n) sin(n start_j) sin(n rho_k)] at 50 digits,
    for coefficients that fall like n e^{-n decay}."""
    import mpmath as mp

    with mp.workdps(50):
        ns = range(1, int(60 * math.log(10) / decay) + 31)
        c = [2 * coeff(n) / mp.pi for n in ns]
        s_start, s_rho = ([[mp.sin(n * mp.mpf(t)) for n in ns] for t in ts] for ts in (start, rho))
        m = [[mp.fsum(map(mp.fmul, c, map(mp.fmul, a, b))) for b in s_rho] for a in s_start]
        return float(mp.det(mp.matrix(m)))


def _mp_boundary_det(length, phi, rho):
    import mpmath as mp

    return _mp_kernel_det(lambda n: n / mp.sinh(n * mp.mpf(length)), length, phi, rho)


def _mp_inner_det(length, x, theta, rho):
    import mpmath as mp

    def coeff(n):
        return mp.sinh(n * mp.mpf(x)) / mp.sinh(n * mp.mpf(length))

    return _mp_kernel_det(coeff, length - x, theta, rho)


@pytest.mark.parametrize("n", sorted(DET_CASES))
def test_fomin_boundary_det_matches_mpmath(n):
    # an LU of the assembled kernel matrix cancels the leading frequencies
    # here: 2.3e-5 relative at x = 5 and every digit at x >= 8 (N = 4)
    phi, rho = DET_CASES[n]
    for x in range(2, 11):
        want = _mp_boundary_det(x, phi, rho)
        got = fomin_boundary_det(RectConfig(float(x)), phi, rho)
        assert abs(got - want) <= 1e-13 * abs(want), (x, got, want)


@pytest.mark.parametrize("n", sorted(DET_CASES))
def test_fomin_inner_det_matches_mpmath(n):
    theta, rho = DET_CASES[n]
    for length, x in [(6.0, 5.0), (3.0, 1.0), (5.0, 2.0), (8.0, 2.0), (12.0, 1.5), (12.0, 4.0)]:
        want = _mp_inner_det(length, x, theta, rho)
        got = fomin_inner_det(RectConfig(length), x, theta, rho)
        assert abs(got - want) <= 1e-13 * abs(want), (length, x, got, want)


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6])
def test_fomin_dets_at_close_angles_match_mpmath(delta):
    # sin(n theta) of a rounded angle limits any route to about u / delta
    # relative; an LU of the assembled kernel matrix is off by up to 1.2e-10
    # at every delta here (7.6e-10 at 1e-6)
    pairs = [
        ((1.0, 1.0 + delta), (1.2, 1.9)),
        ((1.0, 2.0), (1.2, 1.2 + delta)),
        ((0.8, 1.6, 1.6 + delta), (0.9, 1.7, 2.5)),
        ((0.8, 1.6, 2.4), (0.9, 0.9 + delta, 2.5)),
    ]
    tol = 1e-15 / delta
    for x in (1.0, 2.0):
        for start, end in pairs:
            want = _mp_boundary_det(x, start, end)
            got = fomin_boundary_det(RectConfig(x), start, end)
            assert abs(got - want) <= tol * abs(want), (x, start, end)
            want = _mp_inner_det(x + 1.0, x, start, end)
            got = fomin_inner_det(RectConfig(x + 1.0), x, start, end)
            assert abs(got - want) <= tol * abs(want), (x, start, end)


def test_weyl_point_validation():
    with pytest.raises(DomainError):
        weyl_point((2.0, 1.0))
    with pytest.raises(DomainError):
        weyl_point((0.0, 1.0))
    with pytest.raises(DomainError):
        weyl_point(())
    with pytest.raises(DomainError):
        weyl_point(1.0)
    with pytest.raises(DomainError):
        weyl_point([[0.5, 1.5]])
    wp = weyl_point((0.5, 1.5, 2.5))
    assert wp.shape == (3,) and not wp.flags.writeable
    assert np.array_equal(weyl_point(wp), wp)
    with pytest.raises(DomainError):
        fomin_boundary_det(RectConfig(2.0), (0.5, 1.5), (1.0,))


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


# --- partition expansion: graded_det's double-precision oracle ---------------


def partitions(cap, parts):
    """Yield integer partitions with at most `parts` parts and weight <= cap,
    graded by weight and lexicographic within each weight.  Tuples are padded
    with zeros to length `parts`."""

    def fixed_weight(w, slots, maximum):
        if slots == 1:
            if w <= maximum:
                yield (w,)
            return
        for first in range(min(w, maximum), (w + slots - 1) // slots - 1, -1):
            for rest in fixed_weight(w - first, slots - 1, first):
                yield (first,) + rest

    for w in range(cap + 1):
        yield from fixed_weight(w, parts, w)


def fomin_expansion(cfg, phi, rho, partition_cap, tol=None):
    """Boundary determinant as a partition sum (Cauchy-Binet over the
    sine frequencies):

        f(phi, rho) = sum_lambda a_lambda * D_lambda(phi) * D_lambda(rho)

    with m_k = lambda_k + N - k + 1, a_lambda = prod_k c_{m_k} over the
    boundary_coeffs c_m = (2/pi) m / sinh(m L), and D_lambda(theta) =
    det[sin(m_k theta_j)].  Every partition of weight up to `partition_cap`
    contributes and math.fsum adds the terms; the returned bound certifies
    the rest of the sum.  With `tol` given, a bound above it raises
    TruncationError.
    """
    phi, rho = weyl_point(phi), weyl_point(rho)
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
        (2.0 / PI) ** n
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


def _graded_boundary_det(length, phi, rho, frequencies):
    """graded_det of the edge-to-edge kernel over the frequencies 1..M, times
    the leading coefficients it splits off."""
    m = np.arange(1, frequencies + 1)
    a, b = (np.sin(np.outer(t, m)) for t in (phi, rho))
    c = boundary_coeffs(m, length)
    return np.prod(c[: len(phi)]) * graded_det(a, c, b, det_lu(a[:, : len(phi)]))


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


def test_partitions_graded_order():
    got = list(partitions(3, 2))
    assert got == [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1)]
    assert all(len(p) == 3 for p in partitions(4, 3))
    # weights never decrease along the stream
    weights = [sum(p) for p in partitions(6, 3)]
    assert weights == sorted(weights)


def test_fomin_expansion_matches_determinant():
    # the partition sum and graded_det are two orderings of one Cauchy-Binet
    # sum; 60 frequencies leave less than 1e-60 of it out
    for length, phi, rho, caps in [
        (2.5, (0.8, 1.7), (1.1, 2.2), (8, 16)),
        (3.0, (0.8, 1.6, 2.4), (0.9, 1.7, 2.5), (14,)),
    ]:
        det = _graded_boundary_det(length, phi, rho, 60)
        for cap in caps:
            ex = fomin_expansion(RectConfig(length), phi, rho, cap)
            assert abs(ex.value - det) <= ex.bound + 1e-15 * abs(det), (length, cap)


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
    lhs = poisson_rect(cfg, x, theta0, rho0).value
    first = poisson_rect(RectConfig(xp), x, theta0, rule.nodes).value
    second = poisson_rect(cfg, xp, rule.nodes, rho0).value
    assert abs(lhs - rule.weights @ (first * second)) < 1e-12


def test_boundary_kernel_semigroup_single_point():
    cfg = RectConfig(2.0)
    rule = gauss_legendre(200)
    xp = 1.2
    phi0, rho0 = 1.3, 2.1
    lhs = boundary_poisson_rect(cfg, phi0, rho0).value
    first = boundary_poisson_rect(RectConfig(xp), phi0, rule.nodes).value
    second = poisson_rect(cfg, xp, rule.nodes, rho0).value
    assert abs(lhs - rule.weights @ (first * second)) < 1e-12


# --- crossing ratio ----------------------------------------------------------


def test_crossing_decay_rate_values():
    assert crossing_decay_rate(1) == 0.0
    assert crossing_decay_rate(2) == 1.0
    assert crossing_decay_rate(3) == 3.0
    assert crossing_decay_rate(4) == 6.0


def test_crossing_ratio_converges_to_prefactor():
    phi, rho = weyl_point((1.0, 2.0)), weyl_point((1.2, 1.9))
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
    # floor of a determinant of double-precision kernel values; at short
    # lengths the series need hundreds of terms
    for length in (0.3, 0.6, 6.0, 8.0, 10.0, 12.0):
        want = _mp_crossing_ratio(length, phi, rho)
        got = crossing_ratio(RectConfig(length), phi, rho)
        assert abs(got - want) <= 1e-13 * abs(want), (length, got, want)


def test_crossing_exponent_fit_refuses_a_non_positive_ratio():
    # the far-apart diagonal pair phi_1 = 0.3, rho_1 = 2.7 leaves the diagonal
    # product far below the numerator's rounding at short lengths: the
    # computed ratios are -1.89 at L = 0.02 and -7.90 at L = 0.01, and every
    # true ratio is positive.  The first such length is named, before the
    # fit takes a logarithm.
    with pytest.raises(PrecisionError, match="at length 0.02 is not positive"):
        crossing_exponent_fit((0.3, 2.8), (2.7, 2.9), (0.2, 0.02, 0.01))


@pytest.mark.parametrize("lengths", [(6.0,), (6.0, 6.0), (8.0, 8.0, 8.0)])
def test_crossing_exponent_fit_needs_two_distinct_lengths(lengths):
    # one repeated length has no slope; polyfit would warn and return one anyway
    with pytest.raises(DomainError, match="two distinct"):
        crossing_exponent_fit((1.0, 2.0), (1.2, 1.9), lengths)
