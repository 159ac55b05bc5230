"""Tests for the lattice strip walks and their continuum refinement."""

import functools
import itertools
import math

import numpy as np
import pytest

from lebp.errors import DomainError
from lebp.lattice_validation import (
    LatticeStrip,
    boundary_refinement,
    density_refinement,
    discrete_first_passage_density,
    exit_right,
    first_passage_decomposition,
    ordered_minor_sum,
)
from lebp import lattice_validation, numerics
from lebp.lattice_validation import ROW_BLOCK, _modes
from lebp.passage_densities import ChamberSequence, joint_pdf
from lebp.rect_kernels import RectConfig, poisson_rect
from oracles import elementwise_green_block


def mode_sum_exit(strip, a):
    """Exit probabilities through the right edge by exact separation of
    variables: sine modes across the strip and a discrete-sinh two-point
    solve along it, with cosh(mu_n) = 2 - cos(n h).  Independent of the
    sparse solver."""
    rows, cols, h = strip.rows, strip.cols, strip.spacing
    i, j = a
    n = np.arange(1, rows + 1)
    mu = np.arccosh(2.0 - np.cos(n * h))
    k = np.arange(1, rows + 1)
    modes = np.sin(np.outer(n, k * h))
    coefs = 2.0 / (rows + 1) * np.sin(n * j * h) * np.sinh(mu * i) / np.sinh(mu * (cols + 1))
    return coefs @ modes


def dense_green_columns(strip, sources):
    """Green's function columns by a dense solve of I - P, with the step
    matrix P assembled from the walk's four moves: independent of the mode
    sums behind the production route."""

    def path(n):
        return np.eye(n, k=1) + np.eye(n, k=-1)

    step = 0.25 * (
        np.kron(path(strip.cols), np.eye(strip.rows))
        + np.kron(np.eye(strip.cols), path(strip.rows))
    )
    rhs = np.zeros((strip.size, len(sources)))
    for col, site in enumerate(sources):
        rhs[strip.index(site), col] = 1.0
    return np.linalg.solve(np.eye(strip.size) - step, rhs)


@functools.lru_cache(maxsize=None)
def _mp_sines(rows):
    import mpmath as mp

    with mp.workdps(40):
        h = mp.pi / (rows + 1)
        return h, [[mp.sin(k * j * h) for j in range(rows + 1)] for k in range(rows + 1)]


def mp_mode_green(rows, cols, src, col):
    """G(src, (col, j)) for j = 1..rows as a 40-digit sine-mode sum."""
    import mpmath as mp

    h, sines = _mp_sines(rows)
    ip, jp = src
    lo, hi = min(col, ip), max(col, ip)
    with mp.workdps(40):
        coef = []
        for k in range(1, rows + 1):
            mu = mp.acosh(2 - mp.cos(k * h))
            g = 4 * mp.sinh(mu * lo) * mp.sinh(mu * (cols + 1 - hi))
            g /= mp.sinh(mu) * mp.sinh(mu * (cols + 1))
            coef.append(2 * sines[k][jp] * g / (rows + 1))
        return [
            mp.fsum(c * sines[k][j] for k, c in enumerate(coef, 1))
            for j in range(1, rows + 1)
        ]


def test_single_cell_green():
    # one cell: G = 1 at the only site, and the walk leaves right with 1/4
    strip = LatticeStrip(1, 1)
    assert np.array_equal(exit_right(strip, [(1, 1)]), [[0.25]])


def test_green_symmetry():
    # reciprocity on the exit column: G((cols, a), (cols, b)) is symmetric
    strip = LatticeStrip(7, 9)
    rng = np.random.default_rng(0)
    for _ in range(8):
        a, b = (int(r) for r in rng.integers(1, strip.rows + 1, size=2))
        assert exit_right(strip, [(strip.cols, a)])[0][b - 1] == pytest.approx(
            exit_right(strip, [(strip.cols, b)])[0][a - 1], abs=1e-14
        )


def test_green_positive_and_diagonal_dominant():
    strip = LatticeStrip(5, 6)
    g = exit_right(strip, [(strip.cols, 3)])[0]
    assert np.all(g > 0.0)
    assert g[3 - 1] == g.max()


def test_exit_right_matches_mode_sum():
    for strip, a in [
        (LatticeStrip(9, 13), (3, 4)),
        (LatticeStrip(15, 15), (1, 8)),
        (LatticeStrip(6, 4), (4, 5)),
    ]:
        got = exit_right(strip, [a])[0]
        assert np.max(np.abs(got - mode_sum_exit(strip, a))) < 1e-14


@pytest.mark.parametrize(
    "strip, sources",
    [
        (LatticeStrip(600, 7), [(1, 1), (4, ROW_BLOCK), (7, ROW_BLOCK + 1), (4, 600)]),
        (LatticeStrip(31, 31), [(1, 3), (16, 11), (31, 30), (2, 1)]),
    ],
)
def test_exit_right_rows_keep_their_bits_alone(strip, sources):
    # one row per source, each bitwise the row of a one-source call,
    # whichever target-row block the source lies in
    rows = exit_right(strip, sources)
    assert rows.shape == (len(sources), strip.rows)
    for k, a in enumerate(sources):
        assert np.array_equal(rows[k], exit_right(strip, [a])[0])


def test_first_passage_at_cut_one_is_the_first_step():
    # from the left edge the first step lands on column 1 with weight 1/4
    strip = LatticeStrip(15, 15)
    starts = (6, 10, 1)
    lm, _, _ = first_passage_decomposition(strip, 1, starts)
    want = np.zeros((len(starts), strip.rows))
    want[np.arange(len(starts)), np.array(starts) - 1] = 0.25
    assert np.array_equal(lm, want)


def dense_exit_rows(strip, sources):
    """Right-edge exit rows from the dense solve: a quarter of each source's
    Green function on the column next to the right edge."""
    dense = dense_green_columns(strip, sources)
    return 0.25 * dense[(strip.cols - 1) * strip.rows :].T


def test_exit_rows_match_dense_solve():
    for strip, a in [
        (LatticeStrip(9, 13), (3, 4)),
        (LatticeStrip(15, 15), (1, 8)),
        (LatticeStrip(6, 4), (4, 5)),
    ]:
        sources = [a, (strip.cols, 1), (1, strip.rows)]
        right = dense_exit_rows(strip, sources)
        assert np.max(np.abs(exit_right(strip, sources) - right) / right) < 1e-13


def test_exit_right_evaluates_each_mode_table_once(monkeypatch):
    # one source per block here: every block shares the call's two tables,
    # and the blocks give the bits of the one-block call
    strip = LatticeStrip(9, 13)
    sources = [(3, 4), (strip.cols, 1), (1, strip.rows), (7, 5)]
    whole = exit_right(strip, sources)
    calls = []

    def counted(n):
        calls.append(n)
        return original(n)

    original = lattice_validation._modes
    monkeypatch.setattr(lattice_validation, "_modes", counted)
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 1)
    blocked = exit_right(strip, sources)
    assert sorted(calls) == [strip.rows, strip.cols]
    assert np.array_equal(blocked, whole)


def boundary_sources(strip):
    """The four corners, the four edge midpoints and the centre."""
    c, r = strip.cols, strip.rows
    mc, mr = (c + 1) // 2, (r + 1) // 2
    return [(1, 1), (c, 1), (1, r), (c, r), (mc, 1), (mc, r), (1, mr), (c, mr), (mc, mr)]


def worst_relative_gap(strip, sources):
    """Largest relative gap between exit_right and the elementwise term
    tensors of the oracle on the exit column, over every source and row."""
    got = exit_right(strip, sources)
    ref = 0.25 * elementwise_green_block(strip, sources, [strip.cols])[:, 0]
    return float(np.max(np.abs(got - ref) / ref))


@pytest.mark.parametrize("rows, cols", [(9, 13), (31, 15), (63, 63), (127, 127)])
def test_exit_rows_match_elementwise_terms(rows, cols):
    # the matrix products against one closed-form term per entry, with the
    # same choice of form; measured worst gaps 4.3e-16, 7.6e-16, 6.6e-16
    # and 7.6e-16, the rounding of sums whose terms partly cancel
    strip = LatticeStrip(rows, cols)
    assert worst_relative_gap(strip, boundary_sources(strip)) <= 4e-15


def test_tall_strip_exit_rows_stay_finite():
    # unreferenced, the columns-first factor e^{mu j} of the top mode
    # overflows from about 400 rows; the target-row blocks keep every
    # factor below e^{mu ROW_BLOCK}
    strip = LatticeStrip(600, 7)
    mu_top = _modes(strip.cols)[1][-1]
    with pytest.raises(OverflowError):
        math.exp(mu_top * strip.rows)
    assert strip.rows > 2 * ROW_BLOCK
    sources = [(1, 1), (4, ROW_BLOCK), (7, ROW_BLOCK + 1), (4, 2 * ROW_BLOCK + 1), (7, 600)]
    got = exit_right(strip, sources)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    # entries fall to 1e-102 across the 600 rows; the oracle's
    # exp(-mu (hi - lo + 1)) rounds its argument, about mu |j - j'| units in
    # the last place (measured worst gap 1.4e-14)
    assert worst_relative_gap(strip, sources) <= 5e-14


def test_decomposition_matches_mpmath_mode_sum():
    # cut 16 is the benchmark shape; cut 2 reads a one-column sub-strip and
    # cut 30 a neighbouring column, where entries far apart across the rows
    # fall to 1e-16 and the row-mode sum alone cancels to noise
    import mpmath as mp

    strip = LatticeStrip(31, 31)
    starts = (3, 11, 30)
    for cut in (16, 2, 30):
        lm, rm, f = first_passage_decomposition(strip, cut, starts)
        ref_lm = [[v / 16 for v in mp_mode_green(31, cut - 1, (1, s), cut - 1)] for s in starts]
        ref_rm = [[v / 4 for v in mp_mode_green(31, 31, (cut, m), 31)] for m in range(1, 32)]
        ref_f = [[v / 16 for v in mp_mode_green(31, 31, (1, s), 31)] for s in starts]
        for got, ref in [(lm, ref_lm), (rm, ref_rm), (f, ref_f)]:
            ref = np.array([[float(v) for v in row] for row in ref])
            assert np.max(np.abs(got - ref) / ref) <= 5e-14, cut


def test_long_strip_stays_finite_and_matches_dense_solve():
    # sinh(mu (cols + 1)) overflows a float for the top modes of this strip
    strip = LatticeStrip(3, 500)
    with pytest.raises(OverflowError):
        math.sinh(2.0 * math.asinh(math.sin(3 * strip.spacing / 2)) * (strip.cols + 1))
    sources = [(1, 2), (250, 1), (499, 3)]
    got = exit_right(strip, sources)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    right = dense_exit_rows(strip, sources)
    assert np.max(np.abs(got - right) / right) < 1e-12


def test_exit_probabilities_sum_to_one():
    # exits through all four edges exhaust the walk; each edge is the right
    # edge of the strip mirrored or transposed so that it lies on the right
    strip = LatticeStrip(8, 11)
    rows, cols = strip.rows, strip.cols
    i, j = 4, 5
    turned = LatticeStrip(cols, rows)
    total = (
        exit_right(strip, [(i, j)]).sum()                 # right edge
        + exit_right(strip, [(cols + 1 - i, j)]).sum()    # left edge
        + exit_right(turned, [(j, i)]).sum()              # top edge
        + exit_right(turned, [(rows + 1 - j, i)]).sum()   # bottom edge
    )
    assert total == pytest.approx(1.0, abs=1e-13)


def test_interior_exit_scales_to_poisson_kernel():
    # one factor of h for the single boundary endpoint of an interior start
    cfg = RectConfig(math.pi)
    errs = []
    for level in (15, 31, 63):
        strip = LatticeStrip(level, level)
        h = strip.spacing
        scale = (level + 1) // 16
        a = (4 * scale, 6 * scale)
        k = 10 * scale
        got = exit_right(strip, [a])[0][k - 1] / h
        cont = poisson_rect(cfg, 4 * math.pi / 16, 6 * math.pi / 16, 10 * math.pi / 16)
        errs.append(abs(got - cont.value))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-4


def test_strip_geometry_and_validation():
    strip = LatticeStrip(15, 31)
    assert strip.spacing == pytest.approx(math.pi / 16)
    assert strip.length == pytest.approx(2.0 * math.pi)
    with pytest.raises(DomainError):
        LatticeStrip(0, 5)
    with pytest.raises(DomainError):
        strip.index((1, 16))
    with pytest.raises(DomainError):
        exit_right(strip, [(1, 0)])


def test_exit_right_names_malformed_sources():
    strip = LatticeStrip(5, 5)
    for sources in [(3, 4), [(1, 2), (3,)], [(1.5, 2)]]:
        with pytest.raises(DomainError, match=r"not a \(column, row\) pair"):
            exit_right(strip, sources)
    with pytest.raises(DomainError, match=r"site \(0, 2\) outside the interior grid"):
        exit_right(strip, [(0, 2)])
    assert exit_right(strip, []).shape == (0, strip.rows)


def test_ordered_minor_sum_against_brute_force():
    rng = np.random.default_rng(5)
    for n, k in [(1, 6), (2, 7), (3, 6), (4, 5)]:
        m = rng.normal(size=(n, k))
        brute = sum(
            np.linalg.det(m[:, list(c)]) for c in itertools.combinations(range(k), n)
        )
        assert ordered_minor_sum(m) == pytest.approx(brute, abs=1e-12)
    assert ordered_minor_sum(np.ones((3, 2))) == 0.0
    with pytest.raises(DomainError):
        ordered_minor_sum(np.ones(4))
    assert ordered_minor_sum is numerics.ordered_minor_sum


def test_free_end_minor_sum_matches_mpmath_oracle():
    # adjacent start rows make the rows of f nearly parallel, so the sum
    # cancels; the reference sums all C(31, 3) minors at 60 digits
    import mpmath as mp

    strip = LatticeStrip(31, 31)
    for starts in [(1, 2, 3), (29, 30, 31)]:
        _, _, f = first_passage_decomposition(strip, 16, starts)
        with mp.workdps(60):
            rows = [[mp.mpf(float(v)) for v in row] for row in f]
            ref = mp.fsum(
                mp.det(mp.matrix([[row[c] for c in cols] for row in rows]))
                for cols in itertools.combinations(range(strip.rows), 3)
            )
            assert abs(ordered_minor_sum(f) - ref) <= 5e-11 * abs(ref)


def test_cut_decomposition_is_exact():
    # strong Markov at the cut column: lm @ rm reproduces the through
    # probabilities with no quadrature error
    strip = LatticeStrip(15, 15)
    for cut in (1, 2, 8, 15):
        lm, rm, f = first_passage_decomposition(strip, cut, (6, 10))
        assert np.max(np.abs(lm @ rm - f)) < 1e-15


def test_decomposition_reads_rm_and_f_in_one_call():
    # one exit_right call on the whole strip gives rm and f the bits of
    # their separate calls
    strip = LatticeStrip(31, 31)
    starts = (3, 11, 30)
    for cut in (2, 16):
        _, rm, f = first_passage_decomposition(strip, cut, starts)
        assert np.array_equal(rm, exit_right(strip, [(cut, m) for m in range(1, 32)]))
        assert np.array_equal(f, 0.25 * exit_right(strip, [(1, s) for s in starts]))


def test_first_passage_single_path_dual_method():
    # the absorbing sub-strip route against the Green-matrix decomposition
    # G(a, s) = sum_{s'} P(first hit cut at s') G(s', s)
    strip = LatticeStrip(15, 15)
    cut, start = 8, 6
    lm, _, _ = first_passage_decomposition(strip, cut, (start,))
    cut_sites = [(cut, m) for m in range(1, strip.rows + 1)]
    g = dense_green_columns(strip, cut_sites)
    gss = g[[strip.index(s) for s in cut_sites], :]
    ga = g[strip.index((1, start)), :]
    hit = np.linalg.solve(gss.T, ga)
    assert np.max(np.abs(0.25 * hit - lm[0])) < 1e-13


def test_density_normalization_and_sign():
    strip = LatticeStrip(15, 15)
    cases = [(1, (6,), None), (2, (6, 10), None), (2, (6, 10), (5, 12)), (3, (3, 8, 12), None)]
    for n, starts, ends in cases:
        dens = discrete_first_passage_density(strip, n, 8, starts, ends)
        assert dens.sum() == pytest.approx(1.0, abs=1e-12)
        assert dens.min() >= 0.0
    swapped = discrete_first_passage_density(strip, 2, 8, (6, 10), (12, 5))
    straight = discrete_first_passage_density(strip, 2, 8, (6, 10), (5, 12))
    assert np.max(np.abs(straight + swapped)) < 1e-14
    assert swapped.sum() == pytest.approx(-1.0, abs=1e-12)


def test_density_combo_blocks_do_not_change_bits(monkeypatch):
    # the benchmark shape: 31 rows, cut 16, three paths; the 4495 row
    # triples run in blocks of a few hundred by default and under twenty here
    strip = LatticeStrip(31, 31)
    for ends in (None, (5, 17, 29)):
        whole = discrete_first_passage_density(strip, 3, 16, (7, 15, 26), ends)
        with monkeypatch.context() as m:
            m.setattr(numerics, "BLOCK_ENTRIES", 31 * 3 * 97)
            blocked = discrete_first_passage_density(strip, 3, 16, (7, 15, 26), ends)
        assert np.array_equal(blocked, whole)


def test_density_rejects_degenerate_input():
    strip = LatticeStrip(15, 15)
    with pytest.raises(DomainError):
        discrete_first_passage_density(strip, 2, 8, (6, 6))
    with pytest.raises(DomainError):
        discrete_first_passage_density(strip, 2, 8, (6,))
    with pytest.raises(DomainError):
        discrete_first_passage_density(strip, 2, 0, (6, 10))
    with pytest.raises(DomainError):
        discrete_first_passage_density(strip, 2, 8, (6, 10), (5,))
    for starts in ((0, 6), (6, 16)):
        with pytest.raises(DomainError, match="start rows"):
            first_passage_decomposition(strip, 8, starts)


def test_density_free_ends_matches_explicit_sum():
    # the ordered-minor normalization against summing the fixed-end density
    strip = LatticeStrip(9, 9)
    free = discrete_first_passage_density(strip, 2, 5, (3, 7))
    total = np.zeros_like(free)
    lm, rm, f = first_passage_decomposition(strip, 5, (3, 7))
    weight = ordered_minor_sum(f)
    for ends in itertools.combinations(range(1, strip.rows + 1), 2):
        part = discrete_first_passage_density(strip, 2, 5, (3, 7), ends)
        share = abs(np.linalg.det(f[:, [e - 1 for e in ends]])) / weight
        total += part * share
    assert np.max(np.abs(total - free)) < 1e-14


def test_single_path_density_tracks_continuum():
    # N=1 free-end density against the continuum first-passage density
    level = 31
    strip = LatticeStrip(level, level)
    h = strip.spacing
    cut = (level + 1) // 2
    dens = discrete_first_passage_density(strip, 1, cut, (12,))
    cfg = RectConfig(math.pi)
    cont = np.array(
        [
            joint_pdf(cfg, ChamberSequence((cut * h,)), [(m * h,)], (12 * h,))
            for m in range(1, level + 1)
        ]
    )
    assert np.max(np.abs(dens / h - cont)) < 6e-3


def test_boundary_refinement_strictly_decreases():
    rows = boundary_refinement()
    assert [round(h, 6) for h, _ in rows] == [
        round(math.pi / 16, 6),
        round(math.pi / 32, 6),
        round(math.pi / 64, 6),
    ]
    for p in range(5):
        errs = [row[1][p] for row in rows]
        assert errs[0] > errs[1] > errs[2]
    # observed order is near 2; recorded, not asserted
    orders = [
        math.log2(rows[i][1][0] / rows[i + 1][1][0]) for i in range(len(rows) - 1)
    ]
    print("boundary kernel observed orders:", [f"{o:.2f}" for o in orders])


def test_density_refinement_strictly_decreases():
    rows = density_refinement()
    errs = [err for _, err in rows]
    assert errs[0] > errs[1] > errs[2]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    print("two-path density observed orders:", [f"{o:.2f}" for o in orders])


def test_refinement_levels_must_fit_grid():
    with pytest.raises(DomainError):
        boundary_refinement(levels=(14, 31))
