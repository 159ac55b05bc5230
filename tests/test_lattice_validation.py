"""Tests for the lattice strip walks and their continuum refinement."""

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
    discrete_green,
    exit_right,
    first_passage_decomposition,
    ordered_minor_sum,
)
from lebp import numerics
from lebp.lattice_validation import _green_columns
from lebp.numerics import DEFAULT_POLICY as POL
from lebp.passage_densities import pdf_first_passage_finite
from lebp.rect_kernels import RectConfig, poisson_rect


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


def test_single_cell_green():
    strip = LatticeStrip(1, 1)
    assert discrete_green(strip, (1, 1), (1, 1)) == 1.0
    assert np.allclose(exit_right(strip, (1, 1)), [0.25])


def test_green_symmetry():
    strip = LatticeStrip(7, 9)
    rng = np.random.default_rng(0)
    for _ in range(8):
        a = (int(rng.integers(1, 10)), int(rng.integers(1, 8)))
        b = (int(rng.integers(1, 10)), int(rng.integers(1, 8)))
        assert discrete_green(strip, a, b) == pytest.approx(
            discrete_green(strip, b, a), abs=1e-14
        )


def test_green_positive_and_diagonal_dominant():
    strip = LatticeStrip(5, 6)
    g = _green_columns(strip, [(3, 3)])[:, 0]
    assert np.all(g > 0.0)
    assert g[strip.index((3, 3))] == g.max()


def test_exit_right_matches_mode_sum():
    for strip, a in [
        (LatticeStrip(9, 13), (3, 4)),
        (LatticeStrip(15, 15), (1, 8)),
        (LatticeStrip(6, 4), (4, 5)),
    ]:
        got = exit_right(strip, a)
        assert np.max(np.abs(got - mode_sum_exit(strip, a))) < 1e-14


def test_exit_probabilities_sum_to_one():
    # exits through all four edges exhaust the walk
    strip = LatticeStrip(8, 11)
    a = (4, 5)
    g = _green_columns(strip, [a])[:, 0].reshape(strip.cols, strip.rows)
    total = 0.25 * (
        g[0, :].sum()      # left edge
        + g[-1, :].sum()   # right edge
        + g[:, 0].sum()    # bottom edge
        + g[:, -1].sum()   # top edge
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
        got = exit_right(strip, a)[k - 1] / h
        cont = poisson_rect(cfg, POL, 4 * math.pi / 16, 6 * math.pi / 16, 10 * math.pi / 16)
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
        discrete_green(strip, (1, 0), (1, 1))


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


def test_first_passage_single_path_dual_method():
    # the absorbing sub-strip route against the Green-matrix decomposition
    # G(a, s) = sum_{s'} P(first hit cut at s') G(s', s)
    strip = LatticeStrip(15, 15)
    cut, start = 8, 6
    lm, _, _ = first_passage_decomposition(strip, cut, (start,))
    cut_sites = [(cut, m) for m in range(1, strip.rows + 1)]
    g = _green_columns(strip, cut_sites)
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
    # the benchmark shape: 31 rows, cut 16, three paths, one block by default
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
            pdf_first_passage_finite(cfg, POL, cut * h, (m * h,), (12 * h,))
            for m in range(1, level + 1)
        ]
    )
    assert np.max(np.abs(dens / h - cont)) < 6e-3


def test_boundary_refinement_strictly_decreases():
    rows = boundary_refinement(POL)
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
    rows = density_refinement(POL)
    errs = [err for _, err in rows]
    assert errs[0] > errs[1] > errs[2]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    print("two-path density observed orders:", [f"{o:.2f}" for o in orders])


def test_refinement_levels_must_fit_grid():
    with pytest.raises(DomainError):
        boundary_refinement(POL, levels=(14, 31))
