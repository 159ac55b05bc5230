"""The working-set budget of the stacked evaluations.

Every evaluation over a stack of angle tuples or matrices runs in blocks of
numerics.BLOCK_ENTRIES entries.  The blocks change no bit of a stacked
result, and they keep the memory of an evaluation bounded however large its
stack: the traced peaks below stay under PEAK_BYTES, and a 200 x 200 stack
of tuples peaks within 1.5 times the peak of a 48 x 48 one.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lebp import numerics
from lebp.correlation import two_point_semicircle
from lebp.lattice_validation import LatticeStrip, discrete_first_passage_density
from lebp.numerics import ordered_minor_sum
from lebp.passage_densities import ChamberSequence, joint_pdf, norm_inner
from lebp.rect_kernels import RectConfig, _sine_series, fomin_boundary_det, fomin_inner_det
from lebp.validation import check_normalization

# the documented bound on the traced peak of each evaluation below: the
# default block budget is 1 MiB, and a blocked evaluation that calls
# another holds its own block next to the callee's
PEAK_BYTES = 8_000_000

CFG = RectConfig(2.0)

STACK_CASES = {
    "fomin_boundary_det": (2, lambda s: fomin_boundary_det(CFG, (0.9, 2.1), s)),
    "fomin_inner_det": (3, lambda s: fomin_inner_det(CFG, 0.8, (0.7, 1.5, 2.5), s)),
    "norm_inner": (2, lambda s: norm_inner(CFG, 1.2, s)),
    "joint_pdf strip with phi": (
        2,
        lambda s: joint_pdf(None, ChamberSequence((0.5, 0.9)), [(1.0, 2.0), s], (0.9, 2.1)),
    ),
    "joint_pdf midpoint start": (3, lambda s: joint_pdf(None, ChamberSequence((0.7,)), [s])),
    "joint_pdf rectangle": (
        2,
        lambda s: joint_pdf(CFG, ChamberSequence((0.6, 1.1)), [(0.8, 2.2), s], (0.9, 2.1)),
    ),
}


def _tuples(shape, n, seed=3):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.05, math.pi - 0.05, shape + (n,)), axis=-1)


def _chamber_grid(n):
    """Every n-tuple of 5 nodes (ordered, unordered and with equal angles),
    as a (5, ..., 5, n) stack: each angle recurs across tuples and slots."""
    nodes = np.linspace(0.3, 2.8, 5)
    return np.stack(np.meshgrid(*[nodes] * n, indexing="ij"), axis=-1)


# 1 puts every tuple in a block of its own; 500 gives blocks of a few
# tuples, which end inside the rows of the stack
@pytest.mark.parametrize("budget", [1, 500])
@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stacked_blocks_keep_the_default_bits(monkeypatch, name, budget):
    n, evaluate = STACK_CASES[name]
    for stack in (_tuples((5, 7), n), _chamber_grid(n)):
        want = evaluate(stack)
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "BLOCK_ENTRIES", budget)
            got = evaluate(stack)
        assert got.shape == stack.shape[:-1]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [1, 500])
def test_minor_sum_blocks_keep_the_default_bits(monkeypatch, budget):
    stack = np.random.default_rng(4).normal(size=(4, 5, 3, 9))
    want = ordered_minor_sum(stack)
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    got = ordered_minor_sum(stack)
    assert got.shape == (4, 5)
    assert np.array_equal(got, want)


def _peak(fn, *args):
    """Traced peak in bytes of fn(*args), after one untraced warm-up call
    that fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalization_suite_stays_within_the_peak_budget():
    assert _peak(check_normalization) <= PEAK_BYTES


def test_discrete_density_stays_within_the_peak_budget():
    strip = LatticeStrip(31, 31)
    assert _peak(discrete_first_passage_density, strip, 3, 16, (3, 11, 30)) <= PEAK_BYTES


# figure 10's grid: the probe radius 2 against 60 radii, two of them
# (1.95 and 2.05) next to it, so one call holds 60 kernel pairs and the
# longest tail needs about 1 300 terms: the shared sine table spans
# several chunks of angle points
RADII, ARC = np.linspace(1.05, 4.0, 60)[:, None], np.linspace(0.0, math.pi, 121)


def _many_pairs():
    return two_point_semicircle(3, 2.0, math.pi / 2, RADII, ARC)


@pytest.mark.parametrize("budget", [1, 500])
def test_many_pair_blocks_keep_the_default_bits(monkeypatch, budget):
    want = _many_pairs()
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", budget)
    got = _many_pairs()
    assert got.value.shape == got.bound.shape == (60, 121)
    assert np.array_equal(got.value, want.value) and np.array_equal(got.bound, want.bound)


def test_many_pair_grid_stays_within_the_peak_budget():
    assert _peak(_many_pairs) <= PEAK_BYTES


def test_sine_series_grid_stays_within_the_peak_budget():
    coeffs = 1.0 / np.arange(1.0, 601.0) ** 2
    th, tp = np.linspace(0.0, math.pi, 41), np.linspace(0.1, 3.0, 50)
    assert _peak(_sine_series, coeffs, th[:, None], tp[None, :]) <= PEAK_BYTES


@pytest.mark.parametrize("name", ["fomin_boundary_det", "norm_inner", "joint_pdf rectangle"])
def test_stack_peak_does_not_grow_with_the_stack(name):
    n, evaluate = STACK_CASES[name]
    small, large = _tuples((48, 48), n), _tuples((200, 200), n)
    peak_small, peak_large = _peak(evaluate, small), _peak(evaluate, large)
    assert peak_large <= PEAK_BYTES
    assert peak_large <= 1.5 * peak_small
