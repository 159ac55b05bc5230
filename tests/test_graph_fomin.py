import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lebp.errors import DomainError, EnumerationBudgetError
from lebp.graph_fomin import (
    BoundaryTuple,
    Network,
    _truncated_walk_sum,
    _walk_tail_bound,
    brute_force_fomin,
    fomin_det,
    lerw_weight,
    load_network,
    loop_erase,
    save_network,
    square_grid_network,
    walk_green,
    walk_weight,
)
from lebp.numerics import det_lu


@pytest.fixture
def path_net():
    # 0 - 1 - 2 - 3 - 4, symmetric weight 1/2, absorbing ends
    edges = []
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        edges.append((a, b, 0.5))
        edges.append((b, a, 0.5))
    return Network(5, edges, interior=[1, 2, 3], boundary=[0, 4])


@pytest.fixture
def two_leg_net():
    # directed network with unequal weights; boundary {0, 3}, interior {1, 2}
    edges = [
        (1, 2, 0.3),
        (2, 1, 0.25),
        (1, 0, 0.2),
        (2, 3, 0.35),
        (1, 3, 0.1),
        (2, 0, 0.15),
    ]
    return Network(4, edges, interior=[1, 2], boundary=[0, 3])


# --- walk matrix -----------------------------------------------------------


def test_walk_green_gamblers_ruin_values(path_net):
    # hand-computable rationals for the tridiagonal (I - Q)
    assert abs(walk_green(path_net, 1, 0) - 0.75) < 1e-14
    assert abs(walk_green(path_net, 2, 2) - 2.0) < 1e-14
    assert abs(walk_green(path_net, 2, 0) - 0.5) < 1e-14
    assert abs(walk_green(path_net, 0, 4) - 0.125) < 1e-14
    assert abs(walk_green(path_net, 0, 0) - 1.375) < 1e-14


def test_walk_green_agrees_with_truncated_series(path_net):
    for a in range(5):
        for b in range(5):
            full = walk_green(path_net, a, b)
            trunc = _truncated_walk_sum(path_net, a, b, 220)
            assert abs(full - trunc) < 1e-12
            # truncation from below: partial sums never exceed the total
            assert trunc <= full + 1e-12


def test_truncated_sum_monotone_in_length(two_leg_net):
    vals = [_truncated_walk_sum(two_leg_net, 1, 0, m) for m in range(1, 30)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - walk_green(two_leg_net, 1, 0)) < 1e-9


@pytest.fixture
def mixed_net():
    # boundary {0, 4, 5} with boundary-to-boundary edges 0 -> 4 and 5 -> 0,
    # an interior self-loop, and a boundary vertex (5) that steps back inside
    edges = [
        (0, 1, 0.4),
        (0, 4, 0.3),
        (1, 1, 0.1),
        (1, 2, 0.3),
        (1, 0, 0.2),
        (2, 1, 0.2),
        (2, 3, 0.3),
        (2, 5, 0.1),
        (3, 2, 0.25),
        (3, 4, 0.35),
        (5, 3, 0.5),
        (5, 0, 0.2),
    ]
    return Network(6, edges, interior=[1, 2, 3], boundary=[0, 4, 5])


def test_walk_green_matches_truncated_sum_on_mixed_network(mixed_net):
    # every (start, target) pair, interior targets included; forbidding a
    # boundary vertex other than the endpoints removes no walk, because a
    # walk that reaches it is absorbed there
    for a in range(6):
        for b in range(6):
            full = walk_green(mixed_net, a, b)
            assert abs(_truncated_walk_sum(mixed_net, a, b, 400) - full) <= 1e-14 * max(1.0, full)
            for c in set(mixed_net.boundary) - {a, b}:
                trunc = _truncated_walk_sum(mixed_net, a, b, 400, frozenset({c}))
                assert abs(trunc - full) <= 1e-14 * max(1.0, full), (a, b, c)
    # the one-step boundary-to-boundary walk is the whole sum from 0 to 4
    assert walk_green(mixed_net, 0, 4) > 0.3
    assert _truncated_walk_sum(mixed_net, 0, 4, 1) == 0.3


def test_walk_green_stochastic_grid_exits_sum_to_one():
    net, id_of = square_grid_network(3, 3)
    center = id_of[(1, 1)]
    total = sum(walk_green(net, center, b) for b in net.boundary)
    assert abs(total - 1.0) < 1e-12


def test_walk_weight(path_net):
    assert walk_weight(path_net, (1, 2, 3)) == 0.25
    with pytest.raises(DomainError):
        walk_weight(path_net, (1, 3))  # no such edge
    with pytest.raises(DomainError):
        walk_weight(path_net, (1, 0, 1))  # passes through the boundary


# --- network validation ----------------------------------------------------


def test_network_rejects_overlapping_sets():
    with pytest.raises(DomainError):
        Network(2, [], interior=[0, 1], boundary=[1])


def test_network_rejects_incomplete_cover():
    with pytest.raises(DomainError):
        Network(3, [], interior=[0], boundary=[1])


def test_network_rejects_negative_weight():
    with pytest.raises(DomainError):
        Network(2, [(0, 1, -0.5)], interior=[0], boundary=[1])


def test_network_rejects_duplicate_edge():
    with pytest.raises(DomainError):
        Network(2, [(0, 1, 0.5), (0, 1, 0.25)], interior=[0], boundary=[1])


def test_network_rejects_critical_interior():
    edges = [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 0.1)]
    with pytest.raises(DomainError):
        Network(3, edges, interior=[0, 1], boundary=[2])
    # just sub-critical is fine
    net = Network(3, [(0, 1, 0.9), (1, 0, 0.9), (0, 2, 0.1)], interior=[0, 1], boundary=[2])
    assert net.rho_bound < 1.0 - 1e-6


# --- loop erasure ----------------------------------------------------------


def test_loop_erase_examples():
    assert loop_erase((0, 1, 2, 1, 3)) == (0, 1, 3)
    assert loop_erase((1, 2, 3, 2, 1, 2, 0)) == (1, 2, 0)
    assert loop_erase((7,)) == (7,)
    assert loop_erase((3, 5, 3)) == (3,)


def _first_loop_erase(walk):
    # independent oracle: repeatedly delete the first loop
    w = list(walk)
    while True:
        seen = {}
        cut = None
        for idx, v in enumerate(w):
            if v in seen:
                cut = (seen[v], idx)
                break
            seen[v] = idx
        if cut is None:
            return tuple(w)
        del w[cut[0] : cut[1]]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
def test_loop_erase_matches_first_loop_removal(walk):
    assert loop_erase(walk) == _first_loop_erase(walk)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40))
def test_loop_erase_properties(walk):
    le = loop_erase(walk)
    assert le[0] == walk[0] and le[-1] == walk[-1]
    assert len(set(le)) == len(le)  # self-avoiding
    assert loop_erase(le) == le  # idempotent
    assert set(le) <= set(walk)


def test_loop_erase_rejects_empty():
    with pytest.raises(DomainError):
        loop_erase(())


# --- loop-erased walk weights ----------------------------------------------


def test_lerw_weight_on_path(path_net):
    # on a path graph the only self-avoiding path from 1 to 0 is (1, 0), so its
    # loop-erased weight is the full walk sum
    value, tail = lerw_weight(path_net, (1, 0))
    assert tail < 1e-6
    assert abs(value - 0.75) <= tail + 1e-13
    value, tail = lerw_weight(path_net, (2, 1, 0))
    assert abs(value - 0.5) <= tail + 1e-13


def test_lerw_weight_boundary_start_single_vertex(path_net):
    # every walk from 0 back to 0 erases to the single vertex (0,)
    value, tail = lerw_weight(path_net, (0,))
    assert abs(value - 1.375) <= tail + 1e-13


def test_lerw_weight_validation(path_net):
    with pytest.raises(DomainError):
        lerw_weight(path_net, (1, 2, 1))
    with pytest.raises(DomainError):
        lerw_weight(path_net, ())
    with pytest.raises(DomainError):
        lerw_weight(path_net, (1, 5))  # vertex out of range


def test_lerw_weight_zero_cases(path_net, mixed_net):
    # the edges 1 -> 0 -> 4 and 2 -> 5 -> 3 exist, but a walk reaching the
    # boundary vertex 0 or 5 is absorbed there, so no walk erases to a path
    # that continues past it
    assert lerw_weight(mixed_net, (1, 0, 4)) == (0.0, 0.0)
    assert lerw_weight(mixed_net, (2, 5, 3)) == (0.0, 0.0)
    # there is no edge 1 -> 3
    assert lerw_weight(path_net, (2, 1, 3)) == (0.0, 0.0)


def _self_avoiding_paths(net, a, b):
    """Every self-avoiding path a -> b along edges whose intermediate vertices
    are interior (any other path carries no walk)."""
    out = []

    def rec(path):
        for head, _ in net.out_edges.get(path[-1], ()):
            if head == b:
                out.append(tuple(path) + (b,))
            elif head not in path and net.is_interior(head):
                rec(path + [head])

    rec([a])
    return out


def test_lerw_weights_over_all_saws_sum_to_walk_green(mixed_net):
    # every walk a -> b has exactly one loop erasure, a self-avoiding path
    # a -> b, so the loop-erased weights of all of them sum to W(a, b)
    grid, id_of = square_grid_network(3, 3)
    pairs = [
        ((1, -1), (1, 3)),  # boundary to opposite boundary
        ((-1, 0), (-1, 1)),  # boundary to neighbouring boundary
        ((0, 0), (2, 1)),  # interior to interior
    ]
    cases = [(grid, id_of[a], id_of[b]) for a, b in pairs]
    # boundary-to-boundary edges, a self-loop and a boundary vertex that steps
    # back inside
    cases += [(mixed_net, a, b) for a in range(6) for b in range(6) if a != b]
    for net, a, b in cases:
        saws = _self_avoiding_paths(net, a, b)
        total = math.fsum(lerw_weight(net, zeta)[0] for zeta in saws)
        green = walk_green(net, a, b)
        assert abs(total - green) <= 1e-14 * green, (a, b)


def _enumerate_walks_exact(net, start, max_len):
    """Test-local exact enumerator: all walks from start up to max_len steps,
    with Fraction weights (edge weights must be dyadic-ish floats)."""
    out = []

    def rec(path, weight):
        out.append((tuple(path), weight))
        if len(path) - 1 >= max_len:
            return
        v = path[-1]
        if len(path) > 1 and not net.is_interior(v):
            return  # absorbed
        for head, w in net.out_edges.get(v, ()):
            rec(path + [head], weight * Fraction(w).limit_denominator(10**6))

    rec([start], Fraction(1))
    return out


def test_lerw_partition_identity(two_leg_net):
    # grouping all truncated walks by loop erasure reproduces, per group, the
    # truncated loop-erased weights, and in total the truncated walk sum
    max_len = 12
    walks = _enumerate_walks_exact(two_leg_net, 1, max_len)
    groups = {}
    total_to_0 = Fraction(0)
    for path, weight in walks:
        if path[-1] == 0:
            groups.setdefault(loop_erase(path), Fraction(0))
            groups[loop_erase(path)] += weight
            total_to_0 += weight
    # exact partition: groups are a partition of the walk ensemble
    assert sum(groups.values(), Fraction(0)) == total_to_0
    assert set(groups) == {(1, 0), (1, 2, 0)}
    # each group is the part of a loop-erased weight within max_len steps; the
    # rest is bounded by the discarded mass of the unconstrained walk sum
    tail = _walk_tail_bound(two_leg_net, 1, 0, max_len)
    for zeta, exact in groups.items():
        value, _ = lerw_weight(two_leg_net, zeta)
        assert float(exact) <= value <= float(exact) + tail
    trunc = _truncated_walk_sum(two_leg_net, 1, 0, max_len)
    assert abs(trunc - float(total_to_0)) < 1e-12


def test_lerw_weights_sum_to_walk_green(two_leg_net):
    total = 0.0
    for zeta in [(1, 0), (1, 2, 0)]:
        v, t = lerw_weight(two_leg_net, zeta)
        assert t == 0.0
        total += v
    green = walk_green(two_leg_net, 1, 0)
    assert abs(total - green) <= 1e-15 * green


# --- Fomin determinants ----------------------------------------------------


def test_boundary_tuple_validation(path_net):
    with pytest.raises(DomainError):
        BoundaryTuple((0,), (0,))  # not distinct
    with pytest.raises(DomainError):
        BoundaryTuple((0, 4), (4,))  # length mismatch
    bt = BoundaryTuple((0,), (4,))
    bt.validate(path_net)
    with pytest.raises(DomainError):
        BoundaryTuple((0,), (1,)).validate(path_net)  # 1 is interior


def test_fomin_det_single_pair_is_walk_green(path_net):
    assert abs(fomin_det(path_net, ((0,), (4,))) - walk_green(path_net, 0, 4)) < 1e-14


def test_fomin_det_is_det_of_walk_green_entries():
    net, id_of = square_grid_network(3, 3)
    a = (id_of[(0, -1)], id_of[(1, -1)], id_of[(2, -1)])
    b = (id_of[(0, 3)], id_of[(1, 3)], id_of[(2, 3)])
    explicit = det_lu(np.array([[walk_green(net, u, v) for v in b] for u in a]))
    assert fomin_det(net, (a, b)) == explicit


def test_fomin_det_column_swap_negates():
    net, id_of = square_grid_network(2, 2)
    a = (id_of[(0, -1)], id_of[(1, -1)])
    b = (id_of[(0, 2)], id_of[(1, 2)])
    d1 = fomin_det(net, (a, b))
    d2 = fomin_det(net, (a, (b[1], b[0])))
    assert abs(d1 + d2) < 1e-15


def test_brute_force_matches_det_2x2_grid():
    net, id_of = square_grid_network(2, 2)
    a = (id_of[(0, -1)], id_of[(1, -1)])
    b = (id_of[(0, 2)], id_of[(1, 2)])
    det = fomin_det(net, (a, b))
    # exact rational of the 2x2 walk-matrix determinant
    assert abs(det - 1.0 / 3072.0) < 1e-15
    value, bound = brute_force_fomin(net, (a, b), 16)
    assert abs(det - value) <= bound
    assert bound < 1e-6


def test_brute_force_bound_shrinks_with_max_len():
    net, id_of = square_grid_network(2, 2)
    a = (id_of[(0, -1)], id_of[(1, -1)])
    b = (id_of[(0, 2)], id_of[(1, 2)])
    bounds = [brute_force_fomin(net, (a, b), m)[1] for m in (6, 10, 14)]
    assert bounds[0] > bounds[1] > bounds[2] > 0


def test_brute_force_budget():
    net, id_of = square_grid_network(3, 3)
    a = (id_of[(0, -1)], id_of[(2, -1)])
    b = (id_of[(0, 3)], id_of[(2, 3)])
    with pytest.raises(EnumerationBudgetError):
        brute_force_fomin(net, (a, b), 14, node_budget=100)


# --- file round trip -------------------------------------------------------


def test_network_file_roundtrip(tmp_path, two_leg_net):
    p = tmp_path / "net.txt"
    save_network(two_leg_net, p)
    back = load_network(p)
    assert back.interior == two_leg_net.interior
    assert back.boundary == two_leg_net.boundary
    for a in range(4):
        for b in range(4):
            assert abs(walk_green(back, a, b) - walk_green(two_leg_net, a, b)) < 1e-14


def test_load_network_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 0.5\n")  # missing headers
    with pytest.raises(DomainError):
        load_network(p)
    p.write_text("interior: 0\nboundary: 1\n0 1\n")
    with pytest.raises(DomainError):
        load_network(p)
    p.write_text("interior: 0\nboundary: 1\ninterior: 2\n0 1 0.5\n")
    with pytest.raises(DomainError, match="repeated interior: header: 'interior: 2"):
        load_network(p)
    p.write_text("interior: 0\nboundary: 1\n0 x 0.5\n")
    with pytest.raises(DomainError, match="'0 x 0.5"):
        load_network(p)
    p.write_text("interior: 0\nboundary: one\n0 1 0.5\n")
    with pytest.raises(DomainError, match="'boundary: one"):
        load_network(p)
