import itertools
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
    _union_weights,
    brute_force_fomin,
    fomin_det,
    lerw_weight,
    load_network,
    save_network,
    square_grid_network,
    walk_green,
)
from lebp.numerics import det_lu
from oracles import loop_erase, walk_weight


# --- walk enumeration oracle -------------------------------------------------
# Truncated walk sums and a depth-first enumeration of Fomin's walk sum cut
# off at max_len: independent checks of walk_green, lerw_weight and the exact
# self-avoiding path sum of brute_force_fomin.


def _truncated_walk_sum(net, a, b, max_len, forbidden=frozenset()):
    """Total weight of walks a -> b with at most max_len steps avoiding
    `forbidden` vertices entirely (a and b must not be forbidden)."""
    assert a not in forbidden and b not in forbidden
    allowed = np.ones(net.vertex_count)
    allowed[list(forbidden)] = 0.0
    total = 1.0 if a == b else 0.0  # the empty walk
    cur = np.zeros(net.vertex_count)  # weights of live walks by endpoint
    cur[a] = 1.0
    for _ in range(max_len):
        cur = (cur @ net._p) * allowed
        total += cur[b]
        # walks at the boundary are absorbed; an interior b stays live
        cur *= net._interior_mask
    return float(total)


def _walk_tail_bound(net, a, b, max_len):
    """Upper bound on the total weight of walks a -> b longer than max_len:
    the exact discarded mass of the unconstrained walk sum, which also covers
    walks constrained to avoid vertices."""
    return max(0.0, walk_green(net, a, b) - _truncated_walk_sum(net, a, b, max_len))


def _walks_to_boundary(net, a, b, max_len, forbidden, handle):
    """Calls handle(walk, weight) once per walk a -> b of at most max_len
    steps avoiding `forbidden`; b must be a boundary vertex."""
    path = [a]

    def rec(v, weight, steps_left):
        for head, w in net.out_edges.get(v, ()):
            if head in forbidden:
                continue
            if head == b:
                handle(tuple(path) + (b,), weight * w)
            elif net.is_interior(head) and steps_left > 1:
                path.append(head)
                rec(head, weight * w, steps_left - 1)
                path.pop()

    rec(a, 1.0, max_len)


def _truncated_fomin(net, ab, max_len):
    """Fomin's walk sum over walks of at most max_len steps, each avoiding the
    loop erasures of the earlier walks, and a bound on what the cutoff drops.

    The first N - 1 walks are enumerated, merging states by the union of
    their loop erasures; the last walk is a truncated walk sum.  A tuple is
    dropped only if some walk j exceeds max_len, which relaxing the avoidance
    bounds by sum_j tail_j * prod_{l != j} W(a_l, b_l)."""
    groups = {frozenset(): 1.0}
    for a, b in zip(ab.a[:-1], ab.b[:-1]):
        new = {}
        for forbidden, acc in groups.items():

            def absorb(walk, w, forbidden=forbidden, acc=acc):
                key = forbidden | set(loop_erase(walk))
                new[key] = new.get(key, 0.0) + acc * w

            _walks_to_boundary(net, a, b, max_len, forbidden, absorb)
        groups = new
    value = math.fsum(
        acc * _truncated_walk_sum(net, ab.a[-1], ab.b[-1], max_len, forbidden)
        for forbidden, acc in groups.items()
    )
    greens = [walk_green(net, a, b) for a, b in zip(ab.a, ab.b)]
    tails = [_walk_tail_bound(net, a, b, max_len) for a, b in zip(ab.a, ab.b)]
    tail = sum(t * math.prod(greens[:j] + greens[j + 1 :]) for j, t in enumerate(tails))
    return value, tail


def _mp_walk_matrix(net):
    """The walk matrix I + (I - P D)^{-1} P at 40 digits, from the exact
    double edge weights."""
    import mpmath as mp

    n = net.vertex_count
    with mp.workdps(40):
        p = mp.matrix([[mp.mpf(float(v)) for v in row] for row in net._p])
        k = mp.eye(n)
        for i in range(n):
            for j in net.interior:
                k[i, j] -= p[i, j]
        return mp.eye(n) + mp.inverse(k) * p


def _random_network(seed, interior=6, boundary=4):
    """Random directed network: boundary vertices 0 .. boundary-1, about half
    of all possible edges (self-loops and boundary-to-boundary edges
    included), weights uniform in (0, 0.3)."""
    rng = np.random.default_rng(seed)
    count = interior + boundary
    edges = [
        (t, h, rng.uniform(0.0, 0.3))
        for t in range(count)
        for h in range(count)
        if rng.random() < 0.45
    ]
    return Network(count, edges, range(boundary, count), range(boundary))


def _two_cycle(rho):
    """Interior vertices 0 and 1 with steps of weight rho both ways, so that
    rho(Q) = rho, and one exit edge 0 -> 2 of weight 0.1."""
    return Network(3, [(0, 1, rho), (1, 0, rho), (0, 2, 0.1)], interior=[0, 1], boundary=[2])


def _grid_rows(size, rows):
    """size x size grid with paths from the left to the right end of `rows`."""
    net, id_of = square_grid_network(size, size)
    a = tuple(id_of[(i, -1)] for i in rows)
    b = tuple(id_of[(i, size)] for i in rows)
    return net, BoundaryTuple(a, b)


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


@pytest.mark.parametrize("nx, ny", [(3, 3), (2, 4)])
def test_square_grid_edges_step_into_the_interior(nx, ny):
    # interior cells step to all four neighbours, ring cells only back in;
    # the step matrix holds exactly the listed out-edges
    net, id_of = square_grid_network(nx, ny)
    inside = set(net.interior)
    for v in net.interior:
        assert len(net.out_edges[v]) == 4
    for v in net.boundary:
        assert len(net.out_edges[v]) == 1
        assert net.out_edges[v][0][0] in inside
    pairs = {(t, h) for t, lst in net.out_edges.items() for h, _ in lst}
    assert all(t in inside or h in inside for t, h in pairs)
    assert set(zip(*np.nonzero(net._p))) == pairs
    assert all(net._p[t, h] == w for t, lst in net.out_edges.items() for h, w in lst)


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


def test_network_rejects_repeated_vertex(tmp_path):
    # interior 1 listed twice; the sets are disjoint and cover 0 .. 2
    edges = [(0, 1, 0.5), (1, 2, 0.5)]
    with pytest.raises(DomainError, match="exactly once"):
        Network(3, edges, interior=[1, 1], boundary=[0, 2])
    p = tmp_path / "net.txt"
    p.write_text("interior: 1 1\nboundary: 0 2\n0 1 0.5\n1 2 0.5\n")
    with pytest.raises(DomainError, match="exactly once"):
        load_network(p)


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
    # at rho(Q) = 1 the walk-matrix system is singular, and numpy's
    # LinAlgError must surface as DomainError; at 1.5 the solve succeeds but
    # no positive vector certifies rho(Q) < 1
    for rho in (1.0, 1.5):
        with pytest.raises(DomainError, match="not strictly sub-critical"):
            _two_cycle(rho)
    # just sub-critical is fine, and rho_bound is an upper bound
    net = _two_cycle(0.9)
    assert 0.9 <= net.rho_bound < 0.9 + 1e-12
    # a non-normal Q (rho 0.5, one entry 1e7) is accepted; its certificate
    # vector is far from the Perron vector, so rho_bound is loose
    edges = [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 1e7), (0, 2, 0.1), (1, 3, 0.1)]
    net = Network(4, edges, interior=[0, 1], boundary=[2, 3])
    assert 0.5 <= net.rho_bound < 1.0


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
    # the walk-matrix solve may round this weight off 1/2; the bound covers it
    value, tail = lerw_weight(path_net, (2, 1, 0))
    assert abs(value - 0.5) <= tail
    # the benchmark passes a step cutoff positionally; it changes nothing
    for zeta in ((1, 0), (2, 1, 0), (0,)):
        assert lerw_weight(path_net, zeta, 34) == lerw_weight(path_net, zeta)


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
    # exact weights in rational arithmetic: the loops 1 -> 2 -> 1 at vertex
    # 1, then the steps of the path
    p = {(1, 2): 0.3, (2, 1): 0.25, (1, 0): 0.2, (2, 0): 0.15}
    p = {edge: Fraction(w) for edge, w in p.items()}
    loops = 1 / (1 - p[1, 2] * p[2, 1])
    exact = {(1, 0): loops * p[1, 0], (1, 2, 0): loops * p[1, 2] * p[2, 0]}
    total = 0.0
    for zeta, want in exact.items():
        v, t = lerw_weight(two_leg_net, zeta)
        # nothing is truncated: the bound covers rounding only
        assert 0.0 < t < 1e-14
        assert abs(Fraction(v) - want) <= Fraction(t)
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
    for v in (1, 5, -1):  # interior, then out of range on both sides
        with pytest.raises(DomainError, match=f"vertex {v} is not a boundary vertex"):
            BoundaryTuple((0,), (v,)).validate(path_net)


def test_fomin_det_single_pair_is_walk_green(path_net):
    assert abs(fomin_det(path_net, ((0,), (4,)))[0] - walk_green(path_net, 0, 4)) < 1e-14


def test_fomin_det_is_det_of_walk_green_entries():
    net, id_of = square_grid_network(3, 3)
    a = (id_of[(0, -1)], id_of[(1, -1)], id_of[(2, -1)])
    b = (id_of[(0, 3)], id_of[(1, 3)], id_of[(2, 3)])
    explicit = det_lu(np.array([[walk_green(net, u, v) for v in b] for u in a]))
    assert fomin_det(net, (a, b))[0] == explicit


def test_fomin_det_column_swap_negates():
    net, id_of = square_grid_network(2, 2)
    a = (id_of[(0, -1)], id_of[(1, -1)])
    b = (id_of[(0, 2)], id_of[(1, 2)])
    d1, _ = fomin_det(net, (a, b))
    d2, _ = fomin_det(net, (a, (b[1], b[0])))
    assert abs(d1 + d2) < 1e-15


def test_brute_force_matches_det_2x2_grid():
    net, ab = _grid_rows(2, (0, 1))
    det, _ = fomin_det(net, ab)
    # exact rational of the 2x2 walk-matrix determinant
    assert abs(det - 1.0 / 3072.0) < 1e-15
    value, bound = brute_force_fomin(net, ab)
    assert abs(value - 1.0 / 3072.0) <= bound
    assert bound < 1e-12 * value


@pytest.mark.parametrize("size, rows", [(2, (0, 1)), (3, (0, 2))])
def test_exact_path_sum_lies_within_the_truncated_walk_dfs(size, rows):
    # the walk DFS drops only positive terms, all of them within its tail
    net, ab = _grid_rows(size, rows)
    exact, bound = brute_force_fomin(net, ab)
    for max_len in (8, 10, 12):
        trunc, tail = _truncated_fomin(net, ab, max_len)
        assert trunc < exact - bound, max_len
        assert exact + bound <= trunc + tail, max_len


@pytest.mark.parametrize("size, rows", [(2, (0, 1)), (3, (0, 2)), (4, (0, 2, 3))])
def test_fomin_sides_lie_within_their_bounds_of_mpmath(size, rows):
    import mpmath as mp

    net, ab = _grid_rows(size, rows)
    w = _mp_walk_matrix(net)
    with mp.workdps(40):
        ref = mp.det(mp.matrix([[w[i, j] for j in ab.b] for i in ab.a]))
        if size == 2:
            assert abs(ref - mp.mpf(1) / 3072) < mp.mpf(10) ** -38
        det, det_bound = fomin_det(net, ab)
        value, bound = brute_force_fomin(net, ab)
        assert abs(mp.mpf(det) - ref) <= det_bound
        assert abs(mp.mpf(value) - ref) <= bound
    # the fomin-check bound is the sum of the two; each stays far below its
    # value (measured at most 3.7e-11 relative, the 4 x 4 determinant)
    assert det_bound <= 1e-9 * abs(det)
    assert bound <= 1e-9 * abs(value)


@pytest.mark.parametrize("size, rows, share", [(3, (0, 2), 0.05), (4, (0, 2, 3), 0.0125)])
def test_dropping_the_smallest_union_group_leaves_the_bound(size, rows, share):
    net, ab = _grid_rows(size, rows)
    det, det_bound = fomin_det(net, ab)
    value, bound = brute_force_fomin(net, ab)
    bound += det_bound
    assert abs(det - value) <= bound
    groups = _union_weights(net, ab, [10**6])
    interior = net.interior
    m = np.eye(len(interior)) - net._p[np.ix_(interior, interior)]

    def part(used):
        keep = np.array([i for i, v in enumerate(interior) if v not in used], dtype=int)
        return groups[used] * det_lu(m[np.ix_(keep, keep)]) / det_lu(m)

    smallest = min(groups, key=part)
    assert part(smallest) / value == pytest.approx(share, rel=1e-9)
    assert abs(det - (value - part(smallest))) > bound


def test_signed_fomin_identity_on_random_networks():
    # without planarity, det W[A, B] is the signed sum over pairings of the
    # nonintersecting sums; the networks have self-loops and
    # boundary-to-boundary edges
    for seed in range(6):
        net = _random_network(seed)
        for a, b in [((0, 1), (2, 3)), ((0,), (3,)), ((2, 0), (1, 3))]:
            det, bound = fomin_det(net, (a, b))
            total = 0.0
            for perm in itertools.permutations(range(len(b))):
                value, err = brute_force_fomin(net, (a, tuple(b[k] for k in perm)))
                total += _parity(perm) * value
                bound += err
            assert abs(det - total) <= bound, (seed, a, b)
            # measured up to 2.5e-14, mostly the worst-case rounding of the
            # walk-matrix residual
            assert bound <= 1e-13 * max(1.0, abs(total)), (seed, a, b)


def _parity(perm):
    inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def test_brute_force_of_a_crossing_pairing_is_zero():
    # the later path would have to cross the earlier path's loop erasure
    net, ab = _grid_rows(3, (0, 2))
    assert brute_force_fomin(net, (ab.a, ab.b[::-1])) == (0.0, 0.0)


def test_brute_force_takes_no_length_cutoff():
    net, ab = _grid_rows(2, (0, 1))
    with pytest.raises(TypeError):
        brute_force_fomin(net, ab, 14)


def test_brute_force_budget():
    net, ab = _grid_rows(3, (0, 2))
    with pytest.raises(EnumerationBudgetError):
        brute_force_fomin(net, ab, node_budget=100)


def test_walk_error_covers_the_mpmath_walk_matrix(path_net, two_leg_net, mixed_net):
    import mpmath as mp

    grid, _ = square_grid_network(3, 3)
    # seed 4 has interior vertices that Q does not feed; the two cycles are
    # near-critical, with walk matrices conditioned like 1 / (1 - rho)
    cases = [(net, 1e-13) for net in (path_net, two_leg_net, mixed_net, grid, _random_network(4))]
    cases += [(_two_cycle(1.0 - 1e-7), 1e-7), (_two_cycle(1.0 - 1e-10), 1e-4)]
    for net, rel in cases:
        w = _mp_walk_matrix(net)
        got, err = net.walk_matrix(), net.walk_error()
        with mp.workdps(40):
            for i, j in np.ndindex(got.shape):
                assert abs(mp.mpf(got[i, j]) - w[i, j]) <= err[i, j], (i, j)
        # measured up to 1.3e-14 on the first five (the 3 x 3 grid), and
        # 1.4e-8 and 1.4e-5 on the two cycles
        assert np.all(err <= rel * np.maximum(1.0, got))


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
