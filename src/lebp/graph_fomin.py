"""Walk matrices and loop-erased walk ensembles on finite weighted networks.

A network has interior vertices, where walks move freely, and absorbing
boundary vertices, where walks stop on arrival.  The weight of a walk is the
product of its edge weights, the walk matrix entry W(a, b) is the sum of walk
weights over all walks from a to b, and minors of W built from boundary
vertices equal sums over tuples of walks whose earlier loop erasures avoid all
later walks (Fomin's identity).  This module evaluates both sides: W as one
cached linear solve over all vertices, the combinatorial side by explicit
enumeration with a certified bound on the truncated-away mass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationBudgetError
from .numerics import det_lu

_RHO_THRESHOLD = 1.0 - 1e-6
_POWER_ITERATIONS = 200


class Network:
    """Finite directed network with nonnegative weights and absorbing boundary.

    Parameters
    ----------
    vertex_count : int
        Vertices are the integers 0 .. vertex_count-1.
    edges : iterable of (tail, head, weight)
        Directed edges, weight >= 0.  Edges out of boundary vertices are kept
        (they matter for walks that *start* on the boundary); walks are
        absorbed when they *reach* a boundary vertex.
    interior, boundary : iterables of vertex ids
        Disjoint, together covering all vertices.

    The interior-to-interior weight matrix Q must be strictly sub-critical;
    construction runs 200 power iterations on I + Q and rejects the network
    unless the resulting Collatz-Wielandt bound gives rho(Q) < 1 - 1e-6.
    """

    def __init__(self, vertex_count, edges, interior, boundary):
        vertex_count = int(vertex_count)
        if vertex_count < 1:
            raise DomainError("need at least one vertex")
        interior = tuple(sorted(int(v) for v in interior))
        boundary = tuple(sorted(int(v) for v in boundary))
        if set(interior) & set(boundary):
            raise DomainError("interior and boundary sets overlap")
        if set(interior) | set(boundary) != set(range(vertex_count)):
            raise DomainError("interior and boundary must partition the vertex set")
        self.vertex_count = vertex_count
        self.interior = interior
        self.boundary = boundary
        self._int_index = {v: i for i, v in enumerate(interior)}
        self._bnd_index = {v: i for i, v in enumerate(boundary)}

        seen = set()
        out = {v: [] for v in range(vertex_count)}
        for tail, head, weight in edges:
            tail, head, weight = int(tail), int(head), float(weight)
            if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
                raise DomainError("edge endpoint out of range")
            if weight < 0.0 or not math.isfinite(weight):
                raise DomainError("edge weights must be finite and nonnegative")
            if (tail, head) in seen:
                raise DomainError(f"duplicate edge ({tail}, {head})")
            seen.add((tail, head))
            out[tail].append((head, weight))
        self.out_edges = {v: tuple(lst) for v, lst in out.items()}

        # one step matrix over all vertices, boundary out-edges included
        p = np.zeros((vertex_count, vertex_count))
        for tail, lst in self.out_edges.items():
            for head, weight in lst:
                p[tail, head] = weight
        self._p = p
        self._interior_mask = np.zeros(vertex_count)
        self._interior_mask[list(interior)] = 1.0
        self._walk = None

        if interior:
            # power iteration on I + Q keeps the vector strictly positive, so
            # max((v + Qv) / v) - 1 is a rigorous upper bound for rho(Q)
            q = p[np.ix_(interior, interior)]
            v = np.ones(len(interior))
            for _ in range(_POWER_ITERATIONS):
                v2 = v + q @ v
                v = v2 / v2.max()
            rho_bound = float(np.max((v + q @ v) / v)) - 1.0
            if rho_bound >= _RHO_THRESHOLD:
                raise DomainError(
                    f"interior weight matrix is not strictly sub-critical "
                    f"(spectral radius bound {rho_bound:.6g})"
                )
            self.rho_bound = rho_bound
        else:
            self.rho_bound = 0.0

    def edge_weight(self, tail, head):
        for h, w in self.out_edges.get(tail, ()):
            if h == head:
                return w
        return 0.0

    def is_interior(self, v):
        return v in self._int_index

    def walk_matrix(self):
        """W = I + P (I - D P)^{-1} over all vertices, computed once and cached.

        P is the step matrix and D the interior indicator: every step but the
        last lands in the interior.  By push-through, P (I - D P)^{-1} equals
        (I - P D)^{-1} P, one linear solve.
        """
        if self._walk is None:
            eye = np.eye(self.vertex_count)
            walk = eye + np.linalg.solve(eye - self._p * self._interior_mask, self._p)
            walk.setflags(write=False)
            self._walk = walk
        return self._walk


@dataclass(frozen=True)
class BoundaryTuple:
    """Start tuple A and target tuple B of pairwise distinct boundary vertices."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(int(v) for v in self.a)
        b = tuple(int(v) for v in self.b)
        if len(a) != len(b) or not a:
            raise DomainError("A and B must be nonempty tuples of equal length")
        if len(set(a) | set(b)) != 2 * len(a):
            raise DomainError("the 2N boundary vertices must be pairwise distinct")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def validate(self, net):
        for v in self.a + self.b:
            if v not in net._bnd_index:
                raise DomainError(f"vertex {v} is not a boundary vertex")

    @property
    def n(self):
        return len(self.a)


def _as_boundary_tuple(ab):
    if isinstance(ab, BoundaryTuple):
        return ab
    a, b = ab
    return BoundaryTuple(tuple(a), tuple(b))


def walk_green(net, a, b):
    """Total weight of walks from a to b (absorbing at the boundary).

    Entry W[a, b] of the cached walk matrix: the empty walk when a == b, and
    every walk whose intermediate vertices are interior.  Walks from a
    boundary vertex leave through its out-edges on the first step; walks
    reaching a boundary vertex stop there.
    """
    if not (0 <= a < net.vertex_count and 0 <= b < net.vertex_count):
        raise DomainError("vertex id out of range")
    return float(net.walk_matrix()[a, b])


def loop_erase(walk):
    """Chronological loop erasure: truncate back to the first visit whenever a
    vertex repeats.  Equals iterated removal of the first loop."""
    if len(walk) == 0:
        raise DomainError("cannot loop-erase an empty walk")
    pos = {}
    out = []
    for v in walk:
        if v in pos:
            cut = pos[v] + 1
            for u in out[cut:]:
                del pos[u]
            del out[cut:]
        else:
            pos[v] = len(out)
            out.append(v)
    return tuple(out)


def walk_weight(net, walk):
    """Product of edge weights along a walk; DomainError on a missing edge or a
    walk that passes through the absorbing boundary."""
    if len(walk) == 0:
        raise DomainError("empty walk")
    for v in walk[1:-1]:
        if not net.is_interior(v):
            raise DomainError("intermediate walk vertices must be interior")
    w = 1.0
    for t, h in zip(walk, walk[1:]):
        ew = net.edge_weight(t, h)
        if ew == 0.0:
            raise DomainError(f"no edge ({t}, {h})")
        w *= ew
    return w


def _truncated_walk_sum(net, a, b, max_len, forbidden=frozenset()):
    """Total weight of walks a -> b with at most max_len steps avoiding
    `forbidden` vertices entirely (a and b must not be forbidden)."""
    if a in forbidden or b in forbidden:
        raise DomainError("walk endpoints may not be forbidden")
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
    """Certified upper bound on the total weight of walks a -> b longer than
    max_len.  Exact discarded mass of the unconstrained walk sum; dropping the
    avoidance constraint only enlarges it, so it also covers constrained walks."""
    full = walk_green(net, a, b)
    truncated = _truncated_walk_sum(net, a, b, max_len)
    return max(0.0, full - truncated)


def fomin_det(net, ab):
    """Determinant of the walk matrix [W(a_j, b_k)] over a boundary tuple.

    For configurations where the only planar pairing of A onto B is the
    identity, this equals the total weight of N-tuples of walks a_j -> b_j in
    which the loop erasure of each earlier walk avoids every later walk.
    """
    ab = _as_boundary_tuple(ab)
    ab.validate(net)
    return det_lu(net.walk_matrix()[np.ix_(ab.a, ab.b)])


def _walks_to_boundary(net, a, b, max_len, forbidden, budget, handle):
    """Depth-first enumeration of walks a -> b of at most max_len steps whose
    vertices avoid `forbidden`; b must be a boundary vertex.  Calls
    handle(path_tuple, weight) once per walk.  `budget` is a one-element list
    counting remaining DFS edge extensions (callback style keeps the hot loop
    free of generator plumbing)."""
    path = [a]
    out_edges = net.out_edges
    is_interior = net._int_index.__contains__

    def rec(v, weight, steps_left):
        for head, w in out_edges.get(v, ()):
            if head in forbidden:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationBudgetError(
                    "walk enumeration exceeded its node budget",
                    reached=len(path) - 1,
                )
            if head == b:
                path.append(head)
                handle(tuple(path), weight * w)
                path.pop()
            elif is_interior(head) and steps_left > 1:
                path.append(head)
                rec(head, weight * w, steps_left - 1)
                path.pop()

    if max_len >= 1:
        rec(a, 1.0, max_len)


def brute_force_fomin(net, ab, max_len, node_budget=20_000_000):
    """Direct evaluation of the nonintersecting loop-erased walk sum.

    Walks pi_1 .. pi_{N-1} are enumerated explicitly (each avoiding the union
    of the loop erasures of all earlier walks); intermediate states are merged
    by the *vertex set* of the accumulated loop erasures, which is all later
    walks can see.  The final walk is summed by dynamic programming.  Returns
    (value, tail_bound) where tail_bound certifies the weight of tuples
    discarded by the length cutoff: a tuple is discarded only if some walk j
    exceeds max_len, and relaxing the avoidance constraints bounds that by
    sum_j tail_j * prod_{l != j} W(a_l, b_l).

    Parameters
    ----------
    net : Network
    ab : BoundaryTuple or (A, B) pair
    max_len : int
        Maximum number of steps per walk.
    node_budget : int
        Cap on DFS edge extensions; EnumerationBudgetError beyond it.
    """
    ab = _as_boundary_tuple(ab)
    ab.validate(net)
    if max_len < 1:
        raise DomainError("max_len must be positive")
    n = ab.n
    budget = [int(node_budget)]

    groups = {frozenset(): 1.0}
    for j in range(n - 1):
        a, b = ab.a[j], ab.b[j]
        new = {}
        for forbidden, acc in groups.items():

            def absorb(path, w, forbidden=forbidden, acc=acc):
                key = forbidden | set(loop_erase(path))
                new[key] = new.get(key, 0.0) + acc * w

            _walks_to_boundary(net, a, b, max_len, forbidden, budget, absorb)
        groups = new

    a_last, b_last = ab.a[-1], ab.b[-1]
    value = sum(
        acc * _truncated_walk_sum(net, a_last, b_last, max_len, forbidden)
        for forbidden, acc in groups.items()
    )

    greens = [walk_green(net, a, b) for a, b in zip(ab.a, ab.b)]
    tails = [_walk_tail_bound(net, a, b, max_len) for a, b in zip(ab.a, ab.b)]
    tail_bound = 0.0
    for j in range(n):
        others = 1.0
        for k in range(n):
            if k != j:
                others *= greens[k]
        tail_bound += tails[j] * others
    return float(value), float(tail_bound)


def lerw_weight(net, zeta, max_len, node_budget=20_000_000):
    """Total weight of walks whose loop erasure equals the self-avoiding path
    zeta, truncated at max_len steps, with a certified tail bound.

    Enumerates every walk from zeta[0] of at most max_len steps, crediting
    those that currently end at zeta[-1] with loop erasure exactly zeta.  The
    bound is the exact discarded mass of the unconstrained walk sum from
    zeta[0] to zeta[-1], which dominates the constrained remainder.
    """
    zeta = tuple(int(v) for v in zeta)
    if len(zeta) == 0:
        raise DomainError("zeta must be nonempty")
    if len(set(zeta)) != len(zeta):
        raise DomainError("zeta must be self-avoiding")
    for v in zeta:
        if not (0 <= v < net.vertex_count):
            raise DomainError("zeta vertex out of range")
    start, target = zeta[0], zeta[-1]
    budget = [int(node_budget)]
    total = 0.0

    # empty-prefix case: the walk (start,) itself
    if len(zeta) == 1:
        total += 1.0

    path = [start]

    def rec(v, weight, steps_left):
        nonlocal total
        for head, w in net.out_edges.get(v, ()):
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationBudgetError(
                    "walk enumeration exceeded its node budget",
                    reached=len(path) - 1,
                )
            path.append(head)
            nw = weight * w
            if head == target and loop_erase(path) == zeta:
                total += nw
            if net.is_interior(head) and steps_left > 1:
                rec(head, nw, steps_left - 1)
            path.pop()

    if max_len >= 1:
        rec(start, 1.0, max_len)
    tail = _walk_tail_bound(net, start, target, max_len)
    return float(total), float(tail)


# ---------------------------------------------------------------------------
# network files and stock builders


def load_network(path):
    """Read a network from a text file.

    Format: lines `interior: id id ...` and `boundary: id id ...` (each exactly
    once), then one `tail head weight` line per directed edge.  Blank lines and
    `#` comments are ignored.
    """
    interior = boundary = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("interior:"):
                interior = [int(tok) for tok in line[len("interior:"):].split()]
            elif line.startswith("boundary:"):
                boundary = [int(tok) for tok in line[len("boundary:"):].split()]
            else:
                parts = line.split()
                if len(parts) != 3:
                    raise DomainError(f"bad edge line: {raw!r}")
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if interior is None or boundary is None:
        raise DomainError("network file needs interior: and boundary: headers")
    count = max(interior + boundary) + 1 if (interior or boundary) else 0
    return Network(count, edges, interior, boundary)


def save_network(net, path):
    """Write a network in the format understood by load_network."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interior: " + " ".join(str(v) for v in net.interior) + "\n")
        fh.write("boundary: " + " ".join(str(v) for v in net.boundary) + "\n")
        for v in range(net.vertex_count):
            for head, weight in net.out_edges.get(v, ()):
                fh.write(f"{v} {head} {weight!r}\n")


def square_grid_network(nx, ny, step_weight=0.25):
    """Simple-random-walk network on an nx-wide, ny-tall interior grid with an
    absorbing boundary ring.

    Interior cells are (i, j) with 0 <= i < ny (row) and 0 <= j < nx (column);
    the ring adds cells at i = -1, ny and j = -1, nx (no corners).  Every cell
    has out-edges of weight `step_weight` to its lattice neighbors, except
    that boundary cells only step back into the interior (walks are absorbed
    there anyway).  Returns (net, id_of) with id_of mapping cell coordinates
    to vertex ids.
    """
    cells = [(i, j) for i in range(ny) for j in range(nx)]
    ring = (
        [(-1, j) for j in range(nx)]
        + [(ny, j) for j in range(nx)]
        + [(i, -1) for i in range(ny)]
        + [(i, nx) for i in range(ny)]
    )
    id_of = {}
    for c in cells + ring:
        id_of[c] = len(id_of)
    interior = [id_of[c] for c in cells]
    boundary = [id_of[c] for c in ring]
    interior_set = set(interior)
    edges = []
    for (i, j) in cells:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (i + di, j + dj)
            if nb in id_of:
                edges.append((id_of[(i, j)], id_of[nb], step_weight))
    for (i, j) in ring:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (i + di, j + dj)
            if nb in id_of and id_of[nb] in interior_set:
                edges.append((id_of[(i, j)], id_of[nb], step_weight))
    net = Network(len(id_of), edges, interior, boundary)
    return net, id_of
