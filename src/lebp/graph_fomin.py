"""Walk matrices and loop-erased walk ensembles on finite weighted networks.

A network has interior vertices, where walks move freely, and absorbing
boundary vertices, where walks stop on arrival.  The weight of a walk is the
product of its edge weights, the walk matrix entry W(a, b) is the sum of walk
weights over all walks from a to b, and minors of W built from boundary
vertices equal sums over tuples of walks whose earlier loop erasures avoid all
later walks (Fomin's identity).  This module evaluates both sides, each as
one call returning (value, bound): the minor of W, one linear solve over all
vertices made when the network is built, whose interior row sums certify
that the network is sub-critical and bound W's entrywise error; and the
combinatorial side as the independent check, an exact sum over tuples of
disjoint self-avoiding paths (the loop erasures) with no walk enumeration.
The weight of the walks with a given loop erasure is one minor of W times
the step weights of the path, and for a tuple of paths on the shrinking
network the minors telescope into one minor of I - Q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationBudgetError
from .numerics import UNIT_ROUNDOFF, det_lu_bounded, rounding_gamma


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
        Together they list each vertex exactly once.

    The interior-to-interior weight matrix Q must be strictly sub-critical.
    Construction solves for the walk matrix once and certifies rho(Q) < 1 in
    rounded arithmetic: w, the interior row sums of the computed walk matrix,
    must be positive with (I - Q) w >= s > 0, s = w - Qw - gamma (w + Qw).
    A singular system or a failed test raises DomainError.  rho_bound is the
    Collatz-Wielandt bound max (w - s) / w of the same vector, and the same
    w and s bound the walk matrix's entrywise error (walk_error), also
    computed at construction.
    """

    def __init__(self, vertex_count, edges, interior, boundary):
        vertex_count = int(vertex_count)
        if vertex_count < 1:
            raise DomainError("need at least one vertex")
        interior = sorted(int(v) for v in interior)
        boundary = sorted(int(v) for v in boundary)
        if sorted(interior + boundary) != list(range(vertex_count)):
            raise DomainError("interior and boundary must list each vertex exactly once")
        self.vertex_count = vertex_count
        self.interior = tuple(interior)
        self.boundary = tuple(boundary)
        self._interior_set = frozenset(interior)

        # one step matrix over all vertices, boundary out-edges included
        p = np.zeros((vertex_count, vertex_count))
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
            p[tail, head] = weight
        self.out_edges = {v: tuple(lst) for v, lst in out.items()}
        self._p = p
        self._interior_mask = np.zeros(vertex_count)
        self._interior_mask[interior] = 1.0
        eye = np.eye(vertex_count)
        k = eye - p * self._interior_mask
        try:
            walk = eye + np.linalg.solve(k, p)
        except np.linalg.LinAlgError:
            raise DomainError(
                "interior weight matrix is not strictly sub-critical (I - Q is singular)"
            ) from None
        walk.setflags(write=False)
        self._walk = walk

        # a positive w with (I - Q) w >= s > 0, checked in rounded arithmetic,
        # gives rho(Q) <= max (w - s) / w < 1
        idx = np.ix_(interior, interior)
        w = walk[idx].sum(axis=1)
        qw = p[idx] @ w
        s = w - qw - rounding_gamma(len(interior) + 2) * (w + qw)
        if not (np.all(w > 0.0) and np.all(s > 0.0)):
            raise DomainError(
                "interior weight matrix is not strictly sub-critical "
                "(no positive w with (I - Q) w > 0 in rounded arithmetic)"
            )
        self.rho_bound = float(np.max((w - s) / w, initial=0.0))

        # the entrywise error of the walk matrix, through the same w and s
        y = walk - eye
        gam = rounding_gamma(vertex_count + 3)
        resid = np.abs(p - k @ y) + gam * (np.abs(p) + np.abs(k) @ np.abs(y))
        err = resid * (1.0 + gam)
        if interior:
            c = np.max(resid[interior] / s[:, None], axis=0) * (1.0 + gam)
            err[interior] = np.outer(w, c)
            err[boundary] += np.outer(p[np.ix_(boundary, interior)] @ w, c)
        err.setflags(write=False)
        self._walk_err = err

    def is_interior(self, v):
        return v in self._interior_set

    def walk_matrix(self):
        """W = I + P (I - D P)^{-1} over all vertices, solved at construction.

        P is the step matrix and D the interior indicator: every step but the
        last lands in the interior.  By push-through, P (I - D P)^{-1} equals
        (I - P D)^{-1} P, one linear solve.
        """
        return self._walk

    def walk_error(self):
        """Entrywise certified bound on |walk_matrix() - W|, W the exact walk
        matrix; computed at construction.

        With K = I - P D, the exact W is I + K^{-1} P, so the computed W^
        misses it by K^{-1} R for the residual R = P - K (W^ - I).  K^{-1} is
        nonnegative (rho(Q) < 1): (I - Q)^{-1} on the interior rows, and on
        the boundary rows the identity plus P_BI (I - Q)^{-1}.  A positive
        vector w with (I - Q) w >= s > 0, checked in rounded arithmetic, gives
        (I - Q)^{-1} r <= c w whenever r <= c s, so each column of K^{-1} |R|
        is bounded through its largest ratio |R_i| / s_i over the interior.
        w and s are the constructor's sub-criticality certificate: w is the
        row sums of W^ over the interior, close to (I - Q)^{-1} 1, so s is
        close to 1 and no interior vertex is poorly weighted.  |R| is bounded
        by the residual computed in floating point plus that computation's
        own rounding.
        """
        return self._walk_err


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
            if not 0 <= v < net.vertex_count or net.is_interior(v):
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

    Entry W[a, b] of the walk matrix solved at construction: the empty walk
    when a == b, and every walk whose intermediate vertices are interior.
    Walks from a boundary vertex leave through its out-edges on the first
    step; walks reaching a boundary vertex stop there.
    """
    if not (0 <= a < net.vertex_count and 0 <= b < net.vertex_count):
        raise DomainError("vertex id out of range")
    return float(net.walk_matrix()[a, b])


def fomin_det(net, ab):
    """Determinant of the walk matrix [W(a_j, b_k)] over a boundary tuple.

    For configurations where the only planar pairing of A onto B is the
    identity, this equals the total weight of N-tuples of walks a_j -> b_j in
    which the loop erasure of each earlier walk avoids every later walk.
    Returns (value, bound): value is det_lu of the minor, and bound a
    certified bound on its distance to the exact determinant, from one
    det_lu_bounded call with the entrywise error of Network.walk_error.
    """
    ab = _as_boundary_tuple(ab)
    ab.validate(net)
    idx = np.ix_(ab.a, ab.b)
    return det_lu_bounded(net.walk_matrix()[idx], net.walk_error()[idx])


def _self_avoiding_paths(net, a, b, avoid, budget, handle):
    """Depth-first enumeration of the self-avoiding paths a -> b whose
    intermediate vertices are interior and outside `avoid`.  Calls
    handle(intermediate_vertices, weight) once per path, weight the product
    of its step weights.  `budget` is a one-element list counting remaining
    path extensions (callback style keeps the hot loop free of generator
    plumbing)."""
    path = []
    blocked = set(avoid)
    out_edges = net.out_edges
    is_interior = net._interior_set.__contains__

    def rec(v, weight):
        for head, w in out_edges.get(v, ()):
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationBudgetError(
                    "path enumeration exceeded its node budget", reached=len(path)
                )
            if head == b:
                handle(path, weight * w)
            elif is_interior(head) and head not in blocked:
                path.append(head)
                blocked.add(head)
                rec(head, weight * w)
                blocked.discard(head)
                path.pop()

    rec(a, 1.0)


def _union_weights(net, ab, budget):
    """Step-weight sums of the tuples of pairwise disjoint self-avoiding paths
    a_j -> b_j, keyed by the frozenset of their interior vertices."""
    groups = {frozenset(): 1.0}
    for a, b in zip(ab.a, ab.b):
        new = {}
        for used, acc in groups.items():

            def absorb(path, w, used=used, acc=acc):
                key = used.union(path)
                new[key] = new.get(key, 0.0) + acc * w

            _self_avoiding_paths(net, a, b, used, budget, absorb)
        groups = new
    return groups


def brute_force_fomin(net, ab, *, node_budget=20_000_000):
    """Exact nonintersecting loop-erased walk sum, from self-avoiding paths.

    In a walk tuple counted by Fomin's identity, walk j avoids the loop
    erasures zeta_1 .. zeta_{j-1} of the earlier walks, so the zeta_j are
    pairwise disjoint self-avoiding paths a_j -> b_j with interior
    intermediate vertices.  The walks of the tuple with these erasures weigh
    prod_j (step weights of zeta_j) * det M[S_j^c] / det M[S_{j-1}^c], with
    M = I - Q on the interior and S_j the interior vertices of zeta_1 ..
    zeta_j: Lawler's product formula on the network with S_{j-1} removed,
    and Jacobi's complementary-minor identity (Marchal 2000), as in
    lerw_weight.  The ratios telescope to det M[S^c] / det M, S the union of
    the tuple.  The paths are enumerated one index at a time, merging states
    by the union (all later paths can see), and the minors of each union
    size go through one stacked det_lu_bounded call.

    Nothing is truncated: the sum is finite, and neither W[A, B] nor
    fomin_det is formed.  Returns (value, bound), bound a certified bound on
    the rounding error of value: the sum has positive terms, each minor
    carries its det_lu_bounded bound, and the division by det M follows the
    quotient rule.

    Parameters
    ----------
    net : Network
    ab : BoundaryTuple or (A, B) pair
    node_budget : int
        Cap on path extensions; EnumerationBudgetError beyond it.
    """
    ab = _as_boundary_tuple(ab)
    ab.validate(net)
    budget = [int(node_budget)]
    groups = _union_weights(net, ab, budget)
    if not groups:
        return 0.0, 0.0

    interior = np.array(net.interior, dtype=int)
    m = np.eye(interior.size) - net._p[np.ix_(interior, interior)]
    det_m, det_m_err = det_lu_bounded(m, UNIT_ROUNDOFF * np.abs(m))
    by_size = {}
    for used, acc in groups.items():
        by_size.setdefault(len(used), []).append((used, acc))
    terms, errs = [], []
    for items in by_size.values():
        keep = np.array(
            [[i for i, v in enumerate(net.interior) if v not in used] for used, _ in items],
            dtype=int,
        ).reshape(len(items), -1)
        minors = m[keep[:, :, None], keep[:, None, :]]
        x, x_err = det_lu_bounded(minors, UNIT_ROUNDOFF * np.abs(minors))
        acc = np.array([acc for _, acc in items])
        terms.append(acc * x)
        errs.append(acc * x_err)
    terms, errs = np.concatenate(terms), np.concatenate(errs)
    numerator = math.fsum(terms)
    value = numerator / det_m

    # every accumulated weight is a sum of at most node_budget - budget[0]
    # products of at most |interior| + 2N rounded factors
    gam = rounding_gamma(interior.size + 2 * ab.n + (int(node_budget) - budget[0]) + 2)
    num_err = (1.0 + 2.0 * gam) * math.fsum(errs) + 2.0 * gam * math.fsum(np.abs(terms))
    if det_m <= det_m_err:
        return float(value), math.inf
    bound = (num_err + abs(value) * det_m_err) / (det_m - det_m_err) + UNIT_ROUNDOFF * abs(value)
    return float(value), float(bound)


def lerw_weight(net, zeta, max_len=None):
    """Total weight of walks whose loop erasure equals the self-avoiding path
    zeta, as one minor of the walk matrix.  Returns (value, bound), bound a
    certified bound on the rounding error of value: nothing is truncated.

    Splitting a walk at its last visits to zeta[0], zeta[1], ... writes the
    weight as prod_i G_i(zeta_i, zeta_i) * prod_i w(zeta_i, zeta_{i+1}), where
    G_i sums loops at zeta_i that avoid zeta_0 .. zeta_{i-1} (Lawler).  By
    Jacobi's complementary-minor identity the product of loop sums is
    det W[Z, Z], Z the interior vertices of zeta (Marchal 2000).  A boundary
    vertex contributes no loops: a walk that reaches it is absorbed there.  So
    the weight is 0 when zeta passes through the boundary before its end or
    uses a missing edge, and the one special case is zeta = (b,) with b on the
    boundary, whose weight is W[b, b].  The minor and its bound come from
    det_lu_bounded with Network.walk_error, as in fomin_det, so zeta may hold
    at most 64 interior vertices; the bound also covers the step products.

    max_len is ignored, because nothing is truncated; it stays optional so
    that callers which still pass a step cutoff keep working.
    """
    zeta = tuple(int(v) for v in zeta)
    if len(zeta) == 0:
        raise DomainError("zeta must be nonempty")
    if len(set(zeta)) != len(zeta):
        raise DomainError("zeta must be self-avoiding")
    for v in zeta:
        if not (0 <= v < net.vertex_count):
            raise DomainError("zeta vertex out of range")
    w, w_err = net.walk_matrix(), net.walk_error()
    if len(zeta) == 1 and not net.is_interior(zeta[0]):
        return float(w[zeta[0], zeta[0]]), float(w_err[zeta[0], zeta[0]])
    if not all(net.is_interior(v) for v in zeta[1:-1]):
        return 0.0, 0.0
    z = [v for v in zeta if net.is_interior(v)]
    det, det_err = det_lu_bounded(w[np.ix_(z, z)], w_err[np.ix_(z, z)])
    steps = float(np.prod(net._p[zeta[:-1], zeta[1:]]))
    # len(zeta) - 1 roundings in the products, two in the bound itself
    gam = rounding_gamma(len(zeta) + 2)
    return det * steps, float((det_err * (1.0 + gam) + gam * abs(det)) * steps)


# ---------------------------------------------------------------------------
# network files and stock builders


def load_network(path):
    """Read a network from a text file.

    Format: lines `interior: id id ...` and `boundary: id id ...` (each exactly
    once), then one `tail head weight` line per directed edge.  Blank lines and
    `#` comments are ignored.
    """
    headers = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, colon, rest = line.partition(":")
            header = colon and key in ("interior", "boundary")
            if header and key in headers:
                raise DomainError(f"repeated {key}: header: {raw!r}")
            parts = rest.split() if header else line.split()
            if not header and len(parts) != 3:
                raise DomainError(f"bad edge line: {raw!r}")
            try:
                if header:
                    headers[key] = [int(tok) for tok in parts]
                else:
                    edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise DomainError(f"non-numeric token in line: {raw!r}") from None
    if len(headers) != 2:
        raise DomainError("network file needs interior: and boundary: headers")
    interior, boundary = headers["interior"], headers["boundary"]
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


# the step weight of the simple random walk on square_grid_network
GRID_STEP_WEIGHT = 0.25


def square_grid_network(nx, ny):
    """Simple-random-walk network on an nx-wide, ny-tall interior grid with an
    absorbing boundary ring.

    Interior cells are (i, j) with 0 <= i < ny (row) and 0 <= j < nx (column);
    the ring adds cells at i = -1, ny and j = -1, nx (no corners).  Every cell
    has out-edges of weight GRID_STEP_WEIGHT to its lattice neighbors, except
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
    inside = set(cells)
    edges = []
    for (i, j) in cells + ring:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (i + di, j + dj)
            if nb in id_of and ((i, j) in inside or nb in inside):
                edges.append((id_of[(i, j)], id_of[nb], GRID_STEP_WEIGHT))
    net = Network(len(id_of), edges, interior, boundary)
    return net, id_of


def grid_fomin_check(size, rows):
    """(walk determinant, exact enumeration, sum of both sides' rounding
    bounds) on the size x size square_grid_network, for paths from the left
    to the right end of each of the interior `rows`."""
    net, id_of = square_grid_network(size, size)
    a = tuple(id_of[(i, -1)] for i in rows)
    b = tuple(id_of[(i, size)] for i in rows)
    det, det_bound = fomin_det(net, (a, b))
    brute, brute_bound = brute_force_fomin(net, (a, b))
    return det, brute, brute_bound + det_bound
