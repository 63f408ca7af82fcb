"""Tropical curve data model and combinatorics.

A curve is a graph mapped piecewise-linearly into Q^n.  Vertex
positions are exact: integer vectors over one positive common
denominator, the least one (`TropicalCurve.coords`, `.denominator`), so
that edge and position tests compare integers.  Edges carry a primitive
integer direction (oriented tail -> head, outward for rays), a positive
integer weight and an optional leaf label used to match constraint
lines.

Conventions for graph nodes:

* valence >= 3 vertices are the combinatorial vertices and must balance;
* 1-valent vertices are boundary endpoints (where the curve meets the
  boundary of a polyhedral domain);
* 2-valent vertices are allowed only as collinear markings on a straight
  edge (opposite directions, equal weights); anything else 2-valent is
  rejected as degenerate.
* edges with head == None are unbounded rays.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import neg

from .errors import Record, WorkbenchError
from .lattice import (gcd_primitive as _sign_normalized, rank_exact,
                      vec_add, vec_neg, vec_scale)


def as_rational(x):
    """x as a Fraction; one already parsed is kept as it is."""
    return x if type(x) is Fraction else Fraction(x)


def over_one_denominator(points):
    """Rational points (sequences of Fractions, ints or rational strings)
    as (X, L): integer tuples X[k] and the least L > 0 with X[k] / L the
    point points[k]."""
    points = [tuple(map(as_rational, p)) for p in points]
    L = lcm(*{x.denominator for p in points for x in p})
    return [tuple([x.numerator * (L // x.denominator) for x in p])
            for p in points], L


def least_denominator(X, L):
    """Integer tuples X[k] over L > 0 written over the least common
    denominator of the points X[k] / L: (X, L) again when it is L, else
    both divided by gcd(L, every coordinate)."""
    g = L if L == 1 else gcd(L, *itertools.chain.from_iterable(X))
    if g == 1:
        return X, L
    return [tuple([x // g for x in p]) for p in X], L // g


def rational_text(x, L):
    """x / L as the JSON writes it, reduced: the text of str(Fraction)."""
    g = gcd(x, L)
    return str(x // g) if g == L else f"{x // g}/{L // g}"


def point_text(xs):
    """A point as messages print it: its coordinates as the JSON writes
    them (p/q strings), in parentheses."""
    return f"({', '.join(map(str, xs))})"


class Edge(Record):
    __slots__ = ("tail", "head", "direction", "weight", "leaf_label")

    # Hand-written: one Edge per input edge, 3x faster than Record's loop.
    def __init__(self, tail: str, head: str | None, direction: tuple,
                 weight: int = 1, leaf_label: int | None = None):
        self.tail = tail
        self.head = head
        self.direction = direction
        self.weight = weight
        self.leaf_label = leaf_label

    @property
    def bounded(self):
        return self.head is not None

    def dh(self):
        """Weighted displacement vector (the image of a unit tangent)."""
        return vec_scale(self.weight, self.direction)


class End(Record):
    """One end of the curve: an unbounded ray or a 1-valent endpoint."""
    __slots__ = ("edge_index", "kind", "attach", "outward", "weight", "label",
                 "endpoint")

    # Hand-written: several Ends per curve, 3x faster than Record's loop.
    def __init__(self, edge_index: int, kind: str, attach: str, outward: tuple,
                 weight: int, label: int | None, endpoint: str | None = None):
        self.edge_index = edge_index
        self.kind = kind          # "ray" | "endpoint"
        self.attach = attach      # vertex the end hangs off
        self.outward = outward    # primitive direction out of the curve
        self.weight = weight
        self.label = label
        self.endpoint = endpoint  # 1-valent vertex id for endpoint ends

    def dh(self):
        return vec_scale(self.weight, self.outward)


def _as_edge(e):
    """A library caller's edge, an `Edge` or a dict with the keys of the
    JSON format, as an `Edge` with a tuple direction and an int weight."""
    if not isinstance(e, Edge):
        return Edge(e["tail"], e.get("head"), tuple(e["dir"]),
                    int(e.get("weight", 1)), e.get("leaf_label"))
    if type(e) is Edge and type(e.direction) is tuple and \
            type(e.weight) is int:
        return e
    return Edge(e.tail, e.head, tuple(e.direction), int(e.weight),
                e.leaf_label)


class TropicalCurve:
    """A curve; never mutated after construction.  An enumerated type's
    curve (`multiplicity._SolvedCurve`) finishes its construction on its
    first read and never changes after that.

    `vertices` is a sequence of (id, position).  Without a denominator
    the positions are rationals (Fractions, ints or rational strings)
    and the edges `Edge` records or dicts with the keys of the JSON
    format, as library callers pass them.  With a denominator L > 0 the
    positions are integer tuples X meaning X / L, and the edges `Edge`
    records with tuple directions and int weights, taken as they are:
    the readers and the package's own builders pass them so.  Either
    way the curve keeps `coords[vid]`, an integer tuple, over the least
    common `denominator`."""

    def __init__(self, dim, vertices, edges, denominator=None):
        self.dim = dim
        vertices = list(vertices)
        ids = [vid for vid, _ in vertices]
        points = [pos for _, pos in vertices]
        if denominator is None:
            points, denominator = over_one_denominator(points)
            edges = map(_as_edge, edges)
        else:
            points, denominator = least_denominator(points, denominator)
        self.coords = dict(zip(ids, points))
        if len(self.coords) != len(ids):
            raise WorkbenchError("INVALID_CURVE", "duplicate vertex ids")
        self.denominator = denominator
        self.edges = edges = tuple(edges)
        # the incidence lists and the rays in one pass over the edges,
        # each bounded edge's direction negated once for its head
        inc = {}
        ends = []
        flipped = {}
        for i, e in enumerate(edges):
            u, w = e.direction, e.weight
            tail, head = e.tail, e.head
            at = inc.get(tail)
            if at is None:
                inc[tail] = [(i, u, w)]
            else:
                at.append((i, u, w))
            if head is None:
                ends.append(End(i, "ray", tail, u, w, e.leaf_label))
                continue
            flipped[i] = back = tuple(map(neg, u))
            at = inc.get(head)
            if at is None:
                inc[head] = [(i, back, w)]
            else:
                at.append((i, back, w))
        self._incident = {vid: tuple(at) for vid, at in inc.items()}
        # an endpoint end at each 1-valent end of a bounded edge, ordered
        # as if met edge by edge, the end at the head first
        tips = []
        for vid, at in inc.items():
            if len(at) == 1:
                i, _, w = at[0]
                e = edges[i]
                if e.head == vid:
                    tips.append(((i, 0), End(i, "endpoint", e.tail,
                                             e.direction, w, e.leaf_label,
                                             vid)))
                elif e.head is not None:
                    tips.append(((i, 1), End(i, "endpoint", e.head,
                                             flipped[i], w, e.leaf_label,
                                             vid)))
        if tips:
            tips += [((x.edge_index, 0), x) for x in ends]
            tips.sort(key=lambda t: t[0])
            ends = [x for _, x in tips]
        # the ends by label when fully labeled; bad labels are an error
        # of every ends() call
        labels = sorted(x.label for x in ends if x.label is not None)
        self._ends_error = None
        if ends and len(labels) == len(ends):
            if labels != list(range(len(ends))):
                self._ends_error = (f"end labels {labels} are not "
                                    f"0..{len(ends) - 1}")
            ends.sort(key=lambda x: x.label)
        self._ends = tuple(ends)

    def _key(self):
        return (self.dim, self.denominator, tuple(self.coords.items()),
                self.edges)

    def __eq__(self, other):
        """Curves are equal when they have the same dimension, the same
        denominator, the same vertices with the same coordinates in the
        same order, and equal edges; an enumerated curve equals the
        curve built from its data."""
        if not isinstance(other, TropicalCurve):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def vertices(self):
        """{vertex id: position as a tuple of Fractions}, in vertex
        order, for library callers; built on first use."""
        return {vid: self.position(vid) for vid in self.coords}

    def position(self, vid):
        """The position of a vertex as a tuple of Fractions."""
        L = self.denominator
        return tuple([Fraction(x, L) for x in self.coords[vid]])

    def incident(self, vid):
        """Tuple of (edge_index, outward_direction, weight) at a vertex."""
        return self._incident.get(vid, ())

    def valence(self, vid):
        return len(self._incident.get(vid, ()))

    def bounded_indices(self):
        return [i for i, e in enumerate(self.edges) if e.bounded]

    def ray_indices(self):
        return [i for i, e in enumerate(self.edges) if not e.bounded]

    def trivalent_vertices(self):
        inc = self._incident
        return [v for v in self.coords if len(inc.get(v, ())) >= 3]

    def marking_vertices(self):
        inc = self._incident
        return [v for v in self.coords if len(inc.get(v, ())) == 2]

    def ends(self):
        """Ends in deterministic order (by label when fully labeled), as
        a tuple built with the curve."""
        if self._ends_error:
            raise WorkbenchError("INVALID_CURVE", self._ends_error)
        return self._ends

    def b1(self):
        return len(self.bounded_indices()) - len(self.coords) + 1

    # -- geometric edges (2-valent markings smoothed away) ------------------

    def _chains(self):
        """The maximal straight chains through 2-valent markings, in one
        walk over the incidence lists.

        Yields (first, second, direction, weight, edges) for each chain:
        its end vertices (None for the infinite end of a ray), its
        primitive direction oriented first -> second, its weight and its
        edge indices in walk order.  A chain starts at the first terminal
        (a non-marking end of an edge, or a ray's infinite end) of the
        first edge, in edge order, that no chain has taken yet, tail
        before head, and steps through each marking to its other edge.
        A ray-ended chain puts the infinite end second; a line, infinite
        at both ends, takes the sign-normalized direction.  Edges on a
        closed loop of markings belong to no chain.
        """
        edges, inc = self.edges, self._incident
        markings = set(self.marking_vertices())
        taken = bytearray(len(edges))
        for i, e in enumerate(edges):
            if taken[i]:
                continue
            start, cur = e.tail, e.head
            u = e.direction
            if start in markings:
                if cur is None:
                    start, cur = None, start
                elif cur in markings:
                    continue
                else:
                    start, cur = cur, start
                u = tuple(map(neg, u))
            idxs = [i]
            taken[i] = 1
            j = i
            while cur in markings:
                (j1, _, _), (j2, _, _) = inc[cur]
                j = j2 if j1 == j else j1
                idxs.append(j)
                taken[j] = 1
                e2 = edges[j]
                cur = e2.head if e2.tail == cur else e2.tail
            if start is None:
                if cur is None:
                    _, u = _sign_normalized(u)
                else:
                    start, cur = cur, None
                    u = tuple(map(neg, u))
            yield start, cur, u, e.weight, tuple(idxs)

    def chain_nodes(self):
        """(junctions, [(a, b, direction, weight, edges), ...]): each
        chain of the one chain walk from the node a of its first side to
        the node b of its second, the direction running first -> second.
        The ends are nodes 0..kappa-1 in ends() order and the junctions
        (valence >= 3) follow in trivalent_vertices() order; the first
        junction whose valence is not 3 is NOT_TRIVALENT.  A side that
        is no junction is the end at its endpoint, or the end of the ray
        whose infinite end it is; a line's two rays are ordered so that
        its direction runs a -> b.
        """
        ends = self.ends()
        junctions = self.trivalent_vertices()
        inc = self._incident
        for v in junctions:
            if len(inc[v]) != 3:
                raise WorkbenchError("NOT_TRIVALENT",
                                     f"vertex {v} has valence {len(inc[v])}")
        # a junction, or the 1-valent vertex of an endpoint end, by vertex
        # id; a ray's end by its edge index
        node = {v: len(ends) + k for k, v in enumerate(junctions)}
        ray = {}
        for j, e in enumerate(ends):
            if e.endpoint is None:
                ray[e.edge_index] = j
            else:
                node[e.endpoint] = j
        out = []
        for first, second, u, w, idxs in self._chains():
            if first is None:
                # a line: its rays are the first and last edges
                a, b = ray[idxs[0]], ray[idxs[-1]]
                if ends[a].outward == u:
                    a, b = b, a
                out.append((a, b, u, w, idxs))
                continue
            a = node.get(first)
            if second is not None:
                b = node.get(second)
            else:
                # the ray is the last edge, or the first if the walk
                # started at its infinite end
                b = ray.get(idxs[-1])
                if b is None:
                    b = ray[idxs[0]]
            if a is None or b is None:
                raise WorkbenchError(
                    "NOT_TRIVALENT", f"chain endpoint "
                    f"{first if a is None else second} is neither a "
                    f"junction nor an end")
            out.append((a, b, u, w, idxs))
        return junctions, out


# ---------------------------------------------------------------------------
# validation


class ValidationReport(Record):
    __slots__ = ("ok", "issues")
    _defaults = ((),)

    def as_dict(self):
        return {"ok": self.ok, "issues": list(self.issues)}


def _positive_multiple(tail, head, direction):
    """The t > 0 with head - tail == t * direction, as a pair (n, d) of
    ints with t == n / d and d > 0, or None.

    tail and head are integer tuples over one denominator, such as two
    vertices' `coords`; t is then in units of that denominator.  The
    quotients a_k / u_k of head - tail by the direction must agree on
    every k with u_k != 0, compared by cross-multiplying, and a_k must
    be 0 where u_k == 0.
    """
    n = d = None
    for p, q, u in zip(head, tail, direction):
        a = p - q
        if u == 0:
            if a:
                return None
            continue
        if n is None:
            n, d = a, u
        elif a * d != n * u:
            return None
    if n is None or n == 0 or (n < 0) != (d < 0):
        return None
    return (n, d) if d > 0 else (-n, -d)


def validate_curve(c: TropicalCurve) -> ValidationReport:
    """Check every tropical-curve axiom; report all violations."""
    issues = []
    dim, X = c.dim, c.coords
    if dim < 2:
        issues.append("dimension must be at least 2")
    for vid, pos in X.items():
        if len(pos) != dim:
            issues.append(f"vertex {vid}: position has wrong dimension")
    for i, e in enumerate(c.edges):
        if e.tail not in X:
            issues.append(f"edge {i}: unknown tail {e.tail}")
            continue
        if e.head is not None and e.head not in X:
            issues.append(f"edge {i}: unknown head {e.head}")
            continue
        if len(e.direction) != dim:
            issues.append(f"edge {i}: direction has wrong dimension")
            continue
        g = gcd(*e.direction)
        if g == 0:
            issues.append(f"edge {i}: zero direction")
            continue
        if g != 1:
            issues.append(f"edge {i}: direction {e.direction} not primitive")
        if not isinstance(e.weight, int) or e.weight < 1:
            issues.append(f"edge {i}: weight must be a positive integer")
        if e.head is not None:
            if e.head == e.tail:
                issues.append(f"edge {i}: loop edge")
                continue
            if _positive_multiple(X[e.tail], X[e.head],
                                  e.direction) is None:
                issues.append(
                    f"edge {i}: head - tail is not a positive multiple "
                    f"of the direction")
    if not issues:
        # balancing and valence rules need consistent incidence data
        incident = c._incident
        for vid in X:
            inc = incident.get(vid, ())
            if len(inc) == 0:
                issues.append(f"vertex {vid}: isolated")
            elif len(inc) == 2:
                (i1, d1, w1), (i2, d2, w2) = inc
                if w1 != w2 or vec_add(vec_scale(w1, d1),
                                       vec_scale(w2, d2)) != (0,) * dim:
                    issues.append(
                        f"vertex {vid}: degenerate 2-valent vertex")
            elif len(inc) >= 3:
                total = tuple(map(sum, zip(*[
                    d if w == 1 else [w * x for x in d] for _, d, w in inc])))
                if any(total):
                    issues.append(f"vertex {vid}: balancing fails, "
                                  f"outward sum {total}")
        if X and len(_reach(c, next(iter(X)))) != len(X):
            issues.append("curve is not connected")
        # end labels, if any are present, must be usable
        labels = [e.leaf_label for e in c.edges if e.leaf_label is not None]
        if len(labels) != len(set(labels)):
            issues.append("duplicate leaf labels")
    return ValidationReport(not issues, tuple(issues))


def require_valid(c):
    rep = validate_curve(c)
    if not rep.ok:
        raise WorkbenchError("INVALID_CURVE", "; ".join(rep.issues))
    return rep


def _reach(c, start, keep=None):
    """{vertex: index of the edge it was first reached by} for each
    vertex reachable from `start` along bounded edges (those i with
    keep(i) when a filter is given), `start` mapped to None, in
    depth-first discovery order.  Each edge of the map joins its vertex
    to one found before it, so the map is a spanning tree of what it
    reaches."""
    via = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        for i, _, _ in c.incident(v):
            e = c.edges[i]
            if e.head is None or (keep is not None and not keep(i)):
                continue
            w = e.head if e.tail == v else e.tail
            if w not in via:
                via[w] = i
                stack.append(w)
    return via


# ---------------------------------------------------------------------------
# Betti numbers and toric degree


class BettiDegree(Record):
    __slots__ = ("b1", "kappa",
                 "degree")  # sorted multiset of weighted ray directions

    def as_dict(self):
        return {"b1": self.b1, "kappa": self.kappa,
                "degree": [list(d) for d in self.degree]}


def betti_and_degree(c: TropicalCurve) -> BettiDegree:
    """First Betti number, number of unbounded rays, and toric degree.

    kappa counts only genuine rays: edges clipped at a domain boundary are
    bounded and do not escape to infinity.
    """
    rays = [c.edges[i] for i in c.ray_indices()]
    degree = tuple(sorted(e.dh() for e in rays))
    return BettiDegree(c.b1(), len(rays), degree)


def toric_degree_of_ends(c: TropicalCurve):
    """Weighted outward vectors of all ends (rays and endpoints)."""
    return tuple(end.dh() for end in c.ends())


# ---------------------------------------------------------------------------
# regularity / deformation dimension


class RegularityReport(Record):
    __slots__ = ("def_dim", "expected_dim", "regular", "rank")

    def as_dict(self):
        return {"defDim": self.def_dim, "expectedDim": self.expected_dim,
                "regular": self.regular, "rank": self.rank}


def regularity_check(c: TropicalCurve) -> RegularityReport:
    """Rank of the cycle conditions on bounded-edge lengths.

    Every vertex must be 3-valent; the constraints say that around each
    independent cycle the weighted edge displacements sum to zero.
    """
    for vid in c.coords:
        if c.valence(vid) != 3:
            raise WorkbenchError("NOT_TRIVALENT",
                                 f"vertex {vid} has valence {c.valence(vid)}")
    bounded = c.bounded_indices()
    pos_in_row = {ei: k for k, ei in enumerate(bounded)}
    b = len(bounded)
    n = c.dim
    b1 = c.b1()
    kappa = len(c.ray_indices())

    # spanning tree over bounded edges; each chord closes one cycle
    via = _reach(c, next(iter(c.coords))) if c.coords else {}
    if len(via) != len(c.coords):
        raise WorkbenchError("INVALID_CURVE", "curve is not connected")
    in_tree = set(via.values())

    def add_root_path(coeff, v, s):
        """Add s times the tree path from v up to the root, each edge
        signed +1 where the path runs head -> tail."""
        while via[v] is not None:
            i = via[v]
            e = c.edges[i]
            up = e.head == v
            coeff[i] = coeff.get(i, 0) + (s if up else -s)
            v = e.tail if up else e.head

    rows = []
    for ei in bounded:
        if ei in in_tree:
            continue
        e = c.edges[ei]
        # cycle: chord tail -> head, then tree path head -> root -> tail
        coeff = {ei: 1}
        add_root_path(coeff, e.head, -1)
        add_root_path(coeff, e.tail, 1)
        for coord in range(n):
            row = [0] * b
            for k, s in coeff.items():
                row[pos_in_row[k]] = s * c.edges[k].dh()[coord]
            rows.append(row)

    rank = rank_exact(rows) if rows else 0
    def_dim = n + b - rank
    expected = kappa + (n - 3) * (1 - b1)
    return RegularityReport(def_dim, expected, rank == n * b1, rank)


# ---------------------------------------------------------------------------
# splitting a tree at an interior point of a bounded edge


class SplitResult(Record):
    __slots__ = ("h1", "r1_index", "h2", "r2_index", "point",
                 "h1_edge_map",  # old index -> new index
                 "h2_edge_map")


def split_at_edge(c: TropicalCurve, edge_index: int, p) -> SplitResult:
    """Cut a tree at p inside a bounded edge; both halves get a new ray."""
    if c.b1() != 0:
        raise WorkbenchError("TREE_ONLY", "splitting needs a tree")
    e = c.edges[edge_index]
    if not e.bounded:
        raise WorkbenchError("SPLIT_UNBOUNDED",
                             "cannot split an unbounded edge")
    p = tuple(Fraction(x) for x in p)
    if len(p) != c.dim:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             f"split point has {len(p)} coordinates")
    # p, the tail and the head over one denominator M
    X, L = c.coords, c.denominator
    M = lcm(L, *(x.denominator for x in p))
    P = tuple([x.numerator * (M // x.denominator) for x in p])
    tail, head = (vec_scale(M // L, X[v]) for v in (e.tail, e.head))
    t = _positive_multiple(tail, P, e.direction)
    tot = _positive_multiple(tail, head, e.direction)
    # 0 < t by construction; t < tot compared as integer pairs
    if t is None or tot is None or not t[0] * tot[1] < tot[0] * t[1]:
        raise WorkbenchError("SPLIT_POINT",
                             "split point must be strictly inside the edge")

    if len(_reach(c, e.tail)) != len(X):
        raise WorkbenchError("INVALID_CURVE", "curve is not connected")
    # vertices on the tail side of the edge
    side = _reach(c, e.tail, lambda i: i != edge_index)

    def part(vertex_set, ray_tail, ray_dir):
        verts = [(v, x) for v, x in X.items() if v in vertex_set]
        edges = []
        emap = {}
        for i in range(len(c.edges)):
            if i != edge_index and c.edges[i].tail in vertex_set:
                emap[i] = len(edges)
                edges.append(c.edges[i])
        edges.append(Edge(ray_tail, None, ray_dir, e.weight, None))
        cur = TropicalCurve(c.dim, verts, edges, L)
        return cur, len(edges) - 1, emap

    other = X.keys() - side
    h1, r1, map1 = part(side, e.tail, e.direction)
    h2, r2, map2 = part(other, e.head, vec_neg(e.direction))
    return SplitResult(h1, r1, h2, r2, p, map1, map2)


# ---------------------------------------------------------------------------
# abstract 3-valent tree topologies (enumerator support)


class TreeTopology(Record):
    """Labeled 3-valent tree: leaves 0..kappa-1, internal nodes >= kappa."""
    __slots__ = ("kappa",
                 "edges")  # sorted (a, b) pairs with a < b

    def adjacency(self):
        adj = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        return adj


def trivalent_trees(kappa: int):
    """All (2k-5)!! labeled 3-valent trees, by leaf insertion in order.

    A generator over `_insertion_walk`: a tree is yielded each time its
    last leaf is in place."""
    if kappa < 3:
        raise WorkbenchError("KAPPA_TOO_SMALL",
                             "need at least three leaves")
    return _complete_trees(kappa)


def _complete_trees(kappa):
    parent = [None] * (2 * kappa - 2)
    pair = _edge_pairs(kappa)
    for leaf, _, placed in _insertion_walk(kappa, parent, pair):
        if placed and leaf == kappa - 1:
            yield TreeTopology(kappa, _tree_edges(parent, pair))


def _insertion_walk(kappa, parent, pair):
    """Depth-first walk of the leaf-insertion tree, on one tree held in
    `parent`, which is filled in place; pair is the caller's table
    `_edge_pairs(kappa)`, which orders the edges.

    The tree hangs from leaf 0: parent[x] is None at leaf 0 and at the
    nodes not yet placed.  The walk starts from the edge 0 - 1.  Leaf
    k = 2, 3, ... goes on the edge above each node x of the tree on
    leaves 0..k-1 in turn, ordered by the edge (min, max) of x and
    parent[x], at the new junction m = kappa + k - 2, which takes x's
    place below parent[x].  Yields (k, x, True) once leaf k is in place
    and (k, x, False) just before it is taken out again, so that a
    caller can keep data on the tree in step with it.  The trees on all
    kappa leaves are those after (kappa - 1, x, True).
    """
    parent[1] = 0
    levels = [[2, [1], None]]   # leaf, nodes still to split, node split
    while levels:
        level = levels[-1]
        leaf, todo, x = level
        m = kappa + leaf - 2
        if x is not None:
            yield leaf, x, False
            parent[x] = parent[m]
            parent[m] = parent[leaf] = None
        if not todo:
            levels.pop()
            continue
        level[2] = x = todo.pop()
        parent[m] = parent[x]
        parent[x] = parent[leaf] = m
        yield leaf, x, True
        if leaf + 1 < kappa:
            nodes = [*range(1, leaf + 1), *range(kappa, m + 1)]
            nodes.sort(key=lambda v: pair[v][parent[v]],
                       reverse=True)        # popped in edge order
            levels.append([leaf + 1, nodes, None])


def _edge_pairs(kappa):
    """pair[x][y] = (min, max) of the nodes x and y of a tree on kappa
    leaves: one tuple per edge, in both orientations, shared by all the
    trees of a walk."""
    size = 2 * kappa - 2
    pair = [[None] * size for _ in range(size)]
    for x in range(size):
        for y in range(x, size):
            pair[x][y] = pair[y][x] = (x, y)
    return pair


def _tree_edges(parent, pair):
    """The sorted edges (a, b), a < b, of a complete tree hung from leaf
    0, taken from the table pair = `_edge_pairs(kappa)`.  Every node but
    leaf 0 must have its parent: one edge per node 1.. is read, and a
    node not yet placed would fail."""
    return tuple(sorted(map(list.__getitem__, pair[1:], parent[1:])))


def _preorder(adj, root):
    """The tree with adjacency lists adj[x], hung from node `root`.

    Returns (parent, order): parent[x] (None for the root), and the
    pre-order of the nodes, root first and every node before its
    children.  A node's children are pushed in adjacency order, so a
    walk over the reversed pre-order meets them, and hands their data to
    the node, in adjacency order.  No recursion: any depth works.  A
    node reached a second time closes a cycle, and a node never reached
    lies in another component: either is TREE_ONLY.
    """
    parent, order, stack = [None] * len(adj), [], [root]
    while stack:
        x = stack.pop()
        order.append(x)
        up = parent[x]
        for y in adj[x]:
            if y != up:
                if y == root or parent[y] is not None:
                    raise WorkbenchError("TREE_ONLY",
                                         "a rooted walk needs a tree")
                parent[y] = x
                stack.append(y)
    if len(order) != len(adj):
        raise WorkbenchError("TREE_ONLY", "a rooted walk needs a tree")
    return parent, order


# ---------------------------------------------------------------------------
# combinatorial type


def _refine_colors(nodes, neighbors):
    base = {v: neighbors(v, lambda _: 0) for v in nodes}
    color = {v: (base[v], 0) for v in nodes}
    while True:
        fresh = {v: (color[v], neighbors(v, lambda w: color[w]))
                 for v in nodes}
        # canonicalize to small ints to keep tuples bounded
        ranks = {t: i for i, t in enumerate(sorted(set(fresh.values())))}
        new = {v: (base[v], ranks[fresh[v]]) for v in nodes}
        if len(set(new.values())) == len(set(color.values())):
            return new
        color = new


def combinatorial_type(c: TropicalCurve) -> str:
    """Canonical encoding of (graph, directions, weights, end labels).

    Stable under re-indexing of vertices; 2-valent markings are smoothed
    first so the encoding is a homeomorphism invariant.
    """
    chains = [(a, b, u, w, tuple(sorted(
        c.edges[j].leaf_label for j in idxs
        if c.edges[j].leaf_label is not None)))
        for a, b, u, w, idxs in c._chains()]
    nodes = sorted(v for v in c.coords if c.valence(v) != 2)

    # incident descriptors per node
    inc = {v: [] for v in nodes}
    for k, (a, b, u, w, lab) in enumerate(chains):
        if a is not None:
            inc[a].append((k, u, w, lab))
        if b is not None:
            inc[b].append((k, vec_neg(u), w, lab))

    def neighbors(v, f):
        out = []
        for k, d, w, lab in inc[v]:
            others = [x for x in chains[k][:2] if x != v]
            other = others[0] if others else None
            out.append((tuple(d), w, lab, other is None,
                        f(other) if other is not None else -1))
        return tuple(sorted(out))

    colors = _refine_colors(nodes, neighbors)
    classes = {}
    for v in nodes:
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [sorted(classes[k]) for k in sorted(classes)]

    total = 1
    for cl in ordered_classes:
        for i in range(2, len(cl) + 1):
            total *= i
    if total > 100000:
        raise WorkbenchError("TYPE_TOO_SYMMETRIC",
                             "too many candidate labelings")

    best = None
    for perm_parts in itertools.product(
            *[itertools.permutations(cl) for cl in ordered_classes]):
        index = {}
        for part in perm_parts:
            for v in part:
                index[v] = len(index)
        enc_edges = []
        for a, b, d, w, lab in chains:
            if a is None and b is None:
                enc_edges.append(("line", tuple(d), w, lab))
                continue
            if a is None or (b is not None and index[b] < index[a]):
                a, b, d = b, a, vec_neg(d)
            if b is None:
                enc_edges.append(("ray", index[a], tuple(d), w, lab))
            else:
                enc_edges.append(("seg", index[a], index[b], tuple(d), w,
                                  lab))
        enc = tuple(sorted(enc_edges))
        if best is None or enc < best:
            best = enc
    return repr((c.dim, best))


# ---------------------------------------------------------------------------
# extension of a clipped curve to rays


def extend_curve(c: TropicalCurve) -> TropicalCurve:
    """Replace 1-valent endpoints by unbounded rays from their neighbors."""
    endpoints = {v for v in c.coords if c.valence(v) == 1}
    if not endpoints:
        return c
    edges = []
    for e in c.edges:
        if e.bounded and e.head in endpoints and e.tail in endpoints:
            raise WorkbenchError(
                "NEEDS_MARKING",
                "a single edge with two endpoints needs an interior marking")
        if e.bounded and e.head in endpoints:
            edges.append(Edge(e.tail, None, e.direction, e.weight,
                              e.leaf_label))
        elif e.bounded and e.tail in endpoints:
            edges.append(Edge(e.head, None, vec_neg(e.direction), e.weight,
                              e.leaf_label))
        else:
            edges.append(e)
    verts = [(v, p) for v, p in c.coords.items() if v not in endpoints]
    return TropicalCurve(c.dim, verts, edges, c.denominator)
