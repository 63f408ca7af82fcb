"""Tropical curve data model and combinatorics.

A curve is a graph mapped piecewise-linearly into Q^n.  Vertices carry
exact rational positions.  Edges carry a primitive integer direction
(oriented tail -> head, outward for rays), a positive integer weight and
an optional leaf label used to match constraint lines.

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

from .errors import Record, WorkbenchError
from .lattice import (content, gcd_primitive as _sign_normalized, rank_exact,
                      vec_add, vec_neg, vec_scale)


def as_rational(x):
    """x as a Fraction; one already parsed is kept as it is."""
    return x if type(x) is Fraction else Fraction(x)


def as_rational_point(xs):
    """xs as a tuple of Fractions; one already so is kept as it is."""
    if type(xs) is tuple:
        for x in xs:
            if type(x) is not Fraction:
                break
        else:
            return xs
    return tuple(map(as_rational, xs))


def point_text(xs):
    """A point as messages print it: its coordinates as the JSON writes
    them (p/q strings), in parentheses."""
    return f"({', '.join(map(str, xs))})"


class Edge(Record):
    __slots__ = ("tail", "head", "direction", "weight", "leaf_label")

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


class TropicalCurve:
    def __init__(self, dim, vertices, edges):
        self.dim = dim
        vertices = list(vertices)
        self.vertices = {vid: as_rational_point(pos) for vid, pos in vertices}
        if len(self.vertices) != len(vertices):
            raise WorkbenchError("INVALID_CURVE", "duplicate vertex ids")
        norm = []
        for e in edges:
            if isinstance(e, Edge):
                if type(e) is not Edge or type(e.direction) is not tuple \
                        or type(e.weight) is not int:
                    e = Edge(e.tail, e.head, tuple(e.direction),
                             int(e.weight), e.leaf_label)
            else:
                e = Edge(e["tail"], e.get("head"), tuple(e["dir"]),
                         int(e.get("weight", 1)), e.get("leaf_label"))
            norm.append(e)
        self.edges = tuple(norm)
        # incidence index; a curve is never mutated after construction
        inc = {}
        for i, e in enumerate(self.edges):
            inc.setdefault(e.tail, []).append((i, e.direction, e.weight))
            if e.head is not None:
                inc.setdefault(e.head, []).append(
                    (i, vec_neg(e.direction), e.weight))
        self._incident = {vid: tuple(x) for vid, x in inc.items()}
        # the ends, by label when fully labeled; bad labels are an error
        # of every ends() call
        ends = []
        for i, e in enumerate(self.edges):
            if not e.bounded:
                ends.append(End(i, "ray", e.tail, e.direction, e.weight,
                                e.leaf_label))
                continue
            for at, out, tip in ((e.tail, e.direction, e.head),
                                 (e.head, vec_neg(e.direction), e.tail)):
                if self.valence(tip) == 1:
                    ends.append(End(i, "endpoint", at, out, e.weight,
                                    e.leaf_label, endpoint=tip))
        labels = sorted(x.label for x in ends if x.label is not None)
        self._ends_error = None
        if ends and len(labels) == len(ends):
            if labels != list(range(len(ends))):
                self._ends_error = (f"end labels {labels} are not "
                                    f"0..{len(ends) - 1}")
            ends.sort(key=lambda x: x.label)
        self._ends = tuple(ends)

    def position(self, vid):
        return self.vertices[vid]

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
        return [v for v in self.vertices if self.valence(v) >= 3]

    def marking_vertices(self):
        return [v for v in self.vertices if self.valence(v) == 2]

    def ends(self):
        """Ends in deterministic order (by label when fully labeled), as
        a tuple built with the curve."""
        if self._ends_error:
            raise WorkbenchError("INVALID_CURVE", self._ends_error)
        return self._ends

    def b1(self):
        return len(self.bounded_indices()) - len(self.vertices) + 1

    # -- geometric edges (2-valent markings smoothed away) ------------------

    def smoothed_edges(self):
        """Maximal straight chains through 2-valent markings.

        Each chain is a dict with endpoints first/second (vertex id, or
        None for an infinite ray end), the primitive direction oriented
        first -> second, the weight, member edge indices, and the sorted
        labels carried by the member edges.
        """
        markings = set(self.marking_vertices())
        seen = set()
        chains = []

        # chain terminals: a non-marking endpoint of an edge, or the
        # infinite end of a ray (encoded as None)
        terminals = []
        for i, e in enumerate(self.edges):
            if e.tail not in markings:
                terminals.append((i, e.tail))
            if e.bounded:
                if e.head not in markings:
                    terminals.append((i, e.head))
            else:
                terminals.append((i, None))

        for i, start in terminals:
            if i in seen:
                continue
            idxs = [i]
            e = self.edges[i]
            if start is None:
                cur = e.tail
            else:
                cur = e.head if e.tail == start else e.tail
            while cur is not None and cur in markings:
                nxt = next(j for j, _, _ in self.incident(cur)
                           if j not in idxs)
                idxs.append(nxt)
                e2 = self.edges[nxt]
                cur = e2.head if e2.tail == cur else e2.tail
            seen.update(idxs)

            first, second = start, cur
            e0 = self.edges[idxs[0]]
            if start is None:
                direction = vec_neg(e0.direction)
            elif e0.tail == start:
                direction = e0.direction
            else:
                direction = vec_neg(e0.direction)
            if first is None and second is not None:
                first, second = second, first
                direction = vec_neg(direction)
            if first is None and second is None:
                _, direction = _sign_normalized(direction)
            labels = tuple(sorted(self.edges[j].leaf_label for j in idxs
                                  if self.edges[j].leaf_label is not None))
            chains.append({
                "first": first, "second": second, "direction": direction,
                "weight": e0.weight, "edges": tuple(idxs), "labels": labels,
            })
        return chains

    def chain_nodes(self):
        """(junctions, [(a, b, chain), ...]): each chain of
        smoothed_edges() from the node a of its first side to the node b
        of its second.  The ends are nodes 0..kappa-1 in ends() order and
        the junctions (valence >= 3) follow in trivalent_vertices() order.
        A side that is no junction is the end at an endpoint or infinite
        end of one of the chain's edges, one not taken by the other side;
        a line's two rays are ordered so that its direction runs a -> b.
        """
        ends = self.ends()
        junctions = self.trivalent_vertices()
        node = {v: len(ends) + k for k, v in enumerate(junctions)}
        end_at = {(e.edge_index, e.endpoint): j for j, e in enumerate(ends)}
        out = []
        for ch in self.smoothed_edges():
            pair = []
            for v in (ch["first"], ch["second"]):
                x = node.get(v)
                if x is None:
                    x = next((end_at[i, v] for i in ch["edges"]
                              if (i, v) in end_at
                              and end_at[i, v] not in pair), None)
                if x is None:
                    raise WorkbenchError(
                        "NOT_TRIVALENT", f"chain endpoint {v} is neither "
                        f"a junction nor an end")
                pair.append(x)
            if ch["first"] is None and ch["second"] is None and \
                    ends[pair[0]].outward == ch["direction"]:
                pair.reverse()
            out.append((*pair, ch))
        return junctions, out


# ---------------------------------------------------------------------------
# validation


class ValidationReport(Record):
    __slots__ = ("ok", "issues")

    def __init__(self, ok: bool, issues: tuple = ()):
        self.ok = ok
        self.issues = issues

    def as_dict(self):
        return {"ok": self.ok, "issues": list(self.issues)}


def _positive_multiple(tail, head, direction):
    """The t > 0 with head - tail == t * direction, as a pair (n, d) of
    ints with t == n / d and d > 0, or None.

    tail and head are tuples of Fractions.  Coordinate k of head - tail
    is a_k / b_k with a_k, b_k the cross-multiplied numerator and the
    product of the denominators, so t is a_k / (b_k u_k) on every k with
    u_k != 0; these are compared by cross-multiplying, and a_k must be 0
    where u_k == 0.  No Fraction is built.
    """
    n = d = None
    for p, q, u in zip(head, tail, direction):
        pd, qd = p.denominator, q.denominator
        a = p.numerator * qd - q.numerator * pd
        if u == 0:
            if a:
                return None
            continue
        b = pd * qd * u
        if n is None:
            n, d = a, b
        elif a * d != n * b:
            return None
    if n is None or n == 0 or (n < 0) != (d < 0):
        return None
    return (n, d) if d > 0 else (-n, -d)


def validate_curve(c: TropicalCurve) -> ValidationReport:
    """Check every tropical-curve axiom; report all violations."""
    issues = []
    if c.dim < 2:
        issues.append("dimension must be at least 2")
    for vid, pos in c.vertices.items():
        if len(pos) != c.dim:
            issues.append(f"vertex {vid}: position has wrong dimension")
    for i, e in enumerate(c.edges):
        if e.tail not in c.vertices:
            issues.append(f"edge {i}: unknown tail {e.tail}")
            continue
        if e.head is not None and e.head not in c.vertices:
            issues.append(f"edge {i}: unknown head {e.head}")
            continue
        if len(e.direction) != c.dim:
            issues.append(f"edge {i}: direction has wrong dimension")
            continue
        g = content(e.direction)
        if g == 0:
            issues.append(f"edge {i}: zero direction")
            continue
        if g != 1:
            issues.append(f"edge {i}: direction {e.direction} not primitive")
        if not isinstance(e.weight, int) or e.weight < 1:
            issues.append(f"edge {i}: weight must be a positive integer")
        if e.bounded:
            if e.head == e.tail:
                issues.append(f"edge {i}: loop edge")
                continue
            if _positive_multiple(c.position(e.tail), c.position(e.head),
                                  e.direction) is None:
                issues.append(
                    f"edge {i}: head - tail is not a positive multiple "
                    f"of the direction")
    if not issues:
        # balancing and valence rules need consistent incidence data
        for vid in c.vertices:
            inc = c.incident(vid)
            if len(inc) == 0:
                issues.append(f"vertex {vid}: isolated")
            elif len(inc) == 2:
                (i1, d1, w1), (i2, d2, w2) = inc
                if w1 != w2 or vec_add(vec_scale(w1, d1),
                                       vec_scale(w2, d2)) != (0,) * c.dim:
                    issues.append(
                        f"vertex {vid}: degenerate 2-valent vertex")
            elif len(inc) >= 3:
                total = [0] * c.dim
                for _, d, w in inc:
                    for k, x in enumerate(d):
                        total[k] += w * x
                if any(total):
                    issues.append(f"vertex {vid}: balancing fails, "
                                  f"outward sum {tuple(total)}")
        # connectivity
        if c.vertices:
            seen = set()
            stack = [next(iter(c.vertices))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                for i, _, _ in c.incident(v):
                    e = c.edges[i]
                    for w in (e.tail, e.head):
                        if w is not None and w not in seen:
                            stack.append(w)
            if seen != set(c.vertices):
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


# ---------------------------------------------------------------------------
# Betti numbers and toric degree


class BettiDegree(Record):
    __slots__ = ("b1", "kappa", "degree")

    def __init__(self, b1: int, kappa: int, degree: tuple):
        self.b1 = b1
        self.kappa = kappa
        self.degree = degree  # sorted multiset of weighted ray directions

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

    def __init__(self, def_dim: int, expected_dim: int, regular: bool,
                 rank: int):
        self.def_dim = def_dim
        self.expected_dim = expected_dim
        self.regular = regular
        self.rank = rank

    def as_dict(self):
        return {"defDim": self.def_dim, "expectedDim": self.expected_dim,
                "regular": self.regular, "rank": self.rank}


def regularity_check(c: TropicalCurve) -> RegularityReport:
    """Rank of the cycle conditions on bounded-edge lengths.

    Every vertex must be 3-valent; the constraints say that around each
    independent cycle the weighted edge displacements sum to zero.
    """
    for vid in c.vertices:
        if c.valence(vid) != 3:
            raise WorkbenchError("NOT_TRIVALENT",
                                 f"vertex {vid} has valence {c.valence(vid)}")
    bounded = c.bounded_indices()
    pos_in_row = {ei: k for k, ei in enumerate(bounded)}
    b = len(bounded)
    n = c.dim
    b1 = c.b1()
    kappa = len(c.ray_indices())

    # spanning tree over bounded edges
    parent = {}
    tree_edge = {}
    order = []
    if c.vertices:
        root = next(iter(c.vertices))
        parent[root] = None
        stack = [root]
        in_tree = set()
        while stack:
            v = stack.pop()
            order.append(v)
            for ei, _, _ in c.incident(v):
                e = c.edges[ei]
                if not e.bounded or ei in in_tree:
                    continue
                w = e.head if e.tail == v else e.tail
                if w in parent:
                    continue
                parent[w] = v
                tree_edge[w] = ei
                in_tree.add(ei)
                stack.append(w)
        chords = [ei for ei in bounded if ei not in in_tree]
    else:
        chords = []

    rows = []
    for ei in chords:
        e = c.edges[ei]
        # cycle: chord tail -> head, then tree path head -> tail
        coeff = {ei: 1}
        # path from head up to common ancestor with tail, and down; since
        # the tree is rooted, walk both to the root and cancel
        def path_to_root(v):
            out = {}
            while parent[v] is not None:
                te = tree_edge[v]
                sign = 1 if c.edges[te].head == v else -1
                out[te] = out.get(te, 0) + sign
                v = parent[v]
            return out

        up_head = path_to_root(e.head)
        up_tail = path_to_root(e.tail)
        for k, s in up_head.items():
            coeff[k] = coeff.get(k, 0) - s
        for k, s in up_tail.items():
            coeff[k] = coeff.get(k, 0) + s
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
    __slots__ = ("h1", "r1_index", "h2", "r2_index", "point", "h1_edge_map",
                 "h2_edge_map")

    def __init__(self, h1: TropicalCurve, r1_index: int, h2: TropicalCurve,
                 r2_index: int, point: tuple, h1_edge_map: dict,
                 h2_edge_map: dict):
        self.h1 = h1
        self.r1_index = r1_index
        self.h2 = h2
        self.r2_index = r2_index
        self.point = point
        self.h1_edge_map = h1_edge_map  # old index -> new index
        self.h2_edge_map = h2_edge_map


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
    t = _positive_multiple(c.position(e.tail), p, e.direction)
    tot = _positive_multiple(c.position(e.tail), c.position(e.head),
                             e.direction)
    # 0 < t by construction; t < tot compared as integer pairs
    if t is None or tot is None or not t[0] * tot[1] < tot[0] * t[1]:
        raise WorkbenchError("SPLIT_POINT",
                             "split point must be strictly inside the edge")

    # vertices on the tail side of the edge
    side = {e.tail}
    stack = [e.tail]
    while stack:
        v = stack.pop()
        for ei, _, _ in c.incident(v):
            if ei == edge_index:
                continue
            e2 = c.edges[ei]
            for w in (e2.tail, e2.head):
                if w is not None and w not in side:
                    side.add(w)
                    stack.append(w)

    def part(vertex_set, ray_tail, ray_dir):
        verts = [(v, c.position(v)) for v in c.vertices if v in vertex_set]
        edges = []
        emap = {}
        for i in range(len(c.edges)):
            if i != edge_index and c.edges[i].tail in vertex_set:
                emap[i] = len(edges)
                edges.append(c.edges[i])
        edges.append(Edge(ray_tail, None, ray_dir, e.weight, None))
        cur = TropicalCurve(c.dim, verts, edges)
        return cur, len(edges) - 1, emap

    other = set(c.vertices) - side
    h1, r1, map1 = part(side, e.tail, e.direction)
    h2, r2, map2 = part(other, e.head, vec_neg(e.direction))
    return SplitResult(h1, r1, h2, r2, p, map1, map2)


# ---------------------------------------------------------------------------
# abstract 3-valent tree topologies (enumerator support)


class TreeTopology(Record):
    """Labeled 3-valent tree: leaves 0..kappa-1, internal nodes >= kappa."""
    __slots__ = ("kappa", "edges")

    def __init__(self, kappa: int, edges: tuple):
        self.kappa = kappa
        self.edges = edges  # sorted (a, b) pairs with a < b

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
    for leaf, _, placed in _insertion_walk(kappa, parent):
        if placed and leaf == kappa - 1:
            yield TreeTopology(kappa, _tree_edges(parent, pair))


def _insertion_walk(kappa, parent):
    """Depth-first walk of the leaf-insertion tree, on one tree held in
    `parent`, which is filled in place.

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
    pair = _edge_pairs(kappa)
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
    """The sorted edges (a, b), a < b, of a tree hung from leaf 0, taken
    from the table pair = `_edge_pairs(kappa)`."""
    return tuple(sorted([pair[x][y] for x, y in enumerate(parent)
                         if y is not None]))


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
    chains = c.smoothed_edges()
    nodes = sorted(v for v in c.vertices if c.valence(v) != 2)

    # incident descriptors per node
    inc = {v: [] for v in nodes}
    for k, ch in enumerate(chains):
        lab = tuple(sorted(ch["labels"]))
        if ch["first"] is not None:
            inc[ch["first"]].append((k, ch["direction"], ch["weight"], lab))
        if ch["second"] is not None:
            inc[ch["second"]].append((k, vec_neg(ch["direction"]),
                                      ch["weight"], lab))

    def neighbors(v, f):
        out = []
        for k, d, w, lab in inc[v]:
            ch = chains[k]
            others = [x for x in (ch["first"], ch["second"]) if x != v]
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
        for ch in chains:
            a, b = ch["first"], ch["second"]
            d = ch["direction"]
            lab = tuple(sorted(ch["labels"]))
            if a is None and b is None:
                enc_edges.append(("line", tuple(d), ch["weight"], lab))
                continue
            if a is None or (b is not None and index[b] < index[a]):
                a, b, d = b, a, vec_neg(d)
            if b is None:
                enc_edges.append(("ray", index[a], tuple(d),
                                  ch["weight"], lab))
            else:
                enc_edges.append(("seg", index[a], index[b], tuple(d),
                                  ch["weight"], lab))
        enc = tuple(sorted(enc_edges))
        if best is None or enc < best:
            best = enc
    return repr((c.dim, best))


# ---------------------------------------------------------------------------
# extension of a clipped curve to rays


def extend_curve(c: TropicalCurve) -> TropicalCurve:
    """Replace 1-valent endpoints by unbounded rays from their neighbors."""
    endpoints = {v for v in c.vertices if c.valence(v) == 1}
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
    verts = [(v, p) for v, p in c.vertices.items() if v not in endpoints]
    return TropicalCurve(c.dim, verts, edges)
