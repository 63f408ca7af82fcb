"""Tropical multiplicities of rational curves through line configurations.

Two independent routes to the same integer:

* the recursive mixed product of rotational momenta, propagated through
  the tree towards a root;
* the absolute determinant of the evaluation matrix (translations plus
  one column per bounded edge).

Momentum conventions: a leaf carries d x z for the outward degree vector
d; at a junction the two arriving momenta combine to (m1 x m2) x dh with
dh pointing towards the root.  The terminal pairing at a leaf root is
the coefficient of the cross product along the root edge; dividing by
the root edge weight keeps the value equal to the determinant for
arbitrary weights (boundary-even inputs all have weight 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .curve import (TropicalCurve, Edge, Skeleton,
                    internal_directions_from_leaves, split_at_edge,
                    trivalent_trees)
from .domain import LineConfiguration
from .errors import Record, WorkbenchError
from .lattice import (content, cross, det_bareiss, dot, gcd_primitive,
                      is_zero, mixed, primitive_raw, solve_bareiss,
                      solve_cross, solve_dot, vec_add, vec_neg, vec_scale)


class RotationalMomentum(Record):
    __slots__ = ("vector", "n", "primitive")

    def __init__(self, vector: tuple, n: int, primitive: tuple):
        self.vector = vector
        self.n = n
        self.primitive = primitive

    @classmethod
    def from_vector(cls, v):
        v = tuple(v)
        return cls(v, *gcd_primitive(v))

    @property
    def zero(self):
        return self.n == 0

    def as_dict(self):
        return {"vector": list(self.vector), "n": self.n,
                "primitivePart": list(self.primitive)}


def leaf_momentum(d, z) -> RotationalMomentum:
    """Rotational momentum of a leaf: the vector product d x z.

    A zero result (d parallel to z) is allowed and flagged via n == 0.
    """
    if is_zero(d):
        raise WorkbenchError("ZERO_DIRECTION", "leaf direction is zero")
    return RotationalMomentum.from_vector(cross(d, z))


def propagate(r1: RotationalMomentum, r2: RotationalMomentum,
              d_out) -> RotationalMomentum:
    """Momentum of the outgoing edge: (r1 x r2) x d_out."""
    if is_zero(d_out):
        raise WorkbenchError("ZERO_DIRECTION", "outgoing direction is zero")
    return RotationalMomentum.from_vector(
        cross(cross(r1.vector, r2.vector), d_out))


def pairing_coefficient(a: RotationalMomentum, b: RotationalMomentum,
                        d_root) -> int:
    """GCD of the coordinates of a x b, which must be parallel to d_root."""
    c = cross(a.vector, b.vector)
    if is_zero(c):
        return 0
    if not is_zero(cross(c, d_root)):
        raise WorkbenchError("INCONSISTENT_MOMENTA",
                             f"{c} is not parallel to {tuple(d_root)}")
    return content(c)


# ---------------------------------------------------------------------------
# shared rooted-tree form


class Problem:
    """A 3-valent tree with a constraint direction at every end.

    Ends are the markers ("end", i); junctions are vertex keys.  Chains
    carry the weighted displacement vector dh oriented a -> b.  Every
    rooted computation (the mixed product, the evaluation matrix, the
    torsion recursion) runs on one iterative walk from the chosen root,
    `rooted`, and `momenta` propagates the momentum on every edge towards
    that root in a single post-order pass: O(n) per root, with no
    recursion limit on the depth of the tree.
    """

    def __init__(self, dim):
        self.dim = dim
        self.nodes = set()
        self.adj = {}      # key -> [(other, dh key->other, weight, chain)]
        self.end_z = {}

    @property
    def kappa(self):
        return len(self.end_z)

    def ends(self):
        return sorted(self.end_z, key=lambda m: m[1])

    def neighbors(self, key):
        return self.adj.get(key, [])

    def add_chain(self, a, b, dh_ab, weight, chain_id):
        self.adj.setdefault(a, []).append((b, tuple(dh_ab), weight,
                                           chain_id))
        self.adj.setdefault(b, []).append((a, vec_neg(dh_ab), weight,
                                           chain_id))

    # -- the rooted pass -----------------------------------------------------

    def rooted(self, root):
        """Post-order and parent links of the tree hung from `root`.

        Returns (order, link): every node reachable from the root, each
        after all of its children (taken in adjacency order) and the root
        last, and link[x] = (parent, dh x -> parent, weight, chain id),
        None for the root.  Ends other than the root are leaves.
        """
        link = {root: None}
        stack = [root]
        order = []
        while stack:
            at = stack.pop()
            order.append(at)
            if at in self.end_z and at != root:
                continue
            for other, dh, w, cid in self.neighbors(at):
                if other not in link:
                    link[other] = (at, vec_neg(dh), w, cid)
                    stack.append(other)
        # children were pushed in adjacency order and so popped in reverse;
        # reversing the pre-order puts them back in order, parents last
        order.reverse()
        return order, link

    def momenta(self, root):
        """Momentum flowing towards `root` along every edge, in one pass.

        Returns (order, link, mom, arrived) with order and link as in
        `rooted`, mom[x] the momentum from the subtree behind x towards
        its parent, and arrived the momenta reaching the root, in
        adjacency order.  An end sends d x z; a junction sends
        (m1 x m2) x dh_out and must receive exactly two momenta.
        """
        order, link = self.rooted(root)
        mom = {}
        inbox = {x: [] for x in order}
        for at in order[:-1]:
            parent, dh_out, _, _ = link[at]
            if at in self.end_z:
                m = cross(vec_neg(dh_out), self.end_z[at])
            else:
                arrived = inbox[at]
                if len(arrived) != 2:
                    raise WorkbenchError("NOT_TRIVALENT",
                                         f"junction {at} is not 3-valent")
                m = cross(cross(arrived[0], arrived[1]), dh_out)
            mom[at] = m
            inbox[parent].append(m)
        return order, link, mom, inbox[root]

    # -- momentum propagation ------------------------------------------------

    def outward(self, end):
        """Weighted outward degree vector at an end."""
        (other, dh, w, cid), = self.neighbors(end)
        return vec_neg(dh)

    def end_momentum(self, end) -> RotationalMomentum:
        return leaf_momentum(self.outward(end), self.end_z[end])

    def momentum_at_end(self, end):
        """Propagated momentum arriving at `end`, with root edge data."""
        (other, dh, w, cid), = self.neighbors(end)
        return self.momenta(end)[3][0], w, cid

    def mixed_product(self, root=None) -> int:
        """`mixed_h_product` of this problem towards `root`."""
        ends = self.ends()
        if len(ends) < 2:
            raise WorkbenchError("KAPPA_TOO_SMALL", "need at least two ends")
        if len(ends) == 2:
            e0, e1 = ends
            (other, dh, w, cid), = self.neighbors(e0)
            if other != e1:
                raise WorkbenchError("NOT_TRIVALENT",
                                     "a two-end curve must be a single line")
            return abs(mixed(self.end_z[e0], self.end_z[e1],
                             primitive_raw(dh)))
        if root is None:
            root = ends[0]
        if isinstance(root, tuple) and len(root) == 2 and root[0] == "end":
            if root not in self.end_z:
                raise WorkbenchError("BAD_ROOT", f"no end {root}")
            rho_in, w_root, _ = self.momentum_at_end(root)
            rho_root = self.end_momentum(root)
            k = pairing_coefficient(RotationalMomentum.from_vector(rho_in),
                                    rho_root, self.outward(root))
            if k % w_root != 0:
                raise WorkbenchError("INTERNAL_INCONSISTENCY",
                                     "pairing not divisible by root weight")
            return k // w_root
        if root not in self.nodes:
            raise WorkbenchError("BAD_ROOT", f"no 3-valent vertex {root!r}")
        arrived = self.momenta(root)[3]
        if len(arrived) != 3:
            raise WorkbenchError("NOT_TRIVALENT",
                                 f"vertex {root!r} is not 3-valent")
        return abs(mixed(*arrived))


def build_problem(c_or_sk, zs) -> Problem:
    if isinstance(c_or_sk, Skeleton):
        return _problem_from_skeleton(c_or_sk, zs)
    return _problem_from_curve(c_or_sk, zs)


def _problem_from_curve(c: TropicalCurve, zs) -> Problem:
    ends = c.ends()
    z_list = [tuple(z) for z in zs]
    if len(z_list) != len(ends):
        raise WorkbenchError("MISSING_Z",
                             f"{len(z_list)} directions for "
                             f"{len(ends)} ends")
    prob = Problem(c.dim)
    for i, z in enumerate(z_list):
        prob.end_z[("end", i)] = z
    trivalent = set(c.trivalent_vertices())
    prob.nodes.update(trivalent)

    # an end is recognized by the edge it sits on together with its
    # endpoint vertex (None for a ray)
    marker_by_edge_side = {(e.edge_index, e.endpoint): ("end", i)
                           for i, e in enumerate(ends)}

    def resolve(vertex, chain):
        if vertex is not None and vertex in trivalent:
            return vertex
        for idx in chain["edges"]:
            key = (idx, vertex)
            if key in marker_by_edge_side:
                return marker_by_edge_side[key]
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             f"chain endpoint {vertex} is neither a "
                             f"junction nor an end")

    for cid, ch in enumerate(c.smoothed_edges()):
        a = resolve(ch["first"], ch)
        b = resolve(ch["second"], ch)
        prob.add_chain(a, b, vec_scale(ch["weight"], ch["direction"]),
                       ch["weight"], cid)
    return prob


def _problem_from_skeleton(sk: Skeleton, zs) -> Problem:
    topo = sk.topology
    prob = Problem(3)
    for j in range(topo.kappa):
        prob.end_z[("end", j)] = tuple(zs[j])
    for n, nb in topo.adjacency().items():
        if n >= topo.kappa:
            prob.nodes.add(n)
    for a, b in topo.edges:
        ka = ("end", a) if a < topo.kappa else a
        kb = ("end", b) if b < topo.kappa else b
        prob.add_chain(ka, kb, sk.dh[(a, b)], content(sk.dh[(a, b)]), (a, b))
    return prob


# ---------------------------------------------------------------------------
# the mixed h-product


def mixed_h_product(c_or_sk, zs, root=None) -> int:
    """|mixed product of rotational momenta| towards the chosen root.

    `zs` is a sequence of constraint directions, one per end: in
    c.ends() order for a curve, by leaf for a skeleton.  The magnitude
    does not depend on the root, which may be ("end", j) for the j-th
    end, a 3-valent vertex id, or None for the first end.  With exactly
    two ends the value is |mixed(z1, z2, u)| for the primitive direction
    u of the single edge.
    """
    if isinstance(c_or_sk, TropicalCurve) and c_or_sk.b1() != 0:
        raise WorkbenchError("TREE_ONLY", "the mixed product needs a tree")
    return build_problem(c_or_sk, zs).mixed_product(root)


def all_roots(c_or_sk, zs):
    """Every admissible root: all ends and all 3-valent vertices."""
    prob = build_problem(c_or_sk, zs)
    roots = list(prob.ends())
    if len(roots) > 2:
        roots += sorted(prob.nodes, key=repr)
    return roots


# ---------------------------------------------------------------------------
# the evaluation matrix


class EvaluationMatrix(Record):
    __slots__ = ("entries", "row_labels", "col_labels", "ref")

    def __init__(self, entries: tuple, row_labels: tuple, col_labels: tuple,
                 ref: object):
        self.entries = entries
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.ref = ref

    def determinant(self) -> int:
        return det_bareiss(self.entries)

    def as_dict(self):
        return {"entries": [list(r) for r in self.entries],
                "rows": list(self.row_labels),
                "cols": list(self.col_labels),
                "ref": repr(self.ref)}


class MultiplicityValue(Record):
    __slots__ = ("value", "method", "note")

    def __init__(self, value: int, method: str, note: str = ""):
        self.value = value
        self.method = method  # "RECURSIVE" | "DETERMINANT"
        self.note = note

    def as_dict(self):
        return {"value": self.value, "method": self.method,
                "note": self.note}


def ev_matrix(c_or_sk, zs, ref=None) -> EvaluationMatrix:
    """Evaluation matrix: 3 translation columns + one per bounded edge.

    Row j carries the rotational momentum of end j in the translation
    block and mixed(d_j, z_j, dh(e)) in the column of each bounded edge
    on the path from the reference junction to end j.  `zs` is a
    sequence in c.ends() order (by leaf for a skeleton).
    """
    if isinstance(c_or_sk, TropicalCurve) and c_or_sk.b1() != 0:
        raise WorkbenchError("TREE_ONLY",
                             "evaluation matrix needs a tree")
    prob = build_problem(c_or_sk, zs)
    ends = prob.ends()
    kappa = len(ends)
    if kappa < 3:
        raise WorkbenchError("KAPPA_TOO_SMALL",
                             "evaluation matrix needs at least three ends")
    if prob.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "evaluation matrix is a 3-space construction")
    internal = sorted(
        {cid for key in prob.nodes
         for other, dh, w, cid in prob.neighbors(key)
         if other in prob.nodes}, key=repr)
    if kappa != 3 + len(internal):
        raise WorkbenchError("NOT_TRIVALENT",
                             f"{kappa} ends vs {len(internal)} bounded edges")
    if ref is None:
        ref = prob.neighbors(ends[0])[0][0]
    if ref not in prob.nodes:
        raise WorkbenchError("BAD_ROOT", f"reference {ref!r} is not a junction")

    # the path from ref to each end climbs the parent links of one walk
    _, link = prob.rooted(ref)
    col_of = {cid: 3 + k for k, cid in enumerate(internal)}
    rows = []
    for e in ends:
        rho = cross(prob.outward(e), prob.end_z[e])
        row = list(rho) + [0] * len(internal)
        at = e
        while at != ref:
            at, dh_up, _, cid = link[at]
            if cid in col_of:
                row[col_of[cid]] = -dot(rho, dh_up)
        rows.append(tuple(row))
    cols = ("t0", "t1", "t2") + tuple(f"e{cid}" for cid in internal)
    return EvaluationMatrix(tuple(rows), tuple(m[1] for m in ends), cols,
                            ref)


def multiplicity_det(m: EvaluationMatrix) -> MultiplicityValue:
    return MultiplicityValue(abs(m.determinant()), "DETERMINANT")


# ---------------------------------------------------------------------------
# the splitting identity


class SplittingReport(Record):
    __slots__ = ("lhs", "rhs", "holds", "m1", "m2", "weight", "point", "z_a",
                 "z_b")

    def __init__(self, lhs: int, rhs: int, holds: bool, m1: int, m2: int,
                 weight: int, point: tuple, z_a: tuple, z_b: tuple):
        self.lhs = lhs
        self.rhs = rhs
        self.holds = holds
        self.m1 = m1
        self.m2 = m2
        self.weight = weight
        self.point = point
        self.z_a = z_a
        self.z_b = z_b

    def as_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds,
                "m1": self.m1, "m2": self.m2, "w": self.weight,
                "point": [str(x) for x in self.point],
                "za": list(self.z_a), "zb": list(self.z_b)}


def splitting_check(c: TropicalCurve, edge_index: int,
                    zs) -> SplittingReport:
    """Check the edge-splitting factorization of the multiplicity.

    `zs` is a sequence of constraint directions in c.ends() order; each
    half gets the directions of its ends in its own ends() order.  The
    curve is cut at the midpoint of the bounded edge; the two halves
    are completed by auxiliary lines through the cut point.  The line for
    the first half pairs to 1 against the primitive part of the arriving
    momentum; the line for the second half is the cross-solve of the edge
    direction against that primitive part.  Then

        m(c) == m(h1, l1 + l_a) * m(h2, l2 + l_b) / w(e).
    """
    e = c.edges[edge_index]
    if not e.bounded:
        raise WorkbenchError("SPLIT_UNBOUNDED", "edge must be bounded")
    mid = tuple(Fraction(a + b, 2) for a, b in
                zip(c.position(e.tail), c.position(e.head)))
    res = split_at_edge(c, edge_index, mid)

    zs = [tuple(z) for z in zs]
    lhs = mixed_h_product(c, zs)
    # an end of a part sits on the same endpoint of its mapped edge as
    # in c, except the new ray, which gets `extra`
    z_of_end = {(end.edge_index, end.endpoint): z
                for end, z in zip(c.ends(), zs)}

    def part_z(part, emap, ray_index, extra):
        old_of = {new: old for old, new in emap.items()}
        return [extra if end.edge_index == ray_index
                else z_of_end[old_of[end.edge_index], end.endpoint]
                for end in part.ends()]

    # the momentum arriving at the new ray ignores the ray's own direction
    prob1 = build_problem(res.h1, part_z(res.h1, res.h1_edge_map,
                                         res.r1_index, (1, 1, 1)))
    r1 = next(i for i, end in enumerate(res.h1.ends())
              if end.edge_index == res.r1_index)
    rho_r1, _, _ = prob1.momentum_at_end(("end", r1))
    if is_zero(rho_r1):
        raise WorkbenchError("SPLIT_DEGENERATE",
                             "propagated momentum at the cut vanishes")
    rho_prime = primitive_raw(rho_r1)
    u = e.direction
    z_a = solve_dot(rho_prime, 1)
    z_b = solve_cross(u, vec_neg(rho_prime))
    m1 = mixed_h_product(res.h1, part_z(res.h1, res.h1_edge_map,
                                        res.r1_index, z_a))
    m2 = mixed_h_product(res.h2, part_z(res.h2, res.h2_edge_map,
                                        res.r2_index, z_b))
    num = m1 * m2
    if num % e.weight != 0:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "splitting product not divisible by the weight")
    rhs = num // e.weight
    return SplittingReport(lhs, rhs, lhs == rhs, m1, m2, e.weight, mid,
                           tuple(z_a), tuple(z_b))


# ---------------------------------------------------------------------------
# enumeration of rational curves through a boundary configuration


KAPPA_CAP = 8


class TypeOutcome(Record):
    __slots__ = ("topology", "status", "multiplicity", "curve")

    def __init__(self, topology: tuple, status: str, multiplicity: int,
                 curve: TropicalCurve | None):
        self.topology = topology  # tree edges
        self.status = status      # "accepted" | "rejected" | "degenerate"
        self.multiplicity = multiplicity
        self.curve = curve

    def as_dict(self):
        return {"topology": [list(e) for e in self.topology],
                "status": self.status,
                "multiplicity": self.multiplicity,
                "curve": None if self.curve is None else "solved"}


class EnumerationResult(Record):
    __slots__ = ("total", "per_type")

    def __init__(self, total: int, per_type: tuple):
        self.total = total
        self.per_type = per_type

    def as_dict(self):
        return {"total": self.total,
                "perType": [t.as_dict() for t in self.per_type]}


def enumerate_count(degree, lines: LineConfiguration,
                    kappa_cap: int = KAPPA_CAP) -> EnumerationResult:
    """Count rational curves of the given degree through the lines.

    Enumerates all (2k-5)!! labeled 3-valent trees.  Each type costs one
    integer evaluation matrix, built by a single walk from the reference
    junction, and one fraction-free elimination of it against the
    right-hand side rho_j . q_j, which is scaled to integers once per
    call.  The elimination gives det and the Cramer numerators det * x_i;
    a bounded edge length has the sign of det times its numerator.  A
    type is kept when all lengths are positive, and the total sums |det|
    over the kept types (the lattice index of the evaluation map).
    Exactly-zero lengths, or a solvable singular system, mean the
    configuration is not generic; an inconsistent singular system is a
    "singular" type without curves.  Fractions (translation, lengths,
    vertex positions) are built only for kept types.
    """
    degree = [tuple(d) for d in degree]
    kappa = len(degree)
    if kappa != len(lines):
        raise WorkbenchError("LABEL_MISMATCH",
                             f"{kappa} degree entries vs {len(lines)} lines")
    if kappa > kappa_cap:
        raise WorkbenchError("KAPPA_CAP",
                             f"kappa = {kappa} exceeds the cap {kappa_cap}")
    if kappa < 3:
        raise WorkbenchError("KAPPA_TOO_SMALL", "need at least three lines")
    if any(len(d) != 3 for d in degree):
        raise WorkbenchError("DIMENSION_MISMATCH", "degree must be 3-vectors")
    if not is_zero(tuple(sum(d[i] for d in degree) for i in range(3))):
        raise WorkbenchError("UNBALANCED_DEGREE", "degree does not sum to 0")

    zs = [l.direction for l in lines.lines]
    rhos = [cross(d, z) for d, z in zip(degree, zs)]
    rhs = [Fraction(dot(rho, l.point)) for rho, l in zip(rhos, lines.lines)]
    scale = lcm(*(r.denominator for r in rhs))
    rhs = [r.numerator * (scale // r.denominator) for r in rhs]

    outcomes = []
    total = 0
    for tree in trivalent_trees(kappa):
        sk = internal_directions_from_leaves(tree, degree)
        if not sk.ok:
            outcomes.append(TypeOutcome(tree.edges, "degenerate", 0, None))
            continue
        # Row j: rho_j in the translation columns, rho_j . dh(e) in the
        # column of each bounded edge e on the path from ref to leaf j.
        col_of = {e: 3 + k for k, e in enumerate(tree.internal_edges())}
        adj = tree.adjacency()
        ref = tree.leaf_neighbor(0)
        rows = [None] * kappa
        steps = []          # (junction, next junction, column), ref first
        stack = [(ref, None, ())]
        while stack:
            at, parent, path = stack.pop()
            for other in adj[at]:
                if other == parent:
                    continue
                if other < kappa:
                    rho = rhos[other]
                    row = list(rho) + [0] * (kappa - 3)
                    for col, dh in path:
                        row[col] = dot(rho, dh)
                    rows[other] = row
                    continue
                col = col_of[(at, other) if at < other else (other, at)]
                steps.append((at, other, col))
                stack.append((other, at,
                              path + ((col, sk.dh[(at, other)]),)))
        det, num, kernel = solve_bareiss(rows, rhs)
        if kernel:
            # a structurally singular type carries no curves for generic
            # base points; a solvable singular system is a wall crossing
            if num is None:
                outcomes.append(TypeOutcome(tree.edges, "singular", 0, None))
                continue
            raise WorkbenchError(
                "NON_GENERIC_CONFIG",
                f"singular system for topology {tree.edges}")
        if det < 0:     # from here num[i] = |det| * x_i
            det, num = -det, [-x for x in num]
        lengths = num[3:]
        if 0 in lengths:
            raise WorkbenchError("NON_GENERIC_CONFIG",
                                 f"zero edge length in topology {tree.edges}")
        if any(x < 0 for x in lengths):
            outcomes.append(TypeOutcome(tree.edges, "rejected", det, None))
            continue

        den = det * scale
        node_pos = {ref: tuple(Fraction(x, den) for x in num[:3])}
        for at, other, col in steps:
            node_pos[other] = vec_add(
                node_pos[at],
                vec_scale(Fraction(num[col], den), sk.dh[(at, other)]))
        verts = [(f"n{k}", node_pos[k]) for k in sorted(node_pos)]
        edges = []
        for a, b in tree.edges:
            if a < tree.kappa:
                edges.append(Edge(f"n{b}", None, primitive_raw(degree[a]),
                                  content(degree[a]), a))
            elif b >= tree.kappa:
                edges.append(Edge(f"n{a}", f"n{b}",
                                  primitive_raw(sk.dh[(a, b)]),
                                  content(sk.dh[(a, b)]), None))
        curve = TropicalCurve(3, verts, edges)
        outcomes.append(TypeOutcome(tree.edges, "accepted", det, curve))
        total += det
    return EnumerationResult(total, tuple(outcomes))
