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

from .curve import (TropicalCurve, Edge, _edge_pairs, _insertion_walk,
                    _preorder, _tree_edges, split_at_edge)
from .domain import LineConfiguration
from .errors import Record, WorkbenchError
from .lattice import (_bareiss_echelon, content, cross, det_bareiss, dot,
                      is_zero, mixed, primitive_raw, solve_cross, solve_dot,
                      vec_neg, vec_scale)


# ---------------------------------------------------------------------------
# shared rooted-tree form


class Problem:
    """A 3-valent tree with a constraint direction at every end, its
    nodes numbered as the enumerator numbers a type.

    The ends are the nodes 0..kappa-1, in c.ends() order, and the
    junctions kappa.., in c.trivalent_vertices() order.  adj[x] lists
    the neighbours of x in chain order, and chain[x, y] = (dh x -> y,
    weight, chain id).  zs[j] is the constraint direction of end j and
    rhos[j] = d_j x z_j its momentum, d_j the weighted outward vector.
    junction_ids[x - kappa] is the vertex id of junction x, read only to
    take a root and to name a junction in a message.  `build_problem`
    refuses a curve with a cycle or a junction that is not 3-valent, so
    no method checks either again.  Every rooted
    computation (the mixed product, the evaluation matrix, the torsion
    recursion) runs on one iterative walk from its root
    (`curve._preorder`), and the momenta follow the enumerator's plane
    rule (`_glue`, in `_subtree_planes`): O(n) per root, with no
    recursion limit on the depth of the tree.
    """
    __slots__ = ("zs", "rhos", "adj", "chain", "junction_ids")

    def __init__(self, zs, rhos, adj, chain, junction_ids):
        self.zs = zs
        self.rhos = rhos
        self.adj = adj
        self.chain = chain
        self.junction_ids = junction_ids

    @property
    def kappa(self):
        return len(self.zs)

    def rooted(self, root):
        """The tree hung from node `root`: (parent, order, below), parent
        and the pre-order from `curve._preorder`, and below[x] the
        displacement dh of the chain parent(x) -> x (None at the root)."""
        parent, order = _preorder(self.adj, root)
        below = [None] * len(parent)
        for x in order[1:]:
            below[x] = self.chain[parent[x], x][0]
        return parent, order, below

    def momenta(self, root):
        """Momentum flowing towards node `root` along every edge, in one
        pass.

        Returns (parent, order, mom) with parent and order as in
        `rooted`, and mom[x] the momentum from the subtree behind x
        towards its parent (None at the root).  End j sends rhos[j]; a
        junction receives two momenta m1, m2, from its children in
        adjacency order, and sends (m1 x m2) x dh_out.  That is the
        normal of `_subtree_planes` with leaf planes (rho_j, 0), as
        (m1 x m2) x u = (m1 . u) m2 - (m2 . u) m1 for u = below[x] =
        -dh_out.  The momenta reaching the root are mom[y] for y in
        adj[root].
        """
        parent, order, below = self.rooted(root)
        kids = _subtree_planes(self.kappa, parent, order, below,
                               [(rho, 0) for rho in self.rhos])
        # the planes reached each parent in this same order
        arrivals = [iter(k) for k in kids]
        mom = [None] * len(parent)
        for x in order[:0:-1]:
            mom[x] = next(arrivals[parent[x]])[0]
        return parent, order, mom

    def root_node(self, root=None) -> int:
        """The node of `root`: ("end", j), a junction's vertex id, or None
        for end 0."""
        kappa = self.kappa
        if kappa < 2:
            raise WorkbenchError("KAPPA_TOO_SMALL", "need at least two ends")
        if root is None:
            return 0
        if isinstance(root, tuple) and len(root) == 2 and root[0] == "end":
            if not (isinstance(root[1], int) and 0 <= root[1] < kappa):
                raise WorkbenchError("BAD_ROOT", f"no end {root}")
            return root[1]
        if root in self.junction_ids:
            return kappa + self.junction_ids.index(root)
        raise WorkbenchError("BAD_ROOT", f"no 3-valent vertex {root!r}")

    def pair_at(self, node, mom) -> int:
        """|mixed product| at `node`, from the momenta `mom` towards it
        (`momenta(node)`).  With two ends the value is
        |mixed(z0, z1, u)| on the single line, and `mom` is not read."""
        kappa, adj, chain = self.kappa, self.adj, self.chain
        if kappa == 2:
            return abs(mixed(self.zs[0], self.zs[1],
                             primitive_raw(chain[0, 1][0])))
        if node < kappa:
            first, = adj[node]
            outward, w_root, _ = chain[first, node]
            if is_zero(outward):
                raise WorkbenchError("ZERO_DIRECTION",
                                     "leaf direction is zero")
            c = cross(mom[first], self.rhos[node])
            if not is_zero(cross(c, outward)):
                raise WorkbenchError("INCONSISTENT_MOMENTA",
                                     f"{c} is not parallel to {outward}")
            k = content(c)
            if k % w_root != 0:
                raise WorkbenchError("INTERNAL_INCONSISTENCY",
                                     "pairing not divisible by root weight")
            return k // w_root
        return abs(mixed(*[mom[y] for y in adj[node]]))

    def mixed_product(self, root=None) -> int:
        """`mixed_h_product` of this problem towards `root` (`root_node`)."""
        node = self.root_node(root)
        mom = self.momenta(node)[2] if self.kappa > 2 else None
        return self.pair_at(node, mom)

    def evaluation_matrix(self, ref=None) -> EvaluationMatrix:
        """`ev_matrix` of this problem, with reference junction `ref`."""
        kappa = self.kappa
        if kappa < 3:
            raise WorkbenchError(
                "KAPPA_TOO_SMALL",
                "evaluation matrix needs at least three ends")
        internal = sorted({cid for (a, b), (_, _, cid) in self.chain.items()
                           if a >= kappa and b >= kappa}, key=repr)
        if ref is None:
            root = self.adj[0][0]
            if root < kappa:
                # with three ends or more, end 0 meets an end only when
                # the curve is in pieces, though its b1() reads 0
                raise WorkbenchError("TREE_ONLY", "the curve is not a tree")
        elif ref in self.junction_ids:
            root = kappa + self.junction_ids.index(ref)
        else:
            raise WorkbenchError("BAD_ROOT",
                                 f"reference {ref!r} is not a junction")
        ref = self.junction_ids[root - kappa]

        # a junction x below the root stands for the chain parent(x) -> x
        parent, order, below = self.rooted(root)
        col_of_chain = {cid: 3 + k for k, cid in enumerate(internal)}
        col_of = {x: col_of_chain[self.chain[parent[x], x][2]]
                  for x in order[1:] if x >= kappa}
        rows = _evaluation_rows(self.rhos, range(kappa), parent, below, root,
                                col_of)
        cols = ("t0", "t1", "t2") + tuple(f"e{cid}" for cid in internal)
        return EvaluationMatrix(tuple(map(tuple, rows)), tuple(range(kappa)),
                                cols, ref)


def build_problem(c: TropicalCurve, zs) -> Problem:
    """The `Problem` of a tree curve in 3-space with constraint directions
    `zs`, one per end in c.ends() order: TREE_ONLY for a curve with
    b1 != 0, and NOT_TRIVALENT (`chain_nodes`) for a junction whose
    valence is not 3."""
    if c.b1() != 0:
        raise WorkbenchError("TREE_ONLY", "the curve is not a tree")
    ends = c.ends()
    zs = [tuple(z) for z in zs]
    if len(zs) != len(ends):
        raise WorkbenchError("MISSING_Z",
                             f"{len(zs)} directions for {len(ends)} ends")
    if c.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "rotational momenta need a 3-dim curve")
    junctions, chains = c.chain_nodes()
    adj = [[] for _ in range(len(ends) + len(junctions))]
    chain = {}
    for cid, (a, b, dh, w, _) in enumerate(chains):
        if w != 1:
            dh = tuple([w * x for x in dh])
        adj[a].append(b)
        adj[b].append(a)
        chain[a, b] = (dh, w, cid)
        chain[b, a] = (tuple([-x for x in dh]), w, cid)
    rhos = [cross(chain[adj[j][0], j][0], z) for j, z in enumerate(zs)]
    return Problem(zs, rhos, adj, chain, tuple(junctions))


# ---------------------------------------------------------------------------
# the mixed h-product


def mixed_h_product(c: TropicalCurve, zs, root=None) -> int:
    """|mixed product of rotational momenta| towards the chosen root.

    `zs` is a sequence of constraint directions, one per end, in
    c.ends() order.  The magnitude does not depend on the root, which
    may be ("end", j) for the j-th end, a 3-valent vertex id, or None
    for the first end.  With exactly two ends the value is
    |mixed(z1, z2, u)| for the primitive direction u of the single edge.
    """
    return build_problem(c, zs).mixed_product(root)


# ---------------------------------------------------------------------------
# the evaluation matrix


class EvaluationMatrix(Record):
    __slots__ = ("entries", "row_labels", "col_labels", "ref")

    def determinant(self) -> int:
        return det_bareiss(self.entries)

    def as_dict(self):
        return {"entries": [list(r) for r in self.entries],
                "rows": list(self.row_labels),
                "cols": list(self.col_labels),
                "ref": repr(self.ref)}


def ev_matrix(c: TropicalCurve, zs, ref=None) -> EvaluationMatrix:
    """Evaluation matrix: 3 translation columns + one per bounded edge.

    Row j carries the rotational momentum of end j in the translation
    block and mixed(d_j, z_j, dh(e)) in the column of each bounded edge
    on the path from the reference junction to end j, dh(e) pointing
    away from the reference.  `zs` is a sequence in c.ends() order.
    """
    return build_problem(c, zs).evaluation_matrix(ref)


def _evaluation_rows(rhos, leaves, parent, below, ref, col_of):
    """The rows of an evaluation matrix, one per leaf, as lists.

    Row j holds rhos[j] in the translation columns and rhos[j] . below[x]
    in column col_of[x] of each junction x on the climb from leaves[j] to
    ref, below[x] being the displacement of the edge parent(x) -> x."""
    rows = []
    for rho, leaf in zip(rhos, leaves):
        row = list(rho) + [0] * len(col_of)
        x = parent[leaf]
        while x != ref:
            row[col_of[x]] = dot(rho, below[x])
            x = parent[x]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the splitting identity


class SplittingReport(Record):
    __slots__ = ("lhs", "rhs", "holds", "m1", "m2", "weight", "point", "z_a",
                 "z_b")

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
    mid = tuple(Fraction(a + b, 2 * c.denominator) for a, b in
                zip(c.coords[e.tail], c.coords[e.head]))
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
    rho_r1 = prob1.momenta(r1)[2][prob1.adj[r1][0]]
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
# the largest evaluation matrix whose determinant the CLI cross-checks:
# the sparse elimination takes 0.02-0.1 s at 256 ends and up to about 2 s
# at 512, where the determinant has 2,300-2,500 bits
DET_KAPPA_CAP = 256


class TypeOutcome(Record):
    __slots__ = ("topology", "status", "multiplicity", "curve")

    # Hand-written: one per enumerated type, faster than Record's loop.
    def __init__(self, topology: tuple, status: str, multiplicity: int,
                 curve: TropicalCurve | None):
        self.topology = topology  # tree edges
        # "accepted", "rejected", "degenerate" or "singular"
        self.status = status
        self.multiplicity = multiplicity
        self.curve = curve

    def as_dict(self):
        return {"topology": self.topology,
                "status": self.status,
                "multiplicity": self.multiplicity,
                "curve": None if self.curve is None else "solved"}


class EnumerationResult(Record):
    __slots__ = ("total", "per_type")

    def as_dict(self):
        return {"total": self.total,
                "perType": [t.as_dict() for t in self.per_type]}


def enumerate_count(degree, lines: LineConfiguration,
                    kappa_cap: int = KAPPA_CAP) -> EnumerationResult:
    """Count rational curves of the given degree through the lines.

    Visits all (2k-5)!! labeled 3-valent trees in `trivalent_trees`
    order, on one depth-first walk of the leaf-insertion tree
    (`curve._insertion_walk`), and eliminates each type along its tree.
    Every type hangs from leaf 0; ref is the junction below it.  The
    walk keeps, in arrays it updates and undoes, each node's parent,
    the two children of each junction, the balancing sums below[x] (the
    displacement of the edge parent(x) -> x) and each rooted subtree's
    integer plane (`_subtree_planes`' rule, `_glue`).  Leaf k on the
    edge above x adds the junction m: only m's plane, and the sums and
    planes on the path from m to leaf 0, change.  The last leaf, kappa -
    1, stops that path below ref and leaves ref's own sum and plane
    stale, since no type reads them: D and Cramer read the planes of
    ref's children, the zero-sum test and the lengths run over the
    junctions below ref, `_inconsistent_type` stops at ref before its
    sum, and a curve reads the sums of the nodes below ref.  Only a
    later insertion would read them, and none follows the last leaf;
    its undo restores just what it saved.  On the edge above ref the
    last leaf makes m the ref, so m's sum and plane are not computed
    at all (one `_glue` saved in every 2 kappa - 5 types).  The planes
    at ref give D = n1 . (n2 x n3), +-det of the type's evaluation
    matrix, and ref's position by Cramer's rule.  Walking down a
    parent-first list of the junctions, each bounded edge length follows
    from a child plane that is not parallel to the edge, with every
    position kept as integers over one positive denominator.  The
    right-hand sides rho_j . q_j are integers over the lines' one
    denominator (`LineConfiguration`).  A type is kept when all lengths
    are positive, and the total sums |D| over the kept types (the
    lattice index of the evaluation map).  An exactly-zero length means
    the configuration is not generic.  D = 0 has three
    causes: a zero sum on a bounded edge (the type is "degenerate": its
    plane is 0 up to ref), an inconsistent system (a "singular" type
    without curves, decided on the tree by `_inconsistent_type`), or a
    solvable one, which is not generic either.  A line parallel to its
    leaf (d x z = 0) is rejected before any type.  An accepted type's
    curve is built from the same integers, over one denominator, on its
    first read (`_SolvedCurve`): the type keeps copies of the arrays it
    needs, and a caller that reads no curve builds none.  No Fraction
    is built.
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
    for j, rho in enumerate(rhos):
        if not any(rho):
            # row j of every type would read 0 = 0
            raise WorkbenchError("NON_GENERIC_CONFIG",
                                 f"line {j} is parallel to leaf {j} "
                                 f"(d x z = 0)")
    # rho_j . q_j times the lines' one denominator, in integers
    scale = lines.denominator
    rhs = [dot(rho, l.point) for rho, l in zip(rhos, lines.lines)]
    leaf_planes = list(zip(rhos, rhs))
    # each leaf ray's direction and weight, for the curves of kept types
    rays = [(primitive_raw(d), content(d)) for d in degree]
    n1, c1 = leaf_planes[0]
    x1, y1, z1 = n1

    size = 2 * kappa - 2
    parent = [None] * size      # filled by the walk
    pair = _edge_pairs(kappa)
    kids = [None] * size        # the two children of a junction
    below = degree + [None] * (kappa - 2)
    plane = leaf_planes + [None] * (kappa - 2)
    order = []                  # the junctions, each before its children
    saved = []                  # the planes each insertion overwrote
    # position[x] = pos[x] / den[x] with den[x] > 0, scaled by `scale`
    pos = [None] * size
    den = [0] * size
    ref = None
    outcomes = []
    total = 0
    for leaf, x, placed in _insertion_walk(kappa, parent, pair):
        m = kappa + leaf - 2
        y = parent[m]
        d0, d1, d2 = degree[leaf]
        if not placed:
            if y == 0:          # m was ref
                ref = x
            else:
                kids[y][kids[y].index(m)] = x
            order.remove(m)
            for old in saved.pop():     # the path from y to ref again
                b0, b1, b2 = below[y]
                below[y] = (b0 - d0, b1 - d1, b2 - d2)
                plane[y] = old
                y = parent[y]
            continue
        kids[m] = [x, leaf]
        if y == 0:              # x was ref
            ref = m
        else:
            kids[y][kids[y].index(x)] = m
        if x < kappa:
            order.append(m)
        else:
            order.insert(order.index(x), m)
        # the last leaf leaves ref's sum and plane stale, and skips them
        # when it makes m the ref: no type reads them
        last = leaf == kappa - 1
        if y or not last:
            b0, b1, b2 = below[x]
            below[m] = (b0 + d0, b1 + d1, b2 + d2)
            plane[m] = _glue(plane[x], plane[leaf], below[m])
        top = ref if last and y else 0
        old = []
        while y != top:
            b0, b1, b2 = below[y]
            below[y] = u = (b0 + d0, b1 + d1, b2 + d2)
            a, b = kids[y]
            old.append(plane[y])
            plane[y] = _glue(plane[a], plane[b], u)
            y = parent[y]
        saved.append(old)
        if leaf < kappa - 1:
            continue

        # a type: the planes at ref, leaf 0's among them
        a, b = kids[ref]
        n2, c2 = plane[a]
        n3, c3 = plane[b]
        m23 = cross(n2, n3)
        det = x1 * m23[0] + y1 * m23[1] + z1 * m23[2]
        edges = _tree_edges(parent, pair)
        if det == 0:
            if (0, 0, 0) in [below[v] for v in order[1:]]:
                outcomes.append(TypeOutcome(edges, "degenerate", 0, None))
                continue
            # a structurally singular type carries no curves for generic
            # base points; a solvable singular system is a wall crossing
            if _inconsistent_type(kappa, order, kids, below, plane):
                outcomes.append(TypeOutcome(edges, "singular", 0, None))
                continue
            raise WorkbenchError(
                "NON_GENERIC_CONFIG",
                f"singular system for topology {edges}")
        # Cramer: det P = c1 (n2 x n3) + c2 (n3 x n1) + c3 (n1 x n2)
        #               = c1 (n2 x n3) + n1 x (c3 n2 - c2 n3)
        (a0, a1, a2), (b0, b1, b2) = n2, n3
        w0, w1, w2 = cross(n1, (c3 * a0 - c2 * b0, c3 * a1 - c2 * b1,
                                c3 * a2 - c2 * b2))
        s0, s1, s2 = m23
        if det > 0:
            pos[ref] = (c1 * s0 + w0, c1 * s1 + w1, c1 * s2 + w2)
        else:
            det = -det
            pos[ref] = (-c1 * s0 - w0, -c1 * s1 - w1, -c1 * s2 - w2)
        den[ref] = det
        rejected = False
        for v in order[1:]:
            u0, u1, u2 = below[v]
            for w in kids[v]:
                (a0, a1, a2), c = plane[w]
                p = a0 * u0 + a1 * u1 + a2 * u2
                if p:
                    break
            # D != 0, so the plane of v is not 0 and some child has p != 0
            up = parent[v]
            q0, q1, q2 = pos[up]
            e = den[up]
            num = c * e - (a0 * q0 + a1 * q1 + a2 * q2)  # length num/(e p)
            if p < 0:
                p, num = -p, -num
            if num == 0:
                raise WorkbenchError(
                    "NON_GENERIC_CONFIG",
                    f"zero edge length in topology {edges}")
            rejected = rejected or num < 0
            pos[v] = (q0 * p + num * u0, q1 * p + num * u1, q2 * p + num * u2)
            den[v] = e * p
        if rejected:
            outcomes.append(TypeOutcome(edges, "rejected", det, None))
            continue
        curve = _SolvedCurve(kappa, edges, parent[:], below[:], pos[:],
                             den[:], rays, scale)
        outcomes.append(TypeOutcome(edges, "accepted", det, curve))
        total += det
    return EnumerationResult(total, tuple(outcomes))


def _solved_curve(kappa, edges, parent, below, pos, den, rays, scale):
    """The vertices, edges and denominator of an accepted type's curve,
    from the walk's arrays at that type: each junction v at pos[v] /
    (den[v] scale), over one denominator, a ray per leaf and each
    bounded edge along the sum below its lower end."""
    junctions = range(kappa, 2 * kappa - 2)
    L = lcm(*{den[v] for v in junctions})
    verts = [(f"n{v}", vec_scale(L // den[v], pos[v]))
             for v in junctions]
    rays_and_edges = []
    for a, b in edges:
        if a < kappa:
            rays_and_edges.append(Edge(f"n{b}", None, *rays[a], a))
        else:
            v = below[b] if parent[b] == a else vec_neg(below[a])
            rays_and_edges.append(Edge(f"n{a}", f"n{b}", primitive_raw(v),
                                       content(v), None))
    return verts, rays_and_edges, L * scale


class _SolvedCurve(TropicalCurve):
    """An accepted type's curve, built on its first read.

    It keeps `_solved_curve`'s arguments, with copies of the arrays the
    walk goes on to change, until an attribute is first looked up; that
    lookup runs `TropicalCurve.__init__` on them and drops them, so the
    curve is built once and is then a `TropicalCurve` like any other."""

    def __init__(self, *solution):
        self._solution = solution

    def __getattr__(self, name):
        solution = self.__dict__.pop("_solution", None)
        if solution is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        TropicalCurve.__init__(self, 3, *_solved_curve(*solution))
        return getattr(self, name)


def _glue(plane_a, plane_b, u):
    """The plane of a junction x from the planes of its two children.

    Seen from its parent junction y, the subtree behind a node holds y's
    position P on one plane n . P = c.  x sits at P + l_x u, u the
    displacement of the edge y -> x, and with p = n . u its child planes
    (n_a, c_a) and (n_b, c_b) read n . P + l_x p = c; eliminating the
    length leaves (p_b n_a - p_a n_b, p_b c_a - p_a c_b).  In the type's
    evaluation matrix only those two (combined) rows have an entry in
    l_x's column, so each step keeps |det| (Gathmann-Markwig gluing).
    A zero plane stays zero.
    """
    (a0, a1, a2), ca = plane_a
    (b0, b1, b2), cb = plane_b
    u0, u1, u2 = u
    pa = a0 * u0 + a1 * u1 + a2 * u2
    pb = b0 * u0 + b1 * u1 + b2 * u2
    return ((pb * a0 - pa * b0, pb * a1 - pa * b1, pb * a2 - pa * b2),
            pb * ca - pa * cb)


def _subtree_planes(kappa, parent, order, below, leaf_planes):
    """The plane of every rooted subtree of one tree, leaves first.

    Leaf j gives leaf_planes[j] = (rho_j, rho_j . q_j), and a junction
    x other than the root `order[0]` the `_glue` of its children's
    planes along below[x], the displacement of the edge parent(x) -> x.
    Returns kids, kids[x] the planes of x's children in the order of
    the reversed pre-order: two for a junction, three for a junction
    root.
    """
    kids = [[] for _ in parent]
    for x in order[:0:-1]:      # children before parents, root skipped
        if x < kappa:
            plane = leaf_planes[x]
        else:
            plane = _glue(*kids[x], below[x])
        kids[parent[x]].append(plane)
    return kids


def _inconsistent_type(kappa, order, kids, below, plane):
    """Whether a type with D = 0 has no solution, decided on its tree.

    Each subtree hands its parent the rows (n, c), at most three, that
    it puts on the parent's position P.  A leaf hands plane[j].  A
    junction x gathers its children's rows, which hold on P + l_x u
    with u = below[x]; a row with n . u != 0 eliminates l_x from the
    others (`_glue`) and is dropped, and when no row has n . u != 0 all
    rows pass up unchanged.  More than three rows are reduced by
    `_echelon`, which may find them inconsistent: then so is the type.
    At ref, the first junction of the parent-first `order`, leaf 0's
    row joins its children's: the type is singular exactly when this
    system is inconsistent, so this equals one echelon pass on the
    type's evaluation rows.
    """
    systems = {}
    for x in reversed(order):
        rows = []
        for y in kids[x]:
            if y < kappa:
                rows.append(plane[y])
            else:
                rows += systems[y]
        if x == order[0]:
            rows.append(plane[0])
            return _echelon(rows) is None
        u0, u1, u2 = below[x]
        for k, ((a0, a1, a2), _) in enumerate(rows):
            if a0 * u0 + a1 * u1 + a2 * u2:
                pivot = rows.pop(k)
                rows = [_glue(r, pivot, below[x]) for r in rows]
                break
        if len(rows) > 3:
            rows = _echelon(rows)
            if rows is None:
                return True
        systems[x] = rows


def _echelon(rows):
    """At most three rows (n, c), in fraction-free row-echelon form
    (`lattice._bareiss_echelon`), with the solution set of the rows
    n . P = c in three unknowns, or None when that set is empty."""
    a = [[*n, c] for n, c in rows]
    r = len(_bareiss_echelon(a, 3)[0])
    if any(row[3] for row in a[r:]):
        return None
    return [(tuple(row[:3]), row[3]) for row in a[:r]]
