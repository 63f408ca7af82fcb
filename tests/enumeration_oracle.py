"""The enumerator as the package had it before its walk of the
leaf-insertion tree, kept as an independent reference for the tests.

Every type of `trivalent_trees` is rebuilt from its edge list: its
adjacency, one walk from ref, the junction of leaf 0, and the balancing
sums (`rooted_sums`); then one integer plane per rooted subtree
(`subtree_planes`, by the package's plane rule
`troplag.multiplicity._glue`).  A type with D = 0 is decided by one
fraction-free echelon pass on its evaluation rows (`singular_type`,
`is_consistent`).  Adaptations: `rooted_sums` (it was
`troplag.curve._rooted_sums`), `subtree_planes` (it was
`troplag.multiplicity._subtree_planes`, which the package's enumerator
never called) and `singular_type` (it was
`troplag.multiplicity._singular_type`) lost their leading underscore,
`is_consistent` left `troplag.lattice`, and `enumerate_count` returns
the same `EnumerationResult` as the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from troplag.curve import (Edge, TreeTopology, TropicalCurve, _preorder,
                           trivalent_trees)
from troplag.errors import WorkbenchError
from troplag.lattice import (_bareiss_echelon, _integer_rows, content, cross,
                             dot, primitive_raw, vec_neg)
from troplag.multiplicity import (EnumerationResult, TypeOutcome,
                                  _evaluation_rows, _glue)


def rooted_sums(topology: TreeTopology, degree):
    """One walk (`_preorder`) over the tree hung from ref, the junction
    of leaf 0.

    The nodes are 0..2k-3 (leaves first), so the results are lists
    indexed by node: (parent, order, below) with parent[x] (None for
    ref), the pre-order of the nodes, and below[x], the integer sum of
    the leaf 3-vectors behind x.  By balancing, below[x] is the
    displacement of the edge parent(x) -> x.
    """
    kappa = topology.kappa
    size = 2 * kappa - 2
    adj = [[] for _ in range(size)]
    for a, b in topology.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent, order = _preorder(adj, adj[0][0])
    sx, sy, sz = [0] * size, [0] * size, [0] * size
    for j in range(kappa):
        sx[j], sy[j], sz[j] = degree[j]
    for x in order[:0:-1]:      # children before parents, ref skipped
        up = parent[x]
        sx[up] += sx[x]
        sy[up] += sy[x]
        sz[up] += sz[x]
    return parent, order, list(zip(sx, sy, sz))


def subtree_planes(kappa, parent, order, below, leaf_planes):
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


def is_consistent(rows, rhs) -> bool:
    """Whether A x = b has a rational solution: one fraction-free echelon
    pass on [A | b], with no back-substitution."""
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows) or len(rhs) != len(rows):
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "ragged rows or a right-hand side of the "
                             "wrong length")
    a = _integer_rows([[*r, b] for r, b in zip(rows, rhs)])
    r = len(_bareiss_echelon(a, n)[0])
    return not any(row[n] for row in a[r:])


def singular_type(kappa, parent, order, below, rhos, rhs) -> bool:
    """Whether a type with D = 0 is "singular" (no curves) rather than a
    wall: its evaluation system is inconsistent.

    The rows are the type's evaluation matrix (`_evaluation_rows`), with
    the junctions in pre-order as columns; one echelon pass on [A | b]
    decides, with no back-substitution."""
    ref = order[0]
    inner = [x for x in order[1:] if x >= kappa]
    col_of = {x: 3 + k for k, x in enumerate(inner)}
    rows = _evaluation_rows(rhos, range(kappa), parent, below, ref, col_of)
    return not is_consistent(rows, rhs)


def enumerate_count(degree, lines) -> EnumerationResult:
    """`troplag.multiplicity.enumerate_count`, one type at a time: the
    same outcomes, totals and error messages, with no cap on kappa."""
    degree = [tuple(d) for d in degree]
    kappa = len(degree)
    zs = [l.direction for l in lines.lines]
    rhos = [cross(d, z) for d, z in zip(degree, zs)]
    for j, rho in enumerate(rhos):
        if not any(rho):
            raise WorkbenchError("NON_GENERIC_CONFIG",
                                 f"line {j} is parallel to leaf {j} "
                                 f"(d x z = 0)")
    rhs = [Fraction(dot(rho, l.point), lines.denominator)
           for rho, l in zip(rhos, lines.lines)]
    scale = lcm(*(r.denominator for r in rhs))
    rhs = [r.numerator * (scale // r.denominator) for r in rhs]
    leaf_planes = list(zip(rhos, rhs))
    junctions = range(kappa, 2 * kappa - 2)

    outcomes = []
    total = 0
    for tree in trivalent_trees(kappa):
        parent, order, below = rooted_sums(tree, degree)
        ref = order[0]
        if any(below[x] == (0, 0, 0) for x in junctions if x != ref):
            outcomes.append(TypeOutcome(tree.edges, "degenerate", 0, None))
            continue
        kids = subtree_planes(kappa, parent, order, below, leaf_planes)
        (n1, c1), (n2, c2), (n3, c3) = kids[ref]
        m23, m31, m12 = cross(n2, n3), cross(n3, n1), cross(n1, n2)
        det = dot(n1, m23)
        if det == 0:
            if singular_type(kappa, parent, order, below, rhos, rhs):
                outcomes.append(TypeOutcome(tree.edges, "singular", 0, None))
                continue
            raise WorkbenchError(
                "NON_GENERIC_CONFIG",
                f"singular system for topology {tree.edges}")
        if det < 0:
            det, c1, c2, c3 = -det, -c1, -c2, -c3
        pos = [None] * len(parent)
        den = [0] * len(parent)
        pos[ref] = tuple(c1 * s + c2 * t + c3 * v
                         for s, t, v in zip(m23, m31, m12))
        den[ref] = det
        rejected = False
        for x in order[1:]:
            if x < kappa:
                continue
            for a, c in kids[x]:
                p = dot(a, below[x])
                if p:
                    break
            y = parent[x]
            num = c * den[y] - dot(a, pos[y])
            if p < 0:
                p, num = -p, -num
            if num == 0:
                raise WorkbenchError(
                    "NON_GENERIC_CONFIG",
                    f"zero edge length in topology {tree.edges}")
            rejected = rejected or num < 0
            pos[x] = tuple(q * p + num * u for q, u in zip(pos[y], below[x]))
            den[x] = den[y] * p
        if rejected:
            outcomes.append(TypeOutcome(tree.edges, "rejected", det, None))
            continue

        verts = [(f"n{x}", tuple(Fraction(v, den[x] * scale) for v in pos[x]))
                 for x in junctions]
        edges = []
        for a, b in tree.edges:
            if a < kappa:
                edges.append(Edge(f"n{b}", None, primitive_raw(degree[a]),
                                  content(degree[a]), a))
            else:
                v = below[b] if parent[b] == a else vec_neg(below[a])
                edges.append(Edge(f"n{a}", f"n{b}", primitive_raw(v),
                                  content(v), None))
        curve = TropicalCurve(3, verts, edges)
        outcomes.append(TypeOutcome(tree.edges, "accepted", det, curve))
        total += det
    return EnumerationResult(total, tuple(outcomes))
