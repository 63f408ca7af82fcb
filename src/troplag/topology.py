"""Topological invariants of the Lagrangians associated to a curve.

Planar curves produce surfaces: orientability and genus/crosscap counts
from the boundary data, per-component node counts from dual triangles,
weights and crossings.  Compact spatial curves with bissectrice boundary
produce closed graph 3-manifolds: the order of the first homology is the
tropical multiplicity divided by the product of vertex multiplicities,
with a torsion recursion along the rooted tree as a cross-check.
"""

from __future__ import annotations


from .curve import TropicalCurve, _reach, point_text, require_valid
from .domain import (PolyhedralDomain, curve_self_crossings,
                     is_standard_simplex_3, require_even_primitive)
from .errors import Record, WorkbenchError
from .lattice import (content, cross, is_zero, primitive_raw, solve_cross,
                      vec_scale)
from .multiplicity import Problem, build_problem


# ---------------------------------------------------------------------------
# vertex invariants


def vertex_multiplicity(c: TropicalCurve, vid) -> int:
    """Lattice index of two independent edge vectors at a 3-valent vertex.

    The index is taken inside the integer points of the plane the vectors
    span; balancing makes the answer independent of the chosen pair.  For
    two independent vectors it is the product of their two elementary
    divisors, that is the gcd of their 2 x 2 minors: |det| in the plane,
    the content of the cross product in space (`_index`).
    """
    return _index(vid, [d if w == 1 else tuple([w * x for x in d])
                        for _, d, w in c.incident(vid)], c.dim == 2)


def _index(vid, vecs, planar=False):
    """The multiplicity of the vertex `vid` from its weighted outward
    edge vectors: the index of the first of the pairs (1, 2), (2, 0),
    (0, 1) that spans a 2-plane.  The one rule of `vertex_multiplicity`
    and of h1's junctions (`_junction_indices`)."""
    if len(vecs) != 3:
        raise WorkbenchError("NOT_TRIVALENT",
                             f"vertex {vid} has valence {len(vecs)}")
    for i in range(3):
        a, b = vecs[(i + 1) % 3], vecs[(i + 2) % 3]
        index = abs(a[0] * b[1] - a[1] * b[0]) if planar \
            else content(cross(a, b))
        if index:
            return index
    raise WorkbenchError("DEGENERATE_VERTEX",
                         f"edges at {vid} do not span a 2-plane")


def _junction_indices(prob: Problem):
    """The multiplicity of each junction of a spatial tree, in junction
    order, from the displacements dh of its chains (`_index`).  On a
    valid curve a chain's dh at a junction is its first edge's weighted
    outward vector, so this is `vertex_multiplicity` at each
    c.trivalent_vertices() vertex, with its errors in the same order."""
    adj, chain = prob.adj, prob.chain
    return [_index(vid, [chain[x, y][0] for y in adj[x]])
            for x, vid in enumerate(prob.junction_ids, prob.kappa)]


def dual_vertex_delta(c: TropicalCurve, vid) -> int:
    """Interior lattice points of the dual triangle of a planar vertex.

    The triangle's sides are the quarter-turned weighted edge vectors,
    laid end to end; twice its area is |det| of any two of them, the
    vertex multiplicity.  The count uses Pick's identity i = A - B/2 + 1
    with exact data.
    """
    if c.dim != 2 and c.valence(vid) == 3:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "dual triangles live in the plane")
    two_area = vertex_multiplicity(c, vid)
    boundary = sum(content(vec_scale(w, d)) for _, d, w in c.incident(vid))
    # Pick: A = i + B/2 - 1, everything here is integral or half-integral
    interior2 = two_area - boundary + 2
    return interior2 // 2


# ---------------------------------------------------------------------------
# planar self-intersections


def _weighted(c, crossings):
    """The crossings with their weights |det(dh_i, dh_j)|."""
    out = []
    for crs in crossings:
        i, j = crs["edges"]
        di = c.edges[i].dh()
        dj = c.edges[j].dh()
        w = abs(di[0] * dj[1] - di[1] * dj[0])
        out.append({"edges": (i, j), "point": crs["point"], "weight": w})
    return out


def self_intersections(c: TropicalCurve,
                       domain: PolyhedralDomain | None = None):
    """Transverse double points of a planar curve with det weights."""
    if c.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "self_intersections is a planar operation")
    return _weighted(c, curve_self_crossings(c, domain))


# ---------------------------------------------------------------------------
# surface reports (planar curves)


class ComponentReport(Record):
    __slots__ = ("vertices", "b1", "ends", "delta")

    def as_dict(self):
        return {"vertices": list(self.vertices), "b1": self.b1,
                "ends": self.ends, "delta": self.delta}


class SurfaceReport(Record):
    __slots__ = ("orientable", "genus", "crosscaps", "punctures", "j",
                 "b1_curve", "components", "total_nodes", "extra_crossings",
                 "euler_characteristic", "surface_name")

    def as_dict(self):
        return {"orientable": self.orientable, "genus": self.genus,
                "crosscaps": self.crosscaps, "punctures": self.punctures,
                "j": self.j, "b1": self.b1_curve,
                "components": [k.as_dict() for k in self.components],
                "totalNodes": self.total_nodes,
                "extraCrossings": self.extra_crossings,
                "eulerCharacteristic": self.euler_characteristic,
                "surface": self.surface_name}


def _surface_name(orientable, genus, crosscaps, punctures):
    if orientable:
        base = {0: "sphere", 1: "torus"}.get(genus,
                                             f"genus-{genus} surface")
    else:
        base = {1: "RP^2", 2: "Klein bottle"}.get(
            crosscaps, f"connected sum of {crosscaps} copies of RP^2")
    if punctures:
        base += f" with {punctures} punctures"
    return base


def surface_report(c: TropicalCurve, d: PolyhedralDomain,
                   relaxed=False) -> SurfaceReport:
    """Surface type and node bookkeeping for a planar curve in a domain."""
    if c.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "surface reports need a planar curve")
    even = require_even_primitive(c, d, relaxed)

    j = even.j
    punctures = even.punctures
    b1 = c.b1()
    orientable = j == 0
    genus = b1 if orientable else None
    crosscaps = None if orientable else j + 2 * b1

    # the even/primitive test kept the crossings inside the domain
    inside = _weighted(c, even.crossings)

    # components of W, the trivalent vertices plus the weight > 1 edges.
    # A weight > 1 edge avoids the boundary, so its chain joins two
    # trivalent vertices through 2-valent markings: one walk along such
    # edges from each trivalent vertex not yet reached, in sorted order.
    verts = sorted(c.trivalent_vertices())
    reached = set()
    components = []
    total_nodes = 0
    extra = sum(cr["weight"] for cr in inside)
    for start in verts:
        if start in reached:
            continue
        via = _reach(c, start, lambda i: c.edges[i].weight > 1)
        reached.update(via)
        kv = sorted(v for v in via if c.valence(v) >= 3)
        ke = sorted({i for v in via for i, _, w in c.incident(v) if w > 1})
        ends = sum(w == 1 for v in kv for _, _, w in c.incident(v))
        delta = sum(dual_vertex_delta(c, v) for v in kv)
        delta += sum(c.edges[i].weight - 1 for i in ke)
        # a marking splits one chain into two edges: count the chain once
        delta -= sum(c.incident(v)[0][2] - 1 for v in via
                     if c.valence(v) == 2)
        for cr in inside:
            if cr["edges"][0] in ke and cr["edges"][1] in ke:
                delta += cr["weight"]
                extra -= cr["weight"]
        components.append(ComponentReport(tuple(kv), len(ke) - len(via) + 1,
                                          ends, delta))
        total_nodes += delta

    euler = -len(verts) + even.bissectrice
    expected_euler = 2 - (2 * genus if orientable else crosscaps) - punctures
    if euler != expected_euler:
        raise WorkbenchError(
            "INTERNAL_INCONSISTENCY",
            f"piece count gives chi = {euler}, surface type needs "
            f"{expected_euler}")
    return SurfaceReport(orientable, genus, crosscaps, punctures, j, b1,
                         tuple(components), total_nodes, extra, euler,
                         _surface_name(orientable, genus, crosscaps,
                                       punctures))


# ---------------------------------------------------------------------------
# three-manifold reports


def _end_pieces(c, domain, zs, relaxed=False):
    """Each end's (kind, z, info), in c.ends() order.

    With a domain, info is the end's `BoundaryPointInfo` from the
    even/primitive test, None for a puncture (an ANNULUS); a MOMENTUM2
    point is a MOEBIUS_PIECE, any other a DISK_PIECE in the plane or a
    SOLID_TORUS in space, z its stratum direction.  Without a domain `zs`
    gives z in c.ends() order, and every end is a SOLID_TORUS, no info.
    """
    if domain is None:
        if zs is None:
            raise WorkbenchError("MISSING_Z",
                                 "need a domain or explicit directions")
        if len(zs) != len(c.ends()):
            raise WorkbenchError(
                "MISSING_Z", f"{len(zs)} directions for {len(c.ends())} ends")
        return [("SOLID_TORUS", tuple(z), None) for z in zs]
    boundary = require_even_primitive(c, domain, relaxed).boundary
    out = [("ANNULUS", None, None)] * len(c.ends())
    for info in boundary:
        if info.kind == "MOMENTUM2":
            out[info.end_index] = ("MOEBIUS_PIECE", None, info)
        elif c.dim == 2:
            out[info.end_index] = ("DISK_PIECE", None, info)
        else:
            out[info.end_index] = ("SOLID_TORUS", info.z_direction, info)
    return out


def _bissectrice_zs(c, domain, zs):
    """The constraint directions of h1 and lens, in c.ends() order: with
    a domain the curve must be compact with every end at a bissectrice
    point, whose stratum direction is the end's z."""
    ends = _end_pieces(c, domain, zs)
    if any(kind == "ANNULUS" for kind, _, _ in ends):
        raise WorkbenchError("NOT_COMPACT",
                             "curve has ends escaping to infinity")
    for _, _, info in ends:
        if info is not None and info.kind != "BISSECTRICE":
            raise WorkbenchError(
                "NOT_BISSECTRICE",
                f"boundary point {point_text(info.point)} is {info.kind}")
    return [z for _, z, _ in ends]


class ThreeManifoldReport(Record):
    __slots__ = ("h1_order", "infinite_h1", "mv", "product",
                 "rational_homology_sphere", "deformation_persists",
                 "leaf_data", "root_edge", "recursion_agrees",
                 "parity_warning")

    def as_dict(self):
        return {
            "h1Order": "INFINITE_H1" if self.infinite_h1 else self.h1_order,
            "mv": self.mv,
            "product": self.product,
            "rationalHomologySphere": self.rational_homology_sphere,
            "deformationPersists": self.deformation_persists,
            "leafData": [
                {"label": l, "rho": list(rho), "n": content(rho)}
                for l, rho in self.leaf_data],
            "rootEdge": self.root_edge,
            "recursionAgrees": self.recursion_agrees,
            "parityWarning": self.parity_warning,
        }


def _require_primitive_root(prob: Problem):
    """NOT_PRIMITIVE_BOUNDARY unless the root edge, the chain at end 0,
    has weight 1: the one weight check of h1 and lens, made before any
    momentum, product or lens coordinate is computed (h1 reads its
    junctions' multiplicities first, so a flat junction keeps its own
    code).  The torsion recursion glues the root's solid torus along
    that edge, and the lens space is built on a segment's one edge.
    Other edges are not read here."""
    first, = prob.adj[0]
    if prob.chain[0, first][1] != 1:
        raise WorkbenchError("NOT_PRIMITIVE_BOUNDARY",
                             "root edge must have weight 1")


def _torsion_recursion(prob: Problem, walk, mults):
    """Torsion recursion along the tree rooted at end 0.

    The pass `walk` = `Problem.momenta(0)` gives, for every edge, the
    momentum rho(e) towards the root; the product mv(e) of the multiplicities
    behind it accumulates on the same post-order, mults[x - kappa] being
    that of junction x.  Every n(e) = content(rho(e)) must be divisible
    by mv(e).  On a single line the far end is the only edge and the
    recursion is the gluing gcd.  Returns (h1_rec, root edge record).
    """
    parent, order, mom = walk
    behind = [1] * prob.kappa + mults
    for x in order[:0:-1]:
        n, mve = content(mom[x]), behind[x]
        if n % mve != 0:
            raise WorkbenchError(
                "INTERNAL_INCONSISTENCY",
                f"edge torsion n = {n} not divisible by mv = {mve}")
        behind[parent[x]] *= mve
    first, = prob.adj[0]
    rho_p = mom[first]
    n_p = content(rho_p)
    mv_p = behind[first]
    glue = content(cross(primitive_raw(rho_p), prob.rhos[0]))
    h1_rec = (n_p // mv_p) * glue
    root_edge = {"rho": list(rho_p), "n": n_p,
                 "torsionAccumulated": n_p // mv_p, "glue": glue}
    return h1_rec, root_edge


def h1_order(c: TropicalCurve, domain: PolyhedralDomain | None = None,
             zs=None) -> ThreeManifoldReport:
    """Order of H1 of the 3-manifold built from a compact spatial curve.

    With a domain, the boundary points must all be bissectrice and the
    constraint directions are the domain edge directions; otherwise pass
    the directions explicitly as `zs`, a sequence in c.ends() order.  The
    order is the mixed product magnitude divided by the product of the
    vertex multiplicities; the torsion recursion is recomputed
    independently and must agree.
    """
    if c.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH", "h1 needs a 3-dim curve")
    require_valid(c)
    prob = build_problem(c, _bissectrice_zs(c, domain, zs))
    mults = _junction_indices(prob)
    _require_primitive_root(prob)
    mv = 1
    for m in mults:
        mv *= m

    # one momentum pass from end 0 feeds the product and the recursion
    node = prob.root_node()
    walk = prob.momenta(node)
    product = prob.pair_at(node, walk[2])
    leaf_data = tuple(enumerate(prob.rhos))

    parity = None
    parity_applies = domain is not None and is_standard_simplex_3(domain)

    if product == 0:
        return ThreeManifoldReport(None, True, mv, 0, False, False,
                                   leaf_data, None, None, None)
    if product % mv != 0:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             f"mv = {mv} does not divide the product "
                             f"{product}")
    order = product // mv

    h1_rec, root_edge = _torsion_recursion(prob, walk, mults)
    agrees = h1_rec == order
    if not agrees:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             f"torsion recursion gives {h1_rec}, "
                             f"determinant route gives {order}")

    if parity_applies and order % 2 == 1:
        parity = ("odd H1 order in the standard simplex contradicts the "
                  "expected parity for Lagrangian rational homology spheres")
    return ThreeManifoldReport(order, False, mv, product, True, True,
                               leaf_data, root_edge, agrees, parity)


# ---------------------------------------------------------------------------
# piece decomposition


class Piece(Record):
    __slots__ = ("kind", "anchor", "delta", "kernel")

    # Hand-written: one Piece per tree node, faster than Record's loop.
    def __init__(self, kind: str, anchor: str, delta: int | None = None,
                 kernel: tuple | None = None):
        self.kind = kind      # PANTS_BUNDLE | SOLID_TORUS | MOEBIUS_PIECE
                              # | DISK_PIECE | ANNULUS
        self.anchor = anchor  # vertex id or "end:<edge index>"
        self.delta = delta
        self.kernel = kernel

    def as_dict(self):
        out = {"kind": self.kind, "anchor": self.anchor}
        if self.delta is not None:
            out["delta"] = self.delta
        if self.kernel is not None:
            out["kernel"] = list(self.kernel)
        return out


class PieceDecomposition(Record):
    __slots__ = ("pieces",
                 "gluing")  # (piece index, piece index, chain edge indices)

    def as_dict(self):
        return {"pieces": [p.as_dict() for p in self.pieces],
                "gluing": [[a, b, list(e)] for a, b, e in self.gluing]}


def piece_decomposition(c: TropicalCurve,
                        domain: PolyhedralDomain | None = None,
                        zs=None, relaxed=False) -> PieceDecomposition:
    """Pieces of the Lagrangian over vertices, boundary points and ends.

    The boundary data come from a domain or, for a spatial curve, from
    `zs`, a sequence of constraint directions in c.ends() order.  The
    kernel of a solid torus is primitive(d x z) for the outward weighted
    direction d of its end.
    """
    if domain is None and zs is not None and c.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "pieces needs a 3-dim curve")
    require_valid(c)
    ends = c.ends()
    end_pieces = _end_pieces(c, domain, zs, relaxed)
    junctions, chains = c.chain_nodes()
    pieces = []
    piece_of = [None] * (len(ends) + len(junctions))
    for k, v in sorted(enumerate(junctions), key=lambda kv: kv[1]):
        delta = dual_vertex_delta(c, v) if c.dim == 2 else None
        piece_of[len(ends) + k] = len(pieces)
        pieces.append(Piece("PANTS_BUNDLE", v, delta=delta))
    for j, (end, (kind, z, _)) in enumerate(zip(ends, end_pieces)):
        piece_of[j] = len(pieces)
        anchor = f"end:{end.edge_index}" if end.endpoint is None \
            else f"end:{end.edge_index}:{end.endpoint}"
        kernel = None if z is None else primitive_raw(cross(end.dh(), z))
        pieces.append(Piece(kind, anchor, kernel=kernel))
    gluing = tuple((min(piece_of[a], piece_of[b]),
                    max(piece_of[a], piece_of[b]), idxs)
                   for a, b, _, _, idxs in chains)
    return PieceDecomposition(tuple(pieces), gluing)


# ---------------------------------------------------------------------------
# lens parameters


class LensParameters(Record):
    __slots__ = ("p", "q_canonical")

    def as_dict(self):
        return {"p": self.p, "qCanonical": self.q_canonical}


def _canonical_q(p, q):
    """The least of +-q and +-q^-1 mod p; only +-q when q is not a unit."""
    q %= p
    cands = {q, -q % p}
    try:
        r = pow(q, -1, p)
    except ValueError:      # q is not a unit; lens data gives units
        pass
    else:
        cands |= {r, -r % p}
    return min(cands)


def lens_parameters(c: TropicalCurve,
                    domain: PolyhedralDomain | None = None,
                    zs=None) -> LensParameters:
    """Lens space parameters of the 3-manifold of a single-edge curve.

    The constraint directions come from a domain or from `zs`, a sequence
    in c.ends() order.
    """
    if c.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH", "lens needs a 3-dim curve")
    require_valid(c)
    if c.trivalent_vertices():
        raise WorkbenchError("NOT_A_LINE",
                             "lens parameters need a single-edge curve")
    prob = build_problem(c, _bissectrice_zs(c, domain, zs))
    _require_primitive_root(prob)
    u = prob.chain[0, 1][0]
    a = cross(u, prob.zs[0])
    b = cross(u, prob.zs[1])
    if is_zero(a) or is_zero(b):
        raise WorkbenchError("DEGENERATE_VERTEX",
                             "a kernel class vanishes")
    if content(a) != 1 or content(b) != 1:
        raise WorkbenchError("NOT_BISSECTRICE",
                             "kernel classes must be primitive")
    cab = cross(a, b)
    if is_zero(cab):
        raise WorkbenchError("SPLIT_DEGENERATE",
                             "kernel classes are parallel: H1 is infinite")
    p = content(cab)
    if p == 1:
        return LensParameters(1, 0)
    # a x c = u makes (a, c) a basis of the lattice u^perp, and then
    # b = alpha a + beta c gives b x c = alpha u (and a x b = beta u)
    c_vec = solve_cross(a, u)
    bc = cross(b, c_vec)
    k = next(k for k in range(3) if u[k])
    alpha = bc[k] // u[k]
    if cross(a, c_vec) != u or bc != vec_scale(alpha, u):
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "unexpected kernel coordinates")
    return LensParameters(p, _canonical_q(p, alpha))
