"""Topological invariants of the Lagrangians associated to a curve.

Planar curves produce surfaces: orientability and genus/crosscap counts
from the boundary data, per-component node counts from dual triangles,
weights and crossings.  Compact spatial curves with bissectrice boundary
produce closed graph 3-manifolds: the order of the first homology is the
tropical multiplicity divided by the product of vertex multiplicities,
with a torsion recursion along the rooted tree as a cross-check.
"""

from __future__ import annotations


from .curve import TropicalCurve, require_valid
from .domain import (PolyhedralDomain, curve_self_crossings,
                     is_standard_simplex_3, require_even_primitive)
from .errors import Record, WorkbenchError
from .lattice import (content, cross, det_bareiss, is_zero, primitive_raw,
                      rot90, solve_bareiss, solve_cross, vec_add, vec_scale)
from .multiplicity import Problem, RotationalMomentum, build_problem


# ---------------------------------------------------------------------------
# vertex invariants


def vertex_multiplicity(c: TropicalCurve, vid) -> int:
    """Lattice index of two independent edge vectors at a 3-valent vertex.

    The index is taken inside the integer points of the plane the vectors
    span; balancing makes the answer independent of the chosen pair.  For
    two independent vectors it is the product of their two elementary
    divisors, that is the gcd of their 2 x 2 minors: |det| in the plane,
    the content of the cross product in space.
    """
    inc = c.incident(vid)
    if len(inc) != 3:
        raise WorkbenchError("NOT_TRIVALENT",
                             f"vertex {vid} has valence {len(inc)}")
    vecs = [vec_scale(w, d) for _, d, w in inc]
    for i in range(3):
        a, b = vecs[(i + 1) % 3], vecs[(i + 2) % 3]
        index = abs(a[0] * b[1] - a[1] * b[0]) if c.dim == 2 \
            else content(cross(a, b))
        if index:
            return index
    raise WorkbenchError("DEGENERATE_VERTEX",
                         f"edges at {vid} do not span a 2-plane")


def _dual_triangle(c, vid):
    inc = c.incident(vid)
    if len(inc) != 3:
        raise WorkbenchError("NOT_TRIVALENT",
                             f"vertex {vid} has valence {len(inc)}")
    if c.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "dual triangles live in the plane")
    sides = [rot90(vec_scale(w, d)) for _, d, w in inc]
    pts = [(0, 0)]
    for s in sides[:-1]:
        pts.append(vec_add(pts[-1], s))
    return pts, sides


def dual_vertex_delta(c: TropicalCurve, vid) -> int:
    """Interior lattice points of the dual triangle of a planar vertex.

    The triangle is spanned by the quarter-turned weighted edge vectors;
    the count uses Pick's identity i = A - B/2 + 1 with exact data.
    """
    pts, sides = _dual_triangle(c, vid)
    two_area = abs(det_bareiss([
        [pts[1][0] - pts[0][0], pts[1][1] - pts[0][1]],
        [pts[2][0] - pts[0][0], pts[2][1] - pts[0][1]]]))
    if two_area == 0:
        raise WorkbenchError("DEGENERATE_VERTEX",
                             f"dual triangle at {vid} has zero area")
    boundary = sum(content(s) for s in sides)
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
    __slots__ = ("vertices", "wedges", "b1", "ends", "delta")

    def __init__(self, vertices: tuple, wedges: tuple, b1: int, ends: int,
                 delta: int):
        self.vertices = vertices
        self.wedges = wedges  # indices of weight > 1 edges in the component
        self.b1 = b1
        self.ends = ends
        self.delta = delta

    def as_dict(self):
        return {"vertices": list(self.vertices), "b1": self.b1,
                "ends": self.ends, "delta": self.delta}


class SurfaceReport(Record):
    __slots__ = ("orientable", "genus", "crosscaps", "punctures", "j",
                 "b1_curve", "components", "total_nodes", "extra_crossings",
                 "euler_characteristic", "surface_name")

    def __init__(self, orientable: bool, genus: int | None,
                 crosscaps: int | None, punctures: int, j: int, b1_curve: int,
                 components: tuple, total_nodes: int, extra_crossings: int,
                 euler_characteristic: int, surface_name: str):
        self.orientable = orientable
        self.genus = genus
        self.crosscaps = crosscaps
        self.punctures = punctures
        self.j = j
        self.b1_curve = b1_curve
        self.components = components
        self.total_nodes = total_nodes
        self.extra_crossings = extra_crossings
        self.euler_characteristic = euler_characteristic
        self.surface_name = surface_name

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

    # components of W: vertices of the curve plus weight > 1 edges
    verts = sorted(c.trivalent_vertices())
    wedges = [i for i, e in enumerate(c.edges) if e.weight > 1]
    parent = {("v", v): ("v", v) for v in verts}
    parent.update({("e", i): ("e", i) for i in wedges})

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for i in wedges:
        e = c.edges[i]
        for v in (e.tail, e.head):
            if v is not None and ("v", v) in parent:
                union(("e", i), ("v", v))

    # the even/primitive test kept the crossings inside the domain
    inside = _weighted(c, even.crossings)

    groups = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    components = []
    total_nodes = 0
    folded = 0
    for members in groups.values():
        kv = sorted(m[1] for m in members if m[0] == "v")
        ke = sorted(m[1] for m in members if m[0] == "e")
        bounded_ke = [i for i in ke if c.edges[i].bounded]
        b1_k = len(bounded_ke) - len(kv) + 1 if kv else 0
        ray_ke = [i for i in ke if not c.edges[i].bounded]
        thin_ends = 0
        for v in kv:
            for ei, _, _ in c.incident(v):
                if ei not in ke:
                    thin_ends += 1
        delta = 0
        for v in kv:
            delta += dual_vertex_delta(c, v)
        for i in ke:
            delta += c.edges[i].weight - 1
        for cr in inside:
            if cr["edges"][0] in ke and cr["edges"][1] in ke:
                delta += cr["weight"]
                folded += 1
        components.append(ComponentReport(tuple(kv), tuple(ke), b1_k,
                                          thin_ends + len(ray_ke), delta))
        total_nodes += delta
    components.sort(key=lambda k: k.vertices)
    extra = sum(cr["weight"] for cr in inside) - sum(
        cr["weight"] for cr in inside
        if any(cr["edges"][0] in k.wedges and cr["edges"][1] in k.wedges
               for k in components))

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


def _end_directions(c, domain, zs):
    """Constraint directions in c.ends() order, from a domain or given.

    A domain supplies its stratum direction at the bissectrice boundary
    point of each end of a compact curve, matched to the end by
    `BoundaryPointInfo.end_key`; otherwise `zs` lists the directions in
    c.ends() order (abstract curve and lines data).
    """
    ends = c.ends()
    if domain is not None:
        even = require_even_primitive(c, domain)
        if even.punctures:
            raise WorkbenchError("NOT_COMPACT",
                                 "curve has ends escaping to infinity")
        z_of_end = {}
        for info in even.boundary:
            if info.kind != "BISSECTRICE":
                raise WorkbenchError(
                    "NOT_BISSECTRICE",
                    f"boundary point {info.point} is {info.kind}")
            z_of_end[info.end_key] = info.z_direction
        return [z_of_end[e.edge_index, e.endpoint] for e in ends]
    if zs is None:
        raise WorkbenchError("MISSING_Z",
                             "need a domain or explicit directions")
    zs = [tuple(z) for z in zs]
    if len(zs) != len(ends):
        raise WorkbenchError("MISSING_Z",
                             f"{len(zs)} directions for {len(ends)} ends")
    return zs


class ThreeManifoldReport(Record):
    __slots__ = ("h1_order", "infinite_h1", "mv", "product",
                 "rational_homology_sphere", "deformation_persists",
                 "leaf_data", "root_edge", "recursion_agrees",
                 "parity_warning")

    def __init__(self, h1_order: int | None, infinite_h1: bool, mv: int,
                 product: int, rational_homology_sphere: bool,
                 deformation_persists: bool, leaf_data: tuple,
                 root_edge: dict | None, recursion_agrees: bool | None,
                 parity_warning: str | None):
        self.h1_order = h1_order
        self.infinite_h1 = infinite_h1
        self.mv = mv
        self.product = product
        self.rational_homology_sphere = rational_homology_sphere
        self.deformation_persists = deformation_persists
        self.leaf_data = leaf_data
        self.root_edge = root_edge
        self.recursion_agrees = recursion_agrees
        self.parity_warning = parity_warning

    def as_dict(self):
        return {
            "h1Order": "INFINITE_H1" if self.infinite_h1 else self.h1_order,
            "mv": self.mv,
            "product": self.product,
            "rationalHomologySphere": self.rational_homology_sphere,
            "deformationPersists": self.deformation_persists,
            "leafData": [
                {"label": l, "rho": list(r.vector), "n": r.n}
                for l, r in self.leaf_data],
            "rootEdge": self.root_edge,
            "recursionAgrees": self.recursion_agrees,
            "parityWarning": self.parity_warning,
        }


def _torsion_recursion(prob: Problem, mult_of_node):
    """Torsion recursion along the tree rooted at the first end.

    One post-order pass of `Problem.momenta` gives, for every edge, the
    momentum rho(e) towards the root and the product mv(e) of the vertex
    multiplicities behind it; every n(e) = content(rho(e)) must be
    divisible by mv(e).  On a single line the far end is the only edge
    and the recursion is the gluing gcd.  Returns (h1_rec, root edge
    record).
    """
    root = prob.ends()[0]
    (first, _, w_root, _), = prob.neighbors(root)
    order, link, mom, _ = prob.momenta(root)
    behind = {at: 1 if at in prob.end_z else mult_of_node[at]
              for at in order}
    for at in order[:-1]:
        n, mve = content(mom[at]), behind[at]
        if n % mve != 0:
            raise WorkbenchError(
                "INTERNAL_INCONSISTENCY",
                f"edge torsion n = {n} not divisible by mv = {mve}")
        behind[link[at][0]] *= mve
    rho_p = mom[first]
    n_p = content(rho_p)
    mv_p = behind[first]
    rho_root = prob.end_momentum(root)
    glue = content(cross(primitive_raw(rho_p), rho_root.vector))
    if w_root != 1:
        raise WorkbenchError("NOT_PRIMITIVE_BOUNDARY",
                             "root edge must have weight 1")
    h1_rec = (n_p // mv_p) * glue
    root_edge = {"rho": list(rho_p), "n": n_p,
                 "torsionAccumulated": n_p // mv_p, "glue": glue}
    return h1_rec, root_edge


def h1_order(c: TropicalCurve, domain: PolyhedralDomain | None = None,
             zs=None) -> ThreeManifoldReport:
    """Order of H1 of the 3-manifold built from a compact spatial curve.

    With a domain, the boundary points must all be bissectrice and the
    constraint directions are the domain edge directions; otherwise pass
    the directions explicitly as `zs`, a sequence in c.ends() order.  The order is the mixed product magnitude
    divided by the product of the vertex multiplicities; the torsion
    recursion is recomputed independently and must agree.
    """
    if c.dim != 3:
        raise WorkbenchError("DIMENSION_MISMATCH", "h1 needs a 3-dim curve")
    require_valid(c)
    if c.b1() != 0:
        raise WorkbenchError("TREE_ONLY", "h1 needs a tree curve")
    zs = _end_directions(c, domain, zs)

    mult_of_node = {v: vertex_multiplicity(c, v)
                    for v in c.trivalent_vertices()}
    mv = 1
    for m in mult_of_node.values():
        mv *= m

    prob = build_problem(c, zs)
    product = prob.mixed_product()
    leaf_data = tuple((marker[1], RotationalMomentum.from_vector(
        cross(prob.outward(marker), prob.end_z[marker])))
        for marker in prob.ends())

    parity = None
    if domain is not None and is_standard_simplex_3(domain):
        parity_applies = True
    else:
        parity_applies = False

    if product == 0:
        return ThreeManifoldReport(None, True, mv, 0, False, False,
                                   leaf_data, None, None, None)
    if product % mv != 0:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             f"mv = {mv} does not divide the product "
                             f"{product}")
    order = product // mv

    h1_rec, root_edge = _torsion_recursion(prob, mult_of_node)
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
    __slots__ = ("pieces", "gluing")

    def __init__(self, pieces: tuple, gluing: tuple):
        self.pieces = pieces
        self.gluing = gluing  # (piece index, piece index, chain edge indices)

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
    require_valid(c)
    ends = c.ends()
    if domain is not None:
        even = require_even_primitive(c, domain, relaxed)
        info_of = {info.end_key: info for info in even.boundary}
        kinds, zs = [], []
        for end in ends:
            info = info_of.get((end.edge_index, end.endpoint))
            z = None
            if info is None:
                kind = "ANNULUS"
            elif info.kind == "MOMENTUM2":
                kind = "MOEBIUS_PIECE"
            elif c.dim == 2:
                kind = "DISK_PIECE"
            else:
                kind, z = "SOLID_TORUS", info.z_direction
            kinds.append(kind)
            zs.append(z)
    elif zs is not None and c.dim == 3:
        zs = _end_directions(c, None, zs)
        kinds = ["SOLID_TORUS"] * len(ends)
    else:
        raise WorkbenchError("MISSING_Z",
                             "need a domain or explicit directions")

    pieces = []
    index_of = {}
    for v in sorted(c.trivalent_vertices()):
        delta = dual_vertex_delta(c, v) if c.dim == 2 else None
        index_of[("v", v)] = len(pieces)
        pieces.append(Piece("PANTS_BUNDLE", v, delta=delta))
    for end, kind, z in zip(ends, kinds, zs):
        index_of[("end", (end.edge_index, end.endpoint))] = len(pieces)
        anchor = f"end:{end.edge_index}" if end.endpoint is None \
            else f"end:{end.edge_index}:{end.endpoint}"
        kernel = None if z is None else primitive_raw(cross(end.dh(), z))
        pieces.append(Piece(kind, anchor, kernel=kernel))

    gluing = []
    for ch in c.smoothed_edges():
        sides = []
        for v in (ch["first"], ch["second"]):
            if v is not None and ("v", v) in index_of:
                sides.append(index_of[("v", v)])
            else:
                # the chain side is an end: a ray (v None) or an endpoint
                for i in ch["edges"]:
                    key = ("end", (i, v))
                    if key in index_of and index_of[key] not in sides:
                        sides.append(index_of[key])
                        break
        if len(sides) == 2:
            gluing.append((min(sides), max(sides), ch["edges"]))
    return PieceDecomposition(tuple(pieces), tuple(gluing))


# ---------------------------------------------------------------------------
# lens parameters


class LensParameters(Record):
    __slots__ = ("p", "q_canonical")

    def __init__(self, p: int, q_canonical: int):
        self.p = p
        self.q_canonical = q_canonical

    def as_dict(self):
        return {"p": self.p, "qCanonical": self.q_canonical}


def _canonical_q(p, q):
    q %= p
    cands = {q % p, (-q) % p}
    # q is a unit mod p for genuine lens data
    for r in range(p):
        if (r * q) % p == 1:
            cands.add(r)
            cands.add((-r) % p)
            break
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
    prob = build_problem(c, _end_directions(c, domain, zs))
    ends = prob.ends()
    if len(ends) != 2:
        raise WorkbenchError("NOT_A_LINE", "lens needs exactly two ends")
    e0, e1 = ends
    u = primitive_raw(prob.outward(e1))
    a = cross(u, prob.end_z[e0])
    b = cross(u, prob.end_z[e1])
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
    if not is_zero(cross(cab, u)):
        raise WorkbenchError("INCONSISTENT_MOMENTA",
                             "kernel pairing is not parallel to the edge")
    p = content(cab)
    if p == 1:
        return LensParameters(1, 0)
    c_vec = solve_cross(a, u)
    d, num, kernel = solve_bareiss([[a[k], c_vec[k]] for k in range(3)], b)
    if num is None or kernel:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "kernel basis failed to express b")
    alpha, beta = num
    if alpha % d or beta % d or abs(beta // d) != p:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "unexpected kernel coordinates")
    return LensParameters(p, _canonical_q(p, alpha // d))
