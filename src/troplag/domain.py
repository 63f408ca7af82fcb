"""Delzant polyhedral domains and curve boundary classification.

A domain is an intersection of rational half-spaces {x : p . x >= a}
with primitive integer inner normals p.  The module classifies the
points where a curve meets the boundary (codimension, boundary momenta,
bissectrice test), checks the even/primitive conditions, generates wave
fronts, and runs the suitability test for boundary line configurations.

All feasibility questions are decided exactly by Fourier-Motzkin
elimination over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .curve import TropicalCurve, Edge, validate_curve
from .errors import WorkbenchError
from .lattice import (content, cross, dot, elementary_divisors, is_zero,
                      mixed, primitive_raw, rot90, solve_dot, solve_exact,
                      vec_add, vec_neg, vec_scale, vec_sub)


@dataclass(frozen=True)
class Facet:
    normal: tuple   # primitive integer inner normal
    offset: Fraction

    def value(self, x):
        return dot(self.normal, x) - self.offset


class PolyhedralDomain:
    def __init__(self, dim, facets):
        self.dim = dim
        self.facets = tuple(
            f if isinstance(f, Facet)
            else Facet(tuple(f["normal"]), Fraction(f["offset"]))
            for f in facets)

    def contains(self, x):
        return all(f.value(x) >= 0 for f in self.facets)

    def active(self, x):
        return tuple(j for j, f in enumerate(self.facets) if f.value(x) == 0)


@dataclass(frozen=True)
class Line:
    point: tuple       # rational base point
    direction: tuple   # primitive integer direction


class LineConfiguration:
    def __init__(self, lines):
        self.lines = tuple(
            l if isinstance(l, Line)
            else Line(tuple(Fraction(c) for c in l["point"]),
                      tuple(l["dir"]))
            for l in lines)
        for l in self.lines:
            if is_zero(l.direction):
                raise WorkbenchError("INVALID_LINES", "zero line direction")

    def __len__(self):
        return len(self.lines)


# ---------------------------------------------------------------------------
# exact feasibility (Fourier-Motzkin)


def _fm_feasible(ineqs, nvars) -> bool:
    """ineqs: (coeffs, rhs, strict) meaning coeffs . y >= rhs (> if strict)."""
    for k in reversed(range(nvars)):
        pos, neg, new = [], [], []
        for co, rhs, st in ineqs:
            ck = co[k]
            if ck > 0:
                pos.append((co, rhs, st))
            elif ck < 0:
                neg.append((co, rhs, st))
            else:
                new.append((co[:k], rhs, st))
        for a, r1, s1 in pos:
            for b, r2, s2 in neg:
                ca, cb = a[k], b[k]
                co = tuple(-cb * a[i] + ca * b[i] for i in range(k))
                new.append((co, -cb * r1 + ca * r2, s1 or s2))
        ineqs = new
    for _, rhs, st in ineqs:
        if (st and 0 <= rhs) or (not st and 0 < rhs):
            return False
    return True


def _stratum_feasible(domain, active, strict_elsewhere=True):
    """Is there a point with the given facets tight (others strict)?"""
    eq_rows = [list(domain.facets[j].normal) for j in active]
    eq_rhs = [domain.facets[j].offset for j in active]
    sol = solve_exact(eq_rows, eq_rhs) if active else None
    if active:
        if sol.status == "none":
            return False
        x0, kernel = sol.solution, sol.kernel
    else:
        x0 = tuple(Fraction(0) for _ in range(domain.dim))
        kernel = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                             for i in range(domain.dim))
                       for j in range(domain.dim))
    ineqs = []
    for j, f in enumerate(domain.facets):
        if j in active:
            continue
        co = tuple(dot(f.normal, k) for k in kernel)
        rhs = f.offset - dot(f.normal, x0)
        ineqs.append((co, rhs, strict_elsewhere))
    return _fm_feasible(ineqs, len(kernel))


def domain_nonempty(domain) -> bool:
    return _stratum_feasible(domain, (), strict_elsewhere=False)


# ---------------------------------------------------------------------------
# Delzant validation


@dataclass(frozen=True)
class DelzantFailure:
    facets: tuple
    problem: str      # "saturation" | "non_simple"
    index: int | None

    def as_dict(self):
        return {"facets": list(self.facets), "problem": self.problem,
                "index": self.index}


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    issues: tuple = ()
    failures: tuple = ()

    def as_dict(self):
        return {"ok": self.ok, "issues": list(self.issues),
                "failures": [f.as_dict() for f in self.failures]}


def validate_delzant(d: PolyhedralDomain) -> DelzantReport:
    """Saturation test at every nonempty boundary stratum.

    A stratum with active facet set S passes when the primitive normals
    indexed by S generate a saturated sublattice (all Smith divisors 1).
    Strata met by more facets than their codimension are flagged as
    non-simple.  An empty domain raises EMPTY_DOMAIN.
    """
    issues = []
    failures = []
    for j, f in enumerate(d.facets):
        if len(f.normal) != d.dim:
            issues.append(f"facet {j}: normal has wrong dimension")
        elif is_zero(f.normal):
            issues.append(f"facet {j}: zero normal")
        elif content(f.normal) != 1:
            issues.append(f"facet {j}: normal {f.normal} not primitive")
    if issues:
        return DelzantReport(False, tuple(issues), ())
    if not domain_nonempty(d):
        raise WorkbenchError("EMPTY_DOMAIN", "domain has no points")
    for j in range(len(d.facets)):
        if not _stratum_feasible(d, (j,)):
            issues.append(f"facet {j} is redundant (supports no facet)")
    n = len(d.facets)
    for size in range(2, n + 1):
        for S in itertools.combinations(range(n), size):
            if not _stratum_feasible(d, S):
                continue
            normals = [d.facets[j].normal for j in S]
            divisors = elementary_divisors(normals)
            rank = len(divisors)
            if rank < len(S) or rank > d.dim or len(S) > d.dim:
                failures.append(DelzantFailure(S, "non_simple", None))
                issues.append(f"stratum {S}: non-simple corner")
                continue
            index = 1
            for dv in divisors:
                index *= dv
            if index != 1:
                failures.append(DelzantFailure(S, "saturation", index))
                issues.append(
                    f"stratum {S}: normals span a sublattice of index {index}")
    return DelzantReport(not issues, tuple(issues), tuple(failures))


def require_delzant(d):
    rep = validate_delzant(d)
    if not rep.ok:
        raise WorkbenchError("INVALID_DOMAIN", "; ".join(rep.issues))
    return rep


def is_standard_simplex_3(d: PolyhedralDomain) -> bool:
    """The normal fan of the standard 3-simplex (the toric variety CP^3)."""
    if d.dim != 3 or len(d.facets) != 4:
        return False
    normals = sorted(f.normal for f in d.facets)
    return normals == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


# ---------------------------------------------------------------------------
# edge geometry: realized segments and rays, exact intersections


@dataclass(frozen=True)
class EdgeGeometry:
    edge_index: int
    base: tuple      # rational start point
    direction: tuple  # primitive integer direction
    tmax: Fraction | None  # None for an unclipped ray

    def point(self, t):
        return vec_add(self.base, vec_scale(t, self.direction))


def _ray_exit(domain, base, direction):
    """First positive parameter at which the ray leaves the domain."""
    t_exit = None
    for f in domain.facets:
        slope = dot(f.normal, direction)
        if slope < 0:
            t = Fraction(f.offset - dot(f.normal, base), slope)
            if t_exit is None or t < t_exit:
                t_exit = t
    return t_exit


def edge_geometries(c: TropicalCurve, domain: PolyhedralDomain | None = None):
    geoms = []
    for i, e in enumerate(c.edges):
        base = c.position(e.tail)
        if e.bounded:
            delta = vec_sub(c.position(e.head), base)
            t = None
            for dcomp, ucomp in zip(delta, e.direction):
                if ucomp != 0:
                    t = Fraction(dcomp, ucomp)
                    break
            geoms.append(EdgeGeometry(i, base, e.direction, t))
        else:
            tmax = _ray_exit(domain, base, e.direction) if domain else None
            geoms.append(EdgeGeometry(i, base, e.direction, tmax))
    return geoms


def _in_range(t, tmax):
    if t < 0:
        return False
    return tmax is None or t <= tmax


def intersect_geometries(g1: EdgeGeometry, g2: EdgeGeometry):
    """Exact intersection of two realized edges.

    Returns ("point", point, t1, t2), ("overlap", None, None, None) for a
    shared segment of positive length, or None.
    """
    n = len(g1.base)
    rows = [[g1.direction[k], -g2.direction[k]] for k in range(n)]
    rhs = [g2.base[k] - g1.base[k] for k in range(n)]
    sol = solve_exact(rows, rhs)
    if sol.status == "none":
        return None
    if sol.status == "unique":
        t1, t2 = sol.solution
        if _in_range(t1, g1.tmax) and _in_range(t2, g2.tmax):
            return ("point", g1.point(t1), t1, t2)
        return None
    # same line: compare parameter ranges of g2 inside g1's parameter
    d1 = g1.direction
    k = next(i for i in range(n) if d1[i] != 0)
    start = Fraction(g2.base[k] - g1.base[k], d1[k])
    step = Fraction(g2.direction[k], d1[k])
    lo2, hi2 = (start, None) if step > 0 else (None, start)
    if g2.tmax is not None:
        end = start + step * g2.tmax
        lo2, hi2 = (min(start, end), max(start, end))
    lo1, hi1 = Fraction(0), g1.tmax
    lo = lo1 if lo2 is None else max(lo1, lo2)
    hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
    if hi is None or lo < hi:
        return ("overlap", None, None, None)
    if lo == hi:
        return ("point", g1.point(lo), lo, None)
    return None


def curve_self_crossings(c: TropicalCurve,
                         domain: PolyhedralDomain | None = None):
    """All transverse double points of the realized curve.

    Pairs of edges sharing a graph vertex may meet at that vertex only.
    Overlapping collinear images raise NON_FINITE_SIGMA.
    """
    geoms = edge_geometries(c, domain)
    crossings = []
    for a in range(len(geoms)):
        for b in range(a + 1, len(geoms)):
            ea, eb = c.edges[a], c.edges[b]
            shared = ({ea.tail, ea.head} & {eb.tail, eb.head}) - {None}
            hit = intersect_geometries(geoms[a], geoms[b])
            if hit is None:
                continue
            if hit[0] == "overlap":
                raise WorkbenchError(
                    "NON_FINITE_SIGMA",
                    f"edges {a} and {b} overlap along a segment")
            point = hit[1]
            if shared and any(c.position(v) == point for v in shared):
                continue
            crossings.append({"edges": (a, b), "point": point})
    return crossings


# ---------------------------------------------------------------------------
# boundary classification


@dataclass(frozen=True)
class BoundaryPointInfo:
    point: tuple
    edge_index: int
    active: tuple
    codim: int
    momenta: tuple        # ((facet index, |p . dh|), ...)
    kind: str             # INTERIOR | MOMENTUM2 | BISSECTRICE | OTHER
    z_direction: tuple | None
    weight: int
    note: str = ""
    end_key: tuple | None = None   # (edge index, endpoint vertex or None)

    def as_dict(self):
        return {
            "point": [str(x) for x in self.point],
            "edge": self.edge_index,
            "activeFacets": list(self.active),
            "codim": self.codim,
            "momenta": {str(j): m for j, m in self.momenta},
            "kind": self.kind,
            "z": list(self.z_direction) if self.z_direction else None,
        }


def _stratum_direction(domain, active):
    """Primitive direction of a codimension-2 stratum in a 3-dim domain."""
    normals = [domain.facets[j].normal for j in active]
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            z = cross(normals[i], normals[j])
            if not is_zero(z):
                return primitive_raw(z)
    return None


def classify_point_on_edge(c, domain, point, edge_index, outward,
                           end_key=None) -> BoundaryPointInfo:
    e = c.edges[edge_index]
    dh = vec_scale(e.weight, outward)
    if not domain.contains(point):
        raise WorkbenchError("OUTSIDE_DOMAIN",
                             f"{point} violates a facet inequality")
    active = domain.active(point)
    if not active:
        return BoundaryPointInfo(point, edge_index, (), 0, (), "INTERIOR",
                                 None, e.weight, "", end_key)
    normals = [domain.facets[j].normal for j in active]
    codim = len(elementary_divisors(normals))
    momenta = tuple((j, abs(dot(domain.facets[j].normal, dh)))
                    for j in active)
    kind = "OTHER"
    z_dir = None
    note = ""
    if codim == 1:
        m = momenta[0][1]
        if m == 2 and e.weight == 1:
            kind = "MOMENTUM2"
    elif codim == 2:
        if all(m == 1 for _, m in momenta):
            if c.dim == 3:
                z_dir = _stratum_direction(domain, active)
                if z_dir is not None and content(cross(dh, z_dir)) == 1:
                    kind = "BISSECTRICE"
                else:
                    note = "corner-basis decomposition unavailable"
            else:
                kind = "BISSECTRICE"
    else:
        note = f"boundary point of codimension {codim}"
    return BoundaryPointInfo(point, edge_index, active, codim, momenta,
                             kind, z_dir, e.weight, note, end_key)


def classify_boundary_point(c: TropicalCurve, d: PolyhedralDomain,
                            point) -> BoundaryPointInfo:
    """Classify the boundary point of the curve at the given position."""
    point = tuple(Fraction(x) for x in point)
    for end in c.ends():
        if end.kind == "endpoint" and c.position(end.endpoint) == point:
            return classify_point_on_edge(c, d, point, end.edge_index,
                                          end.outward)
        if end.kind == "ray":
            base = c.position(end.attach)
            t = _ray_exit(d, base, end.outward)
            if t is not None and \
                    vec_add(base, vec_scale(t, end.outward)) == point:
                return classify_point_on_edge(c, d, point, end.edge_index,
                                              end.outward)
    raise WorkbenchError("NOT_A_BOUNDARY_POINT",
                         f"{point} is not where a curve end meets the boundary")


@dataclass(frozen=True)
class EvennessReport:
    ok: bool
    issues: tuple
    boundary: tuple       # BoundaryPointInfo per end hitting the boundary
    j: int                # number of MOMENTUM2 points
    bissectrice: int
    punctures: int        # ends escaping to infinity inside the domain
    crossings: tuple      # transverse double points inside the domain

    def as_dict(self):
        return {"ok": self.ok, "issues": list(self.issues),
                "boundary": [b.as_dict() for b in self.boundary],
                "j": self.j, "bissectrice": self.bissectrice,
                "punctures": self.punctures,
                "crossings": len(self.crossings)}


def check_even_primitive(c: TropicalCurve, d: PolyhedralDomain,
                         relaxed=False) -> EvennessReport:
    """Even/primitive test for a curve inside a Delzant domain.

    Strict mode demands weight 1 on every edge.  Relaxed mode allows
    weights > 1 on edges whose closure avoids the boundary.  In both
    modes every boundary point must be MOMENTUM2 or BISSECTRICE, away
    from vertices and double points, and the double-point locus finite.
    """
    issues = []
    vrep = validate_curve(c)
    if not vrep.ok:
        return EvennessReport(False, vrep.issues, (), 0, 0, 0, ())
    drep = validate_delzant(d)
    if not drep.ok:
        return EvennessReport(False, drep.issues, (), 0, 0, 0, ())
    if c.dim != d.dim:
        return EvennessReport(False, ("curve and domain dimension differ",),
                              (), 0, 0, 0, ())

    for vid in c.vertices:
        if not d.contains(c.position(vid)):
            issues.append(f"vertex {vid} lies outside the domain")

    interior = {}
    for vid in c.vertices:
        if d.contains(c.position(vid)):
            interior[vid] = not d.active(c.position(vid))

    # vertex shape conditions
    for vid in c.trivalent_vertices():
        inc = c.incident(vid)
        if len(inc) != 3:
            issues.append(f"vertex {vid} has valence {len(inc)} > 3")
            continue
        dirs = [vec_scale(w, dd) for _, dd, w in inc]
        rank = len(elementary_divisors(dirs))
        if rank != 2:
            issues.append(f"vertex {vid}: edges do not span a 2-plane")
        if vid in interior and not interior[vid]:
            issues.append(f"vertex {vid} lies on the boundary")

    # weights
    for i, e in enumerate(c.edges):
        if e.weight == 1:
            continue
        if not relaxed:
            issues.append(f"edge {i} has weight {e.weight} > 1")
            continue
        ok_relaxed = e.bounded and interior.get(e.tail, False) \
            and interior.get(e.head, False)
        if not ok_relaxed:
            issues.append(
                f"edge {i}: weight {e.weight} > 1 touches the boundary")

    # no edge may run inside a boundary face: test the midpoint
    for i, e in enumerate(c.edges):
        if not e.bounded:
            continue
        if e.tail not in c.vertices or e.head not in c.vertices:
            continue
        mid = tuple(Fraction(a + b, 2) for a, b in
                    zip(c.position(e.tail), c.position(e.head)))
        if d.contains(mid) and d.active(mid):
            issues.append(f"edge {i} runs inside the boundary")

    # boundary points
    boundary = []
    punctures = 0
    for end in c.ends():
        key = (end.edge_index, end.endpoint)
        if end.kind == "endpoint":
            pt = c.position(end.endpoint)
            if not d.contains(pt):
                issues.append(f"endpoint {end.endpoint} outside the domain")
                continue
            if not d.active(pt):
                issues.append(
                    f"endpoint {end.endpoint} is interior to the domain")
                continue
            boundary.append(classify_point_on_edge(c, d, pt, end.edge_index,
                                                   end.outward, key))
        else:
            base = c.position(end.attach)
            t = _ray_exit(d, base, end.outward)
            if t is None:
                punctures += 1
                continue
            if t <= 0:
                issues.append(f"ray {end.edge_index} starts on the boundary")
                continue
            pt = vec_add(base, vec_scale(t, end.outward))
            boundary.append(classify_point_on_edge(c, d, pt, end.edge_index,
                                                   end.outward, key))

    for info in boundary:
        if info.kind not in ("MOMENTUM2", "BISSECTRICE"):
            issues.append(
                f"boundary point {info.point} on edge {info.edge_index} "
                f"is {info.kind} {info.note}".rstrip())

    pts = [info.point for info in boundary]
    if len(set(pts)) != len(pts):
        issues.append("two curve ends meet the boundary at the same point")
    vertex_positions = {c.position(v) for v in c.trivalent_vertices()}
    for info in boundary:
        if info.point in vertex_positions:
            issues.append(f"boundary point {info.point} is a curve vertex")

    try:
        crossings = tuple(c2 for c2 in curve_self_crossings(c, d)
                          if d.contains(c2["point"]))
    except WorkbenchError as err:
        if err.code != "NON_FINITE_SIGMA":
            raise
        issues.append("self-intersection locus is not finite")
        crossings = ()
    cross_pts = {cr["point"] for cr in crossings}
    for info in boundary:
        if info.point in cross_pts:
            issues.append(
                f"boundary point {info.point} is a self-intersection")
    for pt in cross_pts:
        if pt in vertex_positions:
            issues.append(f"vertex at {pt} lies on another edge")

    j = sum(1 for b in boundary if b.kind == "MOMENTUM2")
    n_biss = sum(1 for b in boundary if b.kind == "BISSECTRICE")
    return EvennessReport(not issues, tuple(issues), tuple(boundary),
                          j, n_biss, punctures, crossings)


def require_even_primitive(c, d, relaxed=False):
    rep = check_even_primitive(c, d, relaxed)
    if not rep.ok:
        raise WorkbenchError("NOT_EVEN_PRIMITIVE", "; ".join(rep.issues))
    return rep


# ---------------------------------------------------------------------------
# wave fronts


def _rational_direction(diff):
    """Primitive integer vector parallel to a rational displacement."""
    denom = 1
    for x in diff:
        denom = lcm(denom, Fraction(x).denominator)
    return primitive_raw(tuple(int(x * denom) for x in diff))


def _polygon_vertices(d: PolyhedralDomain, offsets):
    verts = []
    n = len(d.facets)
    for i in range(n):
        for j in range(i + 1, n):
            sol = solve_exact([list(d.facets[i].normal),
                               list(d.facets[j].normal)],
                              [offsets[i], offsets[j]])
            if sol.status != "unique":
                continue
            x = sol.solution
            vals = [dot(d.facets[k].normal, x) - offsets[k]
                    for k in range(n)]
            if any(v < 0 for v in vals):
                continue
            active = tuple(k for k, v in enumerate(vals) if v == 0)
            verts.append({"point": tuple(x), "pair": (i, j),
                          "active": active})
    return verts


def wavefront(d: PolyhedralDomain, delta) -> TropicalCurve:
    """Inner offset boundary plus corner segments of a Delzant polygon.

    The result is an even primitive curve whose boundary points are the
    vertices of the polygon, each a bissectrice point.
    """
    if d.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH", "wavefront needs dim 2")
    delta = Fraction(delta)
    if delta <= 0:
        raise WorkbenchError("INVALID_DELTA", "delta must be positive")
    require_delzant(d)

    outer = _polygon_vertices(d, [f.offset for f in d.facets])
    if not outer:
        raise WorkbenchError("INVALID_DOMAIN",
                             "domain has no vertices to connect")
    inner_off = [f.offset + delta for f in d.facets]
    inner = _polygon_vertices(d, inner_off)
    if {v["pair"] for v in outer} != {v["pair"] for v in inner} or \
            any(v["active"] != v["pair"] for v in inner) or \
            any(v["active"] != v["pair"] for v in outer) or \
            len({v["point"] for v in inner}) != len(inner):
        raise WorkbenchError("DELTA_TOO_LARGE",
                             "offset domain changes combinatorial type")

    inner.sort(key=lambda v: v["pair"])
    index_of = {v["pair"]: k for k, v in enumerate(inner)}
    vertices = []
    edges = []
    for k, v in enumerate(inner):
        vertices.append((f"w{k}", v["point"]))
    for k, (vi, vo) in enumerate(zip(inner, sorted(outer,
                                                   key=lambda v: v["pair"]))):
        vertices.append((f"b{k}", vo["point"]))
        edges.append(Edge(f"w{k}", f"b{k}",
                          _rational_direction(vec_sub(vo["point"],
                                                      vi["point"])),
                          1, None))

    # boundary edges of the inner polygon, one per facet
    for fidx in range(len(d.facets)):
        on_facet = [v for v in inner if fidx in v["pair"]]
        if len(on_facet) == 2:
            a, b = on_facet
            ka, kb = index_of[a["pair"]], index_of[b["pair"]]
            if ka > kb:
                a, b, ka, kb = b, a, kb, ka
            edges.append(Edge(f"w{ka}", f"w{kb}",
                              _rational_direction(vec_sub(b["point"],
                                                          a["point"])),
                              1, None))
        elif len(on_facet) == 1:
            # unbounded facet: a ray along the facet line
            v = on_facet[0]
            k = index_of[v["pair"]]
            z = rot90(d.facets[fidx].normal)
            others = [d.facets[m].normal for m in range(len(d.facets))
                      if m != fidx]
            if all(dot(p, z) >= 0 for p in others):
                pass
            elif all(dot(p, vec_neg(z)) >= 0 for p in others):
                z = vec_neg(z)
            else:
                raise WorkbenchError("INVALID_DOMAIN",
                                     f"facet {fidx} has one vertex but no "
                                     f"recession direction")
            edges.append(Edge(f"w{k}", None, z, 1, None))
        else:
            raise WorkbenchError("DELTA_TOO_LARGE",
                                 f"facet {fidx} supports no inner edge")

    curve = TropicalCurve(2, vertices, edges)
    vrep = validate_curve(curve)
    if not vrep.ok:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "wavefront failed validation: "
                             + "; ".join(vrep.issues))
    return curve


# ---------------------------------------------------------------------------
# suitability of a boundary line configuration


def _leaf_line_intersection(base, direction, line: Line):
    n = len(base)
    rows = [[direction[k], -line.direction[k]] for k in range(n)]
    rhs = [line.point[k] - base[k] for k in range(n)]
    sol = solve_exact(rows, rhs)
    if sol.status != "unique":
        return None
    t, _ = sol.solution
    if t < 0:
        return None
    return vec_add(base, vec_scale(t, direction))


def _in_convex_hull(x, pts, dim):
    """Exact membership of x in the convex hull of pts (Caratheodory)."""
    for size in range(1, dim + 2):
        for sub in itertools.combinations(pts, size):
            rows = [[Fraction(1)] * size]
            for k in range(dim):
                rows.append([q[k] for q in sub])
            rhs = [Fraction(1)] + [x[k] for k in range(dim)]
            sol = solve_exact(rows, rhs)
            if sol.status == "unique" and all(l >= 0 for l in sol.solution):
                return True
    return False


@dataclass(frozen=True)
class SuitabilityReport:
    per_line: tuple   # dicts: crossPrimitive, isHullVertex, point
    ok: bool

    def as_dict(self):
        return {"perLine": [
            {"crossPrimitive": r["crossPrimitive"],
             "isHullVertex": r["isHullVertex"],
             "point": [str(x) for x in r["point"]]}
            for r in self.per_line], "pass": self.ok}


def suitability_check(c: TropicalCurve,
                      lines: LineConfiguration) -> SuitabilityReport:
    """Necessary conditions for a suitable Delzant domain to exist.

    Per line: the cross product of the leaf degree vector with the line
    direction must be primitive, and the intersection point must be a
    vertex of the convex hull of all intersection points.
    """
    ends = c.ends()
    if len(ends) != len(lines):
        raise WorkbenchError("NOT_BOUNDARY_CONFIG",
                             f"{len(lines)} lines for {len(ends)} leaves")
    points = []
    for end, line in zip(ends, lines.lines):
        base = c.position(end.attach)
        pt = _leaf_line_intersection(base, end.outward, line)
        if pt is None:
            raise WorkbenchError(
                "NOT_BOUNDARY_CONFIG",
                f"line {end.label} does not meet its leaf")
        points.append(pt)
    per_line = []
    all_ok = True
    for i, (end, line) in enumerate(zip(ends, lines.lines)):
        cp = content(cross(end.dh(), line.direction)) == 1
        others = [p for j, p in enumerate(points) if j != i]
        hull_vertex = not _in_convex_hull(points[i], others, c.dim)
        per_line.append({"crossPrimitive": cp, "isHullVertex": hull_vertex,
                         "point": points[i]})
        all_ok = all_ok and cp and hull_vertex
    return SuitabilityReport(tuple(per_line), all_ok)


# ---------------------------------------------------------------------------
# corner basis (the lattice-basis decomposition at a bissectrice point)


def corner_basis(d_vec, z_vec):
    """a, b in Z^3 with a + b == -d and (a, b, z) a lattice basis.

    Exists precisely when d x z is primitive; the output is the
    deterministic extended-gcd solution.
    """
    w = cross(d_vec, z_vec)
    if is_zero(w):
        raise WorkbenchError("NO_BASIS", "d and z are parallel")
    if content(w) != 1:
        raise WorkbenchError("NO_BASIS",
                             f"d x z = {w} is not primitive")
    a = solve_dot(w, 1)
    b = vec_sub(vec_neg(d_vec), a)
    if vec_add(a, b) != tuple(vec_neg(d_vec)) or abs(mixed(a, b, z_vec)) != 1:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "corner basis identities failed")
    return tuple(a), tuple(b)
