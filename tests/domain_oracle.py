"""The Fraction versions of the face-search kernels and facet tests that
``troplag.domain`` used before it moved to integer homogeneous
coordinates, and the all-pairs routines it used before its planar
pipeline lost its quadratic passes, kept as an independent reference
for the tests.  `face_sets` is the face search as it was before a face
of dimension 2 read its edges and vertices off one integer line scan:
one Fourier-Motzkin pass per face of dimension >= 2 and facet.

A few adaptations, all at the edges: `frame` returns its kernel vectors
rather than their number, and `contains` / `active` take the domain as
their first argument (they were methods, with `Facet.value` inlined).
`polygon_vertices_int` is the integer form of `polygon_vertices` that
`wavefront` used; the test-only `wavefront` builds on it and checks the
domain with `validate_delzant` in place of the removed
`require_delzant`.  `check_even_primitive` is the test as it was before
it wrote a curve over one common denominator: every point located in
Fractions, one midpoint per bounded edge, the ray exits from `_ray_exit`
and the crossings from the all-pairs `curve_self_crossings`, over the
Fraction edge geometries (`edge_geometries`) that the package no longer
uses; a ray that meets the boundary outside the domain is an issue of
its report, as in the package.
`_ray_exit` is the Fraction ray exit the package had before it computed
exits from a curve's integer coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from troplag.curve import Edge, TropicalCurve, point_text, validate_curve
from troplag.domain import (EvennessReport, _classify_at, _fm_point, _frame,
                            _tight_at, validate_delzant)
from troplag.errors import Record, WorkbenchError
from troplag.lattice import (dot, primitive_raw, rank_exact, rot90,
                             solve_bareiss, vec_add, vec_neg, vec_scale,
                             vec_sub)


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


def fm_point(ineqs, nvars):
    """A relative-interior point of {y : co . y >= rhs} and the dimension
    of that set, or None if it is empty."""
    levels = []
    for k in reversed(range(nvars)):
        levels.append(ineqs)
        if k == 0:
            break
        pos, neg, new = [], [], []
        for co, rhs in ineqs:
            ck = co[k]
            if ck > 0:
                pos.append((co, rhs))
            elif ck < 0:
                neg.append((co, rhs))
            else:
                new.append((co[:k], rhs))
        for a, r1 in pos:
            for b, r2 in neg:
                ca, cb = a[k], b[k]
                co = tuple(-cb * a[i] + ca * b[i] for i in range(k))
                new.append((co, -cb * r1 + ca * r2))
        ineqs = new
    if any(rhs > 0 for co, rhs in ineqs if not any(co)):
        return None
    y = []
    dim = 0
    for system in reversed(levels):
        k = len(y)
        lo = hi = None
        for co, rhs in system:
            ck = co[k]
            if ck == 0:
                continue
            t = Fraction(rhs - sum(c * v for c, v in zip(co, y)), ck)
            if ck > 0:
                lo = t if lo is None else max(lo, t)
            else:
                hi = t if hi is None else min(hi, t)
        if lo is None and hi is None:
            t = Fraction(0)
        elif hi is None:
            t = lo + 1
        elif lo is None:
            t = hi - 1
        elif lo <= hi:
            t = (lo + hi) / 2
        else:
            return None   # only at k = 0: the later fibres are projections
        y.append(t)
        dim += lo is None or hi is None or lo < hi
    return tuple(y), dim


def frame(domain, tight):
    """(kernel, rows): the integer kernel vectors spanning the affine span
    of the points where `tight` is tight, and rows[j] = (co, rhs) meaning
    co . y >= rhs for each facet j not in `tight`."""
    if tight:
        d, num, kernel = solve_bareiss(
            [domain.facets[j].normal for j in tight],
            [domain.facets[j].offset for j in tight])
        x0 = tuple(Fraction(v, d) for v in num)
        # kernel[i] / d is the reduced-echelon kernel vector; keeping its
        # orientation keeps the points the face search visits
        kernel = tuple(primitive_raw(k if d > 0 else vec_neg(k))
                       for k in kernel)
    else:
        x0 = tuple(Fraction(0) for _ in range(domain.dim))
        kernel = tuple(tuple(int(i == j) for i in range(domain.dim))
                       for j in range(domain.dim))
    rows = {}
    for j, f in enumerate(domain.facets):
        if j not in tight:
            rhs = Fraction(f.offset - dot(f.normal, x0))
            rows[j] = (tuple(dot(f.normal, k) * rhs.denominator
                             for k in kernel), rhs.numerator)
    return kernel, rows


def tight_at(tight, rows, y):
    """The facets tight at the point y of a frame, in index order."""
    return tuple(sorted(tight + tuple(j for j, (co, rhs) in rows.items()
                                      if dot(co, y) == rhs)))


def face_sets(domain):
    """Closed active set of every nonempty face, or None for an empty
    domain: from each face of dimension >= 2, one `_fm_point` pass per
    facet not tight on it; an edge reads its endpoints off its frame."""
    rows = dict(enumerate(domain.rows))
    top = _fm_point(list(rows.values()), domain.dim)
    if top is None:
        return None
    root = (_tight_at((), rows, top[0]), top[1])
    nvars = domain.dim
    seen = {root[0]}
    stack = [root]
    while stack:
        S, dim = stack.pop()
        if dim == 0:
            continue
        if S:   # the root, popped first, keeps the domain's rows
            kernel, rows = _frame(domain, S)
            nvars = len(kernel)
        if dim == 1:
            lo = hi = None
            for (c,), r in rows.values():
                if c > 0:
                    if lo is None or r * lo[1] > lo[0] * c:
                        lo = (r, c)
                elif c < 0 and (hi is None or r * hi[1] > hi[0] * c):
                    hi = (-r, -c)
            for end in (lo, hi):
                if end is not None:
                    seen.add(_tight_at(S, rows, ((end[0],), end[1])))
            continue
        face = list(rows.values())
        for co, rhs in rows.values():
            found = _fm_point(face + [(vec_neg(co), -rhs)], nvars)
            if found is None:
                continue
            closed = _tight_at(S, rows, found[0])
            if closed not in seen:
                seen.add(closed)
                stack.append((closed, found[1]))
    return seen


def _value(f, x):
    return dot(f.normal, x) - f.offset


def contains(domain, x):
    return all(_value(f, x) >= 0 for f in domain.facets)


def active(domain, x):
    return tuple(j for j, f in enumerate(domain.facets) if _value(f, x) == 0)


def locate(domain, x):
    """The facets active at x, or None when x lies outside."""
    return active(domain, x) if contains(domain, x) else None


def polygon_vertices(d, offsets):
    verts = []
    n = len(d.facets)
    for i in range(n):
        for j in range(i + 1, n):
            det, num, kernel = solve_bareiss(
                [d.facets[i].normal, d.facets[j].normal],
                [offsets[i], offsets[j]])
            if kernel:
                continue
            x = tuple(Fraction(v, det) for v in num)
            vals = [dot(d.facets[k].normal, x) - offsets[k]
                    for k in range(n)]
            if any(v < 0 for v in vals):
                continue
            active = tuple(k for k, v in enumerate(vals) if v == 0)
            verts.append({"point": x, "pair": (i, j),
                          "active": active})
    return verts


# ---------------------------------------------------------------------------
# all-pairs self-crossings


class EdgeGeometry(Record):
    __slots__ = ("edge_index",
                 "base",       # rational start point
                 "direction",  # primitive integer direction
                 "tmax")       # None for an unclipped ray

    def point(self, t):
        return vec_add(self.base, vec_scale(t, self.direction))


def edge_geometries(c, domain=None):
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


def intersect_geometries(g1, g2):
    """Exact intersection of two realized edges.

    Returns ("point", point, t1, t2), ("overlap", None, None, None) for a
    shared segment of positive length, or None.
    """
    n = len(g1.base)
    rows = [[g1.direction[k], -g2.direction[k]] for k in range(n)]
    rhs = [g2.base[k] - g1.base[k] for k in range(n)]
    d, num, kernel = solve_bareiss(rows, rhs)
    if num is None:
        return None
    if not kernel:
        t1, t2 = Fraction(num[0], d), Fraction(num[1], d)
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


def curve_self_crossings(c, domain=None):
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
# the even/primitive test in Fractions


def check_even_primitive(c, d, relaxed=False):
    """Even/primitive test for a curve inside a Delzant domain."""
    issues = []
    vrep = validate_curve(c)
    if not vrep.ok:
        return EvennessReport(False, vrep.issues, (), 0, 0, 0, ())
    drep = validate_delzant(d)
    if not drep.ok:
        return EvennessReport(False, drep.issues, (), 0, 0, 0, (), drep)
    if c.dim != d.dim:
        return EvennessReport(False, ("curve and domain dimension differ",),
                              (), 0, 0, 0, (), drep)

    where = {vid: locate(d, c.position(vid)) for vid in c.vertices}
    for vid, at in where.items():
        if at is None:
            issues.append(f"vertex {vid} lies outside the domain")
    interior = {vid: not at for vid, at in where.items() if at is not None}

    for vid in c.trivalent_vertices():
        inc = c.incident(vid)
        if len(inc) != 3:
            issues.append(f"vertex {vid} has valence {len(inc)} > 3")
            continue
        dirs = [vec_scale(w, dd) for _, dd, w in inc]
        if rank_exact(dirs) != 2:
            issues.append(f"vertex {vid}: edges do not span a 2-plane")
        if vid in interior and not interior[vid]:
            issues.append(f"vertex {vid} lies on the boundary")

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

    for i, e in enumerate(c.edges):
        if not e.bounded:
            continue
        mid = tuple(Fraction(a + b, 2) for a, b in
                    zip(c.position(e.tail), c.position(e.head)))
        if locate(d, mid):
            issues.append(f"edge {i} runs inside the boundary")

    boundary = []
    punctures = 0
    for k, end in enumerate(c.ends()):
        if end.kind == "endpoint":
            at = where[end.endpoint]
            if at is None:
                issues.append(f"endpoint {end.endpoint} outside the domain")
                continue
            if not at:
                issues.append(
                    f"endpoint {end.endpoint} is interior to the domain")
                continue
            boundary.append(_classify_at(c, d, c.position(end.endpoint), at,
                                         end.edge_index, end.outward, k))
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
            at = locate(d, pt)
            if at is None:
                issues.append(f"ray {end.edge_index} meets the boundary "
                              "outside the domain")
                continue
            boundary.append(_classify_at(c, d, pt, at, end.edge_index,
                                         end.outward, k))

    for info in boundary:
        if info.kind not in ("MOMENTUM2", "BISSECTRICE"):
            issues.append(
                f"boundary point {point_text(info.point)} on edge "
                f"{info.edge_index} is {info.kind} {info.note}".rstrip())

    pts = [info.point for info in boundary]
    if len(set(pts)) != len(pts):
        issues.append("two curve ends meet the boundary at the same point")
    vertex_positions = {c.position(v) for v in c.trivalent_vertices()}
    for info in boundary:
        if info.point in vertex_positions:
            issues.append(f"boundary point {point_text(info.point)} "
                          "is a curve vertex")

    try:
        crossings = tuple(c2 for c2 in curve_self_crossings(c, d)
                          if contains(d, c2["point"]))
    except WorkbenchError as err:
        if err.code != "NON_FINITE_SIGMA":
            raise
        issues.append("self-intersection locus is not finite")
        crossings = ()
    cross_pts = {cr["point"] for cr in crossings}
    for info in boundary:
        if info.point in cross_pts:
            issues.append(f"boundary point {point_text(info.point)} "
                          "is a self-intersection")
    for pt in cross_pts:
        if pt in vertex_positions:
            issues.append(f"vertex at {point_text(pt)} lies on another edge")

    j = sum(1 for b in boundary if b.kind == "MOMENTUM2")
    n_biss = sum(1 for b in boundary if b.kind == "BISSECTRICE")
    return EvennessReport(not issues, tuple(issues), tuple(boundary),
                          j, n_biss, punctures, crossings, drep)


# ---------------------------------------------------------------------------
# wave fronts from all facet pairs


def polygon_vertices_int(d, offsets):
    """polygon_vertices in integers: every facet pair solved by the
    fraction-free elimination and tested against every facet."""
    # each facet p . x >= a / q as the integer row (q p) . x >= a
    rows = [(vec_scale(a.denominator, f.normal), a.numerator)
            for f, a in zip(d.facets, offsets)]
    verts = []
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            det, num, kernel = solve_bareiss(
                [rows[i][0], rows[j][0]], [rows[i][1], rows[j][1]])
            if kernel:
                continue
            if det < 0:
                det, num = -det, vec_neg(num)
            # at x = num / det, (q p) . x - a has the sign of
            # (q p) . num - a det
            vals = [dot(p, num) - a * det for p, a in rows]
            if any(v < 0 for v in vals):
                continue
            active = tuple(k for k, v in enumerate(vals) if v == 0)
            verts.append({"point": tuple(Fraction(v, det) for v in num),
                          "pair": (i, j), "active": active})
    return verts


def _rational_direction(diff):
    """Primitive integer vector parallel to a rational displacement."""
    denom = 1
    for x in diff:
        denom = lcm(denom, Fraction(x).denominator)
    return primitive_raw(tuple(int(x * denom) for x in diff))


def wavefront(d, delta):
    """Inner offset boundary plus corner segments of a Delzant polygon."""
    if d.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH", "wavefront needs dim 2")
    delta = Fraction(delta)
    if delta <= 0:
        raise WorkbenchError("INVALID_DELTA", "delta must be positive")
    rep = validate_delzant(d)
    if not rep.ok:
        raise WorkbenchError("INVALID_DOMAIN", "; ".join(rep.issues))

    outer = polygon_vertices_int(d, [f.offset for f in d.facets])
    if not outer:
        raise WorkbenchError("INVALID_DOMAIN",
                             "domain has no vertices to connect")
    inner_off = [f.offset + delta for f in d.facets]
    inner = polygon_vertices_int(d, inner_off)
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
