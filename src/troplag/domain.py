"""Delzant polyhedral domains and curve boundary classification.

A domain is an intersection of rational half-spaces {x : p . x >= a}
with primitive integer inner normals p.  The module classifies the
points where a curve meets the boundary (codimension, boundary momenta,
bissectrice test), checks the even/primitive conditions, generates wave
fronts, and runs the suitability test for boundary line configurations.

All feasibility questions are decided exactly, in integers: Fourier-
Motzkin elimination over integer rows, and points in homogeneous
coordinates (Y, D), integers with D > 0, meaning Y / D.  A facet test
clears a point's denominators once and reads the sign of an integer
expression.  A `Fraction` is built only where a point leaves the module.
The Delzant check visits the faces of the domain, not its facet
subsets: from each face it asks, for every facet, for a relative-
interior point of the face where that facet is tight, and the facets
tight at that point name the smaller face.  That is one Fourier-Motzkin
pass in at most dim variables per face and facet, so the check is
polynomial in the facet count for a fixed dimension, non-simple corners
included.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .curve import TropicalCurve, Edge, as_rational, validate_curve
from .errors import Record, WorkbenchError
from .lattice import (content, cross, dot, elementary_divisors, is_zero,
                      mixed, primitive_raw, rank_exact, rot90, solve_bareiss,
                      solve_dot, vec_add, vec_neg, vec_scale, vec_sub)


class Facet(Record):
    __slots__ = ("normal", "offset")

    def __init__(self, normal: tuple, offset: Fraction):
        self.normal = normal  # primitive integer inner normal
        self.offset = offset


class PolyhedralDomain:
    def __init__(self, dim, facets):
        self.dim = dim
        self.facets = tuple(
            f if isinstance(f, Facet)
            else Facet(tuple(f["normal"]), as_rational(f["offset"]))
            for f in facets)

    def _values(self, x):
        """An integer with the sign of p . x - a for each facet p . x >= a:
        with a = m / q and x = X / L, it is q (p . X) - m L."""
        L = lcm(*(v.denominator for v in x))
        X = [v.numerator * (L // v.denominator) for v in x]
        return [f.offset.denominator * dot(f.normal, X)
                - f.offset.numerator * L for f in self.facets]

    def contains(self, x):
        return all(v >= 0 for v in self._values(x))

    def active(self, x):
        return tuple(j for j, v in enumerate(self._values(x)) if v == 0)

    def locate(self, x):
        """The facets active at x, or None when x lies outside: contains
        and active from one evaluation of the facets."""
        values = self._values(x)
        if any(v < 0 for v in values):
            return None
        return tuple(j for j, v in enumerate(values) if v == 0)


class Line(Record):
    __slots__ = ("point", "direction")

    def __init__(self, point: tuple, direction: tuple):
        self.point = point          # rational base point
        self.direction = direction  # primitive integer direction


class LineConfiguration:
    def __init__(self, lines):
        self.lines = tuple(
            l if isinstance(l, Line)
            else Line(tuple(as_rational(c) for c in l["point"]),
                      tuple(l["dir"]))
            for l in lines)
        for l in self.lines:
            if is_zero(l.direction):
                raise WorkbenchError("INVALID_LINES", "zero line direction")

    def __len__(self):
        return len(self.lines)


# ---------------------------------------------------------------------------
# exact face points (Fourier-Motzkin, integer homogeneous coordinates)


def _fm_point(ineqs, nvars):
    """A relative-interior point of {y : co . y >= rhs} and the dimension
    of that set, or None if it is empty.

    ineqs: (co, rhs) pairs of integers in nvars variables.  The point is
    returned as (Y, D), integers with D > 0, meaning y = Y / D.  Fourier-
    Motzkin elimination of the last variable gives the exact projection
    onto the leading ones, down to the first.  Back-substitution then
    puts each coordinate at the middle of the interval its fibre leaves
    open (one past a single bound, 0 with none), and the set is empty
    exactly when the first interval is.  Each prefix so chosen lies in
    the relative interior of its projection, hence so does the point
    (Rockafellar, Convex Analysis, Thm. 6.6 and Cor. 6.5.1), and the
    fibres of positive length count the dimension.  A bound on D * y_k
    is kept as a pair (num, den) with den > 0 and compared by cross-
    multiplying.
    """
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
    Y = []
    D = 1
    dim = 0
    for system in reversed(levels):
        k = len(Y)
        lo = hi = None
        for co, rhs in system:
            ck = co[k]
            if ck == 0:
                continue
            # ck * (D * y_k) >= num
            num = rhs * D - sum(c * v for c, v in zip(co, Y))
            if ck > 0:
                if lo is None or num * lo[1] > lo[0] * ck:  # num / ck > lo
                    lo = (num, ck)
            elif hi is None or num * hi[1] > hi[0] * ck:    # num / ck < hi
                hi = (-num, -ck)
        if lo is None and hi is None:
            num, den, wide = 0, 1, True
        elif hi is None:
            num, den, wide = lo[0] + lo[1] * D, lo[1], True
        elif lo is None:
            num, den, wide = hi[0] - hi[1] * D, hi[1], True
        else:
            gap = hi[0] * lo[1] - lo[0] * hi[1]
            if gap < 0:
                return None   # only at k = 0: the later fibres are projections
            num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
            wide = gap > 0
        # y_k = num / (den * D)
        g = gcd(num, den)
        num, den = num // g, den // g
        Y = [v * den for v in Y]
        Y.append(num)
        D *= den
        dim += wide
    return (tuple(Y), D), dim


def _frame(domain, tight):
    """Coordinates on the affine span of the points where `tight` is tight.

    The span is x0 + sum of y_i * kernel[i] over integer kernel vectors.
    Returns (kernel, rows): the kernel vectors, one per coordinate y_i,
    and rows[j] = (co, rhs), integers meaning co . y >= rhs, for each
    facet j not in `tight`.  With x0 = num / d from the fraction-free
    solve and a facet p . x >= a / q, the row is q d (p . k_i) y_i >=
    a d - q p . num, divided by the gcd of a d - q p . num and q d,
    taken with the sign of q d.  `tight` must be consistent.
    """
    if tight:
        # each facet p . x >= a / q as the integer row (q p) . x >= a
        facets = [domain.facets[j] for j in tight]
        d, num, kernel = solve_bareiss(
            [vec_scale(f.offset.denominator, f.normal) for f in facets],
            [f.offset.numerator for f in facets])
        # kernel[i] / d is the reduced-echelon kernel vector; keeping its
        # orientation keeps the points the face search visits
        kernel = tuple(primitive_raw(k if d > 0 else vec_neg(k))
                       for k in kernel)
    else:
        d, num = 1, (0,) * domain.dim
        kernel = tuple(tuple(int(i == j) for i in range(domain.dim))
                       for j in range(domain.dim))
    rows = {}
    for j, f in enumerate(domain.facets):
        if j not in tight:
            a, q = f.offset.numerator, f.offset.denominator
            rhs, den = a * d - q * dot(f.normal, num), q * d
            g = gcd(rhs, den) if den > 0 else -gcd(rhs, den)
            rows[j] = (tuple(dot(f.normal, k) * (den // g) for k in kernel),
                       rhs // g)
    return kernel, rows


def _tight_at(tight, rows, point):
    """The facets tight at the point (Y, D) of a frame, in index order."""
    Y, D = point
    return tuple(sorted(tight + tuple(j for j, (co, rhs) in rows.items()
                                      if dot(co, Y) == rhs * D)))


def _face_sets(domain):
    """Closed active set of every nonempty face, or None for an empty domain.

    The closed active set of a face holds every facet tight on all of
    it; it is the set of facets tight at any relative-interior point.
    The search starts at the whole domain, whose set holds the implicit
    equalities of a lower-dimensional domain.  From each face F of
    positive dimension with set S it tries each facet j not in S: one
    Fourier-Motzkin pass, in F's own coordinates, finds a relative-
    interior point of the face of F where j is tight, if that face is
    nonempty, and so its set.  Every face is reached, because a maximal
    proper face of F is the face of F where any of its extra facets is
    tight.  The cost is one exact solve per face of positive dimension
    and n passes in at most dim variables from each: polynomial in the
    facet count n for a fixed dimension, even where many facets meet.
    """
    kernel, rows = _frame(domain, ())
    top = _fm_point(list(rows.values()), len(kernel))
    if top is None:
        return None
    root = (_tight_at((), rows, top[0]), top[1])
    seen = {root[0]}
    stack = [root]
    while stack:
        S, dim = stack.pop()
        if dim == 0:
            continue  # a point: every facet meeting it is already in S
        kernel, rows = _frame(domain, S)
        face = list(rows.values())
        for co, rhs in rows.values():
            found = _fm_point(face + [(vec_neg(co), -rhs)], len(kernel))
            if found is None:
                continue
            closed = _tight_at(S, rows, found[0])
            if closed not in seen:
                seen.add(closed)
                stack.append((closed, found[1]))
    return seen


# ---------------------------------------------------------------------------
# Delzant validation


class DelzantFailure(Record):
    __slots__ = ("facets", "problem", "index")

    def __init__(self, facets: tuple, problem: str, index: int | None):
        self.facets = facets
        self.problem = problem  # "saturation" | "non_simple"
        self.index = index

    def as_dict(self):
        return {"facets": list(self.facets), "problem": self.problem,
                "index": self.index}


class DelzantReport(Record):
    __slots__ = ("ok", "issues", "failures")

    def __init__(self, ok: bool, issues: tuple = (), failures: tuple = ()):
        self.ok = ok
        self.issues = issues
        self.failures = failures

    def as_dict(self):
        return {"ok": self.ok, "issues": list(self.issues),
                "failures": [f.as_dict() for f in self.failures]}


def validate_delzant(d: PolyhedralDomain) -> DelzantReport:
    """Saturation test at every nonempty boundary stratum.

    A stratum is the relative interior of a face, and its active facet
    set S is the face's closed active set.  It passes when the primitive
    normals indexed by S generate a saturated sublattice (all Smith
    divisors 1).  Strata met by more facets than their codimension are
    flagged as non-simple.  A facet whose index alone is no such set
    supports no facet of the domain and is reported as redundant.  An
    empty domain raises EMPTY_DOMAIN.

    The sets come from a search over the faces (`_face_sets`), not over
    all 2^n facet subsets of n facets.  It costs one exact solve per face
    of positive dimension and at most n Fourier-Motzkin passes, in at
    most dim variables, from each: n^2 + 1 passes for an n-gon, and
    3n^2 - 6n + 5 for a pyramid over an (n - 1)-gon, whose apex lies on
    n - 1 facets.  Strata are reported ordered by (size, indices), as
    the subset search found them.
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
    strata = _face_sets(d)
    if strata is None:
        raise WorkbenchError("EMPTY_DOMAIN", "domain has no points")
    for j in range(len(d.facets)):
        if (j,) not in strata:
            issues.append(f"facet {j} is redundant (supports no facet)")
    for S in sorted((S for S in strata if len(S) >= 2),
                    key=lambda S: (len(S), S)):
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


class EdgeGeometry(Record):
    __slots__ = ("edge_index", "base", "direction", "tmax")

    def __init__(self, edge_index: int, base: tuple, direction: tuple,
                 tmax: Fraction | None):
        self.edge_index = edge_index
        self.base = base            # rational start point
        self.direction = direction  # primitive integer direction
        self.tmax = tmax            # None for an unclipped ray

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


class BoundaryPointInfo(Record):
    __slots__ = ("point", "edge_index", "active", "codim", "momenta", "kind",
                 "z_direction", "weight", "note", "end_key")

    def __init__(self, point: tuple, edge_index: int, active: tuple,
                 codim: int, momenta: tuple, kind: str,
                 z_direction: tuple | None, weight: int, note: str = "",
                 end_key: tuple | None = None):
        self.point = point
        self.edge_index = edge_index
        self.active = active
        self.codim = codim
        self.momenta = momenta  # ((facet index, |p . dh|), ...)
        self.kind = kind        # INTERIOR | MOMENTUM2 | BISSECTRICE | OTHER
        self.z_direction = z_direction
        self.weight = weight
        self.note = note
        self.end_key = end_key  # (edge index, endpoint vertex or None)

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
    active = domain.locate(point)
    if active is None:
        raise WorkbenchError("OUTSIDE_DOMAIN",
                             f"{point} violates a facet inequality")
    return _classify_at(c, domain, point, active, edge_index, outward,
                        end_key)


def _classify_at(c, domain, point, active, edge_index, outward, end_key):
    """classify_point_on_edge for a point in the domain whose active
    facets are known."""
    e = c.edges[edge_index]
    dh = vec_scale(e.weight, outward)
    if not active:
        return BoundaryPointInfo(point, edge_index, (), 0, (), "INTERIOR",
                                 None, e.weight, "", end_key)
    normals = [domain.facets[j].normal for j in active]
    codim = rank_exact(normals)
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


class EvennessReport(Record):
    __slots__ = ("ok", "issues", "boundary", "j", "bissectrice", "punctures",
                 "crossings", "delzant")

    def __init__(self, ok: bool, issues: tuple, boundary: tuple, j: int,
                 bissectrice: int, punctures: int, crossings: tuple,
                 delzant: DelzantReport | None = None):
        self.ok = ok
        self.issues = issues
        # BoundaryPointInfo per end hitting the boundary
        self.boundary = boundary
        self.j = j  # number of MOMENTUM2 points
        self.bissectrice = bissectrice
        # ends escaping to infinity inside the domain
        self.punctures = punctures
        # transverse double points inside the domain
        self.crossings = crossings
        self.delzant = delzant  # None when the curve is invalid

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
        return EvennessReport(False, drep.issues, (), 0, 0, 0, (), drep)
    if c.dim != d.dim:
        return EvennessReport(False, ("curve and domain dimension differ",),
                              (), 0, 0, 0, (), drep)

    # active facets per vertex, None outside: each point is located once
    where = {vid: d.locate(c.position(vid)) for vid in c.vertices}
    for vid, at in where.items():
        if at is None:
            issues.append(f"vertex {vid} lies outside the domain")
    interior = {vid: not at for vid, at in where.items() if at is not None}

    # vertex shape conditions
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
        if d.locate(mid):
            issues.append(f"edge {i} runs inside the boundary")

    # boundary points
    boundary = []
    punctures = 0
    for end in c.ends():
        key = (end.edge_index, end.endpoint)
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
                                         end.edge_index, end.outward, key))
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
                          j, n_biss, punctures, crossings, drep)


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
    d, num, kernel = solve_bareiss(rows, rhs)
    if num is None or kernel:
        return None
    t = Fraction(num[0], d)
    if t < 0:
        return None
    return vec_add(base, vec_scale(t, direction))


def _in_convex_hull(x, pts, dim):
    """Exact membership of x in the convex hull of pts.

    x lies outside exactly when some a separates it strictly, which,
    scaled, is a . (p - x) >= 1 for every p in pts (Farkas).  Each row
    is cleared to integers for `_fm_point`.
    """
    rows = []
    for p in pts:
        diff = vec_sub(p, x)
        L = lcm(*(v.denominator for v in diff))
        rows.append((tuple(v.numerator * (L // v.denominator)
                           for v in diff), L))
    return _fm_point(rows, dim) is None


class SuitabilityReport(Record):
    __slots__ = ("per_line", "ok")

    def __init__(self, per_line: tuple, ok: bool):
        self.per_line = per_line  # dicts: crossPrimitive, isHullVertex, point
        self.ok = ok

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
