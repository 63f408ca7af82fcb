"""Delzant polyhedral domains and curve boundary classification.

A domain is an intersection of rational half-spaces {x : p . x >= a}
with primitive integer inner normals p.  The module classifies the
points where a curve meets the boundary (codimension, boundary momenta,
bissectrice test), checks the even/primitive conditions, generates wave
fronts, and runs the suitability test for boundary line configurations.

All feasibility questions are decided exactly, in integers: Fourier-
Motzkin elimination over integer rows, and points in homogeneous
coordinates (Y, D), integers with D > 0, meaning Y / D.  A point meets
the facets through one rule (`PolyhedralDomain._values`, `_located`).
A curve checked inside a domain is written once over one common
denominator (`_common_denominator`): its facet values, edge midpoints,
ray exits, boundary points (`_boundary_ends`) and crossing sweep are
integer-only, as are the leaf-line meets and the hull test.  A
`Fraction` is built only for a caller's point or a reported point.

The Delzant check visits the faces of the domain, not its facet subsets
(`_face_sets`).  A full-dimensional domain of dimension >= 3 is first
walked over its vertex graph (`_vertex_walk`): one exact ratio test per
edge (`_blocking`, products built column by column), O(E m) integer
operations for E edges and m facets, no elimination.  Where the walk
cannot certify the domain as simple and pointed, and in 2-D, the face
search (`_search_faces`) takes over: polynomial in the facet count for
a fixed dimension, non-simple corners included.  Every bound on one
parameter there, a fibre of the elimination or a line of a 2-face, goes
through one interval rule (`_interval`, `_inside`).  The rule also
reports the rows that attain each bound, so one pass over a line's rows
gives the closed sets of its edge and of the edge's lower end
(`_line_sets`).  A stratum inside a vertex set whose normals have
|det| = 1 is saturated; only the others need a Smith form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import add, le, mul

from .curve import (TropicalCurve, Edge, as_rational, int_vector,
                    least_denominator, over_one_denominator, point_text,
                    validate_curve)
from .errors import Record, WorkbenchError
from .lattice import (content, cross, det_bareiss, dot, elementary_divisors,
                      is_zero, mixed, primitive_raw, rank_exact, rot90,
                      solve_bareiss, solve_dot, vec_add, vec_neg, vec_scale,
                      vec_sub)


class Facet(Record):
    __slots__ = ("normal", "offset")

    # Hand-written: one Facet per input facet, faster than Record's loop.
    def __init__(self, normal: tuple, offset: Fraction):
        self.normal = normal  # primitive integer inner normal
        self.offset = offset


def _over(x, L):
    """The rational point x as integers over L > 0, or None when some
    coordinate's denominator does not divide L."""
    if any(L % v.denominator for v in x):
        return None
    return tuple([v.numerator * (L // v.denominator) for v in x])


def _as_facet(f):
    """A library caller's facet, a `Facet` or a dict with the keys of the
    JSON format, read as the reader reads it; a `Facet` so read is kept."""
    if not isinstance(f, Facet):
        f = Facet(f["normal"], f["offset"])
    normal, offset = int_vector(f.normal), as_rational(f.offset)
    return f if normal is f.normal and offset is f.offset \
        else Facet(normal, offset)


class PolyhedralDomain:
    def __init__(self, dim, facets):
        self.dim = dim
        self.facets = tuple(map(_as_facet, facets))
        # each facet p . x >= m / q as the integer row (q p, m)
        self.rows = tuple((vec_scale(f.offset.denominator, f.normal),
                           f.offset.numerator) for f in self.facets)

    def _values(self, X, L):
        """An integer with the sign of p . x - a for each facet p . x >= a
        at x = X / L, integers with L > 0: with the row (q p, m) it is
        (q p) . X - m L.  It is affine in (X, L), so the values of two
        points over one L add up to the values of their sum."""
        return [dot(qp, X) - m * L for qp, m in self.rows]

    def contains(self, x):
        (X,), L = over_one_denominator([x])
        return all(v >= 0 for v in self._values(X, L))

    def active(self, x):
        (X,), L = over_one_denominator([x])
        return tuple(j for j, v in enumerate(self._values(X, L)) if v == 0)


def _located(values):
    """The facets whose value is 0, or None when some value is negative
    (the point lies outside)."""
    if any(v < 0 for v in values):
        return None
    return tuple(j for j, v in enumerate(values) if v == 0)


class Line(Record):
    __slots__ = ("point", "direction", "denominator")

    # Hand-written: one Line per input line, faster than Record's loop.
    def __init__(self, point: tuple, direction: tuple, denominator=1):
        self.point = point              # the base point is point / denominator
        self.direction = direction      # primitive integer direction
        self.denominator = denominator  # a positive int


class LineConfiguration:
    """Lines whose base points are integer tuples over one positive
    common denominator, the least one: line j passes through
    lines[j].point / denominator, and each record holds that denominator.

    `lines` are `Line` records, or dicts with the keys of the JSON format.
    Records whose points and tuple directions hold exact ints, the points
    over one denominator, as the reader and every configuration build
    them, are taken as they are; any other point is read by `as_rational`
    over its record's denominator, and any other direction by `int_vector`."""

    def __init__(self, lines):
        lines = [l if isinstance(l, Line)
                 else Line(tuple(l["point"]), l["dir"]) for l in lines]
        points = [l.point for l in lines]
        dirs = [l.direction for l in lines]
        dens = {l.denominator for l in lines}
        if len(dens) == 1 and \
                not set(map(type, chain.from_iterable(points))) - {int}:
            points, denominator = least_denominator(points, dens.pop())
        else:
            points, denominator = over_one_denominator(
                [[as_rational(x) / l.denominator for x in l.point]
                 for l in lines])
        if set(map(type, dirs)) - {tuple} or \
                set(map(type, chain.from_iterable(dirs))) - {int}:
            dirs = list(map(int_vector, dirs))
        self.lines = tuple(
            l if l.point is p and l.direction is u and
            l.denominator == denominator else Line(p, u, denominator)
            for l, p, u in zip(lines, points, dirs))
        self.denominator = denominator
        if not all(map(any, (l.direction for l in self.lines))):
            raise WorkbenchError("INVALID_LINES", "zero line direction")

    def __len__(self):
        return len(self.lines)

    def point(self, j):
        """The base point of line j as a tuple of Fractions."""
        L = self.denominator
        return tuple([Fraction(x, L) for x in self.lines[j].point])


# ---------------------------------------------------------------------------
# exact face points (Fourier-Motzkin, integer homogeneous coordinates)


def _interval(rows):
    """The s with c s >= b for every integer pair (c, b) in rows, as
    (lo, hi, flat), or None when no s fits, in one pass over the rows.

    Each end is (num, den, at) with den > 0, meaning num / den, and `at`
    the positions in rows of the pairs that attain it: c > 0 and
    b / c = lo at the lower end, c < 0 and b / c = hi at the upper one.
    An end is None on a side left open.  flat lists the positions of the
    pairs 0 s >= 0, which hold with equality for every s.  A pair 0 s >= b
    with b > 0 empties the set at once, and the rows after it are not
    read.
    """
    lo = hi = None
    flat = []
    for i, (c, b) in enumerate(rows):
        if c > 0:
            # the sign of b / c - lo
            key = 1 if lo is None else b * lo[1] - lo[0] * c
            if key > 0:
                lo = (b, c, [i])
            elif key == 0:
                lo[2].append(i)
        elif c < 0:
            # the sign of hi - b / c
            key = 1 if hi is None else b * hi[1] - hi[0] * c
            if key > 0:
                hi = (-b, -c, [i])
            elif key == 0:
                hi[2].append(i)
        elif b > 0:
            return None
        elif b == 0:
            flat.append(i)
    if lo is not None and hi is not None and hi[0] * lo[1] < lo[0] * hi[1]:
        return None
    return lo, hi, flat


def _inside(lo, hi, step):
    """A relative-interior point (num, den) of the interval from lo to
    hi, as `_interval` gives them, and the interval's dimension: 1, or 0
    for a single point.  The point is the midpoint, `step` past a single
    bound, or 0 on the whole line."""
    if lo is None:
        if hi is None:
            return (0, 1), 1
        return (hi[0] - hi[1] * step, hi[1]), 1
    if hi is None:
        return (lo[0] + lo[1] * step, lo[1]), 1
    return ((lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]),
            int(hi[0] * lo[1] != lo[0] * hi[1]))


def _fm_point(ineqs, nvars):
    """A relative-interior point of {y : co . y >= rhs} and the dimension
    of that set, or None if it is empty.

    ineqs: (co, rhs) pairs of integers in nvars variables.  The point is
    returned as (Y, D), integers with D > 0, meaning y = Y / D.  Fourier-
    Motzkin elimination of the last variable gives the exact projection
    onto the leading ones, down to the first.  Back-substitution then
    puts each coordinate inside the interval its fibre leaves open
    (`_inside`, with step D), and the set is empty exactly when the first
    interval is.  Each prefix so chosen lies in the relative interior of
    its projection, hence so does the point (Rockafellar, Convex
    Analysis, Thm. 6.6 and Cor. 6.5.1), and the fibres of positive length
    count the dimension.
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
        # co[k] * (D * y_k) >= rhs * D - co . Y
        bounds = _interval((co[k], rhs * D - sum(map(mul, co, Y)))
                           for co, rhs in system if co[k])
        if bounds is None:
            return None   # only at k = 0: the later fibres are projections
        (num, den), fibre_dim = _inside(bounds[0], bounds[1], D)
        # y_k = num / (den * D)
        g = gcd(num, den)
        num, den = num // g, den // g
        Y = [v * den for v in Y]
        Y.append(num)
        D *= den
        dim += fibre_dim
    return (tuple(Y), D), dim


def _frame(domain, tight):
    """Coordinates on the affine span of the points where `tight`, a
    nonempty consistent facet set, is tight.

    The span is x0 + sum of y_i * kernel[i] over integer kernel vectors.
    Returns (kernel, rows): the kernel vectors, one per coordinate y_i,
    and rows[j] = (co, rhs), integers meaning co . y >= rhs, for each
    facet j not in `tight`.  With x0 = num / d, d > 0, from the
    fraction-free solve and the domain's row (q p) . x >= m, the row is
    d (q p . k_i) y_i >= m d - q p . num, divided by the gcd of the
    right-hand side and d.
    """
    tight_rows = [domain.rows[j] for j in tight]
    d, num, kernel = solve_bareiss([qp for qp, _ in tight_rows],
                                   [m for _, m in tight_rows])
    # kernel[i] / d is the reduced-echelon kernel vector; keeping its
    # orientation keeps the points the face search visits
    if d < 0:
        d, num, kernel = -d, vec_neg(num), [vec_neg(k) for k in kernel]
    kernel = tuple(primitive_raw(k) for k in kernel)
    rows = {}
    for j, (qp, m) in enumerate(domain.rows):
        if j not in tight:
            rhs = m * d - dot(qp, num)
            g = gcd(rhs, d)
            rows[j] = (tuple(dot(qp, k) * (d // g) for k in kernel),
                       rhs // g)
    return kernel, rows


def _tight_at(tight, rows, point):
    """The facets tight at the point (Y, D) of a frame, in index order."""
    Y, D = point
    return tuple(sorted(tight + tuple(j for j, (co, rhs) in rows.items()
                                      if dot(co, Y) == rhs * D)))


def _line_sets(tight, facets, line):
    """The closed active sets at a relative-interior point of the s with
    c s >= b for every (c, b) in line, and at its lower end when it has
    one; none when no s fits.  The i-th pair of line comes from the row
    of facets[i], and the facets in `tight` hold with equality for every
    s.  The one pass of `_interval` over line gives them: the rows 0 s >=
    0 are tight everywhere, so they alone are tight at an interior point
    of a segment, and its lower end adds the rows that attain that bound.
    At a single point both ends' rows are tight.  So each row of line is
    read once.
    """
    bounds = _interval(line)
    if bounds is None:
        return ()
    lo, hi, flat = bounds
    inner = [*tight, *[facets[i] for i in flat]]
    if lo is None:
        return [tuple(sorted(inner))]
    at_lo = inner + [facets[i] for i in lo[2]]
    if hi is not None and hi[0] * lo[1] == lo[0] * hi[1]:
        return [tuple(sorted(at_lo + [facets[i] for i in hi[2]]))]
    return [tuple(sorted(inner)), tuple(sorted(at_lo))]


def _plane_faces(tight, rows):
    """Closed active sets of the edges and vertices of a face of
    dimension 2 with closed set `tight`, from its frame rows co . y >= rhs
    in two variables.

    Each row a . y >= r with a != 0 names a line, y = (P + s t) / D with
    P = r a, D = a . a and t = rot90(a), on which every row reads
    c s >= b in integers: c = co . t and b = D rhs - co . P.  Every edge
    and vertex of the face lies on the line of some row, and
    `_line_sets` reads the sets at an interior point and the lower end
    of each, in one pass over its rows that stops at the first row
    showing that the line misses the face.  That is enough: t = rot90(a)
    orients all edges one way round, so every vertex is the lower end of
    exactly one edge.  So n rows cost n passes of n integer steps each.
    """
    found = set()
    facets = list(rows)
    for (a0, a1), r in rows.values():
        if not (a0 or a1):
            continue  # a facet constant on the face, and not tight on it
        t0, t1 = -a1, a0
        D = a0 * a0 + a1 * a1
        p0, p1 = r * a0, r * a1
        found.update(_line_sets(tight, facets, (
            (c0 * t0 + c1 * t1, D * rhs - c0 * p0 - c1 * p1)
            for (c0, c1), rhs in rows.values())))
    return found


def _face_sets(domain):
    """Closed active set of every nonempty face, or None for an empty domain.

    The closed active set of a face holds every facet tight on all of
    it; it is the set of facets tight at any relative-interior point.
    One Fourier-Motzkin pass over the domain's rows finds a relative-
    interior point of the whole domain.  Where no facet is tight there,
    the domain is full-dimensional, and in dimension >= 3 the vertex
    walk (`_vertex_walk`) reads every set off the vertex graph.
    Otherwise, and where the walk cannot certify the domain as simple
    and pointed, the face search (`_search_faces`) finds them.  A polygon
    is left to the search: its one 2-face is a single plane scan, of the
    walk's order and measured faster than it.
    """
    rows = dict(enumerate(domain.rows))
    top = _fm_point(domain.rows, domain.dim)
    if top is None:
        return None
    root = _tight_at((), rows, top[0])
    if domain.dim >= 3 and not root:
        sets = _vertex_walk(domain, top[0])
        if sets is not None:
            return sets
    return _search_faces(domain, rows, (root, top[1]))


def _search_faces(domain, rows, root):
    """The face search of `_face_sets`, from the closed set and dimension
    of the whole domain and the domain's rows.

    The search starts at the whole domain, whose set holds the implicit
    equalities of a lower-dimensional domain.  From each face F of
    dimension 1 or >= 3 with set S it tries each facet j not in S: one
    Fourier-Motzkin pass, in F's own coordinates, finds a relative-
    interior point of the face of F where j is tight, if that face is
    nonempty, and so its set.  Every face is reached, because a maximal
    proper face of F is the face of F where any of its extra facets is
    tight.  A face of dimension 2 needs no pass: `_plane_faces` reads
    the sets of all its edges and vertices off its frame rows in one
    bound pass per row's line, and pushes nothing.  The cost is one exact
    solve per face of positive dimension with a nonempty set, n passes
    in at most dim variables from each face of dimension 1 or >= 3, and
    O(n^2) integer operations per 2-face: one pass for an n-gon, n + 1
    for a pyramid over an (n - 1)-gon, polynomial in the facet count n
    for a fixed dimension, even where many facets meet.
    """
    nvars = domain.dim
    seen = {root[0]}
    stack = [root]
    while stack:
        S, dim = stack.pop()
        if dim == 0:
            continue  # a point: every facet meeting it is already in S
        if S:
            kernel, rows = _frame(domain, S)
            nvars = len(kernel)
        # S is empty only at the root, popped first with the domain's rows
        if dim == 2:
            seen.update(_plane_faces(S, rows))
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


# ---------------------------------------------------------------------------
# the vertex walk: simple pointed domains of dimension >= 3


def _blocking(cols, slacks, e):
    """The rows that stop a move along e first, and every row's a . e.

    cols[i] holds the i-th entries of the rows' normals a, row by row:
    the products a . e are built column by column, from the nonzero
    entries of e only, so a move along a coordinate axis, as a prism's
    side edges are, costs one column.  slacks[j] is a . X - m D for the
    row (a, m) at the point X / D, up to one positive factor shared by
    all rows.  A row with a . e < 0 stops the move at t = slacks[j] /
    -(a . e), in the same units for every row, and the rows with the
    least t are returned, compared by cross-multiplying: none on a ray,
    more than one on a tie.
    """
    cs = None
    for col, x in zip(cols, e):
        if x:
            part = col if x == 1 else [x * a for a in col]
            cs = part if cs is None else list(map(add, cs, part))
    first = []
    best_s, best_c = 1, 0     # t = 1 / 0: nothing stops the move yet
    for j, c in enumerate(cs):
        if c < 0:
            s = slacks[j]
            key = best_s * c - s * best_c   # the sign of t - best t
            if key < 0:
                first, best_s, best_c = [j], s, c
            elif key == 0:
                first.append(j)
    return first, cs


def _step(slacks, cs, j):
    """The slacks where row j stops the move whose row products are cs:
    -cs[j] s + slacks[j] c for each row's slack s and product c, which
    is 0 for row j, divided by their gcd (0 once every row is tight)."""
    k, sj = -cs[j], slacks[j]
    new = [k * s + sj * c for s, c in zip(slacks, cs)]
    g = gcd(*new) or 1
    return [v // g for v in new]


def _edge_directions(normals):
    """For the dim independent normals of a vertex, the direction of the
    edge that leaves each one's facet: orthogonal to the other normals,
    with a positive product with its own.  It is the adjugate column
    times the sign of det: cross products of the other two in 3-D,
    a fraction-free solve per column in higher dimensions.  The solves
    give the same columns in 3-D, but cost the `domains` benchmark a
    tenth of its problems per second there."""
    if len(normals) == 3:
        p, q, r = normals
        cols = [cross(q, r), cross(r, p), cross(p, q)]
        return cols if dot(p, cols[0]) > 0 else [vec_neg(c) for c in cols]
    out = []
    for i in range(len(normals)):
        d, num, _ = solve_bareiss(normals, [int(k == i) for k in
                                            range(len(normals))])
        out.append(num if d > 0 else vec_neg(num))
    return out


def _vertex_walk(domain, point):
    """Closed active sets of a simple pointed domain, read off its vertex
    graph, or None when the walk cannot certify the domain as such.

    point: (X, D), a point where no facet is tight.  Each point of the
    walk is kept as its slacks (`_step`).  The descent moves along a
    kernel vector of the tight normals, in either sign, to the first
    facet it meets, until dim facets are tight: a vertex.  No facet met
    in either sign means a line in the domain, which is not pointed.
    Each facet j met has a . e != 0 along a direction orthogonal to the
    normals already tight, so a vertex reached without a tie has
    exactly dim tight facets with independent normals.  Where facets
    tie, stopping a step at once, all of them become tight, and the
    descent gives up unless the tight normals are still independent
    (so at most dim).

    From each vertex T, the ratio test (`_blocking`) along the edge that
    leaves each facet i of T gives the next vertex, or a ray.  The walk
    gives up at a tie there: the vertex reached would lie on more than
    dim facets.  Without one the domain is pointed and simple: every
    vertex lies on exactly dim facets, every face holds a vertex, the
    graph of vertices and edges is connected, and the closed active
    sets are exactly the subsets of the vertex sets, () the whole
    domain's.

    Each edge is tested once, from the end the walk reaches first.  When
    the edge that leaves facet i at T stops at nxt on facet j alone, the
    test of the same edge from nxt, leaving j, is skipped.  It could
    only stop at T, on i alone: the facets of T other than i stay tight
    along the edge, and every other facet is slack at both ends, since
    each certified vertex has exactly dim tight facets, and so slack on
    the whole segment between them.  So the walk makes one ratio test
    per edge and per ray, plus at most two per step of the descent:
    O(E m) integer operations for E edges and m facets, and no
    Fourier-Motzkin pass.
    """
    rows = domain.rows
    normals = [f.normal for f in domain.facets]
    dim = domain.dim
    cols = list(zip(*[a for a, _ in rows])) or [()] * dim
    slacks = domain._values(*point)
    tight = []
    while len(tight) < dim:
        if tight:
            u = solve_bareiss([normals[j] for j in tight],
                              [0] * len(tight))[2][0]
        else:
            u = (1,) + (0,) * (dim - 1)
        for e in (u, vec_neg(u)):
            first, cs = _blocking(cols, slacks, e)
            if first:
                break
        else:
            return None   # a line: the domain is not pointed
        slacks = _step(slacks, cs, first[0])
        tight += first
        if len(first) > 1 and len(solve_bareiss(
                [normals[j] for j in tight], [0] * len(tight))[2]) > (
                dim - len(tight)):
            return None   # a tie on dependent normals, or over dim of them
    vertex = tuple(sorted(tight))
    sets = set()
    seen = {vertex}
    tested = set()      # (vertex, facet): edges tested from their other end
    stack = [(vertex, slacks)]
    while stack:
        T, slacks = stack.pop()
        for k in range(dim + 1):
            sets.update(combinations(T, k))
        edges = _edge_directions([normals[j] for j in T])
        for i, e in zip(T, edges):
            if (T, i) in tested:
                continue
            first, cs = _blocking(cols, slacks, e)
            if not first:
                continue  # a ray
            if len(first) > 1:
                return None
            j, = first
            nxt = tuple(sorted([k for k in T if k != i] + first))
            tested.add((nxt, j))
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, _step(slacks, cs, j)))
    return sets


# ---------------------------------------------------------------------------
# Delzant validation


class DelzantFailure(Record):
    __slots__ = ("facets",
                 "problem",  # "saturation" | "non_simple"
                 "index")

    def as_dict(self):
        return {"facets": list(self.facets), "problem": self.problem,
                "index": self.index}


class DelzantReport(Record):
    __slots__ = ("ok", "issues", "failures")
    _defaults = ((), ())

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

    The sets come from the vertex walk or the face search
    (`_face_sets`), not from all 2^n subsets of n facets.  A stratum
    inside the facet set of a vertex whose dim normals have |det| = 1
    lies in a Z-basis and so passes without a Smith form; only the
    others are reduced.  Strata are reported ordered by (size,
    indices), as the subset search found them.
    """
    return _delzant(d)[0]


def _delzant(d):
    """validate_delzant's report and the closed active sets it searched,
    None when a facet normal is malformed."""
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
        return DelzantReport(False, tuple(issues), ()), None
    strata = _face_sets(d)
    if strata is None:
        raise WorkbenchError("EMPTY_DOMAIN", "domain has no points")
    for j in range(len(d.facets)):
        if (j,) not in strata:
            issues.append(f"facet {j} is redundant (supports no facet)")
    # dim normals with |det| = 1 are a Z-basis, and every subset of a
    # basis spans a saturated sublattice of its own rank
    saturated = set()
    for S in strata:
        if len(S) == d.dim and abs(det_bareiss([d.facets[j].normal
                                               for j in S])) == 1:
            for k in range(2, d.dim + 1):
                saturated.update(combinations(S, k))
    for S in sorted((S for S in strata if len(S) >= 2),
                    key=lambda S: (len(S), S)):
        if S in saturated:
            continue
        normals = [d.facets[j].normal for j in S]
        divisors = elementary_divisors(normals)
        rank = len(divisors)
        if rank < len(S):
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
    return DelzantReport(not issues, tuple(issues), tuple(failures)), strata


def is_standard_simplex_3(d: PolyhedralDomain) -> bool:
    """The normal fan of the standard 3-simplex (the toric variety CP^3)."""
    if d.dim != 3 or len(d.facets) != 4:
        return False
    normals = sorted(f.normal for f in d.facets)
    return normals == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


# ---------------------------------------------------------------------------
# edge geometry: realized segments and rays over one denominator, exact
# intersections


def _common_denominator(c, domain=None):
    """The realized edges of c in integers over one common denominator.

    Returns (L, X, S): L > 0; X[vid] the integer tuple with X[vid] / L
    the position of vertex vid; and S[i], for edge i along u from its
    tail X, the integer at which its segment (X + s u) / L, 0 <= s <=
    S[i], ends.  That is the head of a bounded edge, read on the first
    coordinate where u is nonzero, and where a ray leaves `domain`:
    `_interval`'s upper end of the s with k s >= m L - (q p) . X over
    its facet rows (q p, m) with k = (q p) . u < 0.  S[i] is None for a
    ray that never leaves, and for every ray when no domain is given.
    L is the curve's denominator times what makes every S[i] an integer:
    nothing when each head is a whole multiple of its primitive
    direction away from its tail and no ray leaves.  A zero direction
    is INVALID_CURVE.
    """
    L, X = c.denominator, c.coords
    stops = {}   # edge index: (n, a), its segment ending at s = n / a
    for i, e in enumerate(c.edges):
        u = e.direction
        if is_zero(u):
            raise WorkbenchError("INVALID_CURVE", f"edge {i}: zero direction")
        if e.head is not None:
            a = next(filter(None, u))
            j = u.index(a)
            stops[i] = (X[e.head][j] - X[e.tail][j], a)
        elif domain is not None:
            hi = _interval([(k, m * L - dot(qp, X[e.tail]))
                            for qp, m in domain.rows
                            if (k := dot(qp, u)) < 0])[1]
            if hi is not None:
                stops[i] = hi[:2]
    scale = lcm(*(abs(a) // gcd(n, a) for n, a in stops.values() if n % a))
    if scale > 1:
        L *= scale
        X = {vid: vec_scale(scale, p) for vid, p in X.items()}
    S = [None] * len(c.edges)
    for i, (n, a) in stops.items():
        S[i] = n * scale // a
    return L, X, S


def _minor(u, v):
    """The first nonzero 2 x 2 minor of the columns u, v as (i, k, m), or
    None when they are dependent."""
    n = len(u)
    for i in range(n):
        for k in range(i + 1, n):
            m = u[i] * v[k] - u[k] * v[i]
            if m:
                return i, k, m
    return None


def _meet(g1, g2, L):
    """Exact intersection of two realized edges g = (X, u, S): the points
    (X + s u) / L with 0 <= s <= S, or s >= 0 where S is None, all over
    the curve's one denominator L (`_common_denominator`).

    Returns ("point", point) or ("overlap",) for a shared segment of
    positive length, or None.  With w = X2 - X1, the lines meet where
    s1 u1 - s2 u2 = w: Cramer's rule on the first pair of coordinates
    where u1, u2 are independent, checked on the others, in integers;
    s = T / m lies on an edge when 0 <= s <= S.  A collinear pair
    compares the parameter ranges of g2 inside g1's.
    """
    (X1, u, S1), (X2, v, S2) = g1, g2
    w = [x2 - x1 for x1, x2 in zip(X1, X2)]
    found = _minor(u, v)
    if found is None:
        if _minor(u, w) is not None:
            return None   # parallel lines
        return _collinear_meet(g1, g2, w, L)
    i, k, m = found
    T1 = w[i] * v[k] - w[k] * v[i]
    T2 = w[i] * u[k] - w[k] * u[i]
    if any(T1 * a - T2 * b != c * m for a, b, c in zip(u, v, w)):
        return None       # skew lines
    if m < 0:
        T1, T2, m = -T1, -T2, -m
    for t, smax in ((T1, S1), (T2, S2)):
        if t < 0 or smax is not None and t > smax * m:
            return None
    return ("point", tuple(Fraction(x * m + T1 * a, L * m)
                           for x, a in zip(X1, u)))


def _collinear_meet(g1, g2, w, L):
    """_meet for edges on one line, w = X2 - X1: g2's parameter range
    inside g1's, both times |u1[k]| on the first coordinate k where g1's
    direction u1 is nonzero, so that every bound is an integer."""
    (X1, u, S1), (_, v, S2) = g1, g2
    k = next(i for i in range(len(u)) if u[i] != 0)
    sign = 1 if u[k] > 0 else -1
    a = sign * u[k]
    start, step = sign * w[k], sign * v[k]
    lo2, hi2 = (start, None) if step > 0 else (None, start)
    if S2 is not None:
        end = start + step * S2
        lo2, hi2 = (min(start, end), max(start, end))
    lo1, hi1 = 0, None if S1 is None else S1 * a
    lo = lo1 if lo2 is None else max(lo1, lo2)
    hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
    if hi is None or lo < hi:
        return ("overlap",)
    if lo == hi:
        return ("point", tuple(Fraction(x * a + lo * b, L * a)
                               for x, b in zip(X1, u)))
    return None


def curve_self_crossings(c: TropicalCurve,
                         domain: PolyhedralDomain | None = None):
    """All transverse double points of the realized curve, in the order
    of their edge pairs (a, b), a < b.

    Pairs of edges sharing a graph vertex may meet at that vertex only.
    Overlapping collinear images raise NON_FINITE_SIGMA, naming the first
    such pair.  The curve is written once over one common denominator
    (`_common_denominator`), and everything below compares integers.
    Only edges whose closed bounding boxes overlap can meet, so the edges
    are swept in the order of the low end of their first coordinate, and
    each is tested against the later ones that start before it ends and
    overlap it in the other coordinates: the box filter of the
    Bentley-Ottmann sweep (IEEE Trans. Comput. C-28, 1979).  Two edges
    through a shared vertex whose directions are independent meet there
    and nowhere else, so they need no test; the others go through the
    exact pair test (`_meet`).  An edge with a zero direction has no
    line and raises INVALID_CURVE first.
    """
    return _crossing_sweep(c, *_common_denominator(c, domain))


def _crossing_sweep(c, L, X, S):
    """curve_self_crossings over the curve's realized edges (L, X, S), as
    `_common_denominator` writes them."""
    geoms, ends, through = [], [], []
    for e, s in zip(c.edges, S):
        base = X[e.tail]
        end = None if s is None else tuple(
            x + s * a for x, a in zip(base, e.direction))
        geoms.append((base, e.direction, s))
        ends.append(end)
        # the vertices on the segment: a head only where the segment ends
        # there, as every bounded edge of a valid curve does
        through.append({e.tail, e.head} if e.bounded and end == X[e.head]
                       else {e.tail})
    # the box of a segment spans its two ends; an open side of a ray's
    # box is a bound beyond every finite one
    finite = [x for (base, _, _), end in zip(geoms, ends)
              for p in (base, end or ()) for x in p]
    below, above = min(finite, default=0) - 1, max(finite, default=0) + 1
    lows, highs = [], []
    for (base, u, _), end in zip(geoms, ends):
        if end is None:
            lows.append(tuple(below if a < 0 else x for x, a in zip(base, u)))
            highs.append(tuple(above if a > 0 else x
                               for x, a in zip(base, u)))
        else:
            lows.append(tuple(map(min, base, end)))
            highs.append(tuple(map(max, base, end)))
    order = sorted(range(len(geoms)), key=lambda i: lows[i][0])
    hits = []
    for pos, a in enumerate(order):
        low, high = lows[a], highs[a]
        for b in order[pos + 1:]:
            if lows[b][0] > high[0]:
                break
            if not (all(map(le, low, highs[b]))
                    and all(map(le, lows[b], high))):
                continue
            i, j = min(a, b), max(a, b)
            if through[i] & through[j] and \
                    _minor(geoms[i][1], geoms[j][1]) is not None:
                continue
            hit = _meet(geoms[i], geoms[j], L)
            if hit is not None:
                hits.append((i, j, hit))
    hits.sort(key=lambda h: h[:2])
    crossings = []
    for a, b, hit in hits:
        if hit[0] == "overlap":
            raise WorkbenchError(
                "NON_FINITE_SIGMA",
                f"edges {a} and {b} overlap along a segment")
        ea, eb = c.edges[a], c.edges[b]
        shared = ({ea.tail, ea.head} & {eb.tail, eb.head}) - {None}
        point = hit[1]
        if shared and _over(point, L) in [X[v] for v in shared]:
            continue
        crossings.append({"edges": (a, b), "point": point})
    return crossings


# ---------------------------------------------------------------------------
# boundary classification


class BoundaryPointInfo(Record):
    __slots__ = ("point", "edge_index", "active", "codim",
                 "momenta",  # ((facet index, |p . dh|), ...)
                 "kind",     # INTERIOR | MOMENTUM2 | BISSECTRICE | OTHER
                 "z_direction", "weight", "note",
                 "end_index")  # the end's index in c.ends()
    _defaults = ("", None)

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
    """Primitive direction of a codimension-2 stratum in a 3-dim domain:
    two of its active normals are independent, so a cross product of
    two of them is nonzero."""
    normals = [domain.facets[j].normal for j in active]
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            z = cross(normals[i], normals[j])
            if not is_zero(z):
                return primitive_raw(z)


def _classify_at(c, domain, point, active, edge_index, outward, end_index):
    """The boundary point `point` of the edge `edge_index`, leaving the
    curve along `outward`, whose active facets are `active`: None for a
    point outside the domain, which raises OUTSIDE_DOMAIN."""
    if active is None:
        raise WorkbenchError(
            "OUTSIDE_DOMAIN",
            f"{point_text(point)} violates a facet inequality")
    e = c.edges[edge_index]
    dh = vec_scale(e.weight, outward)
    if not active:
        return BoundaryPointInfo(point, edge_index, (), 0, (), "INTERIOR",
                                 None, e.weight, "", end_index)
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
                if content(cross(dh, z_dir)) == 1:
                    kind = "BISSECTRICE"
                else:
                    note = "corner-basis decomposition unavailable"
            else:
                kind = "BISSECTRICE"
    else:
        note = f"boundary point of codimension {codim}"
    return BoundaryPointInfo(point, edge_index, active, codim, momenta,
                             kind, z_dir, e.weight, note, end_index)


def _boundary_ends(c, d, L, X, S, where):
    """Where each end of c meets the boundary of d, in c.ends() order, over
    the realized edges (L, X, S) of `_common_denominator`, with where[vid]
    the active facets of vertex vid (None outside).

    Yields (end, P, active, issue): P the integer point over L, active
    its facets, and issue None for a boundary point, else why the end
    gives none: an endpoint outside d or inside it, a ray that leaves d
    at its start (P that start) or behind it (P None), or one that meets
    the boundary outside d.  A puncture has P and issue None.
    """
    for end in c.ends():
        if end.kind == "endpoint":
            v = end.endpoint
            at = where[v]
            issue = (f"endpoint {v} outside the domain" if at is None else
                     None if at else f"endpoint {v} is interior to the domain")
            yield end, X[v], at, issue
            continue
        i = end.edge_index
        s = S[i]
        if s is None:
            yield end, None, None, None
        elif s < 0:
            yield end, None, None, f"ray {i} starts on the boundary"
        else:
            P = tuple([x + s * a for x, a in zip(X[end.attach], end.outward)])
            at = _located(d._values(P, L))
            issue = (f"ray {i} starts on the boundary" if s == 0 else
                     f"ray {i} meets the boundary outside the domain"
                     if at is None else None)
            yield end, P, at, issue


def classify_boundary_point(c: TropicalCurve, d: PolyhedralDomain,
                            point) -> BoundaryPointInfo:
    """Classify the boundary point of the curve at the given position: the
    first end in c.ends() order that meets the boundary there, at or past
    its start (`_boundary_ends`)."""
    point = tuple(map(as_rational, point))
    L, X, S = _common_denominator(c, d)
    target = _over(point, L)
    if target is not None:
        where = {vid: _located(d._values(x, L)) for vid, x in X.items()}
        for end, P, at, _ in _boundary_ends(c, d, L, X, S, where):
            if P == target:
                return _classify_at(c, d, point, at, end.edge_index,
                                    end.outward, None)
    raise WorkbenchError(
        "NOT_A_BOUNDARY_POINT",
        f"{point_text(point)} is not where a curve end meets the boundary")


class EvennessReport(Record):
    __slots__ = ("ok", "issues",
                 "boundary",   # BoundaryPointInfo per end hitting the boundary
                 "j",          # number of MOMENTUM2 points
                 "bissectrice",
                 "punctures",  # ends escaping to infinity inside the domain
                 "crossings",  # transverse double points inside the domain
                 "delzant")    # None when the curve is invalid
    _defaults = (None,)

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

    # the facet values of each vertex, over the curve's one denominator,
    # and its active facets, None outside: each point is evaluated once
    L, X, S = _common_denominator(c, d)
    values = {vid: d._values(x, L) for vid, x in X.items()}
    where = {vid: _located(v) for vid, v in values.items()}
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

    # no edge may run inside a boundary face: test the midpoint, whose
    # facet values have the signs of the sums of its two ends' values
    for i, e in enumerate(c.edges):
        if e.bounded and _located(list(map(add, values[e.tail],
                                           values[e.head]))):
            issues.append(f"edge {i} runs inside the boundary")

    # boundary points, each also as integers over L in pts
    boundary = []
    pts = []
    punctures = 0
    for k, (end, P, at, issue) in enumerate(
            _boundary_ends(c, d, L, X, S, where)):
        if issue:
            issues.append(issue)
        elif P is None:
            punctures += 1
        else:
            pts.append(P)
            boundary.append(_classify_at(
                c, d, tuple([Fraction(x, L) for x in P]), at,
                end.edge_index, end.outward, k))

    for info in boundary:
        if info.kind not in ("MOMENTUM2", "BISSECTRICE"):
            issues.append(
                f"boundary point {point_text(info.point)} on edge "
                f"{info.edge_index} is {info.kind} {info.note}".rstrip())

    if len(set(pts)) != len(pts):
        issues.append("two curve ends meet the boundary at the same point")
    vertex_positions = {X[v] for v in c.trivalent_vertices()}
    for info, p in zip(boundary, pts):
        if p in vertex_positions:
            issues.append(f"boundary point {point_text(info.point)} "
                          "is a curve vertex")

    try:
        crossings = tuple(c2 for c2 in _crossing_sweep(c, L, X, S)
                          if d.contains(c2["point"]))
    except WorkbenchError as err:
        if err.code != "NON_FINITE_SIGMA":
            raise
        issues.append("self-intersection locus is not finite")
        crossings = ()
    # each crossing point over L, None when off it (it then meets no
    # boundary point or vertex), in the order of the set of the points
    cross_pts = {pt: _over(pt, L) for pt in {cr["point"] for cr in crossings}}
    cross_ints = set(cross_pts.values())
    for info, p in zip(boundary, pts):
        if p in cross_ints:
            issues.append(f"boundary point {point_text(info.point)} "
                          "is a self-intersection")
    for pt, p in cross_pts.items():
        if p in vertex_positions:
            issues.append(f"vertex at {point_text(pt)} lies on another edge")

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


def _vertex(rows, pair):
    """The point where the rows of two independent facets are tight, as
    (num, det) with det > 0, meaning num / det: Cramer's rule."""
    (u, a), (v, b) = rows[pair[0]], rows[pair[1]]
    det = u[0] * v[1] - u[1] * v[0]
    num = (a * v[1] - b * u[1], u[0] * b - v[0] * a)
    if det < 0:
        det, num = -det, vec_neg(num)
    return num, det


def _direction(start, stop):
    """The primitive direction from the vertex start to the vertex stop,
    both (num, det) with det > 0: that of num_stop det_start -
    num_start det_stop, a positive multiple of stop - start."""
    (a, p), (b, q) = start, stop
    return primitive_raw([y * p - x * q for x, y in zip(a, b)])


def wavefront(d: PolyhedralDomain, delta) -> TropicalCurve:
    """Inner offset boundary plus corner segments of a Delzant polygon.

    The result is an even primitive curve whose boundary points are the
    vertices of the polygon, each a bissectrice point.  The vertices are
    the closed active sets of size 2 that the Delzant check finds.  The
    offset polygon keeps the combinatorial type exactly when the point
    where each such pair of offset facets meets lies in it with only
    that pair tight; otherwise delta is too large.
    """
    if d.dim != 2:
        raise WorkbenchError("DIMENSION_MISMATCH", "wavefront needs dim 2")
    delta = as_rational(delta)
    if delta <= 0:
        raise WorkbenchError("INVALID_DELTA", "delta must be positive")
    rep, strata = _delzant(d)
    if not rep.ok:
        raise WorkbenchError("INVALID_DOMAIN", "; ".join(rep.issues))
    pairs = sorted(S for S in strata if len(S) == 2)
    if not pairs:
        raise WorkbenchError("INVALID_DOMAIN",
                             "domain has no vertices to connect")
    offset = PolyhedralDomain(
        d.dim, [Facet(f.normal, f.offset + delta) for f in d.facets])
    outer, inner = [], []
    for pair in pairs:
        outer.append(_vertex(d.rows, pair))
        num, det = _vertex(offset.rows, pair)
        if _located(offset._values(num, det)) != pair:
            raise WorkbenchError("DELTA_TOO_LARGE",
                                 "offset domain changes combinatorial type")
        inner.append((num, det))

    # every vertex num / det over the common denominator L of them all
    L = lcm(*{det for _, det in inner + outer})
    vertices = [(f"w{k}", vec_scale(L // det, num))
                for k, (num, det) in enumerate(inner)]
    edges = []
    on_facet = {}
    for k, (pair, vi, vo) in enumerate(zip(pairs, inner, outer)):
        vertices.append((f"b{k}", vec_scale(L // vo[1], vo[0])))
        edges.append(Edge(f"w{k}", f"b{k}", _direction(vi, vo), 1, None))
        for fidx in pair:
            on_facet.setdefault(fidx, []).append(k)

    # boundary edges of the inner polygon, one per facet
    for fidx in range(len(d.facets)):
        ks = on_facet[fidx]
        if len(ks) == 2:
            ka, kb = ks
            edges.append(Edge(f"w{ka}", f"w{kb}",
                              _direction(inner[ka], inner[kb]), 1, None))
        else:
            # unbounded facet: a ray along the facet line, into the
            # half-plane of the corner's other facet
            (k,) = ks
            other = sum(pairs[k]) - fidx
            z = rot90(d.facets[fidx].normal)
            if dot(d.facets[other].normal, z) < 0:
                z = vec_neg(z)
            edges.append(Edge(f"w{k}", None, z, 1, None))

    curve = TropicalCurve(2, vertices, edges, L)
    vrep = validate_curve(curve)
    if not vrep.ok:
        raise WorkbenchError("INTERNAL_INCONSISTENCY",
                             "wavefront failed validation: "
                             + "; ".join(vrep.issues))
    return curve


# ---------------------------------------------------------------------------
# suitability of a boundary line configuration


def _leaf_line_intersection(base, direction, point):
    """Where the ray base + t direction, t >= 0, meets the line point +
    s z, z the direction of a `Line`: base and point are each an
    integer tuple with its denominator, (X, L).  The system t direction
    - s z = point - base is solved over the product of the two
    denominators, in integers.  Returns the meet as (P, D), integers with
    D > 0, meaning P / D; None when they do not meet in one point of the
    ray."""
    (X, L), (line, M) = base, point
    n = len(X)
    rows = [[direction[k], -line.direction[k]] for k in range(n)]
    rhs = [line.point[k] * L - X[k] * M for k in range(n)]
    d, num, kernel = solve_bareiss(rows, rhs)
    if num is None or kernel:
        return None
    # t = num[0] / (d L M), and the meeting point is base + t direction
    t = num[0]
    if d < 0:
        d, t = -d, -t
    if t < 0:
        return None
    return tuple([x * d * M + t * u for x, u in zip(X, direction)]), d * L * M


def _in_convex_hull(x, pts, D, dim):
    """Exact membership of x in the convex hull of pts, all integer
    tuples over one D > 0.

    x lies outside exactly when some a separates it strictly, which,
    scaled, is a . (p - x) >= 1 for every p in pts (Farkas): over D, the
    integer rows a . (P - X) >= D of `_fm_point`.
    """
    return _fm_point([(vec_sub(p, x), D) for p in pts], dim) is None


class SuitabilityReport(Record):
    __slots__ = ("per_line",  # dicts: crossPrimitive, isHullVertex, point
                 "ok")

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
    meets = []
    for i, (end, line) in enumerate(zip(ends, lines.lines)):
        if len(line.point) != c.dim or len(line.direction) != c.dim:
            raise WorkbenchError("DIMENSION_MISMATCH",
                                 f"line {i} is not {c.dim}-dimensional")
        meet = _leaf_line_intersection(
            (c.coords[end.attach], c.denominator), end.outward,
            (line, lines.denominator))
        if meet is None:
            raise WorkbenchError("NOT_BOUNDARY_CONFIG",
                                 f"line {i} does not meet its leaf")
        meets.append(meet)
    # every meet over their least common denominator D
    D = lcm(*(M for _, M in meets))
    points, D = least_denominator([vec_scale(D // M, P) for P, M in meets], D)
    per_line = []
    all_ok = True
    for i, (end, line) in enumerate(zip(ends, lines.lines)):
        cp = content(cross(end.dh(), line.direction)) == 1
        others = [p for j, p in enumerate(points) if j != i]
        hull_vertex = not _in_convex_hull(points[i], others, D, c.dim)
        per_line.append({"crossPrimitive": cp, "isHullVertex": hull_vertex,
                         "point": tuple([Fraction(x, D) for x in points[i]])})
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
