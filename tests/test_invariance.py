"""Invariance under lattice maps: every answer of the workbench is the
same after a unimodular change of coordinates x -> A x + b, A in
GL(n, Z) and b rational.

Curve positions map by the affine map, edge and line directions by A,
and facet normals by A^-T, each offset shifted by the new normal's
value at b.  A is drawn as a few elementary row operations with factors
+-1, +-2, with a row sign flip half the time, so orientation-reversing
maps are drawn too.  Reports that carry coordinates are compared after
mapping them (boundary points), or without them (h1's leafData and
rootEdge, which name momenta and edges by their coordinates).
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import (blown_up_polygon, fixture_path, largest_offset,
                      random_tree_problem)

from troplag.curve import Edge, TropicalCurve, validate_curve
from troplag.domain import (Facet, LineConfiguration, PolyhedralDomain,
                            check_even_primitive, validate_delzant, wavefront)
from troplag.errors import WorkbenchError
from troplag.io_json import load_curve, load_domain
from troplag.lattice import content, cross
from troplag.multiplicity import enumerate_count, mixed_h_product
from troplag.topology import h1_order, surface_report

PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True)


@st.composite
def lattice_maps(draw, n):
    """(A, A^-1, b): A in GL(n, Z) as integer rows, and b in Q^n."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in A]
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1),
                                  st.sampled_from((1, -1, 2, -2))),
                        min_size=1, max_size=6))
    for i, j, f in ops:
        if i == j:
            continue
        # A <- E A with E adding f times row j to row i, so A^-1 <-
        # A^-1 E^-1: column j of A^-1 loses f times column i
        A[i] = [a + f * b for a, b in zip(A[i], A[j])]
        for row in inv:
            row[j] -= f * row[i]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        A[k] = [-a for a in A[k]]
        for row in inv:
            row[k] = -row[k]
    b = tuple(Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 6)))
              for _ in range(n))
    assert all(sum(A[i][k] * inv[k][j] for k in range(n)) == int(i == j)
               for i in range(n) for j in range(n))
    return A, inv, b


def apply(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def map_point(g, x):
    A, _, b = g
    return tuple(y + t for y, t in zip(apply(A, x), b))


def map_curve(g, c):
    A = g[0]
    return TropicalCurve(
        c.dim, [(v, map_point(g, c.position(v))) for v in c.vertices],
        [Edge(e.tail, e.head, apply(A, e.direction), e.weight, e.leaf_label)
         for e in c.edges])


def map_domain(g, d):
    _, inv, b = g
    facets = []
    for f in d.facets:
        p = tuple(sum(inv[r][i] * f.normal[r] for r in range(d.dim))
                  for i in range(d.dim))
        facets.append(Facet(p, f.offset + sum(x * t for x, t in zip(p, b))))
    return PolyhedralDomain(d.dim, facets)


def outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as err:
        return err.code, str(err)


def h1_dict(rep):
    if isinstance(rep, tuple):
        return rep
    out = rep.as_dict()
    del out["leafData"], out["rootEdge"]
    return out


def even_key(g, rep):
    """An even/primitive report with its boundary points mapped by g
    and its stratum directions by g's A, up to sign (g None: no map)."""
    out = rep.as_dict()
    for info, b in zip(rep.boundary, out["boundary"]):
        p = info.point if g is None else map_point(g, info.point)
        b["point"] = [str(x) for x in p]
        if b["z"] is not None:
            z = b["z"] if g is None else list(apply(g[0], b["z"]))
            b["z"] = max(z, [-x for x in z])
    return out


@PROPERTY
@given(st.integers(0, 10 ** 6), st.integers(3, 9), lattice_maps(3))
def test_tree_reports_invariant(seed, kappa, g):
    c, zs = random_tree_problem(random.Random(seed), kappa)
    mc, mzs = map_curve(g, c), [apply(g[0], z) for z in zs]
    assert validate_curve(mc) == validate_curve(c)
    assert outcome(mixed_h_product, mc, mzs) == \
        outcome(mixed_h_product, c, zs)
    assert h1_dict(outcome(h1_order, mc, None, mzs)) == \
        h1_dict(outcome(h1_order, c, None, zs))


def _planar_pair(k):
    """A curve and a domain: the fixture pairs, then wave fronts of
    blown-up polygons."""
    fixtures = [("rp2.curve.json", "triangle.domain.json"),
                ("klein.curve.json", "quadrant.domain.json"),
                ("klein_sum.curve.json", "quadrant.domain.json")]
    if k < len(fixtures):
        cpath, dpath = fixtures[k]
        return (load_curve(fixture_path(cpath)),
                load_domain(fixture_path(dpath)))
    rng = random.Random(k)
    facets = blown_up_polygon(rng, rng.randint(4, 10))
    d = PolyhedralDomain(2, [Facet(u, a) for u, a in facets])
    delta = largest_offset(facets) * Fraction(rng.randint(20, 80), 100)
    return wavefront(d, delta), d


@PROPERTY
@given(st.integers(0, 40), lattice_maps(2))
def test_planar_reports_invariant(k, g):
    c, d = _planar_pair(k)
    mc, md = map_curve(g, c), map_domain(g, d)
    assert validate_delzant(md) == validate_delzant(d)
    assert even_key(None, check_even_primitive(mc, md)) == \
        even_key(g, check_even_primitive(c, d))
    assert surface_report(mc, md).as_dict() == surface_report(c, d).as_dict()


@PROPERTY
@given(lattice_maps(3))
def test_spatial_reports_invariant(g):
    c = load_curve(fixture_path("simplex_tripod.curve.json"))
    d = load_domain(fixture_path("simplex3.domain.json"))
    mc, md = map_curve(g, c), map_domain(g, d)
    assert even_key(None, check_even_primitive(mc, md)) == \
        even_key(g, check_even_primitive(c, d))
    assert h1_dict(outcome(h1_order, mc, md)) == \
        h1_dict(outcome(h1_order, c, d))


@st.composite
def enumeration_problems(draw):
    """A balanced degree of 4-6 leaf vectors in [-1, 1]^3 and one line
    per leaf, with a primitive direction transverse to it, through a
    rational point; a quarter of the time every line passes through one
    point, which makes a wall (NON_GENERIC_CONFIG) when some type is
    solvable."""
    vector = st.tuples(*[st.integers(-1, 1)] * 3).filter(any)
    size = draw(st.integers(3, 5))
    degree = draw(st.lists(vector, min_size=size, max_size=size))
    last = tuple(-sum(d[i] for d in degree) for i in range(3))
    degree.append(draw(st.just(last).filter(any)))
    coordinate = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5))
    common = draw(st.integers(0, 3)) == 0
    point = draw(st.tuples(*[coordinate] * 3))
    lines = []
    for d in degree:
        z = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(
            lambda z: any(cross(d, z)) and content(z) == 1))
        if not common:
            point = draw(st.tuples(*[coordinate] * 3))
        lines.append((point, z))
    return degree, lines


def enumeration_key(degree, lines):
    """The total and every type's topology, status and multiplicity, or
    the error code."""
    try:
        res = enumerate_count(degree, LineConfiguration(
            [{"point": q, "dir": z} for q, z in lines]))
    except WorkbenchError as err:
        return err.code
    return res.total, [(t.topology, t.status, t.multiplicity)
                       for t in res.per_type]


@PROPERTY
@given(enumeration_problems(), lattice_maps(3))
def test_enumeration_invariant(problem, g):
    degree, lines = problem
    A = g[0]
    mapped = ([apply(A, d) for d in degree],
              [(map_point(g, q), apply(A, z)) for q, z in lines])
    assert enumeration_key(*mapped) == enumeration_key(degree, lines)


# ---------------------------------------------------------------------------
# relabelling: the answers that name no end or facet do not change when
# the ends, facets, vertices or edges are listed in another order


def enumeration_total(degree, lines):
    """The enumerator's total, or the error code (NON_GENERIC_CONFIG on
    a wall)."""
    try:
        return enumerate_count(degree, LineConfiguration(
            [{"point": q, "dir": z} for q, z in lines])).total
    except WorkbenchError as err:
        return err.code


@PROPERTY
@given(enumeration_problems().flatmap(lambda p: st.tuples(
    st.just(p), st.permutations(range(len(p[0]))))))
def test_enumeration_total_invariant_under_relabelling(drawn):
    """Degree entry j goes with line j, so listing both in one new order
    keeps the total."""
    (degree, lines), perm = drawn
    assert enumeration_total([degree[k] for k in perm],
                             [lines[k] for k in perm]) == \
        enumeration_total(degree, lines)


def delzant_key(rep, perm):
    """ok and the failures, their facet sets named by the facets' places
    before perm listed them in a new order."""
    return rep.ok, {(tuple(sorted(perm[j] for j in f.facets)), f.problem,
                     f.index) for f in rep.failures}


@st.composite
def facet_lists(draw):
    """(dim, facets): a blown-up polygon, spoiled half the time, the
    prism over it, or the pyramid over a polygon (not simple at its
    apex for 4 or more sides)."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(["polygon", "prism", "pyramid"]))
    if kind == "pyramid":
        m = draw(st.integers(3, 6))
        return 3, [((t, t * t - 1, 1), 0) for t in
                   range(1 - m // 2, m - m // 2 + 1)] + [((0, 0, -1), -1)]
    facets = blown_up_polygon(rng, rng.randint(4, 9), draw(st.booleans()))
    if kind == "polygon":
        return 2, facets
    return 3, [((u[0], u[1], 0), a) for u, a in facets] + \
        [((0, 0, 1), Fraction(0)), ((0, 0, -1), Fraction(-3))]


@PROPERTY
@given(facet_lists().flatmap(lambda d: st.tuples(
    st.just(d), st.permutations(range(len(d[1]))))))
def test_delzant_report_invariant_under_facet_order(drawn):
    (dim, facets), perm = drawn
    d = PolyhedralDomain(dim, [Facet(u, a) for u, a in facets])
    shuffled = PolyhedralDomain(dim, [d.facets[k] for k in perm])
    identity = range(len(facets))
    assert delzant_key(validate_delzant(shuffled), perm) == \
        delzant_key(validate_delzant(d), identity)


def h1_order_or_code(c, zs):
    try:
        return h1_order(c, zs=zs).as_dict()["h1Order"]
    except WorkbenchError as err:
        return err.code


@PROPERTY
@given(st.integers(0, 10 ** 6), st.integers(3, 9), st.booleans(),
       st.randoms(use_true_random=False))
def test_h1_order_invariant_under_vertex_and_edge_order(seed, kappa,
                                                        primitive, rng):
    """Every end of the tree is labelled, so reordering its vertices and
    edges keeps which direction goes with which end."""
    c, zs = random_tree_problem(random.Random(seed), kappa, primitive)
    vertices, edges = list(c.coords.items()), list(c.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    shuffled = TropicalCurve(c.dim, vertices, edges, c.denominator)
    assert h1_order_or_code(shuffled, zs) == h1_order_or_code(c, zs)
