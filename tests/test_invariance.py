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
from troplag.domain import (Facet, PolyhedralDomain, check_even_primitive,
                            validate_delzant, wavefront)
from troplag.errors import WorkbenchError
from troplag.io_json import load_curve, load_domain
from troplag.multiplicity import mixed_h_product
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
