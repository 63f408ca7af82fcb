import random
from fractions import Fraction

import pytest

from conftest import (fixture_path, four_valent_and_flat, marked_edge,
                      rand_primitive, random_tree_problem, rebuilt)

from troplag import domain, topology
from troplag.curve import Edge, TropicalCurve, validate_curve
from troplag.domain import PolyhedralDomain, wavefront
from troplag.errors import WorkbenchError
from troplag.io_json import load_curve, load_domain
from troplag.lattice import (content, cross, det_bareiss,
                             elementary_divisors, lattice_index,
                             primitive_raw)
from troplag.multiplicity import Problem, ev_matrix, mixed_h_product
from troplag.topology import (dual_vertex_delta, h1_order, lens_parameters,
                              piece_decomposition, self_intersections,
                              surface_report, vertex_multiplicity)


def quadrant():
    return PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0}])


def triangle():
    return PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0},
                                {"normal": (-1, -1), "offset": -1}])


def simplex3():
    return PolyhedralDomain(3, [{"normal": (1, 0, 0), "offset": 0},
                                {"normal": (0, 1, 0), "offset": 0},
                                {"normal": (0, 0, 1), "offset": 0},
                                {"normal": (-1, -1, -1), "offset": -1}])


def simplex_tripod_curve():
    return TropicalCurve(3, [
        ("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
        ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))], [
        Edge("p", "a", (0, -1, -1)), Edge("p", "b", (1, 1, -1)),
        Edge("p", "c", (-1, 0, 2))])


def lens_curve():
    return TropicalCurve(3, [("m", (0, 0, "1/2")), ("b0", (0, 0, 0)),
                             ("b1", (0, 0, 1))],
                         [Edge("m", "b0", (0, 0, -1), 1, 0),
                          Edge("m", "b1", (0, 0, 1), 1, 1)])


# ---------------------------------------------------------------------------
# vertex multiplicity and dual deltas


def test_vertex_multiplicity_examples():
    assert vertex_multiplicity(simplex_tripod_curve(), "p") == 1
    planar = TropicalCurve(2, [("v", (0, 0)), ("x", (1, 0)), ("y", (0, 1)),
                               ("z", (-1, -1))],
                           [Edge("v", "x", (1, 0)), Edge("v", "y", (0, 1)),
                            Edge("v", "z", (-1, -1))])
    assert vertex_multiplicity(planar, "v") == 1
    five = TropicalCurve(2, [("v", (0, 0)), ("x", (1, 1)), ("y", (-2, 3)),
                             ("z", (1, -4))],
                         [Edge("v", "x", (1, 1)), Edge("v", "y", (-2, 3)),
                          Edge("v", "z", (1, -4))])
    assert vertex_multiplicity(five, "v") == 5
    collinear = TropicalCurve(2, [("v", (0, 0)), ("x", (1, 0)),
                                  ("y", (-1, 0)), ("z", (-2, 0))],
                              [Edge("v", "x", (1, 0), 2),
                               Edge("v", "y", (-1, 0)),
                               Edge("v", "z", (-1, 0))])
    with pytest.raises(WorkbenchError) as err:
        vertex_multiplicity(collinear, "v")
    assert err.value.code == "DEGENERATE_VERTEX"


def test_vertex_multiplicity_pair_independence():
    rng = random.Random(91)
    for _ in range(50):
        while True:
            a = rand_primitive(rng)
            b = rand_primitive(rng)
            s = tuple(-(x + y) for x, y in zip(a, b))
            if any(s) and content(s) == 1 and \
                    any(cross(a, b)):
                break
        c = TropicalCurve(3, [("v", (0, 0, 0)), ("x", a), ("y", b),
                              ("z", s)],
                          [Edge("v", "x", a), Edge("v", "y", b),
                           Edge("v", "z", s)])
        m = vertex_multiplicity(c, "v")
        pairs = [content(cross(a, b)), content(cross(b, s)),
                 content(cross(s, a))]
        assert all(p == m for p in pairs)


def test_vertex_multiplicity_against_lattice_index():
    """|det| in the plane and the content of the cross product in space
    equal the lattice index of the pair, for weighted edges too."""
    rng = random.Random(93)
    for dim in (2, 3):
        for _ in range(300):
            a, b = ([rng.randint(-6, 6) for _ in range(dim)]
                    for _ in range(2))
            s = [-(x + y) for x, y in zip(a, b)]
            if not all(any(v) for v in (a, b, s)):
                continue
            ends = {"x": a, "y": b, "z": s}
            c = TropicalCurve(dim, [("v", (0,) * dim)] +
                              [(k, tuple(v)) for k, v in ends.items()],
                              [Edge("v", k, primitive_raw(v), content(v))
                               for k, v in ends.items()])
            independent = [p for p in [(b, s), (s, a), (a, b)]
                           if len(elementary_divisors(p)) == 2]
            if not independent:
                with pytest.raises(WorkbenchError):
                    vertex_multiplicity(c, "v")
                continue
            m = vertex_multiplicity(c, "v")
            assert all(lattice_index(p) == m for p in independent)


def klein_curve():
    return TropicalCurve(2, [("v", (2, 2)), ("p", (0, 0)), ("q", (0, 5)),
                             ("r", (5, 0))],
                         [Edge("v", "p", (-1, -1)), Edge("v", "q", (-2, 3)),
                          Edge("v", "r", (3, -2))])


def klein_sum_curve():
    return TropicalCurve(2, [
        ("v1", (2, 2)), ("v2", (3, 3)), ("a", (0, 3)), ("b", (3, 0)),
        ("c", (0, "15/2")), ("d", ("15/2", 0))], [
        Edge("v1", "a", (-2, 1)), Edge("v1", "b", (1, -2)),
        Edge("v1", "v2", (1, 1)), Edge("v2", "c", (-2, 3)),
        Edge("v2", "d", (3, -2))])


def test_dual_vertex_delta_examples():
    assert dual_vertex_delta(klein_curve(), "v") == 2
    assert dual_vertex_delta(klein_sum_curve(), "v1") == 1
    assert dual_vertex_delta(klein_sum_curve(), "v2") == 2
    planar = TropicalCurve(2, [("v", (0, 0)), ("x", (1, 0)), ("y", (0, 1)),
                               ("z", (-1, -1))],
                           [Edge("v", "x", (1, 0)), Edge("v", "y", (0, 1)),
                            Edge("v", "z", (-1, -1))])
    assert dual_vertex_delta(planar, "v") == 0


def _brute_interior_points(c, vid):
    from troplag.lattice import rot90, vec_scale
    inc = c.incident(vid)
    sides = [rot90(vec_scale(w, d)) for _, d, w in inc]
    pts = [(0, 0), sides[0],
           (sides[0][0] + sides[1][0], sides[0][1] + sides[1][1])]

    def sgn(x):
        return (x > 0) - (x < 0)

    def inside(q):
        signs = set()
        for i in range(3):
            a, b = pts[i], pts[(i + 1) % 3]
            d = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if d == 0:
                return False
            signs.add(sgn(d))
        return len(signs) == 1

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if inside((x, y)):
                count += 1
    return count


def test_dual_vertex_delta_pick_oracle():
    rng = random.Random(92)
    checked = 0
    while checked < 100:
        a = tuple(rng.randint(-6, 6) for _ in range(2))
        b = tuple(rng.randint(-6, 6) for _ in range(2))
        s = (-(a[0] + b[0]), -(a[1] + b[1]))
        if a == (0, 0) or b == (0, 0) or s == (0, 0):
            continue
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        verts = [("v", (0, 0)), ("x", a), ("y", b), ("z", s)]
        from troplag.lattice import primitive_raw
        edges = [Edge("v", "x", primitive_raw(a), content(a)),
                 Edge("v", "y", primitive_raw(b), content(b)),
                 Edge("v", "z", primitive_raw(s), content(s))]
        c = TropicalCurve(2, verts, edges)
        assert dual_vertex_delta(c, "v") == _brute_interior_points(c, "v")
        checked += 1


# ---------------------------------------------------------------------------
# self-intersections


def test_self_intersections_det_weight():
    c = TropicalCurve(2, [("u", (0, 0)), ("v", (2, 0)),
                          ("a", (3, 3)), ("b", (-1, 3))],
                      [Edge("u", "a", (1, 1)), Edge("v", "b", (-1, 1)),
                       Edge("u", "v", (1, 0))])
    hits = self_intersections(c)
    assert len(hits) == 1
    assert hits[0]["point"] == (1, 1)
    assert hits[0]["weight"] == 2


def test_self_intersections_tree_embedding_empty():
    assert self_intersections(klein_curve()) == []


def test_self_intersections_zero_direction_is_invalid():
    """A zero-direction edge is a validation error naming the edge, even
    where its box meets another edge's, not a bare StopIteration."""
    c = TropicalCurve(2, [("a", (0, 0)), ("b", (0, 0)), ("x", (-1, 0)),
                          ("y", (1, 0))],
                      [Edge("a", "b", (0, 0)), Edge("x", "y", (1, 0))])
    with pytest.raises(WorkbenchError) as err:
        self_intersections(c)
    assert err.value.code == "INVALID_CURVE"
    assert "edge 0" in str(err.value)


def crossing_curve():
    return TropicalCurve(2, [("v1", (0, 0)), ("v2", (4, 0))],
                         [Edge("v1", None, (0, 1), 1, 0),
                          Edge("v1", None, (-1, -1), 1, 1),
                          Edge("v1", "v2", (1, 0)),
                          Edge("v2", None, (-1, 3), 1, 2),
                          Edge("v2", None, (2, -3), 1, 3)])


def test_self_intersections_crossing_fixture():
    c = crossing_curve()
    assert validate_curve(c).ok
    hits = self_intersections(c)
    assert len(hits) == 1
    assert hits[0]["point"] == (0, 12)
    assert hits[0]["weight"] == 1


# ---------------------------------------------------------------------------
# surface reports


def test_surface_rp2():
    rp2 = TropicalCurve(2, [("b0", (0, 0)), ("b1", ("1/2", "1/2"))],
                        [Edge("b0", "b1", (1, 1))])
    rep = surface_report(rp2, triangle())
    assert not rep.orientable and rep.crosscaps == 1
    assert rep.punctures == 0 and rep.total_nodes == 0
    assert rep.euler_characteristic == 1
    assert rep.surface_name == "RP^2"


def test_surface_klein_bottle():
    rep = surface_report(klein_curve(), quadrant())
    assert rep.crosscaps == 2 and rep.total_nodes == 2
    assert rep.surface_name == "Klein bottle"
    assert rep.euler_characteristic == 0


def test_surface_klein_sum():
    rep = surface_report(klein_sum_curve(), quadrant())
    assert rep.crosscaps == 4 and rep.total_nodes == 3
    assert sorted(k.delta for k in rep.components) == [1, 2]
    assert rep.euler_characteristic == -2


def test_surface_wavefront_torus():
    sq = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                              {"normal": (0, 1), "offset": 0},
                              {"normal": (-1, 0), "offset": -1},
                              {"normal": (0, -1), "offset": -1}])
    wf = wavefront(sq, Fraction(1, 4))
    rep = surface_report(wf, sq)
    assert rep.orientable and rep.genus == 1 and rep.j == 0
    assert rep.surface_name == "torus"


def test_surface_weight2_sphere():
    rect = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0},
                                {"normal": (-1, 0), "offset": -4},
                                {"normal": (0, -1), "offset": -2}])
    fig2 = TropicalCurve(2, [("v1", (1, 1)), ("v2", (3, 1)), ("a", (0, 0)),
                             ("b", (0, 2)), ("c", (4, 0)), ("d", (4, 2))],
                         [Edge("v1", "a", (-1, -1)), Edge("v1", "b", (-1, 1)),
                          Edge("v1", "v2", (1, 0), 2),
                          Edge("v2", "c", (1, -1)), Edge("v2", "d", (1, 1))])
    with pytest.raises(WorkbenchError) as err:
        surface_report(fig2, rect)          # strict mode rejects weight 2
    assert err.value.code == "NOT_EVEN_PRIMITIVE"
    rep = surface_report(fig2, rect, relaxed=True)
    assert rep.orientable and rep.genus == 0
    assert rep.surface_name == "sphere"
    assert rep.total_nodes == 1
    assert len(rep.components) == 1
    k = rep.components[0]
    assert k.b1 == 0 and k.ends == 4 and k.delta == 1


def test_surface_report_ignores_a_marking_on_a_weight2_edge():
    """A 2-valent marking at (2, 1) on the weight-2 edge v1 -> v2 of the
    sphere fixture changes no part of the report: W is still one
    component [v1, v2] with b1 0 and 4 ends, and the chain's one node is
    counted once."""
    curve = load_curve(fixture_path("sphere_w2.curve.json"))
    rect = load_domain(fixture_path("rect42.domain.json"))
    k, = [i for i, e in enumerate(curve.edges) if e.weight == 2]
    heavy = curve.edges[k]
    marked = TropicalCurve(
        2, [*curve.vertices.items(), ("m", (2, 1))],
        [*curve.edges[:k], Edge(heavy.tail, "m", heavy.direction, 2),
         Edge("m", heavy.head, heavy.direction, 2), *curve.edges[k + 1:]])
    assert validate_curve(marked).ok
    base = surface_report(curve, rect, relaxed=True).as_dict()
    assert base["totalNodes"] == 1
    assert base["components"] == [
        {"vertices": ["v1", "v2"], "b1": 0, "ends": 4, "delta": 1}]
    assert surface_report(marked, rect, relaxed=True).as_dict() == base


def test_surface_unbounded_cylinder():
    wf = wavefront(quadrant(), Fraction(1, 3))
    rep = surface_report(wf, quadrant())
    assert rep.orientable and rep.genus == 0 and rep.punctures == 2
    assert rep.euler_characteristic == 0


def test_surface_report_finds_the_crossings_once(monkeypatch):
    """The report reads the crossings of the even/primitive test: the
    crossing sweep, which every route to the crossings runs, runs once."""
    calls = []
    real = domain._crossing_sweep

    def counted(c, L, X, S):
        calls.append(c)
        return real(c, L, X, S)

    monkeypatch.setattr(domain, "_crossing_sweep", counted)
    sq = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                              {"normal": (0, 1), "offset": 0},
                              {"normal": (-1, 0), "offset": -1},
                              {"normal": (0, -1), "offset": -1}])
    cases = [(klein_curve(), quadrant(), 0),
             (klein_sum_curve(), quadrant(), 0),
             (wavefront(sq, Fraction(1, 4)), sq, 0),
             (wavefront(quadrant(), Fraction(1, 3)), quadrant(), 0),
             (crossing_curve(), PolyhedralDomain(2, []), 1)]
    for c, d, extra in cases:
        calls.clear()
        rep = surface_report(c, d)
        assert len(calls) == 1
        assert rep.extra_crossings == extra


# ---------------------------------------------------------------------------
# three-manifold reports


def test_h1_poincare():
    tripod = TropicalCurve(3, [("o", (0, 0, 0)), ("p1", (-1, 0, 0)),
                             ("p2", (0, -1, 0)), ("p3", (1, 1, 0))],
                         [Edge("o", "p1", (-1, 0, 0), 1, 0),
                          Edge("o", "p2", (0, -1, 0), 1, 1),
                          Edge("o", "p3", (1, 1, 0), 1, 2)])
    rep = h1_order(tripod, zs=[(0, 1, 2), (1, 0, 3), (0, 1, 5)])
    assert rep.h1_order == 1 and rep.mv == 1
    assert rep.rational_homology_sphere and rep.recursion_agrees
    assert [rho for _, rho in rep.leaf_data] == \
        [(0, 2, -1), (-3, 0, 1), (5, -5, 1)]


def test_h1_simplex_tripod_domain_driven():
    rep = h1_order(simplex_tripod_curve(), domain=simplex3())
    assert rep.h1_order == 4 and rep.mv == 1
    assert rep.parity_warning is None
    assert rep.recursion_agrees


def test_h1_lens_values():
    for p, q in [(1, 0), (2, 1), (5, 2), (7, 3)]:
        rep = h1_order(lens_curve(), zs=[(1, 0, 0), (-q, p, 0)])
        assert rep.h1_order == p


def test_h1_infinite():
    dis = TropicalCurve(3, [("m", (0, 0, 0)), ("b0", (-1, 1, 0)),
                            ("b1", (1, -1, 0))],
                        [Edge("m", "b0", (-1, 1, 0), 1, 0),
                         Edge("m", "b1", (1, -1, 0), 1, 1)])
    rep = h1_order(dis, zs=[(1, 0, 0), (1, 0, 0)])
    assert rep.infinite_h1
    assert not rep.rational_homology_sphere
    assert not rep.deformation_persists


def test_h1_weighted_line_is_not_primitive_boundary():
    # the single line goes through the torsion recursion, whose root edge
    # must have weight 1
    line = TropicalCurve(3, [("m", (0, 0, 0)), ("b0", (0, 0, -1)),
                             ("b1", (0, 0, 1))],
                         [Edge("m", "b0", (0, 0, -1), 2, 0),
                          Edge("m", "b1", (0, 0, 1), 2, 1)])
    zs = [(1, 0, 0), (-2, 5, 0)]
    assert mixed_h_product(line, zs) == 5
    with pytest.raises(WorkbenchError) as err:
        h1_order(line, zs=zs)
    assert err.value.code == "NOT_PRIMITIVE_BOUNDARY"


def test_a_direction_per_end_is_required():
    """Without a domain, h1, pieces and lens read one direction per end
    of the curve, as the mixed product and the evaluation matrix do, and
    refuse any other count."""
    tripod, one = load_curve(fixture_path("poincare.curve.json")), [(1, 0, 0)]
    for compute, ends in (
            (lambda: h1_order(tripod, zs=one), 3),
            (lambda: piece_decomposition(tripod, zs=one), 3),
            (lambda: lens_parameters(lens_curve(), zs=one), 2),
            (lambda: mixed_h_product(tripod, one), 3),
            (lambda: ev_matrix(tripod, one), 3)):
        with pytest.raises(WorkbenchError) as err:
            compute()
        assert str(err.value) == f"MISSING_Z: 1 directions for {ends} ends"


def test_h1_refuses_a_flat_junction_that_pieces_takes():
    """A 3-valent junction whose edges span a line: h1 refuses it with
    vertex_multiplicity's code and text, while pieces, which reads no
    junction plane, still answers with one pants bundle for it."""
    c = four_valent_and_flat()["flat"]
    assert validate_curve(c).ok
    zs = [(0, 1, 2)] * 3
    text = "DEGENERATE_VERTEX: edges at v do not span a 2-plane"
    with pytest.raises(WorkbenchError) as err:
        h1_order(c, zs=zs)
    assert str(err.value) == text
    with pytest.raises(WorkbenchError) as err:
        vertex_multiplicity(c, "v")
    assert str(err.value) == text
    rep = piece_decomposition(c, zs=zs).as_dict()
    assert [p["kind"] for p in rep["pieces"]] == \
        ["PANTS_BUNDLE"] + ["SOLID_TORUS"] * 3
    assert rep["gluing"] == [[0, 1, [0]], [0, 2, [1]], [0, 3, [2]]]


def test_h1_vertex_multiplicity_three():
    # edge directions (1,0,0), (1,3,0), (-2,-3,0): vertex multiplicity 3
    c = TropicalCurve(3, [("v", (0, 0, 0)), ("x", (1, 0, 0)),
                          ("y", (1, 3, 0)), ("z", (-2, -3, 0))],
                      [Edge("v", "x", (1, 0, 0), 1, 0),
                       Edge("v", "y", (1, 3, 0), 1, 1),
                       Edge("v", "z", (-2, -3, 0), 1, 2)])
    assert vertex_multiplicity(c, "v") == 3
    rng = random.Random(93)
    seen = 0
    while seen < 10:
        zs = [rand_primitive(rng) for _ in range(3)]
        product = mixed_h_product(c, zs)
        if product == 0:
            continue
        rep = h1_order(c, zs=zs)
        assert rep.mv == 3
        assert rep.h1_order * 3 == product
        assert rep.recursion_agrees
        seen += 1


def test_h1_parity_machinery():
    # detection of the standard simplex normal fan (any dilation is CP^3)
    from troplag.domain import is_standard_simplex_3
    assert is_standard_simplex_3(simplex3())
    big = PolyhedralDomain(3, [{"normal": (1, 0, 0), "offset": 0},
                               {"normal": (0, 1, 0), "offset": 0},
                               {"normal": (0, 0, 1), "offset": 0},
                               {"normal": (-1, -1, -1), "offset": -7}])
    assert is_standard_simplex_3(big)
    cube_face = PolyhedralDomain(3, [{"normal": (1, 0, 0), "offset": 0},
                                     {"normal": (0, 1, 0), "offset": 0},
                                     {"normal": (0, 0, 1), "offset": 0},
                                     {"normal": (-1, 0, 0), "offset": -1}])
    assert not is_standard_simplex_3(cube_face)
    # a compact bissectrice segment inside the simplex: order 2, no warning
    seg = TropicalCurve(3, [("m", ("1/4", "1/4", "1/4")),
                            ("b0", (0, "1/2", "1/2")),
                            ("b1", ("1/2", 0, 0))],
                        [Edge("m", "b0", (-1, 1, 1)),
                         Edge("m", "b1", (1, -1, -1))])
    rep = h1_order(seg, domain=simplex3())
    assert rep.h1_order == 2
    assert rep.parity_warning is None
    # and without a domain no parity statement is made at all
    rep2 = h1_order(seg, zs=[(0, 1, -1), (1, 0, 0)])
    assert rep2.parity_warning is None


def test_h1_propagates_the_momenta_once(monkeypatch):
    """One `Problem.momenta` pass from end 0 feeds both the mixed product
    and the torsion recursion of h1."""
    rng = random.Random(16)
    curve, zs = random_tree_problem(rng, 8, primitive=True)
    roots = []
    real = Problem.momenta
    monkeypatch.setattr(Problem, "momenta",
                        lambda self, root: roots.append(root) or
                        real(self, root))
    rep = h1_order(curve, zs=zs)
    assert roots == [0]
    assert rep.product == mixed_h_product(curve, zs)


def test_h1_consistency_random_corpus():
    rng = random.Random(95)
    seen = 0
    while seen < 60:
        curve, zs = random_tree_problem(rng, rng.choice([3, 4, 5, 6]),
                                        primitive=True)
        product = mixed_h_product(curve, zs)
        if product == 0:
            continue
        rep = h1_order(curve, zs=zs)
        mv = 1
        for v in curve.trivalent_vertices():
            mv *= vertex_multiplicity(curve, v)
        assert rep.mv == mv
        assert rep.h1_order * mv == product
        assert rep.recursion_agrees
        seen += 1


# ---------------------------------------------------------------------------
# pieces and lens parameters


def test_pieces_lens():
    rep = piece_decomposition(lens_curve(), zs=[(1, 0, 0), (-2, 5, 0)])
    assert [p.kind for p in rep.pieces] == ["SOLID_TORUS", "SOLID_TORUS"]
    assert len(rep.gluing) == 1


def test_pieces_poincare():
    tripod = TropicalCurve(3, [("o", (0, 0, 0)), ("p1", (-1, 0, 0)),
                             ("p2", (0, -1, 0)), ("p3", (1, 1, 0))],
                         [Edge("o", "p1", (-1, 0, 0), 1, 0),
                          Edge("o", "p2", (0, -1, 0), 1, 1),
                          Edge("o", "p3", (1, 1, 0), 1, 2)])
    rep = piece_decomposition(tripod, zs=[(0, 1, 2), (1, 0, 3), (0, 1, 5)])
    kinds = sorted(p.kind for p in rep.pieces)
    assert kinds == ["PANTS_BUNDLE"] + ["SOLID_TORUS"] * 3
    assert len(rep.gluing) == 3
    kernels = sorted(p.kernel for p in rep.pieces if p.kernel)
    assert kernels == sorted([(0, 2, -1), (-3, 0, 1), (5, -5, 1)])


def test_pieces_rp2():
    rp2 = TropicalCurve(2, [("b0", (0, 0)), ("b1", ("1/2", "1/2"))],
                        [Edge("b0", "b1", (1, 1))])
    rep = piece_decomposition(rp2, domain=triangle())
    assert sorted(p.kind for p in rep.pieces) == \
        ["DISK_PIECE", "MOEBIUS_PIECE"]
    assert len(rep.gluing) == 1


def test_pieces_unbounded_wavefront_has_annuli():
    wf = wavefront(quadrant(), Fraction(1, 3))
    rep = piece_decomposition(wf, domain=quadrant())
    kinds = sorted(p.kind for p in rep.pieces)
    assert kinds == ["ANNULUS", "ANNULUS", "DISK_PIECE", "PANTS_BUNDLE"]


def test_each_end_gets_its_boundary_point():
    """`_end_pieces` lists each end's boundary point, None for a
    puncture, in c.ends() order: each point stores its end's index and
    sits on that end's edge, exactly the punctures are annuli, and the
    end pieces of `pieces` have the same kinds."""
    wf = wavefront(quadrant(), Fraction(1, 3))
    cases = [(wf, quadrant()), (simplex_tripod_curve(), simplex3())]
    cases += [(wavefront(triangle(), Fraction(1, 5)), triangle())]
    nones = 0
    for c, d in cases:
        even = domain.require_even_primitive(c, d)
        ends = c.ends()
        resolved = topology._end_pieces(c, d, None)
        infos = [info for _, _, info in resolved]
        assert len(infos) == len(ends)
        assert [info for info in infos if info is not None] == \
            list(even.boundary)
        for j, (end, info) in enumerate(zip(ends, infos)):
            if info is not None:
                assert info.end_index == j
                assert info.edge_index == end.edge_index
        assert infos.count(None) == even.punctures
        nones += even.punctures
        assert [kind == "ANNULUS" for kind, _, _ in resolved] == \
            [info is None for info in infos]
        # the end pieces follow the junction pieces, in c.ends() order
        pieces = piece_decomposition(c, domain=d).pieces[-len(ends):]
        assert [p.kind for p in pieces] == [kind for kind, _, _ in resolved]
    assert nones == 2


def test_h1_rejects_cycles():
    pad = (0,)
    verts = [("v0", (0, 0) + pad), ("v1", (1, 0) + pad),
             ("v2", (1, 1) + pad), ("v3", (0, 1) + pad)]
    edges = [
        Edge("v0", "v1", (1, 0) + pad), Edge("v1", "v2", (0, 1) + pad),
        Edge("v3", "v2", (1, 0) + pad), Edge("v0", "v3", (0, 1) + pad),
        Edge("v0", None, (-1, -1) + pad, 1, 0),
        Edge("v1", None, (1, -1) + pad, 1, 1),
        Edge("v2", None, (1, 1) + pad, 1, 2),
        Edge("v3", None, (-1, 1) + pad, 1, 3)]
    cyc = TropicalCurve(3, verts, edges)
    with pytest.raises(WorkbenchError) as err:
        h1_order(cyc, zs=[(0, 1, 2)] * 4)
    assert err.value.code == "TREE_ONLY"


def test_lens_parameters_table():
    assert lens_parameters(lens_curve(), zs=[(1, 0, 0), (0, 1, 0)]).p == 1
    for p, q in [(2, 1), (5, 2), (7, 3)]:
        rep = lens_parameters(lens_curve(), zs=[(1, 0, 0), (-q, p, 0)])
        assert rep.p == p
        h = h1_order(lens_curve(), zs=[(1, 0, 0), (-q, p, 0)])
        assert h.h1_order == rep.p
    assert lens_parameters(lens_curve(), zs=[(1, 0, 0), (-2, 5, 0)]) == \
        lens_parameters(lens_curve(), zs=[(1, 0, 0), (-3, 5, 0)])


@pytest.mark.parametrize("zs", [[(0, 0, 1), (1, 0, 0)],
                                [(1, 0, 0), (0, 0, -1)]])
def test_lens_parameters_refuses_a_direction_along_the_edge(zs):
    """A constraint direction parallel to the segment makes its kernel
    class u x z vanish, at either end."""
    with pytest.raises(WorkbenchError) as err:
        lens_parameters(lens_curve(), zs=zs)
    assert err.value.code == "DEGENERATE_VERTEX"


def looped_canonical_q(p, q):
    """The least of +-q and +-q^-1 mod p, the inverse found by trying
    every residue."""
    q %= p
    cands = {q % p, (-q) % p}
    for r in range(p):
        if (r * q) % p == 1:
            cands.add(r)
            cands.add((-r) % p)
            break
    return min(cands)


def test_canonical_q_matches_the_residue_loop():
    for p in range(1, 61):
        for q in range(-p, 2 * p):
            assert topology._canonical_q(p, q) == looped_canonical_q(p, q)


def _doubled(solve):
    return lambda a, u: tuple(2 * x for x in solve(a, u))


def _half_shifted(solve):
    """Still a cross solution over Q (a x a == 0), but off the lattice:
    the coordinate along a becomes a half-integer for odd p."""
    return lambda a, u: tuple(x + Fraction(y, 2)
                              for x, y in zip(solve(a, u), a))


@pytest.mark.parametrize("spoil", [_doubled, _half_shifted])
@pytest.mark.parametrize("p, q", [(5, 2), (7, 3)])
def test_lens_parameters_rejects_off_lattice_kernel_coordinates(
        monkeypatch, spoil, p, q):
    """A wrong cross solution gives kernel coordinates that are not
    integers or whose second one is not +-p; lens_parameters must refuse
    them, not round them.  Doubling trips the check on the second
    coordinate, the half shift only the integrality check on the first."""
    monkeypatch.setattr(topology, "solve_cross",
                        spoil(topology.solve_cross))
    with pytest.raises(WorkbenchError) as err:
        lens_parameters(lens_curve(), zs=[(1, 0, 0), (-q, p, 0)])
    assert err.value.code == "INTERNAL_INCONSISTENCY"


def test_surface_chi_from_pieces():
    # Euler characteristic recomputed from the piece kinds
    cases = [
        (TropicalCurve(2, [("b0", (0, 0)), ("b1", ("1/2", "1/2"))],
                       [Edge("b0", "b1", (1, 1))]), triangle(), False),
        (klein_curve(), quadrant(), False),
        (klein_sum_curve(), quadrant(), False),
    ]
    for curve, dom, relaxed in cases:
        rep = surface_report(curve, dom, relaxed)
        pieces = piece_decomposition(curve, domain=dom, relaxed=relaxed)
        chi = sum({"PANTS_BUNDLE": -1, "DISK_PIECE": 1, "MOEBIUS_PIECE": 0,
                   "ANNULUS": 0}[p.kind] for p in pieces.pieces)
        assert chi == rep.euler_characteristic


def test_surface_unimodular_invariance():
    rng = random.Random(97)
    curve, dom = klein_curve(), quadrant()
    base = surface_report(curve, dom)
    for _ in range(10):
        a = rng.randint(-2, 2)
        m = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        inv = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))

        def apply_pt(p):
            return (m[0][0] * p[0] + m[0][1] * p[1],
                    m[1][0] * p[0] + m[1][1] * p[1])

        def apply_normal(p):
            return (inv[0][0] * p[0] + inv[1][0] * p[1],
                    inv[0][1] * p[0] + inv[1][1] * p[1])

        c2 = TropicalCurve(2, [(v, apply_pt(pos)) for v, pos in
                               curve.vertices.items()],
                           [Edge(e.tail, e.head, apply_pt(e.direction),
                                 e.weight, e.leaf_label)
                            for e in curve.edges])
        d2 = PolyhedralDomain(2, [{"normal": apply_normal(f.normal),
                                   "offset": f.offset}
                                  for f in dom.facets])
        rep = surface_report(c2, d2)
        assert (rep.orientable, rep.crosscaps, rep.total_nodes,
                rep.euler_characteristic) == \
            (base.orientable, base.crosscaps, base.total_nodes,
             base.euler_characteristic)


def test_reports_unimodular_invariance():
    rng = random.Random(96)
    tripod = simplex_tripod_curve()
    zs = [(1, 0, 0), (1, -1, 0), (0, 1, -1)]
    base = h1_order(tripod, zs=zs).h1_order
    for _ in range(10):
        # random unimodular map as a product of integer shears
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            k = rng.randint(-2, 2)
            for col in range(3):
                m[i][col] += k * m[j][col]
        assert abs(det_bareiss(m)) == 1

        def apply(v):
            return tuple(sum(m[r][k2] * v[k2] for k2 in range(3))
                         for r in range(3))

        c2 = TropicalCurve(3, [(vid, apply(pos)) for vid, pos in
                               tripod.vertices.items()],
                           [Edge(e.tail, e.head, apply(e.direction),
                                 e.weight, e.leaf_label)
                            for e in tripod.edges])
        assert h1_order(c2, zs=[apply(z) for z in zs]).h1_order == base


# ---------------------------------------------------------------------------
# re-encoding invariance: per-end data follows the end, not the edge index


def segment_curve(marked):
    """The segment (1/2,0,0) -> (0,1/2,1/2) of the simplex, unmarked (one
    edge, two unlabeled ends) or with a labeled marking at its midpoint."""
    if not marked:
        return TropicalCurve(3, [("a", ("1/2", 0, 0)),
                                 ("b", (0, "1/2", "1/2"))],
                             [Edge("a", "b", (-1, 1, 1))])
    return TropicalCurve(3, [("a", ("1/2", 0, 0)), ("b", (0, "1/2", "1/2")),
                             ("m", ("1/4", "1/4", "1/4"))],
                         [Edge("m", "b", (-1, 1, 1), 1, 1),
                          Edge("m", "a", (1, -1, -1), 1, 0)])


def reversed_edge(c, i):
    """c with the stored orientation of bounded edge i flipped."""
    edges = list(c.edges)
    e = edges[i]
    edges[i] = Edge(e.head, e.tail, tuple(-x for x in e.direction), e.weight,
                    e.leaf_label)
    return rebuilt(c, edges)


def clipped_tree(rng):
    """A random primitive tree whose rays stop at endpoint vertices, with
    a constraint direction for each endpoint."""
    curve, zs = random_tree_problem(rng, rng.choice([3, 4, 5, 6]),
                                    primitive=True)
    tips, edges, z_at = [], [], {}
    for e in curve.edges:
        if e.bounded:
            edges.append(e)
            continue
        tip = f"t{e.leaf_label}"
        t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        tips.append((tip, tuple(p + t * d for p, d in
                                zip(curve.position(e.tail), e.direction))))
        edges.append(Edge(e.tail, tip, e.direction, e.weight, e.leaf_label))
        z_at[tip] = zs[e.leaf_label]
    return rebuilt(curve, edges, tips), z_at


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).as_dict()
    except WorkbenchError as err:
        return err.code


def outputs(c, domain=None, z_at=None):
    """The h1, lens, multiplicity and pieces reports, with the directions
    given per endpoint vertex (z_at) or by the domain."""
    kw = {"domain": domain}
    out = {}
    if z_at is not None:
        zs = [z_at[e.endpoint] for e in c.ends()]
        kw = {"zs": zs}
        out["multiplicity"] = mixed_h_product(c, zs)
        if len(zs) >= 3:
            out["determinant"] = abs(ev_matrix(c, zs).determinant())
    out["h1"] = _attempt(h1_order, c, **kw)
    out["lens"] = _attempt(lens_parameters, c, **kw)
    out["pieces"] = _attempt(piece_decomposition, c, **kw)
    return out


def invariants(c, domain=None, z_at=None):
    """What no re-encoding may change: H1 order and product, lens
    parameters, and the piece kind and kernel of each end, keyed by its
    endpoint vertex."""
    out = outputs(c, domain, z_at)
    h1 = out["h1"]
    per_end = {}
    for piece in out["pieces"]["pieces"]:
        if piece["anchor"].startswith("end:"):
            per_end[piece["anchor"].split(":")[2]] = (piece["kind"],
                                                      piece.get("kernel"))
    return {"h1Order": h1 if isinstance(h1, str) else h1["h1Order"],
            "product": None if isinstance(h1, str) else h1["product"],
            "lens": out["lens"], "ends": per_end}


def reencoding_cases():
    rng = random.Random(59)
    seg_z = {"a": (1, 0, 0), "b": (-2, 5, 0)}
    cases = [(segment_curve(marked), {"domain": simplex3()})
             for marked in (False, True)]
    cases += [(segment_curve(marked), {"z_at": seg_z})
              for marked in (False, True)]
    cases.append((simplex_tripod_curve(), {"domain": simplex3()}))
    for _ in range(12):
        tree, z_at = clipped_tree(rng)
        cases.append((tree, {"z_at": z_at}))
    return cases


def test_segment_invariants_with_and_without_marking():
    dom = invariants(segment_curve(False), domain=simplex3())
    assert dom == invariants(segment_curve(True), domain=simplex3())
    assert dom["h1Order"] == dom["product"] == 2
    assert dom["lens"] == {"p": 2, "qCanonical": 1}
    assert dom["ends"] == {"a": ("SOLID_TORUS", [0, -1, 1]),
                           "b": ("SOLID_TORUS", [-2, -1, -1])}
    z_at = {"a": (1, 0, 0), "b": (-2, 5, 0)}
    lines = invariants(segment_curve(False), z_at=z_at)
    assert lines == invariants(segment_curve(True), z_at=z_at)
    assert lines["h1Order"] == lines["product"] == 5
    assert lines["lens"] == {"p": 5, "qCanonical": 2}


def test_reversing_an_edge_changes_no_output():
    for c, kw in reencoding_cases():
        base = outputs(c, **kw)
        for i in c.bounded_indices():
            flipped = reversed_edge(c, i)
            if len(c.edges) == 1:
                # the two unlabeled ends of a lone edge are listed head
                # first, so flipping it swaps their order
                assert invariants(flipped, **kw) == invariants(c, **kw)
            else:
                assert outputs(flipped, **kw) == base


def test_inserting_a_marking_changes_no_invariant():
    for c, kw in reencoding_cases():
        base = invariants(c, **kw)
        for i in c.bounded_indices():
            assert invariants(marked_edge(c, i), **kw) == base
