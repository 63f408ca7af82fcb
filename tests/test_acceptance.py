"""Acceptance suite: one test per criterion, exact expectations only.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  Every asserted number is either a published value or the
output of an independent oracle computed inside the test.
"""

import random
from fractions import Fraction

import pytest

from conftest import all_roots, fixture_path, random_tree_problem

from troplag.domain import (PolyhedralDomain, check_even_primitive,
                            validate_delzant, wavefront)
from troplag.errors import WorkbenchError
from troplag.io_json import load_curve, load_domain, load_lines
from troplag.lattice import smith_normal_form
from troplag.multiplicity import (build_problem, ev_matrix,
                                  mixed_h_product, splitting_check)
from troplag.topology import (dual_vertex_delta, h1_order, lens_parameters,
                              surface_report, vertex_multiplicity)


def _ok(name):
    import conftest
    line = f"ACCEPTANCE {name}: PASS"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def corpus():
    """Shared random corpus of balanced 3-valent trees with primitive z."""
    rng = random.Random(20260808)
    plain = []
    while len(plain) < 220:
        plain.append(random_tree_problem(rng, rng.choice([3, 4, 5, 6])))
    primitive = []
    while len(primitive) < 80:
        primitive.append(random_tree_problem(rng, rng.choice([3, 4, 5, 6]),
                                             primitive=True))
    return plain, primitive


def test_c01_poincare_fixture():
    curve = load_curve(fixture_path("poincare.curve.json"))
    lines = load_lines(fixture_path("poincare.lines.json"))
    zs = [l.direction for l in lines.lines]
    assert build_problem(curve, zs).rhos == \
        [(0, 2, -1), (-3, 0, 1), (5, -5, 1)]
    for root in all_roots(curve):
        assert mixed_h_product(curve, zs, root) == 1
    assert abs(ev_matrix(curve, zs).determinant()) == 1
    rep = h1_order(curve, zs=zs)
    assert rep.h1_order == 1 and rep.mv == 1
    _ok("c01 poincare sphere fixture")


def test_c02_simplex_tripod_fixture():
    curve = load_curve(fixture_path("simplex_tripod.curve.json"))
    lines = load_lines(fixture_path("simplex_tripod.lines.json"))
    zs = [l.direction for l in lines.lines]
    assert mixed_h_product(curve, zs) == 4
    assert vertex_multiplicity(curve, "p") == 1
    rep = h1_order(curve, domain=load_domain(fixture_path(
        "simplex3.domain.json")))
    assert rep.h1_order == 4
    assert rep.parity_warning is None
    _ok("c02 simplex tripod fixture")


def test_c03_lens_fixtures():
    curve = load_curve(fixture_path("lens.curve.json"))
    expected = {(1, 0): 0, (2, 1): 1, (5, 2): 2, (7, 3): 2}
    for (p, q), canonical in expected.items():
        lines = load_lines(fixture_path(f"lens_{p}_{q}.lines.json"))
        zs = [l.direction for l in lines.lines]
        assert mixed_h_product(curve, zs) == p
        rep = h1_order(curve, zs=zs)
        assert rep.h1_order == p
        lp = lens_parameters(curve, zs=zs)
        assert (lp.p, lp.q_canonical) == (p, canonical)
    _ok("c03 lens fixtures")


def test_c04_disappearing_fixture():
    curve = load_curve(fixture_path("disappearing.curve.json"))
    lines = load_lines(fixture_path("disappearing.lines.json"))
    zs = [l.direction for l in lines.lines]
    assert mixed_h_product(curve, zs) == 0
    rep = h1_order(curve, zs=zs)
    assert rep.infinite_h1
    assert rep.deformation_persists is False
    _ok("c04 disappearing fixture")


def test_c05_rp2_fixture():
    curve = load_curve(fixture_path("rp2.curve.json"))
    domain = load_domain(fixture_path("triangle.domain.json"))
    rep = surface_report(curve, domain)
    assert not rep.orientable and rep.crosscaps == 1
    assert rep.punctures == 0 and rep.total_nodes == 0
    even = check_even_primitive(curve, domain)
    kinds = {tuple(b.point): b for b in even.boundary}
    half = (Fraction(1, 2), Fraction(1, 2))
    assert kinds[half].kind == "MOMENTUM2"
    assert dict(kinds[half].momenta) == {2: 2}
    assert kinds[(0, 0)].kind == "BISSECTRICE"
    _ok("c05 RP2 fixture")


def test_c06_klein_bottle_fixture():
    curve = load_curve(fixture_path("klein.curve.json"))
    domain = load_domain(fixture_path("quadrant.domain.json"))
    assert dual_vertex_delta(curve, "v") == 2
    rep = surface_report(curve, domain)
    assert rep.crosscaps == 2 and rep.total_nodes == 2
    assert rep.surface_name == "Klein bottle"
    _ok("c06 Klein bottle fixture")


def test_c07_klein_sum_fixture():
    curve = load_curve(fixture_path("klein_sum.curve.json"))
    domain = load_domain(fixture_path("quadrant.domain.json"))
    rep = surface_report(curve, domain)
    assert rep.crosscaps == 4 and rep.total_nodes == 3
    assert sorted(k.delta for k in rep.components) == [1, 2]
    _ok("c07 Klein bottle sum fixture")


def test_c08_wavefront_square():
    domain = load_domain(fixture_path("unit_square.domain.json"))
    wf = wavefront(domain, Fraction(1, 4))
    even = check_even_primitive(wf, domain)
    assert even.ok and even.j == 0 and even.bissectrice == 4
    assert wf.b1() == 1
    rep = surface_report(wf, domain)
    assert rep.orientable and rep.genus == 1
    assert rep.surface_name == "torus"
    _ok("c08 wavefront of the unit square")


def test_c09_oracle_equivalence(corpus):
    plain, _ = corpus
    assert len(plain) >= 200
    for curve, zs in plain:
        assert mixed_h_product(curve, zs) == \
            abs(ev_matrix(curve, zs).determinant())
    _ok(f"c09 oracle equivalence on {len(plain)} random trees")


def test_c10_root_independence(corpus):
    plain, _ = corpus
    for curve, zs in plain:
        values = {mixed_h_product(curve, zs, root)
                  for root in all_roots(curve)}
        assert len(values) == 1
    _ok("c10 root independence on the corpus")


def test_c11_splitting_identity(corpus):
    plain, _ = corpus
    checked = 0
    for curve, zs in plain:
        for ei in curve.bounded_indices():
            try:
                rep = splitting_check(curve, ei, zs)
            except WorkbenchError as err:
                assert err.code == "SPLIT_DEGENERATE"
                continue
            assert rep.holds, (rep.lhs, rep.rhs)
            checked += 1
    assert checked >= 200
    _ok(f"c11 splitting identity on {checked} bounded edges")


def test_c12_pick_oracle():
    from troplag.curve import Edge, TropicalCurve
    from troplag.lattice import content, primitive_raw, rot90

    def brute(c, vid):
        inc = c.incident(vid)
        sides = [rot90(tuple(w * x for x in d)) for _, d, w in inc]
        pts = [(0, 0), sides[0],
               (sides[0][0] + sides[1][0], sides[0][1] + sides[1][1])]

        def inside(q):
            signs = set()
            for i in range(3):
                a, b = pts[i], pts[(i + 1) % 3]
                d = (b[0] - a[0]) * (q[1] - a[1]) \
                    - (b[1] - a[1]) * (q[0] - a[0])
                if d == 0:
                    return False
                signs.add(1 if d > 0 else -1)
            return len(signs) == 1

        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return sum(1 for x in range(min(xs), max(xs) + 1)
                   for y in range(min(ys), max(ys) + 1) if inside((x, y)))

    rng = random.Random(112)
    checked = 0
    while checked < 100:
        a = tuple(rng.randint(-6, 6) for _ in range(2))
        b = tuple(rng.randint(-6, 6) for _ in range(2))
        s = (-(a[0] + b[0]), -(a[1] + b[1]))
        if (0, 0) in (a, b, s) or a[0] * b[1] - a[1] * b[0] == 0:
            continue
        c = TropicalCurve(2, [("v", (0, 0)), ("x", a), ("y", b), ("z", s)],
                          [Edge("v", "x", primitive_raw(a), content(a)),
                           Edge("v", "y", primitive_raw(b), content(b)),
                           Edge("v", "z", primitive_raw(s), content(s))])
        assert dual_vertex_delta(c, "v") == brute(c, "v")
        checked += 1
    _ok("c12 Pick oracle on 100 random dual triangles")


def test_c13_snf_contract():
    rng = random.Random(113)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(nc))
                  for _ in range(nr))
        assert smith_normal_form(m).check(m)
    _ok("c13 SNF contract on 200 random matrices")


def test_c14_h1_consistency(corpus):
    # fixtures first
    fixture_sets = [
        ("poincare.curve.json", "poincare.lines.json"),
        ("simplex_tripod.curve.json", "simplex_tripod.lines.json"),
        ("lens.curve.json", "lens_2_1.lines.json"),
        ("lens.curve.json", "lens_5_2.lines.json"),
        ("lens.curve.json", "lens_7_3.lines.json"),
    ]
    for cpath, lpath in fixture_sets:
        curve = load_curve(fixture_path(cpath))
        zs = [l.direction for l in load_lines(fixture_path(lpath)).lines]
        product = mixed_h_product(curve, zs)
        rep = h1_order(curve, zs=zs)
        assert rep.h1_order * rep.mv == product
        assert rep.recursion_agrees
    _, primitive = corpus
    seen = 0
    for curve, zs in primitive:
        product = mixed_h_product(curve, zs)
        if product == 0:
            continue
        rep = h1_order(curve, zs=zs)
        assert rep.h1_order * rep.mv == product
        assert rep.recursion_agrees
        seen += 1
    assert seen >= 50
    _ok(f"c14 h1 * mv == product and recursion agreement "
        f"({seen} corpus trees)")


def test_c15_delzant_acceptance():
    triangle = load_domain(fixture_path("triangle.domain.json"))
    square = load_domain(fixture_path("unit_square.domain.json"))
    simplex = load_domain(fixture_path("simplex3.domain.json"))
    cube = PolyhedralDomain(3, [
        {"normal": (1, 0, 0), "offset": 0},
        {"normal": (0, 1, 0), "offset": 0},
        {"normal": (0, 0, 1), "offset": 0},
        {"normal": (-1, 0, 0), "offset": -1},
        {"normal": (0, -1, 0), "offset": -1},
        {"normal": (0, 0, -1), "offset": -1}])
    for dom in (triangle, square, simplex, cube):
        assert validate_delzant(dom).ok
    bad = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                               {"normal": (1, 2), "offset": 0}])
    rep = validate_delzant(bad)
    assert not rep.ok
    assert any(f.problem == "saturation" and f.index == 2
               for f in rep.failures)
    _ok("c15 Delzant validation")


def test_c16_enumerator_stability():
    # the count depends only on the degree and the direction collection:
    # two generic placements of lines with the same directions agree
    from troplag.domain import LineConfiguration
    from troplag.multiplicity import enumerate_count
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    directions = [(0, 1, 1), (1, 0, 2), (0, 1, 3), (1, 0, 1)]
    rng = random.Random(116)
    totals = []
    attempts = 0
    while len(totals) < 2 and attempts < 100:
        attempts += 1
        lines = LineConfiguration([
            {"point": tuple(Fraction(rng.randint(-15, 15),
                                     rng.randint(1, 3))
                            for _ in range(3)),
             "dir": d} for d in directions])
        try:
            res = enumerate_count(degree, lines)
        except WorkbenchError as err:
            if err.code == "NON_GENERIC_CONFIG":
                continue
            raise
        totals.append(res.total)
    assert len(totals) == 2
    assert totals[0] == totals[1] and totals[0] > 0
    _ok(f"c16 enumerator stability (totals {totals[0]} == {totals[1]})")
