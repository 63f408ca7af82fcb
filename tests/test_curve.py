import random
from fractions import Fraction

import pytest

from conftest import (embed_skeleton, fixture_path, internal_edges,
                      random_balanced_skeleton)

import boundary_oracle
from enumeration_oracle import rooted_sums

from troplag.curve import (Edge, End, TreeTopology, TropicalCurve,
                           ValidationReport, betti_and_degree,
                           combinatorial_type, extend_curve, regularity_check,
                           split_at_edge, trivalent_trees, validate_curve)
from troplag.errors import WorkbenchError
from troplag.io_json import load_curve
from troplag.lattice import content


def simplex_tripod_curve():
    return TropicalCurve(3, [
        ("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
        ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))], [
        Edge("p", "a", (0, -1, -1), 1, 0),
        Edge("p", "b", (1, 1, -1), 1, 1),
        Edge("p", "c", (-1, 0, 2), 1, 2)])


def test_dict_edges_build_the_same_curve():
    """A library caller may give edges as dicts with the JSON format's
    keys; "head" and "weight" may be left out (a ray, weight 1), and the
    direction may be a list."""
    verts = [("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
             ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))]
    dicts = [{"tail": "p", "head": "a", "dir": [0, -1, -1], "weight": 1,
              "leaf_label": 0},
             {"tail": "p", "head": "b", "dir": (1, 1, -1), "leaf_label": 1},
             Edge("p", "c", (-1, 0, 2), 1, 2)]
    assert TropicalCurve(3, verts, dicts) == simplex_tripod_curve()
    ray = TropicalCurve(2, [("o", (0, 0))], [{"tail": "o", "dir": [1, 0]}])
    assert ray.edges == (Edge("o", None, (1, 0), 1, None),)


def test_validate_single_edge_both_ends_free():
    c = TropicalCurve(3, [("b0", (0, 0, 0)), ("b1", (0, 0, 1))],
                      [Edge("b0", "b1", (0, 0, 1))])
    assert validate_curve(c).ok


def test_validate_simplex_tripod():
    assert validate_curve(simplex_tripod_curve()).ok


def test_validate_balancing_failure():
    c = TropicalCurve(2, [("v", (0, 0)), ("x", (1, 0)), ("y", (0, 1)),
                          ("z", (-1, 0))],
                      [Edge("v", "x", (1, 0)), Edge("v", "y", (0, 1)),
                       Edge("v", "z", (-1, 0))])
    rep = validate_curve(c)
    assert not rep.ok
    assert any("balancing" in s for s in rep.issues)


def test_validate_rejects_degenerate_marking():
    c = TropicalCurve(2, [("m", (0, 0)), ("a", (1, 0)), ("b", (0, 1))],
                      [Edge("m", "a", (1, 0)), Edge("m", "b", (0, 1))])
    rep = validate_curve(c)
    assert not rep.ok
    assert any("2-valent" in s for s in rep.issues)


def test_validate_accepts_straight_marking():
    c = TropicalCurve(2, [("m", (0, 0)), ("a", (1, 0)), ("b", (-2, 0))],
                      [Edge("m", "a", (1, 0)), Edge("m", "b", (-1, 0))])
    assert validate_curve(c).ok


def test_validate_non_primitive_direction():
    c = TropicalCurve(2, [("a", (0, 0)), ("b", (2, 0))],
                      [Edge("a", "b", (2, 0))])
    rep = validate_curve(c)
    assert not rep.ok and any("primitive" in s for s in rep.issues)


def test_validate_position_direction_mismatch():
    c = TropicalCurve(2, [("a", (0, 0)), ("b", (1, 1))],
                      [Edge("a", "b", (1, 0))])
    assert not validate_curve(c).ok


def test_validate_disconnected():
    c = TropicalCurve(2, [("a", (0, 0)), ("b", (1, 0)),
                          ("x", (5, 5)), ("y", (6, 5))],
                      [Edge("a", "b", (1, 0)), Edge("x", "y", (1, 0))])
    rep = validate_curve(c)
    assert not rep.ok and any("connected" in s for s in rep.issues)


# one small curve per validation message, with the issues it must give
INVALID_CURVES = {
    "dimension must be at least 2": (
        TropicalCurve(1, [("a", (0,)), ("b", (1,))], [Edge("a", "b", (1,))]),
        ("dimension must be at least 2",)),
    "position has wrong dimension": (
        TropicalCurve(2, [("a", (0, 0)), ("b", (1, 0)), ("z", (0, 0, 0))],
                      [Edge("a", "b", (1, 0))]),
        ("vertex z: position has wrong dimension",)),
    "unknown tail": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", None, (1, 0)),
                                           Edge("q", None, (0, 1))]),
        ("edge 1: unknown tail q",)),
    "unknown head": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", "q", (1, 0))]),
        ("edge 0: unknown head q",)),
    "direction has wrong dimension": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", None, (1, 0, 0))]),
        ("edge 0: direction has wrong dimension",)),
    "zero direction": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", None, (0, 0))]),
        ("edge 0: zero direction",)),
    "weight must be a positive integer": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", None, (1, 0), 0)]),
        ("edge 0: weight must be a positive integer",)),
    "loop edge": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", "a", (1, 0))]),
        ("edge 0: loop edge",)),
    "isolated": (
        TropicalCurve(2, [("a", (0, 0))], []),
        ("vertex a: isolated",)),
    "duplicate leaf labels": (
        TropicalCurve(2, [("a", (0, 0))], [Edge("a", None, (1, 0), 1, 0),
                                           Edge("a", None, (-1, 0), 1, 0)]),
        ("duplicate leaf labels",)),
}


@pytest.mark.parametrize("name", sorted(INVALID_CURVES))
def test_validate_reports_each_message(name):
    c, issues = INVALID_CURVES[name]
    rep = validate_curve(c)
    assert rep == ValidationReport(False, issues)
    assert rep.issues == boundary_oracle.validate_curve(c)


def test_betti_and_degree_tripod():
    bd = betti_and_degree(simplex_tripod_curve())
    assert bd.b1 == 0 and bd.kappa == 0 and bd.degree == ()
    ext = extend_curve(simplex_tripod_curve())
    bde = betti_and_degree(ext)
    assert bde.b1 == 0 and bde.kappa == 3
    assert set(bde.degree) == {(0, -1, -1), (1, 1, -1), (-1, 0, 2)}


def test_betti_square_cycle():
    # square with four diagonal rays: one independent cycle, four ends
    c = _square_cycle(dim=2)
    bd = betti_and_degree(c)
    assert bd.b1 == 1 and bd.kappa == 4


def _square_cycle(dim):
    pad = () if dim == 2 else (0,)
    verts = [("v0", (0, 0) + pad), ("v1", (1, 0) + pad),
             ("v2", (1, 1) + pad), ("v3", (0, 1) + pad)]
    edges = [
        Edge("v0", "v1", (1, 0) + pad), Edge("v1", "v2", (0, 1) + pad),
        Edge("v3", "v2", (1, 0) + pad), Edge("v0", "v3", (0, 1) + pad),
        Edge("v0", None, (-1, -1) + pad), Edge("v1", None, (1, -1) + pad),
        Edge("v2", None, (1, 1) + pad), Edge("v3", None, (-1, 1) + pad)]
    return TropicalCurve(dim, verts, edges)


def test_regularity_trees():
    ext = extend_curve(simplex_tripod_curve())
    rep = regularity_check(ext)
    assert rep.regular and rep.rank == 0
    assert rep.def_dim == 3 + (3 - 3) == rep.expected_dim


def test_regularity_planar_cycle():
    rep = regularity_check(_square_cycle(dim=2))
    assert rep.rank == 2
    assert rep.def_dim == 2 + 4 - 2 == 4
    assert rep.expected_dim == 4 + (2 - 3) * (1 - 1) == 4
    assert rep.regular


def test_regularity_spatial_planar_cycle_fails():
    rep = regularity_check(_square_cycle(dim=3))
    assert rep.rank == 2          # cycle directions span only a plane
    assert not rep.regular        # needs rank 3 in a 3-space


def test_regularity_rejects_a_curve_in_two_pieces():
    """Two square cycles far apart: each has a chord, but no spanning
    tree joins them, so the check refuses the curve as validation does."""
    sq = _square_cycle(dim=2)
    verts = list(sq.vertices.items()) + [
        (v + "'", (x + 100, y + 100)) for v, (x, y) in sq.vertices.items()]
    edges = list(sq.edges) + [
        Edge(e.tail + "'", e.head and e.head + "'", e.direction)
        for e in sq.edges]
    c = TropicalCurve(2, verts, edges)
    assert validate_curve(c).issues == ("curve is not connected",)
    with pytest.raises(WorkbenchError) as err:
        regularity_check(c)
    assert (err.value.code, str(err.value)) == \
        ("INVALID_CURVE", "INVALID_CURVE: curve is not connected")


def test_regularity_rejects_non_trivalent():
    with pytest.raises(WorkbenchError) as err:
        regularity_check(simplex_tripod_curve())     # endpoints are 1-valent
    assert err.value.code == "NOT_TRIVALENT"


def _caterpillar():
    verts = [("u", (0, 0, 0)), ("v", (1, 1, 0))]
    edges = [Edge("u", None, (-1, 0, 0), 1, 0),
             Edge("u", None, (0, -1, 0), 1, 1),
             Edge("u", "v", (1, 1, 0), 1, None),
             Edge("v", None, (0, 1, -1), 1, 2),
             Edge("v", None, (1, 0, 1), 1, 3)]
    return TropicalCurve(3, verts, edges)


def test_split_caterpillar():
    c = _caterpillar()
    assert validate_curve(c).ok
    res = split_at_edge(c, 2, (Fraction(1, 2), Fraction(1, 2), 0))
    for part in (res.h1, res.h2):
        assert validate_curve(part).ok
        assert len(part.ends()) == 3
    k1 = len(res.h1.ends())
    k2 = len(res.h2.ends())
    assert k1 + k2 == len(c.ends()) + 2
    # the two new rays run in opposite directions
    r1 = res.h1.edges[res.r1_index]
    r2 = res.h2.edges[res.r2_index]
    assert r1.direction == tuple(-x for x in r2.direction)


def test_split_requires_interior_point():
    c = _caterpillar()
    with pytest.raises(WorkbenchError):
        split_at_edge(c, 2, (0, 0, 0))
    with pytest.raises(WorkbenchError):
        split_at_edge(c, 0, (Fraction(-1, 2), 0, 0))


def test_split_rejects_a_curve_in_two_pieces():
    """A square cycle plus a separate segment: b1() reads 0, but the
    halves of a cut would not be curves, so the cut is refused as
    validation refuses the curve."""
    sq = _square_cycle(dim=3)
    c = TropicalCurve(3, list(sq.vertices.items()) +
                      [("x", (5, 5, 5)), ("y", (6, 5, 5))],
                      list(sq.edges) + [Edge("x", "y", (1, 0, 0))])
    assert c.b1() == 0
    assert "curve is not connected" in validate_curve(c).issues
    with pytest.raises(WorkbenchError) as err:
        split_at_edge(c, 0, (Fraction(1, 2), 0, 0))
    assert (err.value.code, str(err.value)) == \
        ("INVALID_CURVE", "INVALID_CURVE: curve is not connected")


def test_split_and_reglue_preserves_type():
    rng = random.Random(11)
    for _ in range(10):
        sk, _ = random_balanced_skeleton(rng, rng.choice([4, 5]))
        c = embed_skeleton(rng, sk)
        for ei in c.bounded_indices():
            e = c.edges[ei]
            mid = tuple(Fraction(a + b, 2) for a, b in
                        zip(c.position(e.tail), c.position(e.head)))
            res = split_at_edge(c, ei, mid)
            glued_edges = [pe for i, pe in enumerate(res.h1.edges)
                           if i != res.r1_index]
            glued_edges += [pe for i, pe in enumerate(res.h2.edges)
                            if i != res.r2_index]
            glued_edges.append(Edge(e.tail, e.head, e.direction, e.weight,
                                    e.leaf_label))
            glued = TropicalCurve(3, list(c.vertices.items()), glued_edges)
            assert combinatorial_type(glued) == combinatorial_type(c)


def listed_ends(c):
    """The End records rebuilt from the edges, as every ends() call did
    before they were built with the curve."""
    ends = []
    for i, e in enumerate(c.edges):
        if not e.bounded:
            ends.append(End(i, "ray", e.tail, e.direction, e.weight,
                            e.leaf_label))
        else:
            if c.valence(e.head) == 1:
                ends.append(End(i, "endpoint", e.tail, e.direction,
                                e.weight, e.leaf_label, endpoint=e.head))
            if c.valence(e.tail) == 1:
                ends.append(End(i, "endpoint", e.head,
                                tuple(-x for x in e.direction), e.weight,
                                e.leaf_label, endpoint=e.tail))
    labels = [x.label for x in ends]
    if ends and all(l is not None for l in labels):
        if sorted(labels) != list(range(len(ends))):
            raise WorkbenchError(
                "INVALID_CURVE",
                f"end labels {sorted(labels)} are not 0..{len(ends) - 1}")
        ends.sort(key=lambda x: x.label)
    return ends


def relabeled(c, labels):
    """c with the leaf labels of its edges replaced, in edge order."""
    it = iter(labels)
    return TropicalCurve(c.dim, list(c.vertices.items()), [
        Edge(e.tail, e.head, e.direction, e.weight,
             None if e.leaf_label is None else next(it)) for e in c.edges])


def test_ends_are_built_once_and_match_the_rebuilt_records():
    rng = random.Random(21)
    curves = [load_curve(fixture_path(f"{name}.curve.json")) for name in (
        "crossing", "disappearing", "klein", "klein_sum", "lens", "poincare",
        "rp2", "segment", "simplex_tripod", "sphere_w2")]
    for kappa in range(3, 8):
        sk, _ = random_balanced_skeleton(rng, kappa)
        c = embed_skeleton(rng, sk)
        curves.append(c)
        # labels shuffled, one label dropped, all dropped
        labels = list(range(kappa))
        rng.shuffle(labels)
        curves.append(relabeled(c, labels))
        curves.append(relabeled(c, [None] + labels[1:]))
        curves.append(relabeled(c, [None] * kappa))
    for c in curves[:10]:
        try:
            curves.append(extend_curve(c))
        except WorkbenchError:      # a bare segment needs a marking
            pass
    for c in curves:
        assert c.ends() == tuple(listed_ends(c))
        assert c.ends() is c.ends()


def test_bad_end_labels_load_validate_and_fail_every_ends_call(tmp_path):
    path = tmp_path / "bad.curve.json"
    text = open(fixture_path("simplex_tripod.curve.json")).read()
    path.write_text(text.replace('"leaf_label": 2', '"leaf_label": 5'))
    c = load_curve(str(path))
    assert sorted(e.leaf_label for e in c.edges) == [0, 1, 5]
    assert validate_curve(c).ok
    with pytest.raises(WorkbenchError) as expected:
        listed_ends(c)
    for _ in range(3):
        with pytest.raises(WorkbenchError) as err:
            c.ends()
        assert err.value.code == "INVALID_CURVE"
        assert str(err.value) == str(expected.value)


def test_trivalent_tree_counts():
    for kappa, count in [(3, 1), (4, 3), (5, 15), (6, 105)]:
        assert sum(1 for _ in trivalent_trees(kappa)) == count


def listed_trivalent_trees(kappa):
    """The list-building enumeration, one leaf at a time over all trees:
    the oracle for the order of `trivalent_trees`."""
    base = TreeTopology(kappa, ((0, kappa), (1, kappa), (2, kappa)))
    trees = [base]
    next_internal = kappa + 1
    for leaf in range(3, kappa):
        new_trees = []
        for t in trees:
            m = next_internal
            for e in t.edges:
                rest = [x for x in t.edges if x != e]
                rest += [tuple(sorted((e[0], m))), tuple(sorted((e[1], m))),
                         tuple(sorted((leaf, m)))]
                new_trees.append(TreeTopology(kappa, tuple(sorted(rest))))
        trees = new_trees
        next_internal += 1
    return trees


def test_trivalent_trees_yield_the_listed_order():
    for kappa in range(3, 9):
        trees = trivalent_trees(kappa)
        assert not isinstance(trees, list)
        assert list(trees) == listed_trivalent_trees(kappa)
    # the argument is checked at the call, not at the first tree
    with pytest.raises(WorkbenchError) as err:
        trivalent_trees(2)
    assert err.value.code == "KAPPA_TOO_SMALL"


def test_internal_directions_examples():
    tripod = TreeTopology(3, ((0, 3), (1, 3), (2, 3)))
    parent, order, below = rooted_sums(
        tripod, [(-1, 0, 0), (0, -1, 0), (1, 1, 0)])
    assert order[0] == 3 and parent == [3, 3, 3, None]
    assert below[3] == (0, 0, 0) and not internal_edges(tripod)

    # the junction of leaf 0 is ref; below[5] is the edge 4 -> 5
    quad = TreeTopology(4, ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)))
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    parent, order, below = rooted_sums(quad, degree)
    assert order[0] == 4 and parent[5] == 4
    assert below[5] == (-1, -1, 0)
    assert content(below[5]) == 1

    quad_bad = TreeTopology(4, ((0, 4), (2, 4), (1, 5), (3, 5), (4, 5)))
    parent, order, below = rooted_sums(quad_bad, degree)
    assert order[0] == 4 and parent[5] == 4
    assert below[5] == (0, 0, 0)


def _side_sum(topology, degree, a, b):
    """Sum of the leaf vectors in the component of b without edge (a, b)."""
    adj = topology.adjacency()
    seen, stack, total = {a, b}, [b], (0, 0, 0)
    while stack:
        x = stack.pop()
        if x < topology.kappa:
            total = tuple(s + d for s, d in zip(total, degree[x]))
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return total


def test_internal_directions_match_side_sums():
    # also for degrees that do not sum to zero, where the two sides of an
    # edge are not negatives of each other
    rng = random.Random(12)
    for kappa in range(3, 7):
        for topo in trivalent_trees(kappa):
            degree = [tuple(rng.randint(-1, 1) for _ in range(3))
                      for _ in range(kappa)]
            parent, order, below = rooted_sums(topo, degree)
            ref = order[0]
            assert parent[ref] is None and ref in topo.adjacency()[0]
            assert below[ref] == tuple(map(sum, zip(*degree)))
            assert sorted(order) == list(range(2 * kappa - 2))
            for a, b in topo.edges:
                if parent[a] == b:
                    a, b = b, a
                assert parent[b] == a
                assert order.index(a) < order.index(b)
                assert below[b] == _side_sum(topo, degree, a, b)


def test_combinatorial_type_invariance():
    c = simplex_tripod_curve()
    relabeled = TropicalCurve(3, [
        ("x3", (0, "1/4", "3/4")), ("x0", ("1/4", "1/4", "1/4")),
        ("x1", ("1/4", 0, 0)), ("x2", ("1/2", "1/2", 0))], [
        Edge("x0", "x2", (1, 1, -1), 1, 1),
        Edge("x0", "x1", (0, -1, -1), 1, 0),
        Edge("x0", "x3", (-1, 0, 2), 1, 2)])
    assert combinatorial_type(c) == combinatorial_type(relabeled)


def test_combinatorial_type_distinguishes():
    tripod = extend_curve(simplex_tripod_curve())
    cat = _caterpillar()
    assert combinatorial_type(tripod) != combinatorial_type(cat)

    # same degree, different pairings: distinct internal direction
    def paired(first_pair):
        degree = {0: (1, 0, 0), 1: (0, 1, 0), 2: (-1, -1, 1), 3: (0, 0, -1)}
        a, b = first_pair
        rest = [j for j in range(4) if j not in first_pair]
        internal = tuple(-(degree[a][i] + degree[b][i]) for i in range(3))
        verts = [("u", (0, 0, 0)),
                 ("v", tuple(2 * x for x in internal))]
        edges = [Edge("u", None, degree[a], 1, a),
                 Edge("u", None, degree[b], 1, b),
                 Edge("u", "v", internal, 1, None),
                 Edge("v", None, degree[rest[0]], 1, rest[0]),
                 Edge("v", None, degree[rest[1]], 1, rest[1])]
        return TropicalCurve(3, verts, edges)

    c1 = paired((0, 1))
    c2 = paired((0, 2))
    assert validate_curve(c1).ok and validate_curve(c2).ok
    assert combinatorial_type(c1) != combinatorial_type(c2)


def test_combinatorial_type_of_a_line():
    """A line, one marking with two opposite rays, smooths to one chain
    with no node."""
    line = TropicalCurve(2, [("m", (0, 0))], [Edge("m", None, (1, 0)),
                                              Edge("m", None, (-1, 0))])
    assert combinatorial_type(line) == "(2, (('line', (1, 0), 1, ()),))"


def test_internal_directions_random_validate():
    rng = random.Random(12)
    for _ in range(25):
        sk, _ = random_balanced_skeleton(rng, rng.choice([3, 4, 5, 6]))
        c = embed_skeleton(rng, sk)
        assert validate_curve(c).ok
        # sum of ray degree vectors vanishes
        bd = betti_and_degree(c)
        total = tuple(sum(d[i] for d in bd.degree) for i in range(3))
        assert total == (0, 0, 0)
