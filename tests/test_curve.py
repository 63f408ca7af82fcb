import random
from fractions import Fraction

import pytest

from conftest import random_balanced_skeleton, embed_skeleton

from troplag.curve import (Edge, TreeTopology, TropicalCurve,
                           betti_and_degree, combinatorial_type,
                           extend_curve, internal_directions_from_leaves,
                           regularity_check, split_at_edge, trivalent_trees,
                           validate_curve)
from troplag.errors import WorkbenchError
from troplag.lattice import content


def simplex_tripod_curve():
    return TropicalCurve(3, [
        ("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
        ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))], [
        Edge("p", "a", (0, -1, -1), 1, 0),
        Edge("p", "b", (1, 1, -1), 1, 1),
        Edge("p", "c", (-1, 0, 2), 1, 2)])


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


def test_trivalent_tree_counts():
    assert len(trivalent_trees(3)) == 1
    assert len(trivalent_trees(4)) == 3
    assert len(trivalent_trees(5)) == 15
    assert len(trivalent_trees(6)) == 105


def test_internal_directions_examples():
    tripod = TreeTopology(3, ((0, 3), (1, 3), (2, 3)))
    sk = internal_directions_from_leaves(
        tripod, [(-1, 0, 0), (0, -1, 0), (1, 1, 0)])
    assert sk.ok and not tripod.internal_edges()

    quad = TreeTopology(4, ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)))
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    sk = internal_directions_from_leaves(quad, degree)
    assert sk.ok
    v = sk.dh[(4, 5)]
    assert v in ((1, 1, 0), (-1, -1, 0))
    assert content(sk.dh[(4, 5)]) == 1

    quad_bad = TreeTopology(4, ((0, 4), (2, 4), (1, 5), (3, 5), (4, 5)))
    sk = internal_directions_from_leaves(quad_bad, degree)
    assert not sk.ok and sk.degenerate == ((4, 5),)


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
            sk = internal_directions_from_leaves(topo, degree)
            degenerate = []
            for a, b in topo.internal_edges():
                assert sk.dh[(a, b)] == _side_sum(topo, degree, a, b)
                assert sk.dh[(b, a)] == tuple(-x for x in sk.dh[(a, b)])
                if not any(sk.dh[(a, b)]):
                    degenerate.append((a, b))
            assert sk.degenerate == tuple(degenerate)


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
