import random
import sys
from fractions import Fraction

import pytest

from conftest import (all_roots, curve_tree, edge_vectors, fixture_path,
                      internal_edges, leaf_neighbor, line_and_triangle,
                      marked_edge, rand_nonzero, rand_primitive,
                      random_tree_problem, triangle_and_tripod)
from enumeration_oracle import enumerate_count as per_type_enumerate
from enumeration_oracle import rooted_sums, singular_type
from exact_oracle import solve_exact

from troplag import multiplicity
from troplag.curve import (Edge, TropicalCurve, trivalent_trees,
                           validate_curve)
from troplag.domain import LineConfiguration
from troplag.errors import WorkbenchError
from troplag.io_json import (canonical_json, curve_from_dict, load_curve,
                             load_lines)
from troplag.lattice import (cross, det_bareiss, dot, is_zero, vec_add,
                             vec_neg, vec_scale)
from troplag.multiplicity import (EvaluationMatrix, Problem, _glue,
                                  _subtree_planes, build_problem,
                                  enumerate_count, ev_matrix,
                                  mixed_h_product, splitting_check)
from troplag.topology import _junction_indices, vertex_multiplicity


def poincare_curve():
    return TropicalCurve(3, [("o", (0, 0, 0)), ("p1", (-1, 0, 0)),
                             ("p2", (0, -1, 0)), ("p3", (1, 1, 0))],
                         [Edge("o", "p1", (-1, 0, 0), 1, 0),
                          Edge("o", "p2", (0, -1, 0), 1, 1),
                          Edge("o", "p3", (1, 1, 0), 1, 2)])


POINCARE_Z = [(0, 1, 2), (1, 0, 3), (0, 1, 5)]


def simplex_tripod_curve():
    return TropicalCurve(3, [
        ("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
        ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))], [
        Edge("p", "a", (0, -1, -1), 1, 0),
        Edge("p", "b", (1, 1, -1), 1, 1),
        Edge("p", "c", (-1, 0, 2), 1, 2)])


TRIPOD_Z = [(1, 0, 0), (1, -1, 0), (0, 1, -1)]


# ---------------------------------------------------------------------------
# momenta


def propagate(m1, m2, d_out):
    """The junction rule as the paper states it: the momentum sent along
    d_out from the two arriving momenta m1 and m2."""
    return cross(cross(m1, m2), d_out)


def test_leaf_momenta_paper_values():
    rhos = build_problem(poincare_curve(), POINCARE_Z).rhos
    assert rhos == [(0, 2, -1), (-3, 0, 1), (5, -5, 1)]
    parallel = [(1, 0, 0)] + POINCARE_Z[1:]
    assert build_problem(poincare_curve(), parallel).rhos[0] == (0, 0, 0)


def test_propagate_example():
    """The paper's junction momentum of the Poincare tripod towards its
    third end, from the oracle and from `Problem.momenta`."""
    r1, r2 = (0, 2, -1), (-3, 0, 1)
    assert propagate(r1, r2, (1, 1, 0)) == (-6, 6, -1)
    assert propagate(r2, r1, (1, 1, 0)) == (6, -6, 1)
    prob = build_problem(poincare_curve(), POINCARE_Z)
    _, _, mom = prob.momenta(2)
    assert mom[prob.adj[2][0]] == (-6, 6, -1)


def test_propagate_orthogonal_and_parallel():
    """`_glue`'s normal is the oracle's momentum, u being minus the
    outgoing direction; it is orthogonal to that direction, and zero
    for parallel arriving momenta."""
    rng = random.Random(51)
    for _ in range(100):
        r1 = tuple(rng.randint(-6, 6) for _ in range(3))
        r2 = tuple(rng.randint(-6, 6) for _ in range(3))
        d = rand_primitive(rng)
        out = propagate(r1, r2, d)
        assert dot(out, d) == 0
        assert _glue((r1, 0), (r2, 0), vec_neg(d))[0] == out
    assert propagate((1, 2, 3), (2, 4, 6), (1, 0, 0)) == (0, 0, 0)
    assert _glue(((1, 2, 3), 0), ((2, 4, 6), 0), (-1, 0, 0))[0] == (0, 0, 0)


def _pair_at_end_0(outward, z, arriving, weight=1):
    """`Problem.pair_at` at end 0 of a hand-built tripod: the root ray
    has the weighted outward vector `outward` and constraint direction
    `z`, and its junction (node 3) sends `arriving`."""
    other = (0, 0, 1)
    prob = Problem([z, other, other], [cross(outward, z), None, None],
                   [[3], [3], [3], [0, 1, 2]], {(3, 0): (outward, weight, 0)},
                   ("o",))
    return prob.pair_at(0, [None, None, None, arriving])


def test_pair_at_leaf_root_examples():
    """The leaf-root case of `pair_at`: the content of the arriving
    momentum crossed with the root's own d x z, divided by the root
    weight, and its parallelism check (`ZERO_DIRECTION` is pinned through
    `mixed_h_product` below)."""
    assert _pair_at_end_0((1, 1, 0), (0, 1, 5), (-6, 6, -1)) == 1
    for p, q in [(2, 1), (5, 2), (7, 3)]:
        assert _pair_at_end_0((0, 0, 1), (-q, p, 0), (0, 1, 0)) == p
    # the cross product (0, 0, 4) over the root weight 2
    assert _pair_at_end_0((0, 0, 2), (-1, 2, 0), (0, 1, 0), 2) == 2
    assert _pair_at_end_0((0, 0, 1), (1, 1, 0), (-1, 1, 0)) == 0
    with pytest.raises(WorkbenchError) as err:
        _pair_at_end_0((1, 0, 0), (0, 0, -1), (1, 0, 0))
    assert (err.value.code, str(err.value)) == (
        "INCONSISTENT_MOMENTA",
        "INCONSISTENT_MOMENTA: (0, 0, 1) is not parallel to (1, 0, 0)")


# ---------------------------------------------------------------------------
# mixed h-product


def test_mixed_h_product_poincare_all_roots():
    for root in all_roots(poincare_curve()):
        assert mixed_h_product(poincare_curve(), POINCARE_Z, root) == 1


def test_mixed_h_product_simplex_tripod():
    assert mixed_h_product(simplex_tripod_curve(), TRIPOD_Z) == 4


def test_mixed_h_product_rejects_a_zero_root_ray():
    """An unvalidated tripod whose end-0 ray has direction 0 reaches the
    leaf-root pairing, which refuses it."""
    c = TropicalCurve(3, [("o", (0, 0, 0))],
                      [Edge("o", None, (0, 0, 0), 1, 0),
                       Edge("o", None, (0, -1, 0), 1, 1),
                       Edge("o", None, (1, 1, 0), 1, 2)])
    with pytest.raises(WorkbenchError) as err:
        mixed_h_product(c, POINCARE_Z)
    assert (err.value.code, str(err.value)) == \
        ("ZERO_DIRECTION", "ZERO_DIRECTION: leaf direction is zero")


def test_mixed_h_product_single_edge():
    dis = TropicalCurve(3, [("m", (0, 0, 0)), ("b0", (-1, 1, 0)),
                            ("b1", (1, -1, 0))],
                        [Edge("m", "b0", (-1, 1, 0), 1, 0),
                         Edge("m", "b1", (1, -1, 0), 1, 1)])
    assert mixed_h_product(dis, [(1, 0, 0), (1, 0, 0)]) == 0
    lens = TropicalCurve(3, [("m", (0, 0, "1/2")), ("b0", (0, 0, 0)),
                             ("b1", (0, 0, 1))],
                         [Edge("m", "b0", (0, 0, -1), 1, 0),
                          Edge("m", "b1", (0, 0, 1), 1, 1)])
    for p, q in [(1, 0), (2, 1), (5, 2), (7, 3)]:
        assert mixed_h_product(lens, [(1, 0, 0), (-q, p, 0)]) == p


def test_mixed_h_product_rejects_high_valence():
    star = TropicalCurve(3, [("v", (0, 0, 0))],
                         [Edge("v", None, (1, 0, 0), 1, 0),
                          Edge("v", None, (0, 1, 0), 1, 1),
                          Edge("v", None, (0, 0, 1), 1, 2),
                          Edge("v", None, (-1, -1, -1), 1, 3)])
    with pytest.raises(WorkbenchError) as err:
        mixed_h_product(star, [(0, 1, 2)] * 4)
    assert err.value.code == "NOT_TRIVALENT"


def test_momenta_need_a_spatial_curve():
    """A planar curve with spatial lines: a dimension error from
    build_problem, before any cross product."""
    klein = load_curve(fixture_path("klein.curve.json"))
    zs = [l.direction for l in load_lines(
        fixture_path("poincare.lines.json")).lines]
    for fn in (mixed_h_product, ev_matrix, build_problem):
        with pytest.raises(WorkbenchError) as err:
            fn(klein, zs)
        assert str(err.value) == \
            "DIMENSION_MISMATCH: rotational momenta need a 3-dim curve"


def oracle_momenta(curve, zs, root):
    """The momenta towards root from d x z at each end and `propagate`,
    recursively over the curve's chains (`conftest.curve_tree`):
    sent[key], the momentum from the subtree behind key towards its
    neighbour on the way to root, and the momenta arriving at root in
    chain order.  A junction propagates the momenta of its other chains
    in chain order."""
    adj = curve_tree(curve)
    ends = curve.ends()
    sent = {}

    def send(at, up):
        if isinstance(at, tuple):
            m = cross(ends[at[1]].dh(), zs[at[1]])
        else:
            m1, m2 = [send(other, at) for other, _, _, _ in adj[at]
                      if other != up]
            dh_out, = [dh for other, dh, _, _ in adj[at] if other == up]
            m = propagate(m1, m2, dh_out)
        sent[at] = m
        return m

    arrived = [send(other, root) for other, _, _, _ in adj[root]]
    return sent, arrived


def test_momenta_match_the_leaf_and_propagate_oracle():
    """`Problem.momenta`, on the enumerator's node numbering, against the
    oracle on the fixtures, the weighted caterpillar and 200 random
    trees (kappa 3-12, weighted and primitive), with every end and
    junction as root: each edge's signed momentum and the arrival order
    at the root."""
    problems = [(load_curve(fixture_path(f"{curve}.curve.json")),
                 [l.direction for l in load_lines(
                     fixture_path(f"{lines}.lines.json")).lines])
                for curve, lines in (("poincare", "poincare"),
                                     ("simplex_tripod", "simplex_tripod"),
                                     ("lens", "lens_5_2"),
                                     ("disappearing", "disappearing"))]
    problems.append((_weighted_caterpillar(),
                     [(0, 1, 2), (1, 0, 3), (0, 1, 5), (1, 1, 1)]))
    rng = random.Random(63)
    problems += [random_tree_problem(rng, rng.randint(3, 12), k % 2 == 0)
                 for k in range(200)]
    edges = weights = 0
    for curve, zs in problems:
        prob = build_problem(curve, zs)
        node = {("end", j): j for j in range(prob.kappa)}
        node.update((v, prob.kappa + k)
                    for k, v in enumerate(curve.trivalent_vertices()))
        assert len(node) == len(prob.adj)
        for root in all_roots(curve):
            sent, arrived = oracle_momenta(curve, zs, root)
            _, order, mom = prob.momenta(node[root])
            assert len(order) == len(node)
            assert {key: mom[node[key]] for key in sent} == sent
            assert [mom[y] for y in prob.adj[node[root]]] == arrived
            edges += len(sent)
        weights += any(e.weight > 1 for e in curve.edges if e.bounded)
    assert edges > 10000 and weights > 50


def problem_tree(prob):
    """A Problem's adjacency lists and chains keyed as
    `conftest.curve_tree` keys them: adj[key] = [(other, dh key -> other,
    weight, chain id)] in the Problem's adjacency order."""
    key = [("end", j) for j in range(prob.kappa)] + list(prob.junction_ids)
    return {key[x]: [(key[y], *prob.chain[x, y]) for y in ys]
            for x, ys in enumerate(prob.adj)}


def chain_oracle_problems():
    """Spatial trees with constraint directions for the chain oracle: the
    fixtures, the weighted caterpillar, two lines (two rays, through one
    and through two markings), a tripod whose marked ray is listed
    first, and 200 random trees (kappa 3-8, weighted and primitive), each
    also with a marking on each bounded edge in turn."""
    problems = [(load_curve(fixture_path(f"{curve}.curve.json")),
                 [l.direction for l in load_lines(
                     fixture_path(f"{lines}.lines.json")).lines])
                for curve, lines in (("poincare", "poincare"),
                                     ("simplex_tripod", "simplex_tripod"),
                                     ("lens", "lens_5_2"),
                                     ("segment", "lens_5_2"),
                                     ("disappearing", "disappearing"))]
    problems.append((_weighted_caterpillar(),
                     [(0, 1, 2), (1, 0, 3), (0, 1, 5), (1, 1, 1)]))
    lens_z = [(1, 0, 0), (-2, 5, 0)]
    problems.append((TropicalCurve(3, [("m", (0, 0, 0))],
                                   [Edge("m", None, (0, 0, 1), 1, 0),
                                    Edge("m", None, (0, 0, -1), 1, 1)]),
                     lens_z))
    problems.append((TropicalCurve(3, [("m", (0, 0, 0)), ("n", (0, 0, 2))],
                                   [Edge("m", "n", (0, 0, 1)),
                                    Edge("n", None, (0, 0, 1), 1, 1),
                                    Edge("m", None, (0, 0, -1), 1, 0)]),
                     lens_z))
    problems.append((TropicalCurve(3, [("m", (0, 0, 1)), ("v", (0, 0, 0))],
                                   [Edge("m", None, (0, 0, 1), 1, 2),
                                    Edge("v", None, (-1, 0, 0), 1, 0),
                                    Edge("v", "m", (0, 0, 1)),
                                    Edge("v", None, (1, 0, -1), 1, 1)]),
                     [(0, 1, 2), (1, 0, 3), (0, 1, 5)]))
    rng = random.Random(71)
    for k in range(200):
        curve, zs = random_tree_problem(rng, rng.randint(3, 8), k % 2 == 0)
        problems.append((curve, zs))
        problems += [(marked_edge(curve, i), zs)
                     for i in curve.bounded_indices()]
    return problems


def _value_or_error(fn):
    try:
        return fn()
    except WorkbenchError as err:
        return str(err)


def test_problem_matches_the_chain_tree_oracle():
    """`build_problem` against the chain tree found the slow way
    (`conftest.curve_tree`): every node's neighbours, dh, weight and
    chain id in order, the junction ids and each end's d x z; and h1's
    junction indices, read off the Problem, against
    `vertex_multiplicity` at every junction, with the same first error
    where a junction's edges do not span a plane."""
    problems = chain_oracle_problems()
    swapped = lines = marked = indices = degenerate = 0
    for curve, zs in problems:
        assert validate_curve(curve).ok
        prob = build_problem(curve, zs)
        assert problem_tree(prob) == curve_tree(curve)
        assert prob.rhos == [cross(end.dh(), z)
                             for end, z in zip(curve.ends(), zs)]
        junctions = curve.trivalent_vertices()
        assert prob.junction_ids == tuple(junctions)
        mults = _value_or_error(
            lambda: [vertex_multiplicity(curve, v) for v in junctions])
        assert _value_or_error(lambda: _junction_indices(prob)) == mults
        if isinstance(mults, str):
            degenerate += 1
        else:
            indices += sum(m > 1 for m in mults)
        lines += not junctions
        marked += bool(curve.marking_vertices())
        swapped += any(second is None and first is not None and
                       curve.edges[idxs[0]].head is None and len(idxs) > 1
                       for first, second, _, _, idxs in curve._chains())
    assert lines == 5 and swapped == 1
    assert marked > 400 and indices > 500 and degenerate > 0


# ---------------------------------------------------------------------------
# evaluation matrices


def test_ev_matrix_poincare():
    m = ev_matrix(poincare_curve(), POINCARE_Z)
    assert m.entries == ((0, 2, -1), (-3, 0, 1), (5, -5, 1))
    assert abs(m.determinant()) == 1


def test_ev_matrix_simplex_tripod():
    m = ev_matrix(simplex_tripod_curve(), TRIPOD_Z)
    assert abs(m.determinant()) == 4


def test_ev_matrix_needs_tree():
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
        ev_matrix(cyc, [(0, 1, 2)] * 4)
    assert err.value.code == "TREE_ONLY"


def test_a_walk_that_misses_a_component_is_refused():
    """A triangle with rays plus a separate tripod, whose rays come
    first: b1() reads 0, so build_problem takes it.  The walk from the
    first end sees the tripod alone, and a walk from the triangle's
    junction a or its first end comes back to a node it has reached."""
    c = curve_from_dict(triangle_and_tripod())
    assert c.b1() == 0
    assert validate_curve(c).issues == ("curve is not connected",)
    zs = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 3), (2, 1, 3)]
    calls = [lambda root=root: mixed_h_product(c, zs, root)
             for root in (None, "a", ("end", 3))]
    for compute in calls + [lambda: ev_matrix(c, zs)]:
        with pytest.raises(WorkbenchError) as err:
            compute()
        assert str(err.value) == "TREE_ONLY: a rooted walk needs a tree"


def test_a_curve_whose_first_end_meets_an_end_is_refused():
    """A two-ray line listed before a triangle with rays: b1() reads 0,
    and end 0's neighbour is end 1, so the default reference of the
    evaluation matrix is no junction.  Both routes refuse the curve as
    no tree."""
    c = curve_from_dict(line_and_triangle())
    assert c.b1() == 0
    zs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    for compute in (ev_matrix, mixed_h_product):
        with pytest.raises(WorkbenchError) as err:
            compute(c, zs)
        assert err.value.code == "TREE_ONLY"


def test_ev_matrix_reference_independence():
    rng = random.Random(61)
    for _ in range(20):
        curve, zs = random_tree_problem(rng, rng.choice([4, 5, 6]))
        nodes = curve.trivalent_vertices()
        vals = {abs(ev_matrix(curve, zs, ref=n).determinant())
                for n in nodes}
        assert len(vals) == 1


def climbed_ev_matrix(curve, zs, ref):
    """The evaluation matrix as built by climbing the parent links of the
    curve's chain tree (`conftest.curve_tree`) from every end to ref,
    writing -rho . dh_up in the column of each bounded chain on the way."""
    adj = curve_tree(curve)
    kappa = len(curve.ends())
    junctions = curve.trivalent_vertices()
    internal = sorted({cid for key in junctions
                       for other, _, _, cid in adj[key]
                       if other in junctions}, key=repr)
    link = {ref: None}
    stack = [ref]
    while stack:
        at = stack.pop()
        for other, dh, _, cid in adj[at]:
            if other not in link:
                link[other] = (at, vec_neg(dh), cid)
                stack.append(other)
    col_of = {cid: 3 + k for k, cid in enumerate(internal)}
    rows = []
    for j in range(kappa):
        at = ("end", j)
        (_, dh_in, _, _), = adj[at]
        rho = cross(vec_neg(dh_in), zs[j])
        row = list(rho) + [0] * len(internal)
        while at != ref:
            at, dh_up, cid = link[at]
            if cid in col_of:
                row[col_of[cid]] = -dot(rho, dh_up)
        rows.append(tuple(row))
    cols = ("t0", "t1", "t2") + tuple(f"e{cid}" for cid in internal)
    return EvaluationMatrix(tuple(rows), tuple(range(kappa)), cols, ref)


def test_ev_matrix_matches_the_climb_from_every_reference():
    """On fixture and random trees, weighted and primitive, with every
    junction as ref: the same entries, labels and ref as the climb."""
    problems = [(load_curve(fixture_path(f"{name}.curve.json")),
                 [l.direction for l in load_lines(
                     fixture_path(f"{name}.lines.json")).lines])
                for name in ("poincare", "simplex_tripod")]
    problems.append((_weighted_caterpillar(),
                     [(0, 1, 2), (1, 0, 3), (0, 1, 5), (1, 1, 1)]))
    rng = random.Random(62)
    problems += [random_tree_problem(rng, rng.randint(3, 12), k % 2 == 0)
                 for k in range(200)]
    weights = set()
    for curve, zs in problems:
        weights |= {e.weight for e in curve.edges if e.bounded}
        for ref in curve.trivalent_vertices():
            got, want = ev_matrix(curve, zs, ref), climbed_ev_matrix(
                curve, zs, ref)
            assert got.entries == want.entries
            assert got.row_labels == want.row_labels
            assert got.col_labels == want.col_labels
            assert got.ref == want.ref == ref
        default = ev_matrix(curve, zs)
        assert default == climbed_ev_matrix(curve, zs, default.ref)
    assert 1 in weights and max(weights) > 1


# ---------------------------------------------------------------------------
# oracle equivalence and root independence on a random corpus


def test_oracle_equivalence_random_corpus():
    rng = random.Random(71)
    checked = 0
    while checked < 200:
        kappa = rng.choice([3, 4, 5, 6])
        curve, zs = random_tree_problem(rng, kappa)
        det = abs(ev_matrix(curve, zs).determinant())
        rec = mixed_h_product(curve, zs)
        assert rec == det
        checked += 1


def test_root_independence_random_corpus():
    rng = random.Random(72)
    for _ in range(60):
        curve, zs = random_tree_problem(rng, rng.choice([3, 4, 5, 6]))
        values = {mixed_h_product(curve, zs, root)
                  for root in all_roots(curve)}
        assert len(values) == 1


def test_sign_invariance_in_z():
    rng = random.Random(73)
    for _ in range(40):
        curve, zs = random_tree_problem(rng, rng.choice([3, 4, 5]))
        base = mixed_h_product(curve, zs)
        j = rng.randrange(len(zs))
        flipped = list(zs)
        flipped[j] = tuple(-x for x in flipped[j])
        assert mixed_h_product(curve, flipped) == base
        assert abs(ev_matrix(curve, flipped).determinant()) == base


# ---------------------------------------------------------------------------
# splitting identity


def test_splitting_identity_random_corpus():
    rng = random.Random(74)
    checked = 0
    for _ in range(60):
        curve, zs = random_tree_problem(rng, rng.choice([4, 5, 6]))
        for ei in curve.bounded_indices():
            try:
                rep = splitting_check(curve, ei, zs)
            except WorkbenchError as err:
                assert err.code == "SPLIT_DEGENERATE"
                continue
            assert rep.holds, (rep.lhs, rep.rhs)
            checked += 1
    assert checked >= 100


def _weighted_caterpillar():
    # internal sum d1 + d2 = (-2, -2, 0): a weight-2 bounded edge
    verts = [("u", (0, 0, 0)), ("v", (2, 2, 0)),
             ("a", (-1, 0, 0)), ("b", (-1, -2, 0)),
             ("c", (2, 3, -1)), ("d", (4, 3, 1))]
    edges = [Edge("u", "a", (-1, 0, 0), 1, 0),
             Edge("u", "b", (-1, -2, 0), 1, 1),
             Edge("u", "v", (1, 1, 0), 2, None),
             Edge("v", "c", (0, 1, -1), 1, 2),
             Edge("v", "d", (2, 1, 1), 1, 3)]
    return TropicalCurve(3, verts, edges)


def test_splitting_weighted_edge_division_exact():
    curve = _weighted_caterpillar()
    assert validate_curve(curve).ok
    zs = [(0, 1, 2), (1, 0, 3), (0, 1, 5), (1, 1, 1)]
    assert mixed_h_product(curve, zs) == \
        abs(ev_matrix(curve, zs).determinant())
    rep = splitting_check(curve, 2, zs)
    assert rep.weight == 2
    assert (rep.m1 * rep.m2) % 2 == 0
    assert rep.holds, (rep.lhs, rep.rhs)


def test_splitting_degenerate_momentum():
    # both leaf momenta at the first vertex vanish: rho(r1) = 0
    curve = _weighted_caterpillar()
    zs = [(-1, 0, 0), (1, 2, 0), (0, 1, 5), (1, 1, 1)]
    rho1 = cross((-1, 0, 0), zs[0])
    rho2 = cross((-1, -2, 0), zs[1])
    assert is_zero(rho1) and is_zero(rho2)
    with pytest.raises(WorkbenchError) as err:
        splitting_check(curve, 2, zs)
    assert err.value.code == "SPLIT_DEGENERATE"


# ---------------------------------------------------------------------------
# enumeration


def poincare_lines():
    return LineConfiguration([
        {"point": (-1, 0, 0), "dir": (0, 1, 2)},
        {"point": (0, -1, 0), "dir": (1, 0, 3)},
        {"point": (1, 1, 0), "dir": (0, 1, 5)}])


def test_enumerate_poincare():
    degree = [(-1, 0, 0), (0, -1, 0), (1, 1, 0)]
    res = enumerate_count(degree, poincare_lines())
    assert res.total == 1
    accepted = [t for t in res.per_type if t.status == "accepted"]
    assert len(accepted) == 1
    curve = accepted[0].curve
    assert curve.position("n3") == (0, 0, 0)


def test_enumerate_tripod_hand_value():
    # the tripod of the order-4 example: total = |det(rho1, rho2, rho3)|
    degree = [(0, -1, -1), (1, 1, -1), (-1, 0, 2)]
    zs = TRIPOD_Z
    rhos = [cross(d, z) for d, z in zip(degree, zs)]
    hand = abs(dot(cross(rhos[0], rhos[1]), rhos[2]))
    assert hand == 4
    lines = LineConfiguration([
        {"point": (0, 0, 0), "dir": zs[0]},
        {"point": (1, 0, 0), "dir": zs[1]},
        {"point": (0, 0, 1), "dir": zs[2]}])
    res = enumerate_count(degree, lines)
    assert res.total == hand
    accepted = [t for t in res.per_type if t.status == "accepted"]
    assert accepted[0].curve.position("n3") == \
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_enumerate_four_leaves_two_configs_agree():
    # same degree and direction collection, two generic placements
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    directions = [(4, -1, 0), (5, 3, -5), (2, -2, 5), (-5, -3, -4)]
    rng = random.Random(81)
    totals = []
    for _ in range(2):
        while True:
            lines = LineConfiguration([
                {"point": tuple(Fraction(rng.randint(-12, 12), 1)
                                for _ in range(3)),
                 "dir": d}
                for d in directions])
            try:
                res = enumerate_count(degree, lines)
            except WorkbenchError as err:
                if err.code == "NON_GENERIC_CONFIG":
                    continue
                raise
            totals.append(res.total)
            break
    assert totals[0] == totals[1] > 0
    # the pairing with cancelling internal sum is reported as degenerate
    statuses = [t.status for t in res.per_type]
    assert statuses.count("degenerate") == 1


def test_enumerate_kappa_cap():
    degree = [(1, 0, 0)] * 8 + [(-8, 0, 0)]
    lines = LineConfiguration([{"point": (0, 0, 0), "dir": (0, 1, 0)}] * 9)
    with pytest.raises(WorkbenchError) as err:
        enumerate_count(degree, lines)
    assert err.value.code == "KAPPA_CAP"


def test_enumerate_relabeling_invariance():
    degree = [(1, 0, 0), (1, 0, 0), (-1, 1, 0), (-1, -1, 0)]
    lines = [
        {"point": (0, 5, 2), "dir": (0, 1, 1)},
        {"point": (0, -5, 3), "dir": (0, 1, 2)},
        {"point": (7, 1, 1), "dir": (1, 0, 1)},
        {"point": (6, -2, 4), "dir": (1, 1, 1)}]
    res = enumerate_count(degree, LineConfiguration(lines))
    # pairing the two parallel leaves is structurally singular and empty
    assert any(t.status == "singular" for t in res.per_type)
    # swap the two identical degree vectors together with their lines
    degree2 = [degree[1], degree[0]] + degree[2:]
    lines2 = [lines[1], lines[0]] + lines[2:]
    res2 = enumerate_count(degree2, LineConfiguration(lines2))
    assert res.total == res2.total


# ---------------------------------------------------------------------------
# the enumerator against the determinant-plus-Fraction-solve path


def reference_enumerate(degree, lines):
    """Per-type (topology, status, multiplicity, vertices) computed the
    slow way: the determinant and a Fraction solve of a hand-built
    evaluation matrix for every type.  A wall raises with the
    enumerator's message."""
    degree = [tuple(d) for d in degree]
    kappa = len(degree)
    zs = [l.direction for l in lines.lines]
    qs = [lines.point(j) for j in range(len(lines))]
    rhos = [cross(d, z) for d, z in zip(degree, zs)]
    for j, rho in enumerate(rhos):
        if is_zero(rho):
            raise WorkbenchError("NON_GENERIC_CONFIG",
                                 f"line {j} is parallel to leaf {j} "
                                 f"(d x z = 0)")
    out = []
    for tree in trivalent_trees(kappa):
        dh = edge_vectors(tree, degree)
        internal = sorted(internal_edges(tree))
        if not all(any(dh[e]) for e in internal):
            out.append((tree.edges, "degenerate", 0, None))
            continue
        col_of = {cid: 3 + k for k, cid in enumerate(internal)}
        ref = leaf_neighbor(tree, 0)
        adj = tree.adjacency()

        def walk(at, parent, path, found):
            for other in adj[at]:
                if other == parent:
                    continue
                if other < kappa:
                    found[other] = list(path)
                else:
                    key = tuple(sorted((at, other)))
                    walk(other, at, path + [(key, dh[(at, other)])],
                         found)
            return found

        paths = walk(ref, None, [], {})
        rows = []
        for j in range(kappa):
            row = list(rhos[j]) + [0] * len(internal)
            for key, v in paths[j]:
                row[col_of[key]] = dot(rhos[j], v)
            rows.append(row)
        det = det_bareiss(rows)
        sol = solve_exact(rows, [dot(rhos[j], qs[j]) for j in range(kappa)])
        if det == 0:
            if sol.status == "none":
                out.append((tree.edges, "singular", 0, None))
                continue
            raise WorkbenchError(
                "NON_GENERIC_CONFIG",
                f"singular system for topology {tree.edges}")
        lengths = {cid: sol.solution[col_of[cid]] for cid in internal}
        if any(l == 0 for l in lengths.values()):
            raise WorkbenchError(
                "NON_GENERIC_CONFIG",
                f"zero edge length in topology {tree.edges}")
        if any(l < 0 for l in lengths.values()):
            out.append((tree.edges, "rejected", abs(det), None))
            continue
        pos = {ref: tuple(sol.solution[:3])}
        stack = [(ref, None)]
        while stack:
            at, parent = stack.pop()
            for other in adj[at]:
                if other != parent and other >= kappa:
                    key = tuple(sorted((at, other)))
                    pos[other] = vec_add(pos[at], vec_scale(
                        lengths[key], dh[(at, other)]))
                    stack.append((other, at))
        verts = {f"n{k}": pos[k] for k in pos}
        out.append((tree.edges, "accepted", abs(det), verts))
    return out


def random_enumeration(rng, kappa, num, den, bound=1):
    """A balanced degree with entries in [-bound, bound] and one line per
    leaf, transverse to it, through a random rational point."""
    while True:
        degree = [rand_nonzero(rng, -bound, bound) for _ in range(kappa - 1)]
        degree.append(tuple(-sum(d[i] for d in degree) for i in range(3)))
        if any(degree[-1]) and max(map(abs, degree[-1])) <= bound:
            break
    lines = []
    for d in degree:
        z = rand_primitive(rng, -3, 3)
        while is_zero(cross(d, z)):
            z = rand_primitive(rng, -3, 3)
        point = tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                      for _ in range(3))
        lines.append({"point": point, "dir": z})
    return degree, LineConfiguration(lines)


def outcome(fn, degree, lines):
    try:
        return fn(degree, lines)
    except WorkbenchError as err:
        return err.code


def outcome_text(fn, degree, lines):
    try:
        return fn(degree, lines)
    except WorkbenchError as err:
        return err.code, str(err)


def fast_enumerate(degree, lines):
    return [(t.topology, t.status, t.multiplicity,
             None if t.curve is None else dict(t.curve.vertices))
            for t in enumerate_count(degree, lines).per_type]


@pytest.mark.parametrize("kappa,seed,count,bound", [
    (4, 1, 30, 1), (5, 2, 15, 1), (6, 3, 4, 1), (7, 4, 1, 1),
    (4, 5, 30, 2), (5, 6, 15, 2), (6, 7, 4, 2)], ids=[
    "4-1-30", "5-2-15", "6-3-4", "7-4-1",
    "4-5-30-wide", "5-6-15-wide", "6-7-4-wide"])
def test_enumerate_matches_fraction_solve_path(kappa, seed, count, bound):
    """Degree entries in [-2, 2], as in the benchmark's enumerate
    workload, also give rays of weight above 1."""
    rng = random.Random(seed)
    statuses = set()
    heavy = set()       # e.bounded for the accepted edges of weight > 1
    for _ in range(count):
        degree, lines = random_enumeration(rng, kappa, 20, 5, bound)
        got = outcome(fast_enumerate, degree, lines)
        assert got == outcome(reference_enumerate, degree, lines)
        if not isinstance(got, list):
            statuses.add(got)
            continue
        statuses |= {t[1] for t in got}
        for t in enumerate_count(degree, lines).per_type:
            if t.curve is not None:
                # the positions are compared above, the edges here
                assert validate_curve(t.curve).ok
                heavy |= {e.bounded for e in t.curve.edges if e.weight > 1}
    assert {"accepted", "rejected", "singular"} <= statuses
    if bound == 1:
        assert "degenerate" in statuses
        assert heavy == {True}
    else:
        # at kappa = 4 two of the wider leaf vectors seldom cancel, so a
        # degenerate type need not occur
        assert heavy == {True, False}


def test_enumerate_wall_matches_fraction_solve_path():
    # every line through the origin: the solution is 0, every bounded
    # edge has length 0, and both paths report a wall
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    lines = LineConfiguration([{"point": (0, 0, 0), "dir": z} for z in
                               [(0, 1, 1), (1, 0, 2), (0, 1, 3), (1, 0, 1)]])
    assert outcome(fast_enumerate, degree, lines) == "NON_GENERIC_CONFIG"
    assert outcome(reference_enumerate, degree, lines) == \
        "NON_GENERIC_CONFIG"


def test_enumerate_walls_match_fraction_solve_path():
    """Small-integer points put many placements on a wall: the outcome,
    down to the error message, is the reference's."""
    rng = random.Random(5)
    seen = set()
    for kappa, count in ((4, 150), (5, 100), (6, 50)):
        for _ in range(count):
            degree, lines = random_enumeration(rng, kappa, 2, 1)
            got = outcome_text(fast_enumerate, degree, lines)
            assert got == outcome_text(reference_enumerate, degree, lines)
            if isinstance(got, list):
                seen |= {t[1] for t in got}
            else:
                seen.add(got[1].split(" in topology")[0]
                         .split(" for topology")[0])
    assert {"singular", "NON_GENERIC_CONFIG: zero edge length",
            "NON_GENERIC_CONFIG: singular system"} <= seen


def type_rows(tree, degree, rhos):
    """A type's evaluation rows as built before the elimination along the
    tree: rho_j in the translation columns, rho_j . below[x] in the column
    of each junction x on the climb from leaf j to ref."""
    kappa = tree.kappa
    parent, order, below = rooted_sums(tree, degree)
    ref = order[0]
    inner = [x for x in order[1:] if x >= kappa]
    col_of = {x: 3 + k for k, x in enumerate(inner)}
    rows = []
    for j, rho in enumerate(rhos):
        row = list(rho) + [0] * len(inner)
        x = parent[j]
        while x != ref:
            row[col_of[x]] = dot(rho, below[x])
            x = parent[x]
        rows.append(row)
    return rows


@pytest.mark.parametrize("kappa,seed,count,bound", [
    (4, 11, 30, 1), (5, 12, 12, 1), (6, 13, 4, 2), (7, 14, 1, 1),
    (8, 15, 1, 2)])
def test_subtree_planes_give_the_evaluation_determinant(kappa, seed, count,
                                                        bound):
    """|n1 . (n2 x n3)| of the three planes at ref is |det| of the type's
    rows, for every type, also where one child plane of a junction is
    parallel to its edge (p = 0) and the other is not."""
    rng = random.Random(seed)
    one_zero = types = 0
    for _ in range(count):
        degree, lines = random_enumeration(rng, kappa, 20, 5, bound)
        rhos = [cross(d, l.direction) for d, l in zip(degree, lines.lines)]
        leaf_planes = [(rho, 0) for rho in rhos]
        for tree in trivalent_trees(kappa):
            parent, order, below = rooted_sums(tree, degree)
            kids = _subtree_planes(kappa, parent, order, below, leaf_planes)
            (n1, _), (n2, _), (n3, _) = kids[order[0]]
            assert abs(dot(n1, cross(n2, n3))) == \
                abs(det_bareiss(type_rows(tree, degree, rhos)))
            types += 1
            one_zero += any(
                [dot(n, below[x]) for n, _ in kids[x]].count(0) == 1
                for x in order[1:] if x >= kappa)
    assert 0 < one_zero < types


def test_matrix_fallback_runs_once_per_singular_type(monkeypatch):
    calls = []
    fallback = multiplicity._inconsistent_type

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(multiplicity, "_inconsistent_type", counted)
    rng = random.Random(23)
    counts = []
    for kappa, count in ((4, 20), (5, 10), (6, 4)):
        for _ in range(count):
            degree, lines = random_enumeration(rng, kappa, 20, 5, 2)
            calls.clear()
            try:
                res = enumerate_count(degree, lines)
            except WorkbenchError as err:
                assert err.code == "NON_GENERIC_CONFIG"
                continue
            singular = [t.status for t in res.per_type].count("singular")
            assert len(calls) == singular
            counts.append(singular)
    # configurations with and without a singular type
    assert 0 in counts and max(counts) > 0


def test_enumerate_rejects_a_line_parallel_to_its_leaf(monkeypatch):
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    dirs = [(0, 1, 1), (1, 0, 2), (1, 0, 0), (1, 0, 1)]
    lines = LineConfiguration([{"point": (j, 2 * j, 1), "dir": z}
                               for j, z in enumerate(dirs)])
    visited = []
    monkeypatch.setattr(multiplicity, "_insertion_walk",
                        lambda kappa, parent, pair:
                        visited.append(kappa) or [])
    with pytest.raises(WorkbenchError) as err:
        enumerate_count(degree, lines)
    assert err.value.code == "NON_GENERIC_CONFIG"
    assert str(err.value) == \
        "NON_GENERIC_CONFIG: line 2 is parallel to leaf 2 (d x z = 0)"
    assert visited == []
    monkeypatch.undo()
    assert outcome_text(reference_enumerate, degree, lines) == \
        ("NON_GENERIC_CONFIG", str(err.value))


# ---------------------------------------------------------------------------
# the walk of the insertion tree against the per-type route


def outcome_record(fn, degree, lines):
    """The total and, per type, the topology, status, multiplicity,
    vertices and edges of the curve; or the error code and text."""
    try:
        res = fn(degree, lines)
    except WorkbenchError as err:
        return err.code, str(err)
    return res.total, [(t.topology, t.status, t.multiplicity,
                        None if t.curve is None else
                        (t.curve.vertices, t.curve.edges))
                       for t in res.per_type]


@pytest.mark.parametrize("kappa,seed,count,num,den,bound", [
    (4, 31, 40, 20, 5, 1), (5, 32, 15, 20, 5, 2), (6, 33, 5, 300, 40, 2),
    (7, 34, 2, 20, 5, 1), (8, 40, 1, 300, 40, 1), (8, 35, 1, 300, 40, 2),
    (4, 36, 120, 2, 1, 1), (5, 37, 60, 2, 1, 1), (6, 38, 25, 2, 1, 2),
    (7, 39, 4, 2, 1, 1)], ids=[
    "4", "5-wide", "6-wide", "7", "8", "8-wide",
    "4-walls", "5-walls", "6-walls-wide", "7-walls"])
def test_enumerate_matches_the_per_type_route(kappa, seed, count, num, den,
                                              bound):
    """The walk gives the per-type route's total, statuses,
    multiplicities, curves and error texts.  Points with num = 2 and
    den = 1 put many placements on a wall, so the first wall type and
    its message are compared too.  At kappa = 8 both D = 0 statuses
    occur, so each D = 0 branch runs after a last leaf that left ref's
    sum and plane stale."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(count):
        degree, lines = random_enumeration(rng, kappa, num, den, bound)
        got = outcome_record(enumerate_count, degree, lines)
        assert got == outcome_record(per_type_enumerate, degree, lines)
        if isinstance(got[0], str):
            seen.add(got[1].split(" in topology")[0]
                     .split(" for topology")[0])
        else:
            seen |= {t[1] for t in got[1]}
    assert {"accepted", "rejected"} <= seen
    if kappa == 8:
        assert {"degenerate", "singular"} <= seen
    if num == 2:
        assert "singular" in seen
        assert {"NON_GENERIC_CONFIG: zero edge length",
                "NON_GENERIC_CONFIG: singular system"} & seen


def test_enumerate_builds_each_accepted_curve_on_its_first_read(
        monkeypatch):
    """`enumerate_count`, `as_dict` and `canonical_json` build no curve.
    Each accepted type's curve is built once, when it is first read,
    and equals the reference's, also when it is read only after later
    `enumerate_count` calls."""
    rng = random.Random(44)
    problems = [random_enumeration(rng, 6, 20, 5, 2) for _ in range(3)]
    want = [(reference_enumerate(degree, lines),
             per_type_enumerate(degree, lines).per_type)
            for degree, lines in problems]
    built = []
    init = TropicalCurve.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TropicalCurve, "__init__", counted)
    results = []
    for degree, lines in problems:
        res = enumerate_count(degree, lines)
        canonical_json(res.as_dict())
        results.append(res)
    assert built == []
    curves = []
    for res, (ref, oracle) in zip(results, want):
        for t, r, o in zip(res.per_type, ref, oracle):
            if t.status != "accepted":
                assert t.curve is None
                continue
            curve = t.curve
            assert dict(curve.vertices) == r[3]
            assert (curve.coords, curve.denominator, curve.edges,
                    curve.ends()) == (o.curve.coords, o.curve.denominator,
                                      o.curve.edges, o.curve.ends())
            assert curve is t.curve and validate_curve(curve).ok
            curves.append(curve)
    assert len(curves) == 30
    assert list(map(id, built)) == list(map(id, curves))


def test_enumeration_results_compare_and_hash_by_value(monkeypatch):
    """Two enumerations of one input with accepted types are equal and
    hash alike, and comparing them builds each accepted curve once.  A
    changed multiplicity, a moved vertex or reordered edges make them
    unequal, and a curve equals the plain curve built from its data."""
    rng = random.Random(44)
    problems = [random_enumeration(rng, 6, 20, 5, 2) for _ in range(3)]
    built = []
    init = TropicalCurve.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TropicalCurve, "__init__", counted)
    for degree, lines in problems:
        a, b = enumerate_count(degree, lines), enumerate_count(degree, lines)
        curves = [t.curve for t in a.per_type + b.per_type
                  if t.status == "accepted"]
        assert curves and built == []
        assert a == b and hash(a) == hash(b)
        assert a.as_dict() == b.as_dict()
        assert sorted(map(id, built)) == sorted(map(id, curves))
        built.clear()
        k, t = next((k, t) for k, t in enumerate(b.per_type)
                    if t.status == "accepted")
        changed = list(b.per_type)
        changed[k] = multiplicity.TypeOutcome(t.topology, t.status,
                                              t.multiplicity + 1, t.curve)
        assert a != multiplicity.EnumerationResult(b.total, tuple(changed))
        c = t.curve
        same = TropicalCurve(c.dim, c.coords.items(), c.edges, c.denominator)
        assert same == c and c == same and hash(same) == hash(c)
        coords = list(c.coords.items())
        vid, (x, *rest) = coords[0]
        coords[0] = vid, (x + 1, *rest)
        moved = TropicalCurve(c.dim, coords, c.edges, c.denominator)
        turned = TropicalCurve(c.dim, c.coords.items(), c.edges[::-1],
                               c.denominator)
        assert moved != c and c != moved and turned != c
        assert list(map(id, built)) == [id(same), id(moved), id(turned)]
        built.clear()


def test_tree_decision_matches_the_echelon_pass(monkeypatch):
    """On every type with D = 0 and no zero sum on a bounded edge, the
    decision on the tree equals one echelon pass on the type's
    evaluation rows, and both answers occur."""
    decide = multiplicity._inconsistent_type
    answers = []

    def checked(kappa, order, kids, below, plane):
        got = decide(kappa, order, kids, below, plane)
        # the oracle's tree hangs from ref, with leaf 0 below it
        ref = order[0]
        parent = [None] * len(below)
        for x in order:
            for y in kids[x]:
                parent[y] = x
        parent[0] = ref
        assert not any(below[x] == (0, 0, 0) for x in order[1:])
        rhos, rhs = zip(*plane[:kappa])
        assert got == singular_type(kappa, parent, order, below, rhos, rhs)
        answers.append(got)
        return got

    monkeypatch.setattr(multiplicity, "_inconsistent_type", checked)
    rng = random.Random(41)
    for kappa, count, num, den, bound in (
            (4, 150, 2, 1, 1), (5, 80, 2, 1, 1), (6, 20, 2, 1, 2),
            (7, 3, 2, 1, 1), (6, 6, 20, 5, 2), (7, 2, 20, 5, 1)):
        for _ in range(count):
            degree, lines = random_enumeration(rng, kappa, num, den, bound)
            try:
                enumerate_count(degree, lines)
            except WorkbenchError as err:
                assert err.code == "NON_GENERIC_CONFIG"
    assert True in answers and False in answers


# a kappa = 8 configuration (seeded draw: directions in [-3, 3]^3, points
# n/d with |n| <= 999 and d <= 97) whose walk reaches the echelon pass
# below the root of a singular type
MID_TREE_DEGREE = [(0, 1, -1), (-1, 1, 0), (-1, 0, -1), (0, 0, -1),
                   (1, -1, 1), (1, 0, 0), (1, 0, 1), (-1, -1, 1)]
MID_TREE_LINES = [
    (("309/20", "-136/11", "84/5"), (0, 1, 3)),
    (("3/2", "-553/37", "-147/19"), (-3, -1, 0)),
    (("-164/17", "-199/64", "-417/11"), (2, 2, -3)),
    (("-20/13", "7/2", "45"), (-3, 2, 2)),
    (("339/28", "770/71", "-33/7"), (-1, 2, 1)),
    (("-149/46", "57/7", "481/15"), (2, 3, 0)),
    (("-690/11", "-639/20", "-524/85"), (-1, 2, 0)),
    (("-261", "-3/38", "-313/17"), (2, -1, -3))]


def test_mid_tree_echelon_decides_singular_types(monkeypatch):
    """`_inconsistent_type` reduces more than three rows below the root
    with `_echelon`; here that pass finds inconsistent systems, and the
    statuses it gives match the per-type route's."""
    mid_tree = []
    echelon = multiplicity._echelon

    def spied(rows):
        out = echelon(rows)
        caller = sys._getframe(1).f_locals
        if caller["x"] != caller["order"][0]:
            mid_tree.append(out)
        return out

    monkeypatch.setattr(multiplicity, "_echelon", spied)
    lines = LineConfiguration([{"point": q, "dir": z}
                               for q, z in MID_TREE_LINES])
    got = outcome_record(enumerate_count, MID_TREE_DEGREE, lines)
    assert len(mid_tree) == 3 and all(out is None for out in mid_tree)
    assert got[0] == 2688000
    assert got == outcome_record(per_type_enumerate, MID_TREE_DEGREE, lines)
