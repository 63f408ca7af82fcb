"""Shared fixtures: corpus paths, random balanced-tree generators and
blown-up Delzant polygons."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from enumeration_oracle import rooted_sums

from troplag.curve import Edge, TreeTopology, TropicalCurve
from troplag.lattice import content, gcd_primitive, primitive_raw, vec_neg

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def fixture_path(name):
    return str(FIXTURES / name)


def load_fixture_json(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# random balanced 3-valent trees embedded in Q^3


def rand_nonzero(rng, lo=-5, hi=5, dim=3):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(dim))
        if any(x != 0 for x in v):
            return v


def rand_primitive(rng, lo=-5, hi=5, dim=3):
    while True:
        v = rand_nonzero(rng, lo, hi, dim)
        if content(v) == 1:
            return v


def random_topology(rng, kappa):
    edges = [(0, kappa), (1, kappa), (2, kappa)]
    nxt = kappa + 1
    for leaf in range(3, kappa):
        e = rng.choice(edges)
        edges.remove(e)
        edges += [tuple(sorted((e[0], nxt))), tuple(sorted((e[1], nxt))),
                  tuple(sorted((leaf, nxt)))]
        nxt += 1
    return TreeTopology(kappa, tuple(sorted(edges)))


def internal_edges(topo):
    """The edges of a tree topology between two junctions."""
    return [e for e in topo.edges if e[0] >= topo.kappa and e[1] >= topo.kappa]


def leaf_neighbor(topo, j):
    """The junction of leaf j."""
    return topo.adjacency()[j][0]


def edge_vectors(topo, degree):
    """dh[(a, b)], the displacement of the tree edge a -> b: the sum of
    the leaf vectors on b's side.  The degree must be balanced, so that
    this is minus the sum on a's side: dh[(j, x)] = -degree[j] from leaf
    j to its junction x."""
    parent, _, below = rooted_sums(topo, degree)
    dh = {}
    for a, b in topo.edges:
        v = below[b] if parent[b] == a else vec_neg(below[a])
        dh[(a, b)], dh[(b, a)] = v, vec_neg(v)
    return dh


def random_balanced_skeleton(rng, kappa, primitive=False, lo=-5, hi=5):
    """A skeleton (topology, edge_vectors) plus its degree, whose
    internal sums are all nonzero."""
    topo = random_topology(rng, kappa)
    for _ in range(400):
        gen = rand_primitive if primitive else rand_nonzero
        degree = [gen(rng, lo, hi) for _ in range(kappa - 1)]
        last = tuple(-sum(d[i] for d in degree) for i in range(3))
        if all(x == 0 for x in last):
            continue
        if primitive and content(last) != 1:
            continue
        degree.append(last)
        dh = edge_vectors(topo, degree)
        bounded = [dh[e] for e in internal_edges(topo)]
        if not all(map(any, bounded)):
            continue
        if primitive and any(content(v) != 1 for v in bounded):
            continue
        return (topo, dh), degree
    raise RuntimeError("could not build a balanced skeleton")


def embed_skeleton(rng, sk):
    """Realize a skeleton as a curve with rays and rational positions."""
    topo, dh = sk
    adj = topo.adjacency()
    ref = leaf_neighbor(topo, 0)
    pos = {ref: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(3))}
    order = [ref]
    seen = {ref}
    while order:
        at = order.pop()
        for other in adj[at]:
            if other in seen or other < topo.kappa:
                continue
            seen.add(other)
            length = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            pos[other] = tuple(p + length * d for p, d in
                               zip(pos[at], dh[(at, other)]))
            order.append(other)
    vertices = [(f"n{k}", pos[k]) for k in sorted(pos)]
    edges = []
    for a, b in topo.edges:
        if a < topo.kappa:
            d = dh[(b, a)]
            edges.append(Edge(f"n{b}", None, primitive_raw(d), content(d), a))
        else:
            d = dh[(a, b)]
            edges.append(Edge(f"n{a}", f"n{b}", primitive_raw(d),
                              content(d), None))
    return TropicalCurve(3, vertices, edges)


def rebuilt(c, edges, extra_vertices=()):
    """c with new edges, and extra vertices after its own."""
    return TropicalCurve(c.dim, list(c.vertices.items()) + list(extra_vertices),
                         edges)


def marked_edge(c, i):
    """c with a 2-valent marking at the midpoint of bounded edge i; a half
    that ends at an endpoint keeps the edge's label."""
    e = c.edges[i]
    mid = tuple((a + b) / 2 for a, b in
                zip(c.position(e.tail), c.position(e.head)))
    label_tail = e.leaf_label if c.valence(e.tail) == 1 else None
    label_head = e.leaf_label if c.valence(e.head) == 1 else None
    edges = list(c.edges)
    edges[i] = Edge(e.tail, "mk", e.direction, e.weight, label_tail)
    edges.append(Edge("mk", e.head, e.direction, e.weight, label_head))
    return rebuilt(c, edges, [("mk", mid)])


def random_tree_problem(rng, kappa, primitive=False):
    """A random balanced tree curve with rays plus primitive directions."""
    sk, degree = random_balanced_skeleton(rng, kappa, primitive)
    curve = embed_skeleton(rng, sk)
    zs = [rand_primitive(rng) for _ in range(kappa)]
    return curve, zs


def all_roots(curve):
    """Every admissible root: all ends and all 3-valent vertices."""
    roots = [("end", j) for j in range(len(curve.ends()))]
    if len(roots) > 2:
        roots += sorted(curve.trivalent_vertices(), key=repr)
    return roots


def smoothed_chains(curve):
    """The maximal straight chains through 2-valent markings, found the
    slow way: from each terminal (a non-marking end of an edge, or a
    ray's infinite end, None) in edge order, tail before head, whose
    edge no chain holds yet, each marking is left by the first of its
    edges not yet in the chain.  Each chain is a dict with its sides
    first/second (a ray's infinite end second), the primitive direction
    first -> second (sign-normalized on a line), the weight and the edge
    indices in walk order: an oracle for `TropicalCurve.chain_nodes`."""
    markings = set(curve.marking_vertices())
    terminals = []
    for i, e in enumerate(curve.edges):
        if e.tail not in markings:
            terminals.append((i, e.tail))
        if e.head is None:
            terminals.append((i, None))
        elif e.head not in markings:
            terminals.append((i, e.head))
    seen, chains = set(), []
    for i, start in terminals:
        if i in seen:
            continue
        e = curve.edges[i]
        idxs = [i]
        cur = e.tail if start is None else \
            e.head if e.tail == start else e.tail
        while cur in markings:
            nxt = next(j for j, _, _ in curve.incident(cur) if j not in idxs)
            idxs.append(nxt)
            e2 = curve.edges[nxt]
            cur = e2.head if e2.tail == cur else e2.tail
        seen.update(idxs)
        direction = e.direction if start is not None and e.tail == start \
            else vec_neg(e.direction)
        first, second = start, cur
        if first is None and second is not None:
            first, second, direction = second, first, vec_neg(direction)
        if first is None and second is None:
            direction = gcd_primitive(direction)[1]
        chains.append({"first": first, "second": second,
                       "direction": direction, "weight": e.weight,
                       "edges": tuple(idxs)})
    return chains


def curve_tree(curve):
    """The tree of a curve's chains (`smoothed_chains`), keyed as the
    curve names it: a junction by its vertex id, end j by ("end", j).
    A line's two rays are keyed so that its direction runs from the
    first to the second.

    Returns adj, adj[key] = [(other, dh key -> other, weight, chain id)]
    in chain order: the dict form `multiplicity.Problem` had, kept as a
    test oracle for its node lists.
    """
    ends = curve.ends()
    junctions = set(curve.trivalent_vertices())
    end_of = {(e.edge_index, e.endpoint): ("end", j)
              for j, e in enumerate(ends)}

    def keys(chain):
        out = []
        for v in (chain["first"], chain["second"]):
            out.append(v if v in junctions else
                       next(end_of[i, v] for i in chain["edges"]
                            if (i, v) in end_of
                            and end_of[i, v] not in out))
        if chain["first"] is None and chain["second"] is None and \
                ends[out[0][1]].outward == chain["direction"]:
            out.reverse()
        return out

    adj = {}
    for cid, ch in enumerate(smoothed_chains(curve)):
        a, b = keys(ch)
        dh = tuple(ch["weight"] * x for x in ch["direction"])
        adj.setdefault(a, []).append((b, dh, ch["weight"], cid))
        adj.setdefault(b, []).append((a, vec_neg(dh), ch["weight"], cid))
    return adj


def triangle_and_tripod():
    """A triangle with one ray at each corner and, apart from it, a
    tripod whose rays come first: b1() reads 3 - 4 + 1 = 0, but the
    curve is no tree."""
    pos = {"t": ["5", "5", "5"], "a": ["0", "0", "0"], "b": ["1", "0", "0"],
           "c": ["0", "1", "0"]}
    edges = [("t", None, (1, 0, 0)), ("t", None, (0, 1, 0)),
             ("t", None, (-1, -1, 0)), ("a", "b", (1, 0, 0)),
             ("b", "c", (-1, 1, 0)), ("c", "a", (0, -1, 0)),
             ("a", None, (-1, -1, 0)), ("b", None, (2, -1, 0)),
             ("c", None, (-1, 2, 0))]
    return {"dim": 3,
            "vertices": [{"id": v, "pos": p} for v, p in pos.items()],
            "edges": [{"tail": t, "head": h, "dir": list(d)}
                      for t, h, d in edges]}


def line_and_triangle():
    """A line of two rays listed first and, apart from it, a triangle
    with one ray at each corner: b1() reads 3 - 4 + 1 = 0, but the curve
    is no tree, and end 0's neighbour in the chain tree is end 1."""
    pos = {"p": ["5", "5", "5"], "a": ["0", "0", "0"], "b": ["1", "0", "0"],
           "c": ["0", "1", "0"]}
    edges = [("p", None, (0, 0, 1)), ("p", None, (0, 0, -1)),
             ("a", "b", (1, 0, 0)), ("b", "c", (-1, 1, 0)),
             ("c", "a", (0, -1, 0)), ("a", None, (-1, -1, 0)),
             ("b", None, (2, -1, 0)), ("c", None, (-1, 2, 0))]
    return {"dim": 3,
            "vertices": [{"id": v, "pos": p} for v, p in pos.items()],
            "edges": [{"tail": t, "head": h, "dir": list(d)}
                      for t, h, d in edges]}


def triangle_with_rays():
    """A triangle with one ray at each corner: valid, with b1 = 1."""
    return TropicalCurve(3, [("a", (0, 0, 0)), ("b", (1, 0, 0)),
                             ("c", (0, 1, 0))],
                         [Edge("a", "b", (1, 0, 0)),
                          Edge("b", "c", (-1, 1, 0)),
                          Edge("c", "a", (0, -1, 0)),
                          Edge("a", None, (-1, -1, 0), 1, 0),
                          Edge("b", None, (2, -1, 0), 1, 1),
                          Edge("c", None, (-1, 2, 0), 1, 2)])


def four_valent_and_flat():
    """Valid spatial trees whose junctions are not all 3-valent with
    edges spanning a plane, by name: a 4-valent "star" at v, a "flat"
    junction v whose edges span a line, and a path of three junctions
    u, w, x (w flat, x 4-valent) listed u, w, x ("path-uwx") and u, x, w
    ("path-uxw")."""
    star = TropicalCurve(3, [("v", (0, 0, 0))],
                         [Edge("v", None, (1, 0, 0), 1, 0),
                          Edge("v", None, (0, 1, 0), 1, 1),
                          Edge("v", None, (0, 0, 1), 1, 2),
                          Edge("v", None, (-1, -1, -1), 1, 3)])
    flat = TropicalCurve(3, [("v", (0, 0, 0))],
                         [Edge("v", None, (1, 0, 0), 2, 0),
                          Edge("v", None, (-1, 0, 0), 1, 1),
                          Edge("v", None, (-1, 0, 0), 1, 2)])
    where = {"u": (0, 0, 0), "w": (1, 0, 0), "x": (3, 0, 0)}
    edges = [Edge("u", None, (0, 1, 0), 1, 0),
             Edge("u", None, (-1, -1, 0), 1, 1),
             Edge("u", "w", (1, 0, 0)),
             Edge("w", "x", (1, 0, 0), 2),
             Edge("w", None, (-1, 0, 0), 1, 2),
             Edge("x", None, (1, 0, 0), 2, 3),
             Edge("x", None, (0, 1, 0), 1, 4),
             Edge("x", None, (0, -1, 0), 1, 5)]
    curves = {"star": star, "flat": flat}
    for order in ("uwx", "uxw"):
        curves[f"path-{order}"] = TropicalCurve(
            3, [(v, where[v]) for v in order], edges)
    return curves


def contracted(c, i):
    """c with its bounded edge i shrunk to the edge's tail: the vertices
    on the head's side move by tail - head, so that every edge keeps its
    direction, and the tail takes the head's other edges.  On a tree
    with 3-valent junctions the tail becomes 4-valent."""
    e = c.edges[i]
    tail, head = e.tail, e.head
    side, stack = {head}, [head]
    while stack:
        for j, _, _ in c.incident(stack.pop()):
            f = c.edges[j]
            for v in (f.tail, f.head):
                if j != i and v is not None and v not in side:
                    side.add(v)
                    stack.append(v)
    shift = [a - b for a, b in zip(c.position(tail), c.position(head))]
    vertices = [(v, tuple(map(sum, zip(pos, shift))) if v in side else pos)
                for v, pos in c.vertices.items() if v != head]

    def moved(v):
        return tail if v == head else v
    edges = [Edge(moved(f.tail), f.head and moved(f.head), f.direction,
                  f.weight, f.leaf_label)
             for j, f in enumerate(c.edges) if j != i]
    return TropicalCurve(c.dim, vertices, edges)


# ---------------------------------------------------------------------------
# Delzant polygons with corners cut off


def _corner(f, g):
    (u, a), (v, b) = f, g
    det = u[0] * v[1] - u[1] * v[0]
    return (Fraction(a * v[1] - b * u[1], det),
            Fraction(u[0] * b - v[0] * a, det))


def _edge_length(facets, i):
    """Lattice length of the edge on facet i of a cyclic polygon."""
    p = _corner(facets[i - 1], facets[i])
    q = _corner(facets[i], facets[(i + 1) % len(facets)])
    u = facets[i][0]
    k = 0 if u[1] != 0 else 1
    return (q[k] - p[k]) / (u[1], -u[0])[k]


def blown_up_polygon(rng, count, spoiled=False):
    """Cyclic (normal, offset) facets: a square with corners cut off.

    A cut at the corner of u and v adds u + v and shortens both edges by
    at most a third of the shorter one; with `spoiled` the last cut adds
    2u + v instead, which leaves one corner of index 2.
    """
    facets = [((1, 0), Fraction(0)), ((0, 1), Fraction(0)),
              ((-1, 0), Fraction(-12)), ((0, -1), Fraction(-12))]
    while len(facets) < count:
        i = rng.randrange(len(facets))
        j = (i + 1) % len(facets)
        (u, _), (v, _) = facets[i], facets[j]
        w = (u[0] + v[0], u[1] + v[1])
        if spoiled and len(facets) == count - 1:
            w = (w[0] + u[0], w[1] + u[1])
        eps = min(_edge_length(facets, i), _edge_length(facets, j)) \
            / rng.randint(3, 5)
        x = _corner(facets[i], facets[j])
        facets.insert(i + 1, (w, w[0] * x[0] + w[1] * x[1] + eps))
    return facets


def largest_offset(facets):
    """The offset at which the first edge of a cyclic polygon shrinks to
    a point: every lattice edge length is affine in the offset."""
    shifted = [(u, a + 1) for u, a in facets]
    limits = []
    for i in range(len(facets)):
        l0, l1 = _edge_length(facets, i), _edge_length(shifted, i)
        if l0 > l1:
            limits.append(l0 / (l0 - l1))
    return min(limits)
