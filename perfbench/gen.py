"""Seeded input generators for the benchmark, in plain stdlib.

Every generator takes a ``random.Random`` and returns JSON-ready dicts in
the formats ``troplag.io_json`` reads.  Nothing here imports troplag: the
program under test only ever sees the generated dicts.  The redraws below
enforce what makes an input well posed (a nonzero or primitive vector, a
non-parallel pair, a degree inside its declared range); no input is ever
redrawn because the program fails on it.
"""

from fractions import Fraction
from math import gcd


def content(v):
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale(c, u):
    return tuple(c * a for a in u)


def rand_primitive(rng, bound, dim=3):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if content(v) == 1:
            return v


def rand_transverse(rng, d, bound):
    """A primitive z with d x z != 0, so the leaf momentum is nonzero."""
    while True:
        z = rand_primitive(rng, bound)
        if any(cross(d, z)):
            return z


def rand_rational(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def strs(v):
    return [str(Fraction(x)) for x in v]


# ---------------------------------------------------------------------------
# trees: balanced 3-valent curves in Q^3 with a constraint line per end


def _split(rng, r, multiple):
    """r = a + b with b primitive and a = multiple * (primitive vector).

    Neither part is parallel to r, so every junction spans a plane.
    """
    while True:
        a = scale(multiple, rand_primitive(rng, 3))
        b = sub(r, a)
        if any(cross(a, r)) and content(b) == 1:
            return a, b


def tree_problem(rng, kappa, shape, weighted):
    """Curve and lines dicts for one balanced 3-valent tree with rays.

    Leaf 0 is a ray at the root junction v0.  Below it every subtree
    vector r (the sum of the outward leaf vectors behind an edge) is split
    top-down as r = a + b.  ``shape`` is "caterpillar" (one side of every
    split is a leaf) or "split" (random leaf counts on both sides).  All
    leaves are primitive.  With ``weighted`` about a third of the internal
    edges get weight 2 or 3; otherwise every edge is primitive.  Bounded
    edges have positive rational lengths, and each end gets a line through
    its junction with a primitive direction transverse to the leaf.
    """
    d0 = rand_primitive(rng, 3)
    pos = {"v0": tuple(rand_rational(rng, 9, 5) for _ in range(3))}
    edges = []
    rays = [("v0", d0)]
    stack = [("v0", scale(-1, d0), kappa - 1)]
    while stack:
        vid, r, n = stack.pop()
        k = 1 if shape == "caterpillar" else rng.randint(1, n - 1)
        sizes = [n - k, k]          # sizes[0] is the side that may be weighted
        multiple = 1
        if weighted and sizes[0] > 1 and rng.random() < 0.35:
            multiple = rng.choice((2, 3))
            if content(r) % multiple == 0:  # r - a could never be primitive
                multiple = 5 - multiple
        a, b = _split(rng, r, multiple)
        for vec, m in ((a, sizes[0]), (b, sizes[1])):
            if m == 1:
                rays.append((vid, vec))
                continue
            child = f"v{len(pos)}"
            g = content(vec)
            prim = tuple(x // g for x in vec)
            length = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            pos[child] = add(pos[vid], scale(length, prim))
            edges.append({"tail": vid, "head": child, "dir": list(prim),
                          "weight": g})
            stack.append((child, vec, m))
    lines = []
    for label, (vid, d) in enumerate(rays):
        edges.append({"tail": vid, "head": None, "dir": list(d),
                      "weight": 1, "leaf_label": label})
        lines.append({"point": strs(pos[vid]),
                      "dir": list(rand_transverse(rng, d, 5))})
    curve = {"dim": 3,
             "vertices": [{"id": v, "pos": strs(p)} for v, p in pos.items()],
             "edges": edges}
    return curve, {"lines": lines}


# ---------------------------------------------------------------------------
# domains: corner blow-ups of a rational square, and prisms over them


def _edge_dir(u):
    """Counterclockwise direction of the edge on the facet with normal u."""
    return (u[1], -u[0])


def _corners(facets, shift=0):
    """Corner i joins facet i and facet i+1 (offsets raised by ``shift``)."""
    out = []
    n = len(facets)
    for i in range(n):
        (u, a), (v, b) = facets[i], facets[(i + 1) % n]
        a, b = a + shift, b + shift
        det = u[0] * v[1] - u[1] * v[0]
        out.append((Fraction(a * v[1] - b * u[1], det),
                    Fraction(u[0] * b - v[0] * a, det)))
    return out


def edge_lengths(facets, shift=0):
    """Signed lattice length of the edge on every facet."""
    pts = _corners(facets, shift)
    out = []
    for i, (u, _) in enumerate(facets):
        d = _edge_dir(u)
        p, q = pts[i - 1], pts[i]
        out.append(((q[0] - p[0]) * d[0] + (q[1] - p[1]) * d[1])
                   / (d[0] * d[0] + d[1] * d[1]))
    return out


def blown_up_polygon(rng, facet_count, spoiled):
    """Cyclic (normal, offset) facets of a Delzant polygon, and a pair.

    Starts from a rational square and cuts corners.  A cut at the corner
    of normals u, v adds the normal u + v and shortens both neighbouring
    edges by 20-45% of the shorter one.  When ``spoiled`` the last cut
    uses 2u + v (or u + 2v) instead, which leaves exactly one corner whose
    normals span a sublattice of index 2; that facet pair is returned
    (indices into the returned list), else None.
    """
    x0, y0 = rand_rational(rng, 20, 7), rand_rational(rng, 20, 7)
    side = Fraction(rng.randint(8, 20), rng.randint(1, 3))
    facets = [((0, 1), y0), ((-1, 0), -(x0 + side)),
              ((0, -1), -(y0 + side)), ((1, 0), x0)]
    pair = None
    while len(facets) < facet_count:
        last = spoiled and len(facets) == facet_count - 1
        lengths = edge_lengths(facets)
        i = rng.randrange(len(facets))
        j = (i + 1) % len(facets)
        (u, _), (v, _) = facets[i], facets[j]
        corner = _corners(facets)[i]
        eps = min(lengths[i], lengths[j]) * Fraction(rng.randint(20, 45), 100)
        if last:
            doubled = rng.randrange(2)
            w = add(scale(2, u), v) if doubled == 0 else add(u, scale(2, v))
        else:
            w = add(u, v)
        offset = w[0] * corner[0] + w[1] * corner[1] + eps
        facets.insert(i + 1, (w, offset))
        if last:
            k = i + 1
            pair = tuple(sorted((k, (k + 1) % len(facets)) if doubled == 0
                                else (i, k)))
    if any(l <= 0 for l in edge_lengths(facets)):
        raise AssertionError("generator produced a degenerate polygon")
    return facets, pair


def wavefront_delta(rng, facets):
    """An offset below the shortest edge that keeps every edge."""
    at0 = edge_lengths(facets)
    at1 = edge_lengths(facets, 1)
    limit = min(at0)
    for l0, l1 in zip(at0, at1):
        if l0 > l1:
            limit = min(limit, l0 / (l0 - l1))
    return limit * Fraction(rng.randint(20, 50), 100)


def polygon_dict(facets):
    return {"dim": 2, "facets": [{"normal": list(u), "offset": str(a)}
                                 for u, a in facets]}


def prism_dict(rng, facets):
    z0 = rand_rational(rng, 10, 4)
    height = Fraction(rng.randint(3, 12), rng.randint(1, 3))
    rows = [{"normal": [u[0], u[1], 0], "offset": str(a)} for u, a in facets]
    rows += [{"normal": [0, 0, 1], "offset": str(z0)},
             {"normal": [0, 0, -1], "offset": str(-(z0 + height))}]
    return {"dim": 3, "facets": rows}


# ---------------------------------------------------------------------------
# enumeration: a degree with lines of fixed directions, placed twice


def enumerate_degree(rng, kappa, bound):
    """kappa nonzero vectors in [-bound, bound]^3 summing to zero."""
    while True:
        degree = [tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(kappa - 1)]
        last = scale(-1, tuple(map(sum, zip(*degree))))
        degree.append(last)
        if all(any(d) and max(map(abs, d)) <= bound for d in degree):
            return degree


def placement(rng, directions, num, den):
    return {"lines": [{"point": strs(rand_rational(rng, num, den)
                                     for _ in range(3)),
                       "dir": list(z)} for z in directions]}
