"""The Fraction versions of the face-search kernels and facet tests that
``troplag.domain`` used before it moved to integer homogeneous
coordinates, kept verbatim as an independent reference for the tests.

Two adaptations, both at the edges: `frame` returns its kernel vectors
rather than their number, and `contains` / `active` take the domain as
their first argument (they were methods, with `Facet.value` inlined).
"""

from __future__ import annotations

from fractions import Fraction

from troplag.lattice import dot, primitive_raw, solve_bareiss, vec_neg


def fm_point(ineqs, nvars):
    """A relative-interior point of {y : co . y >= rhs} and the dimension
    of that set, or None if it is empty."""
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
    y = []
    dim = 0
    for system in reversed(levels):
        k = len(y)
        lo = hi = None
        for co, rhs in system:
            ck = co[k]
            if ck == 0:
                continue
            t = Fraction(rhs - sum(c * v for c, v in zip(co, y)), ck)
            if ck > 0:
                lo = t if lo is None else max(lo, t)
            else:
                hi = t if hi is None else min(hi, t)
        if lo is None and hi is None:
            t = Fraction(0)
        elif hi is None:
            t = lo + 1
        elif lo is None:
            t = hi - 1
        elif lo <= hi:
            t = (lo + hi) / 2
        else:
            return None   # only at k = 0: the later fibres are projections
        y.append(t)
        dim += lo is None or hi is None or lo < hi
    return tuple(y), dim


def frame(domain, tight):
    """(kernel, rows): the integer kernel vectors spanning the affine span
    of the points where `tight` is tight, and rows[j] = (co, rhs) meaning
    co . y >= rhs for each facet j not in `tight`."""
    if tight:
        d, num, kernel = solve_bareiss(
            [domain.facets[j].normal for j in tight],
            [domain.facets[j].offset for j in tight])
        x0 = tuple(Fraction(v, d) for v in num)
        # kernel[i] / d is the reduced-echelon kernel vector; keeping its
        # orientation keeps the points the face search visits
        kernel = tuple(primitive_raw(k if d > 0 else vec_neg(k))
                       for k in kernel)
    else:
        x0 = tuple(Fraction(0) for _ in range(domain.dim))
        kernel = tuple(tuple(int(i == j) for i in range(domain.dim))
                       for j in range(domain.dim))
    rows = {}
    for j, f in enumerate(domain.facets):
        if j not in tight:
            rhs = Fraction(f.offset - dot(f.normal, x0))
            rows[j] = (tuple(dot(f.normal, k) * rhs.denominator
                             for k in kernel), rhs.numerator)
    return kernel, rows


def tight_at(tight, rows, y):
    """The facets tight at the point y of a frame, in index order."""
    return tuple(sorted(tight + tuple(j for j, (co, rhs) in rows.items()
                                      if dot(co, y) == rhs)))


def _value(f, x):
    return dot(f.normal, x) - f.offset


def contains(domain, x):
    return all(_value(f, x) >= 0 for f in domain.facets)


def active(domain, x):
    return tuple(j for j, f in enumerate(domain.facets) if _value(f, x) == 0)


def polygon_vertices(d, offsets):
    verts = []
    n = len(d.facets)
    for i in range(n):
        for j in range(i + 1, n):
            det, num, kernel = solve_bareiss(
                [d.facets[i].normal, d.facets[j].normal],
                [offsets[i], offsets[j]])
            if kernel:
                continue
            x = tuple(Fraction(v, det) for v in num)
            vals = [dot(d.facets[k].normal, x) - offsets[k]
                    for k in range(n)]
            if any(v < 0 for v in vals):
                continue
            active = tuple(k for k, v in enumerate(vals) if v == 0)
            verts.append({"point": x, "pair": (i, j),
                          "active": active})
    return verts
