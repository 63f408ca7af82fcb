"""The JSON boundary as the package had it before its direct canonical
emitter and integer edge test, kept verbatim as an independent reference
for the tests.  The reference readers are in `io_oracle`.

Three adaptations, all at the edges: the emitter is the one-liner that
`troplag.io_json.canonical_json` was; `positive_multiple` (it was
`troplag.curve._positive_multiple`) lost its leading underscore; and
`validate_curve` returns its tuple of issues instead of wrapping it in
a `ValidationReport`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from troplag.curve import TropicalCurve
from troplag.lattice import content, is_zero, vec_add, vec_scale, vec_sub


def positive_multiple(delta, direction):
    """The t > 0 with delta == t * direction, or None."""
    t = None
    for d, u in zip(delta, direction):
        if u == 0:
            if d != 0:
                return None
            continue
        s = Fraction(d, u)
        if t is None:
            t = s
        elif s != t:
            return None
    if t is None or t <= 0:
        return None
    return t


def validate_curve(c: TropicalCurve) -> tuple:
    """Check every tropical-curve axiom; report all violations."""
    issues = []
    if c.dim < 2:
        issues.append("dimension must be at least 2")
    for vid, pos in c.vertices.items():
        if len(pos) != c.dim:
            issues.append(f"vertex {vid}: position has wrong dimension")
    for i, e in enumerate(c.edges):
        if e.tail not in c.vertices:
            issues.append(f"edge {i}: unknown tail {e.tail}")
            continue
        if e.head is not None and e.head not in c.vertices:
            issues.append(f"edge {i}: unknown head {e.head}")
            continue
        if len(e.direction) != c.dim:
            issues.append(f"edge {i}: direction has wrong dimension")
            continue
        if is_zero(e.direction):
            issues.append(f"edge {i}: zero direction")
            continue
        if content(e.direction) != 1:
            issues.append(f"edge {i}: direction {e.direction} not primitive")
        if not isinstance(e.weight, int) or e.weight < 1:
            issues.append(f"edge {i}: weight must be a positive integer")
        if e.bounded:
            if e.head == e.tail:
                issues.append(f"edge {i}: loop edge")
                continue
            delta = vec_sub(c.position(e.head), c.position(e.tail))
            if positive_multiple(delta, e.direction) is None:
                issues.append(
                    f"edge {i}: head - tail is not a positive multiple "
                    f"of the direction")
    if not issues:
        # balancing and valence rules need consistent incidence data
        for vid in c.vertices:
            inc = c.incident(vid)
            if len(inc) == 0:
                issues.append(f"vertex {vid}: isolated")
            elif len(inc) == 2:
                (i1, d1, w1), (i2, d2, w2) = inc
                if w1 != w2 or vec_add(vec_scale(w1, d1),
                                       vec_scale(w2, d2)) != (0,) * c.dim:
                    issues.append(
                        f"vertex {vid}: degenerate 2-valent vertex")
            elif len(inc) >= 3:
                total = (0,) * c.dim
                for _, d, w in inc:
                    total = vec_add(total, vec_scale(w, d))
                if not is_zero(total):
                    issues.append(
                        f"vertex {vid}: balancing fails, outward sum {total}")
        # connectivity
        if c.vertices:
            seen = set()
            stack = [next(iter(c.vertices))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                for i, _, _ in c.incident(v):
                    e = c.edges[i]
                    for w in (e.tail, e.head):
                        if w is not None and w not in seen:
                            stack.append(w)
            if seen != set(c.vertices):
                issues.append("curve is not connected")
        # end labels, if any are present, must be usable
        labels = [e.leaf_label for e in c.edges if e.leaf_label is not None]
        if len(labels) != len(set(labels)):
            issues.append("duplicate leaf labels")
    return tuple(issues)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
