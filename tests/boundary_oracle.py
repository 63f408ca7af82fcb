"""The JSON boundary as the package had it before its one-pass parse,
direct canonical emitter and integer edge test, kept verbatim as an
independent reference for the tests.

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
from troplag.domain import LineConfiguration, PolyhedralDomain
from troplag.errors import WorkbenchError
from troplag.lattice import content, is_zero, vec_add, vec_scale, vec_sub


def _schema_error(pointer, message):
    return WorkbenchError("SCHEMA_ERROR", message, pointer)


def parse_rational(value, pointer):
    if isinstance(value, bool):
        raise _schema_error(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise _schema_error(pointer,
                            "floating point numbers are not accepted")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise WorkbenchError("PARSE_ERROR",
                                 f"bad rational {value!r}: {exc}", pointer)
    raise _schema_error(pointer, f"expected a rational, got {type(value).__name__}")


def parse_int(value, pointer):
    if isinstance(value, bool) or isinstance(value, float):
        raise _schema_error(pointer, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise WorkbenchError("PARSE_ERROR",
                                 f"bad integer {value!r}: {exc}", pointer)
    raise _schema_error(pointer, f"expected an integer, got {type(value).__name__}")


def _need(obj, key, pointer):
    if not isinstance(obj, dict) or key not in obj:
        raise _schema_error(f"{pointer}/{key}", "missing field")
    return obj[key]


def _int_vector(value, pointer, dim=None):
    if not isinstance(value, list):
        raise _schema_error(pointer, "expected a list of integers")
    if dim is not None and len(value) != dim:
        raise _schema_error(pointer, f"expected {dim} coordinates")
    return tuple(parse_int(v, f"{pointer}/{i}") for i, v in enumerate(value))


def _rational_vector(value, pointer, dim=None):
    if not isinstance(value, list):
        raise _schema_error(pointer, "expected a list of rationals")
    if dim is not None and len(value) != dim:
        raise _schema_error(pointer, f"expected {dim} coordinates")
    return tuple(parse_rational(v, f"{pointer}/{i}")
                 for i, v in enumerate(value))


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


def curve_from_dict(data) -> TropicalCurve:
    dim = parse_int(_need(data, "dim", ""), "/dim")
    raw_vertices = _need(data, "vertices", "")
    raw_edges = _need(data, "edges", "")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise _schema_error("/", "vertices and edges must be lists")
    vertices = []
    for i, v in enumerate(raw_vertices):
        vid = _need(v, "id", f"/vertices/{i}")
        pos = _rational_vector(_need(v, "pos", f"/vertices/{i}"),
                               f"/vertices/{i}/pos", dim)
        vertices.append((str(vid), pos))
    edges = []
    for i, e in enumerate(raw_edges):
        tail = str(_need(e, "tail", f"/edges/{i}"))
        head = e.get("head")
        head = None if head is None else str(head)
        direction = _int_vector(_need(e, "dir", f"/edges/{i}"),
                                f"/edges/{i}/dir", dim)
        weight = parse_int(e.get("weight", 1), f"/edges/{i}/weight")
        label = e.get("leaf_label")
        label = None if label is None else parse_int(label,
                                                     f"/edges/{i}/leaf_label")
        edges.append({"tail": tail, "head": head, "dir": direction,
                      "weight": weight, "leaf_label": label})
    return TropicalCurve(dim, vertices, edges)


def domain_from_dict(data) -> PolyhedralDomain:
    dim = parse_int(_need(data, "dim", ""), "/dim")
    raw = _need(data, "facets", "")
    if not isinstance(raw, list):
        raise _schema_error("/facets", "expected a list")
    facets = []
    for i, f in enumerate(raw):
        normal = _int_vector(_need(f, "normal", f"/facets/{i}"),
                             f"/facets/{i}/normal", dim)
        offset = parse_rational(_need(f, "offset", f"/facets/{i}"),
                                f"/facets/{i}/offset")
        facets.append({"normal": normal, "offset": offset})
    return PolyhedralDomain(dim, facets)


def lines_from_dict(data) -> LineConfiguration:
    raw = _need(data, "lines", "")
    if not isinstance(raw, list):
        raise _schema_error("/lines", "expected a list")
    lines = []
    for i, l in enumerate(raw):
        point = _rational_vector(_need(l, "point", f"/lines/{i}"),
                                 f"/lines/{i}/point")
        direction = _int_vector(_need(l, "dir", f"/lines/{i}"),
                                f"/lines/{i}/dir")
        lines.append({"point": point, "dir": direction})
    return LineConfiguration(lines)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
