"""The JSON readers as the package had them before it parsed coordinate
lists straight into integers over one denominator, kept verbatim as the
one independent reference reader for the tests: `curve_from_dict` and
`lines_from_dict` build one `Fraction` per coordinate, through
`_plain_rational` or, for any other form, `parse_rational`, and
`domain_from_dict` reads a facet offset the same way.  They hand those
rationals to the package's constructors, which take rationals from
library callers.

`plain` is the package's reader of a joined coordinate list
(`io_json._plain`) as it was when one regular expression checked the
whole text and a second one split it into numerators and denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul

from troplag.curve import Edge, TropicalCurve
from troplag.domain import Facet, Line, LineConfiguration, PolyhedralDomain
from troplag.errors import WorkbenchError

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_PLAIN_RATIONAL = _RATIONAL.fullmatch
_PLAIN = r"-?[0-9]+(?:/[0-9]+)?"
_PLAIN_LIST = re.compile(f"{_PLAIN}(?:,{_PLAIN})*").fullmatch


def plain(text):
    """The comma-joined coordinates text as (flat, L): integers over one
    L > 0, in order.  None unless every coordinate is plain, "n" or
    "n/d" of ASCII digits with d nonzero and no longer than int()
    takes."""
    if not _PLAIN_LIST(text):
        return None
    try:
        if "/" not in text:
            return list(map(int, text.split(","))), 1
        nums, dens = zip(*_RATIONAL.findall(text))  # den "" if none
        values = {d: int(d) for d in set(dens) if d}
        if not all(values.values()):
            return None
        L = lcm(*values.values())
        scale = {d: L // v for d, v in values.items()}
        scale[""] = L
        return list(map(mul, map(int, nums),
                        map(scale.__getitem__, dens))), L
    except ValueError:
        return None


def _pointer(where):
    """A JSON pointer, given as a string or as a tuple of keys/indices."""
    if isinstance(where, str):
        return where
    return "".join(f"/{part}" for part in where)


def _schema_error(where, message):
    return WorkbenchError("SCHEMA_ERROR", message, _pointer(where))


def _plain_rational(value):
    """value as a Fraction if it is an int or a plain "n" / "n/d"
    string with d nonzero; None for anything else, and for digit strings
    longer than int() accepts."""
    t = type(value)
    if t is int:
        return Fraction(value)
    if t is str:
        m = _PLAIN_RATIONAL(value)
        if m is not None:
            num, den = m.groups()
            try:
                if den is None:
                    return Fraction(int(num))
                den = int(den)
                if den:
                    return Fraction(int(num), den)
            except ValueError:
                pass
    return None


def parse_rational(value, pointer):
    x = _plain_rational(value)
    if x is not None:
        return x
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
                                 f"bad rational {value!r}: {exc}",
                                 _pointer(pointer))
    raise _schema_error(pointer, f"expected a rational, got {type(value).__name__}")


def parse_int(value, pointer):
    if type(value) is int:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise _schema_error(pointer, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise WorkbenchError("PARSE_ERROR",
                                 f"bad integer {value!r}: {exc}",
                                 _pointer(pointer))
    raise _schema_error(pointer, f"expected an integer, got {type(value).__name__}")


def _need(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise _schema_error((*where, key), "missing field")
    return obj[key]


def _int_vector(value, where, dim=None):
    if not isinstance(value, list):
        raise _schema_error(where, "expected a list of integers")
    if dim is not None and len(value) != dim:
        raise _schema_error(where, f"expected {dim} coordinates")
    for v in value:
        if type(v) is not int:
            return tuple([parse_int(v, (*where, i))
                          for i, v in enumerate(value)])
    return tuple(value)


def _rational_vector(value, where, dim=None):
    if not isinstance(value, list):
        raise _schema_error(where, "expected a list of rationals")
    if dim is not None and len(value) != dim:
        raise _schema_error(where, f"expected {dim} coordinates")
    out = []
    for i, v in enumerate(value):
        x = _plain_rational(v)
        out.append(parse_rational(v, (*where, i)) if x is None else x)
    return tuple(out)


def curve_from_dict(data) -> TropicalCurve:
    dim = parse_int(_need(data, "dim", ()), "/dim")
    raw_vertices = _need(data, "vertices", ())
    raw_edges = _need(data, "edges", ())
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise _schema_error("/", "vertices and edges must be lists")
    vertices = []
    for i, v in enumerate(raw_vertices):
        where = ("vertices", i)
        vid = _need(v, "id", where)
        pos = _rational_vector(_need(v, "pos", where), (*where, "pos"), dim)
        vertices.append((str(vid), pos))
    edges = []
    for i, e in enumerate(raw_edges):
        where = ("edges", i)
        tail = str(_need(e, "tail", where))
        head = e.get("head")
        head = None if head is None else str(head)
        direction = _int_vector(_need(e, "dir", where), (*where, "dir"), dim)
        weight = parse_int(e.get("weight", 1), (*where, "weight"))
        label = e.get("leaf_label")
        label = None if label is None else parse_int(
            label, (*where, "leaf_label"))
        edges.append(Edge(tail, head, direction, weight, label))
    return TropicalCurve(dim, vertices, edges)


def domain_from_dict(data) -> PolyhedralDomain:
    dim = parse_int(_need(data, "dim", ()), "/dim")
    raw = _need(data, "facets", ())
    if not isinstance(raw, list):
        raise _schema_error("/facets", "expected a list")
    facets = []
    for i, f in enumerate(raw):
        where = ("facets", i)
        normal = _int_vector(_need(f, "normal", where), (*where, "normal"),
                             dim)
        offset = parse_rational(_need(f, "offset", where), (*where, "offset"))
        facets.append(Facet(normal, offset))
    return PolyhedralDomain(dim, facets)


def lines_from_dict(data) -> LineConfiguration:
    raw = _need(data, "lines", ())
    if not isinstance(raw, list):
        raise _schema_error("/lines", "expected a list")
    lines = []
    for i, l in enumerate(raw):
        where = ("lines", i)
        point = _rational_vector(_need(l, "point", where), (*where, "point"))
        direction = _int_vector(_need(l, "dir", where), (*where, "dir"))
        lines.append(Line(point, direction))
    return LineConfiguration(lines)
