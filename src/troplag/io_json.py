"""JSON input/output for curves, domains and line configurations.

Rationals travel as "p/q" strings (plain integers are accepted);
floating point numbers are rejected everywhere.  Schema violations
report a JSON-pointer-style path.

The readers build the final records in one pass.  A plain int, or a
string of ASCII digits with an optional "-" and an optional nonzero
"/" denominator, is converted directly; any other value goes through
`Fraction(str)` / `int(str)` and the type checks, which decide what is
accepted and how it is rejected.  A pointer travels as a tuple of keys
and indices and is formatted only for an error.  `canonical_json`
writes the reports directly, byte for byte as
`json.dumps(obj, sort_keys=True, indent=2) + "\n"` would, without the
stdlib's pure-Python indenting encoder.  Within one call it writes a
tuple object that recurs at the same indentation once and copies that
text for each later occurrence, so a report whose types share their
edge tuples costs one pass per distinct tuple; the bytes do not change.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .curve import Edge, TropicalCurve
from .domain import Facet, Line, LineConfiguration, PolyhedralDomain
from .errors import WorkbenchError

_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


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


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise WorkbenchError("PARSE_ERROR", str(exc), path)
    except json.JSONDecodeError as exc:
        raise WorkbenchError("PARSE_ERROR",
                             f"invalid JSON: {exc}", f"{path}:{exc.lineno}")


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


def load_curve(path) -> TropicalCurve:
    return curve_from_dict(_load_json(path))


def curve_to_dict(c: TropicalCurve):
    return {
        "dim": c.dim,
        "vertices": [{"id": vid, "pos": [str(x) for x in pos]}
                     for vid, pos in c.vertices.items()],
        "edges": [{"tail": e.tail, "head": e.head,
                   "dir": list(e.direction), "weight": e.weight,
                   "leaf_label": e.leaf_label}
                  for e in c.edges],
    }


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


def load_domain(path) -> PolyhedralDomain:
    return domain_from_dict(_load_json(path))


def domain_to_dict(d: PolyhedralDomain):
    return {"dim": d.dim,
            "facets": [{"normal": list(f.normal), "offset": str(f.offset)}
                       for f in d.facets]}


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


def load_lines(path) -> LineConfiguration:
    return lines_from_dict(_load_json(path))


def lines_to_dict(lc: LineConfiguration):
    return {"lines": [{"point": [str(x) for x in l.point],
                       "dir": list(l.direction)} for l in lc.lines]}


def _emit(o, nl, out, seen):
    """Append the JSON text of o to out; nl is a newline followed by the
    indentation of o's own level.  Containers are tested first: no type
    is both a container and a scalar, so json's order of tests gives the
    same answer.  Members that are exact ints or strs, or None, are
    written in place, anything else by a nested call.  An exact tuple
    met again as a member of a list or tuple at the same indentation is
    written from the text its first call built: seen maps its id to
    (the tuple, its indentation, its text), and holding the tuple keeps
    the id from being reused while seen lives."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in o:
            t = type(value)
            if t is int:
                out.append(sep + int.__repr__(value))
            elif t is str:
                out.append(sep + _quote(value))
            elif value is None:
                out.append(sep + "null")
            elif t is tuple:
                out.append(sep)
                hit = seen.get(id(value))
                if hit is not None and hit[1] == inner:
                    out.append(hit[2])
                else:
                    start = len(out)
                    _emit(value, inner, out, seen)
                    seen[id(value)] = (value, inner, "".join(out[start:]))
            else:
                out.append(sep)
                _emit(value, inner, out, seen)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{key.__class__.__name__}")
            value = o[key]
            t = type(value)
            if t is int:
                out.append(sep + _quote(key) + ": " + int.__repr__(value))
            elif t is str:
                out.append(sep + _quote(key) + ": " + _quote(value))
            elif value is None:
                out.append(sep + _quote(key) + ": null")
            else:
                out.append(sep + _quote(key) + ": ")
                _emit(value, inner, out, seen)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def canonical_json(obj) -> str:
    """obj as the text json.dumps(obj, sort_keys=True, indent=2) + "\n".

    Reports hold dicts with str keys, lists, tuples, str, int (an int
    subclass is written as int.__repr__), bool and None.  Any other key
    or value raises TypeError; floats are among them, since the package
    computes without floating point.  A tuple object repeated within obj
    at one indentation, like the edge pairs an enumeration's types
    share, is written once and its text reused (`_emit`); the memo is
    local to the call.
    """
    out = []
    _emit(obj, "\n", out, {})
    out.append("\n")
    return "".join(out)
