"""JSON input/output for curves, domains and line configurations.

Rationals travel as "p/q" strings (plain integers are accepted);
floating point numbers are rejected everywhere.  Schema violations
report a JSON-pointer-style path.

The readers build the final records in one pass.  When every vertex,
edge or line is a dict whose fields are in plain form (str ids, tails
and heads, lists of exact ints as directions, exact int weights and
labels or null), the fields are gathered with `map` over the items,
each checked at once by the set of its types and lengths, and the
records are built by `map`; any other list goes through the per-item
loop, which converts the accepted forms and raises the first error
(`_vertex_rows`, `_edges`, `_line_rows`).  A curve's vertex
positions, and a line configuration's points, are parsed as one list
of coordinates straight into integers over one common denominator
(`_rationals`), with no `Fraction` built: when every coordinate is a
string of ASCII digits with an optional "-" and an optional nonzero "/"
denominator, the whole list is checked by one `str.translate` and
three substring tests and converted by `int` (`_plain`).  Any other
list goes coordinate by coordinate through `parse_rational`, as a facet
offset does: a plain int or string is converted directly
(`_plain_rational`), and any other value goes through `Fraction(str)`
and the type checks, which decide what is accepted and how it is
rejected.  A pointer travels as a tuple of keys and indices and is
formatted only for an error.  The writers print each coordinate X / L
reduced, as `str(Fraction)` does.
`canonical_json` writes the reports directly, byte for byte as
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
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import itemgetter, mul

from .curve import Edge, TropicalCurve, over_one_denominator, rational_text
from .domain import Facet, Line, LineConfiguration, PolyhedralDomain
from .errors import WorkbenchError

_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
# the characters of a plain coordinate list, which `_plain` deletes
_PLAIN_CHARS = dict.fromkeys(map(ord, "0123456789-/,"))
_BLOCK = 64        # rows of coordinates parsed at once (`_rationals`)


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


def _rational_list(value, where, dim=None):
    """value, checked to be a list of dim coordinates when dim is given;
    the coordinates are parsed by `_rationals`."""
    if not isinstance(value, list):
        raise _schema_error(where, "expected a list of rationals")
    if dim is not None and len(value) != dim:
        raise _schema_error(where, f"expected {dim} coordinates")
    return value


def _plain(text):
    """The coordinates of rows joined by `_rationals` as (flat, L):
    integers over one L > 0, in order.  None unless every coordinate is
    plain, "n" or "n/d" of ASCII digits with d nonzero and no longer
    than int() takes.

    The text may hold nothing but digits, "-", "/" and ",", and no "/"
    may be followed by "-", by "," or by the end, so that each "/"
    starts a denominator with no sign; `int` refuses every other
    malformed part (an empty one, a misplaced "-", a second "/")."""
    if text.translate(_PLAIN_CHARS) or "/-" in text or "/," in text \
            or text.endswith("/"):
        return None
    parts = text.split(",")
    try:
        if "/" not in text:
            return list(map(int, parts)), 1
        nums, _, dens = zip(*map(str.partition, parts, repeat("/")))
        values = {d: int(d) for d in set(dens) if d}   # den "" if none
        if not all(values.values()):
            return None
        L = lcm(*values.values())
        scale = {d: L // v for d, v in values.items()}
        scale[""] = L
        return list(map(mul, map(int, nums),
                        map(scale.__getitem__, dens))), L
    except ValueError:
        return None


def _rationals(rows, where):
    """The lists of rational coordinates rows[k] as (X, L): integer
    tuples X[k] over one L > 0, X[k] / L the point rows[k].  where(k, i)
    is the pointer of rows[k][i], for errors.

    Rows of plain strings are joined by commas and parsed at once
    (`_plain`), up to _BLOCK rows at a time, which bounds the text and
    the digit strings alive together; the count of what comes back
    guards against a coordinate that holds a comma.  Any other rows go
    through `parse_rational` coordinate by coordinate, which raises the
    first bad coordinate's error.  L need not be the least denominator;
    the constructors reduce it."""
    blocks = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        try:
            plain = _plain(",".join(map(",".join, block)))
        except TypeError:       # a coordinate that is no str
            plain = None
        if plain is None or len(plain[0]) != sum(map(len, block)):
            return over_one_denominator(
                [parse_rational(v, where(k, i)) for i, v in enumerate(row)]
                for k, row in enumerate(rows))
        blocks.append(plain)
    L = lcm(*{b for _, b in blocks})
    it = chain.from_iterable(flat if b == L else map((L // b).__mul__, flat)
                             for flat, b in blocks)
    return [tuple(islice(it, len(row))) for row in rows], L


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise WorkbenchError("PARSE_ERROR", str(exc), path)
    except json.JSONDecodeError as exc:
        raise WorkbenchError("PARSE_ERROR",
                             f"invalid JSON: {exc}", f"{path}:{exc.lineno}")
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, nesting past the recursion limit, or
        # an integer past the interpreter's digit limit (whose advice to
        # raise that limit, after the ';', is dropped)
        raise WorkbenchError("PARSE_ERROR",
                             f"invalid JSON: {str(exc).partition(';')[0]}",
                             path)


def _pos_at(k, i):
    return ("vertices", k, "pos", i)


def _vertex_rows(raw, dim):
    """The ids and the coordinate lists of the vertices raw, a list.

    When every vertex is a dict with a str id and a list of dim
    coordinates, the fields are read in bulk; anything else goes through
    the per-vertex loop, which converts an id by `str` and raises the
    first vertex's error, after the errors of the earlier positions."""
    if set(map(type, raw)) <= {dict}:
        try:
            ids = list(map(itemgetter("id"), raw))
            rows = list(map(itemgetter("pos"), raw))
        except KeyError:
            pass
        else:
            if set(map(type, ids)) <= {str} and \
                    set(map(type, rows)) <= {list} and \
                    set(map(len, rows)) <= {dim}:
                return ids, rows
    ids, rows = [], []
    try:
        for i, v in enumerate(raw):
            vid = _need(v, "id", ("vertices", i))
            rows.append(_rational_list(_need(v, "pos", ("vertices", i)),
                                       ("vertices", i, "pos"), dim))
            ids.append(str(vid))
    except WorkbenchError:
        _rationals(rows, _pos_at)   # an earlier vertex's error first
        raise
    return ids, rows


def _edges(raw, dim):
    """The `Edge` records of the edges raw, a list.

    When every edge is a dict with a str tail, a str or null head, a
    list of dim exact ints as its direction, an exact int weight (1 if
    absent) and an exact int or null leaf label, the records are built
    in bulk; anything else goes through the per-edge loop, which
    converts the accepted forms and raises the first edge's error."""
    if set(map(type, raw)) <= {dict}:
        try:
            tails = list(map(itemgetter("tail"), raw))
            dirs = list(map(itemgetter("dir"), raw))
        except KeyError:
            pass
        else:
            heads = list(map(dict.get, raw, repeat("head")))
            weights = list(map(dict.get, raw, repeat("weight"), repeat(1)))
            labels = list(map(dict.get, raw, repeat("leaf_label")))
            if set(map(type, tails)) <= {str} and \
                    set(map(type, heads)) <= {str, type(None)} and \
                    set(map(type, dirs)) <= {list} and \
                    set(map(len, dirs)) <= {dim} and \
                    set(map(type, chain.from_iterable(dirs))) <= {int} and \
                    set(map(type, weights)) <= {int} and \
                    set(map(type, labels)) <= {int, type(None)}:
                return list(map(Edge, tails, heads, map(tuple, dirs),
                                weights, labels))
    edges = []
    for i, e in enumerate(raw):
        where = ("edges", i)
        tail = str(_need(e, "tail", where))
        head = e.get("head")
        head = None if head is None else str(head)
        direction = _int_vector(_need(e, "dir", where), (*where, "dir"), dim)
        # an Edge's weight is an exact int
        weight = int(parse_int(e.get("weight", 1), (*where, "weight")))
        label = e.get("leaf_label")
        label = None if label is None else parse_int(
            label, (*where, "leaf_label"))
        edges.append(Edge(tail, head, direction, weight, label))
    return edges


def curve_from_dict(data) -> TropicalCurve:
    dim = _need(data, "dim", ())
    if type(dim) is not int:
        dim = parse_int(dim, "/dim")
    raw_vertices = _need(data, "vertices", ())
    raw_edges = _need(data, "edges", ())
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise _schema_error("/", "vertices and edges must be lists")
    ids, rows = _vertex_rows(raw_vertices, dim)
    X, L = _rationals(rows, _pos_at)
    return TropicalCurve(dim, zip(ids, X), _edges(raw_edges, dim), L)


def load_curve(path) -> TropicalCurve:
    return curve_from_dict(_load_json(path))


def curve_to_dict(c: TropicalCurve):
    return {
        "dim": c.dim,
        "vertices": [{"id": vid,
                      "pos": [rational_text(x, c.denominator) for x in pos]}
                     for vid, pos in c.coords.items()],
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


def _point_at(k, i):
    return ("lines", k, "point", i)


def _line_rows(raw):
    """The point lists and the direction tuples of the lines raw, a list.

    When every line is a dict with a list as its point and a list of
    exact ints as its direction, the fields are read in bulk; anything
    else goes through the per-line loop, which converts the accepted
    forms and raises the first line's error, after the errors of the
    earlier points."""
    if set(map(type, raw)) <= {dict}:
        try:
            rows = list(map(itemgetter("point"), raw))
            dirs = list(map(itemgetter("dir"), raw))
        except KeyError:
            pass
        else:
            if set(map(type, rows)) <= {list} and \
                    set(map(type, dirs)) <= {list} and \
                    set(map(type, chain.from_iterable(dirs))) <= {int}:
                return rows, list(map(tuple, dirs))
    rows, dirs = [], []
    try:
        for i, l in enumerate(raw):
            rows.append(_rational_list(_need(l, "point", ("lines", i)),
                                       ("lines", i, "point")))
            dirs.append(_int_vector(_need(l, "dir", ("lines", i)),
                                    ("lines", i, "dir")))
    except WorkbenchError:
        _rationals(rows, _point_at)  # an earlier point's error first
        raise
    return rows, dirs


def lines_from_dict(data) -> LineConfiguration:
    raw = _need(data, "lines", ())
    if not isinstance(raw, list):
        raise _schema_error("/lines", "expected a list")
    rows, dirs = _line_rows(raw)
    X, L = _rationals(rows, _point_at)
    return LineConfiguration(list(map(Line, X, dirs, repeat(L))))


def load_lines(path) -> LineConfiguration:
    return lines_from_dict(_load_json(path))


def lines_to_dict(lc: LineConfiguration):
    L = lc.denominator
    return {"lines": [{"point": [rational_text(x, L) for x in l.point],
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


def output_too_large(exc):
    """The OUTPUT_TOO_LARGE error for a report holding an int past the
    interpreter's digit limit: its `ValueError` text, without the advice
    to raise that limit after the ';'."""
    return WorkbenchError("OUTPUT_TOO_LARGE", "cannot write the report: "
                          + str(exc).partition(";")[0])


def canonical_json(obj) -> str:
    """obj as the text json.dumps(obj, sort_keys=True, indent=2) + "\n".

    Reports hold dicts with str keys, lists, tuples, str, int (an int
    subclass is written as int.__repr__), bool and None.  Any other key
    or value raises TypeError; floats are among them, since the package
    computes without floating point.  A tuple object repeated within obj
    at one indentation, like the edge pairs an enumeration's types
    share, is written once and its text reused (`_emit`); the memo is
    local to the call.  An int past the interpreter's digit limit is an
    OUTPUT_TOO_LARGE error; the limit stays.
    """
    out = []
    try:
        _emit(obj, "\n", out, {})
    except ValueError as exc:
        raise output_too_large(exc) from None
    out.append("\n")
    return "".join(out)
