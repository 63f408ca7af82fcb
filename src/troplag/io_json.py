"""JSON input/output for curves, domains and line configurations.

Rationals travel as "p/q" strings (plain integers are accepted); any
other form is read by the package's one number rule, `parse_rational`
and `parse_int`.  Schema violations report a JSON-pointer-style path.

Each document is read by one of two paths.  When every vertex, edge
or line is a dict whose fields are in plain form (str ids, tails and
heads, lists of exact ints as directions, exact int weights and labels
or null, and coordinates that are strings of ASCII digits with an
optional "-" and an optional nonzero "/" denominator), the fields are
gathered with `map` over the items, each checked at once by the set of
its types and lengths, and the positions or points are parsed as one
list of coordinates straight into integers over one common denominator,
with no `Fraction` built: one `str.translate`, three substring tests
and `int` (`_rationals`, `_plain`).  Anything else goes through the
per-item loop, which reads each item whole, each number by
`parse_rational` or `parse_int` where it meets it, and so raises the
first item's error (`_vertices`, `_edges`, `_lines`).  A pointer
travels as a tuple of keys and indices, which `WorkbenchError` formats
only for an error.  The writers print each coordinate X / L reduced, as
`str(Fraction)` does.
`canonical_json` writes the reports directly, byte for byte as
`json.dumps(obj, sort_keys=True, indent=2) + "\n"` would, without the
stdlib's pure-Python indenting encoder.  Within one call it writes a
tuple object that recurs at the same indentation once and copies that
text for each later occurrence, so a report whose types share their
edge tuples costs one pass per distinct tuple.  A list of records that
share one key set, like an enumeration's types, is written from one key
template: the keys are sorted, checked and quoted once for the list,
and each record is written inline with no call of its own.  The bytes
do not change.
"""

from __future__ import annotations

import json
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import itemgetter, mul

from .curve import (Edge, TropicalCurve, _need, _schema_error,
                    int_vector as _int_vector, over_one_denominator,
                    parse_int, parse_rational, rational_text,
                    rational_vector as _rational_vector)
from .domain import Facet, Line, LineConfiguration, PolyhedralDomain
from .errors import WorkbenchError

# the characters of a plain coordinate list, which `_plain` deletes
_PLAIN_CHARS = dict.fromkeys(map(ord, "0123456789-/,"))
_BLOCK = 64        # rows of coordinates parsed at once (`_rationals`)


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


def _rationals(rows):
    """The lists of rational coordinates rows[k] as (X, L): integer
    tuples X[k] over one L > 0, X[k] / L the point rows[k]; None unless
    every coordinate is a plain string.

    The rows are joined by commas and parsed at once (`_plain`), up to
    _BLOCK rows at a time, which bounds the text and the digit strings
    alive together; the count of what comes back guards against a
    coordinate that holds a comma.  L need not be the least denominator;
    the constructors reduce it."""
    blocks = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        try:
            plain = _plain(",".join(map(",".join, block)))
        except TypeError:       # a coordinate that is no str
            return None
        if plain is None or len(plain[0]) != sum(map(len, block)):
            return None
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


def _fields(raw, *keys):
    """For each key, the list of its values over the items of raw, a
    list, when every item is a dict holding every key; else None for
    each key."""
    if set(map(type, raw)) <= {dict}:
        try:
            return [list(map(itemgetter(key), raw)) for key in keys]
        except KeyError:
            pass
    return [None] * len(keys)


def _vertices(raw, dim):
    """The ids of the vertices raw, a list, and their positions as
    (X, L), integer tuples over one L > 0.

    When every vertex is a dict with a str id and a list of dim plain
    coordinates, the ids are taken and the positions parsed in bulk
    (`_rationals`); anything else goes through the per-vertex loop, which
    reads each vertex whole, its id by `str` and its position by
    `rational_vector`, and so raises the first vertex's error."""
    ids, rows = _fields(raw, "id", "pos")
    if ids is not None and set(map(type, ids)) <= {str} and \
            set(map(type, rows)) <= {list} and \
            set(map(len, rows)) <= {dim} and \
            (read := _rationals(rows)) is not None:
        return ids, read
    ids, points = [], []
    for i, v in enumerate(raw):
        where = ("vertices", i)
        ids.append(str(_need(v, "id", where)))
        points.append(_rational_vector(_need(v, "pos", where),
                                       (*where, "pos"), dim))
    return ids, over_one_denominator(points)


def _edges(raw, dim):
    """The `Edge` records of the edges raw, a list.

    When every edge is a dict with a str tail, a str or null head, a
    list of dim exact ints as its direction, an exact int weight (1 if
    absent) and an exact int or null leaf label, the records are built
    in bulk; anything else goes through the per-edge loop, which
    converts the accepted forms and raises the first edge's error."""
    tails, dirs = _fields(raw, "tail", "dir")
    if tails is not None:
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
    ids, (X, L) = _vertices(raw_vertices, dim)
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


def _lines(raw):
    """The `Line` records of the lines raw, a list.

    When every line is a dict with a list of plain coordinates as its
    point and a list of exact ints as its direction, the fields are read
    in bulk and the points parsed at once into integers over one
    denominator (`_rationals`); anything else goes through the per-line
    loop, which reads each line whole, its point as `Fraction`s, and so
    raises the first line's error."""
    rows, dirs = _fields(raw, "point", "dir")
    if rows is not None and set(map(type, rows)) <= {list} and \
            set(map(type, dirs)) <= {list} and \
            set(map(type, chain.from_iterable(dirs))) <= {int} and \
            (read := _rationals(rows)) is not None:
        X, L = read
        return list(map(Line, X, map(tuple, dirs), repeat(L)))
    lines = []
    for i, l in enumerate(raw):
        where = ("lines", i)
        point = _rational_vector(_need(l, "point", where), (*where, "point"))
        lines.append(Line(point, _int_vector(_need(l, "dir", where),
                                             (*where, "dir"))))
    return lines


def lines_from_dict(data) -> LineConfiguration:
    raw = _need(data, "lines", ())
    if not isinstance(raw, list):
        raise _schema_error("/lines", "expected a list")
    return LineConfiguration(_lines(raw))


def load_lines(path) -> LineConfiguration:
    return lines_from_dict(_load_json(path))


def lines_to_dict(lc: LineConfiguration):
    L = lc.denominator
    return {"lines": [{"point": [rational_text(x, L) for x in l.point],
                       "dir": list(l.direction)} for l in lc.lines]}


def _emit(o, nl, out, seen):
    """Append the JSON text of o to out; nl is a newline followed by the
    indentation of o's own level.

    A dict is written as the one member of a record list with no
    brackets, so one loop writes every dict.  Members that are exact
    ints or strs, or None, are written in place; a member dict is
    written inline from a key template, which holds the sorted keys,
    each checked to be a str, with each key's head (the separator, the
    indentation and the quoted key) and the closing text.  The template
    is built for the first member dict and again whenever a member's key
    set differs from the previous one, so a list of same-keyed records
    sorts and quotes its keys once.  Any other member goes to a nested
    call; no type is both a container and a scalar, so json's order of
    tests gives the same answer.  An exact tuple met again as a member
    at the same indentation is written from the text its first call
    built: seen maps each indentation to a memo from the tuple's id to
    (the tuple, its text), and holding the tuple keeps the id from being
    reused while seen lives."""
    if isinstance(o, dict):
        members, inner, sep, end, memo = (o,), nl, "", "", None
    elif not isinstance(o, (list, tuple)):
        if isinstance(o, str):
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
        return
    elif not o:
        out.append("[]")
        return
    else:
        inner = nl + "  "
        members, sep, end = o, "[" + inner, nl + "]"
        memo = seen.get(inner)
        if memo is None:
            memo = seen[inner] = {}
    comma = "," + inner
    keys = None         # the key set of the template's dict
    for value in members:
        t = type(value)
        if t is tuple:
            out.append(sep)
            hit = memo.get(id(value))
            if hit is not None:
                out.append(hit[1])
            else:
                start = len(out)
                _emit(value, inner, out, seen)
                memo[id(value)] = (value, "".join(out[start:]))
        elif t is int:
            out.append(sep + int.__repr__(value))
        elif t is str:
            out.append(sep + _quote(value))
        elif value is None:
            out.append(sep + "null")
        elif isinstance(value, dict):
            if value.keys() != keys:
                keys = value.keys()
                ind = inner + "  "
                lead = "{" + ind
                heads = []
                for key in sorted(value):
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not "
                                        f"{key.__class__.__name__}")
                    heads.append((key, lead + _quote(key) + ": "))
                    lead = "," + ind
                close = inner + "}" if heads else "{}"
            out.append(sep)
            for key, head in heads:
                v = value[key]
                t = type(v)
                if t is int:
                    out.append(head + int.__repr__(v))
                elif t is str:
                    out.append(head + _quote(v))
                elif v is None:
                    out.append(head + "null")
                else:
                    out.append(head)
                    _emit(v, ind, out, seen)
            out.append(close)
        else:
            out.append(sep)
            _emit(value, inner, out, seen)
        sep = comma
    out.append(end)


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
    local to the call.  The dicts of a list that share one key set, like
    an enumeration's types, are written from one key template, their
    keys sorted and quoted once.  An int past the interpreter's digit
    limit is an OUTPUT_TOO_LARGE error; the limit stays.
    """
    out = []
    try:
        _emit(obj, "\n", out, {})
    except ValueError as exc:
        raise output_too_large(exc) from None
    out.append("\n")
    return "".join(out)
