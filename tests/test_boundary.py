"""The JSON boundary against its previous implementation: the direct
emitter against ``json.dumps`` and the integer edge test and
``validate_curve`` against their ``Fraction`` versions, kept in
``boundary_oracle``, and the readers against the ``Fraction`` readers
kept in ``io_oracle``."""

import copy
import json
import json.encoder
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import boundary_oracle as oracle
import io_oracle
from conftest import fixture_path, load_fixture_json, random_tree_problem
from test_golden import CASES, _run
from test_multiplicity import random_enumeration

from troplag import cli, io_json
from troplag.curve import (Edge, TropicalCurve, _positive_multiple,
                           split_at_edge, validate_curve)
from troplag.errors import WorkbenchError
from troplag.lattice import vec_sub
from troplag.multiplicity import enumerate_count

SETTINGS = settings(max_examples=400, deadline=None, database=None,
                    derandomize=True)


# ---------------------------------------------------------------------------
# canonical_json against json.dumps(sort_keys=True, indent=2)

SPECIAL_TEXT = ["", '"', "\\", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é",
                "  ", "\ud800", "\udfff", "a\ud83dz",
                "\U0001f600", "ключ", "/vertices/0/pos"]
TEXT = st.text(st.characters(exclude_categories=())) | \
    st.sampled_from(SPECIAL_TEXT)
SCALARS = (st.none() | st.booleans() |
           st.integers(min_value=-10 ** 40, max_value=10 ** 40) | TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=6) |
                   st.lists(inner, max_size=6).map(tuple) |
                   st.dictionaries(TEXT, inner, max_size=6)),
    max_leaves=60)


class Count(int):
    """An int subclass with its own repr, which JSON must not use."""

    def __repr__(self):
        return "Count!"


@SETTINGS
@given(VALUES)
def test_canonical_json_matches_json_dumps(obj):
    assert io_json.canonical_json(obj) == oracle.canonical_json(obj)


def test_canonical_json_named_objects():
    deep_list, deep_dict = [], {}
    for _ in range(200):
        deep_list = [deep_list, 1]
        deep_dict = {"k": deep_dict, "": ()}
    objs = [None, True, False, 0, -1, 10 ** 40, -10 ** 40, "", "\ud800",
            [], {}, (), [[]], {"a": {}}, ((), [()]), [True, None, "x"],
            Count(7), [Count(-3), {"n": Count(0)}], {"b": 1, "a": 2, "B": 3,
                                                     "é": 4, "\ud800": 5},
            deep_list, deep_dict]
    for obj in objs:
        assert io_json.canonical_json(obj) == oracle.canonical_json(obj)


class Pair(tuple):
    """A tuple subclass: written as an array, never from the memo."""


def test_canonical_json_repeated_tuples():
    """A tuple object met again is written from its first text only at
    the same indentation, and only the same object, never an equal one."""
    t = (1, "a", None, (2, ()))
    a, b, c = (1, 2), (True, 2), (Count(1), 2)
    p = Pair((3, [4]))
    mixed = ([1, {"b": 2, "a": (5,)}], {"a": [3]})
    objs = [[t, [t], {"k": [t, t]}, (t, [[t]]), t],
            [a, b, c, a, b, c, [a, b, c], {"a": a, "b": b, "c": c}],
            [p, p, [p], (p, p)],
            [mixed, mixed, (mixed,), {"x": mixed}, [mixed, [mixed]]]]
    for obj in objs:
        assert io_json.canonical_json(obj) == oracle.canonical_json(obj)


def test_canonical_json_keeps_no_text_between_calls():
    t = ([1],)
    assert io_json.canonical_json([t, t]) == oracle.canonical_json([t, t])
    t[0].append(2)
    assert io_json.canonical_json([t, t]) == oracle.canonical_json([t, t])


@SETTINGS
@given(VALUES)
def test_canonical_json_of_a_value_placed_several_times(v):
    obj = [v, (v,), {"a": v, "b": [v]}]
    assert io_json.canonical_json(obj) == oracle.canonical_json(obj)


def test_canonical_json_writes_each_shared_edge_pair_once(monkeypatch):
    """A kappa = 6 enumeration report: each type costs its dict and its
    topology, and each distinct edge pair one call, its first."""
    rng = random.Random(6)
    while True:
        degree, lines = random_enumeration(rng, 6, 50, 7)
        try:
            rep = enumerate_count(degree, lines)
            break
        except WorkbenchError:
            pass
    report = rep.as_dict()
    report["kappa"] = 6
    pairs = {id(e) for t in rep.per_type for e in t.topology}
    calls = []
    emit = io_json._emit

    def counted(*args):
        calls.append(args[0])
        return emit(*args)

    monkeypatch.setattr(io_json, "_emit", counted)
    text = io_json.canonical_json(report)
    assert len(rep.per_type) == 105 and len(pairs) <= 45
    assert len(calls) <= 2 * len(rep.per_type) + len(pairs) + 4
    assert text == oracle.canonical_json(report)


def test_canonical_json_of_every_fixture_report(monkeypatch):
    reports = []

    def keep(obj):
        reports.append(obj)
        return io_json.canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", keep)
    for argv in CASES.values():
        _run(argv)
    # the table cases emit no JSON
    assert len(reports) == len([a for a in CASES.values() if "table" not in a])
    for obj in reports:
        assert io_json.canonical_json(obj) == oracle.canonical_json(obj)


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), {1, 2}, object(), [1, [Fraction(1)]],
    {"a": {"b": b"bytes"}}])
def test_canonical_json_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as ours:
        io_json.canonical_json(obj)
    with pytest.raises(TypeError) as theirs:
        oracle.canonical_json(obj)
    assert str(ours.value) == str(theirs.value)


def test_canonical_json_rejects_floats():
    # json writes floats; the package computes without them
    for obj in (0.5, [1, 0.5], {"a": 0.5}):
        with pytest.raises(TypeError, match="float is not JSON"):
            io_json.canonical_json(obj)


@pytest.mark.parametrize("obj", [{1: 0}, {None: 0}, {True: 0}, {0.5: 0},
                                 {(1, 2): 0}, {"a": {2: 0}}, {1: 0, "a": 1}])
def test_canonical_json_rejects_non_string_keys(obj):
    # reports key their dicts by strings only; json would convert or
    # reject these keys, the emitter raises for every one of them
    with pytest.raises(TypeError):
        io_json.canonical_json(obj)


def test_canonical_json_never_uses_the_pure_python_encoder(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", boom)
    report = {"perType": [{"topology": [[0, 3], [1, 3]], "curve": "solved",
                           "multiplicity": 1}], "total": 1, "ok": True}
    with pytest.raises(AssertionError):
        oracle.canonical_json(report)
    code, text = cli.run_command(
        ["h1", "--curve", fixture_path("poincare.curve.json"),
         "--lines", fixture_path("poincare.lines.json")])
    assert code == 0 and json.loads(text)["h1Order"] == 1
    assert io_json.canonical_json(report).startswith('{\n  "ok": true,\n')


# ---------------------------------------------------------------------------
# readers against the old readers

RATIONAL_STRINGS = [
    "3/4", "-3/4", "+3/4", " 3/4", "3/4 ", "03/4", "3/04", "1_0/3", "٣/٤",
    "1.5", "1e3", "3/0", "-0", "", "/", "3/", "/4", "--3", "0", "-12",
    "3/00", "6/8", "-6/-8", "6/-8", "3 / 4", "0x10", "½", "²", "1" * 5000,
    "1/" + "7" * 5000, str(10 ** 30), f"-{10 ** 30}/{10 ** 29 + 7}"]
OTHER_VALUES = [0, -7, 10 ** 30, True, False, None, 0.5, 1e30, [], {}, [3],
                Fraction(1, 2), Count(5)]


def _outcome(fn, *args):
    """(value and the types inside it) or the error's code, text and
    pointer."""
    try:
        value = fn(*args)
    except WorkbenchError as err:
        return ("error", err.code, str(err), err.pointer)
    return ("ok", value, type(value))


@pytest.mark.parametrize("value", RATIONAL_STRINGS + OTHER_VALUES,
                         ids=lambda v: repr(v)[:20])
def test_parse_rational_and_int_match_oracle(value):
    for name in ("parse_rational", "parse_int"):
        for pointer in ("/x", "/vertices/3/pos/1"):
            assert _outcome(getattr(io_json, name), value, pointer) == \
                _outcome(getattr(io_oracle, name), value, pointer)


def _curve_key(c):
    return (c.dim, list(c.vertices.items()),
            [type(x) for pos in c.vertices.values() for x in pos],
            c.edges, [(type(e.direction), type(e.weight)) for e in c.edges])


def _domain_key(d):
    return (d.dim, d.facets,
            [(type(f.normal), type(f.offset)) for f in d.facets])


def _lines_key(lc):
    return (lc.lines, [(type(l.point), *map(type, l.point),
                        type(l.direction)) for l in lc.lines])


READERS = {"curve": ("curve_from_dict", _curve_key),
           "domain": ("domain_from_dict", _domain_key),
           "lines": ("lines_from_dict", _lines_key)}


def _read(kind, module, data):
    name, key = READERS[kind]
    out = _outcome(getattr(module, name), data)
    return out if out[0] == "error" else ("ok", key(out[1]))


def _paths(obj, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


DELETE = object()


def _spoil(doc, path, value):
    """A copy of doc with the node at path replaced, or deleted."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


FIXTURE_DOCS = {
    "curve": ["poincare.curve.json", "simplex_tripod.curve.json",
              "rp2.curve.json", "segment.curve.json", "lens.curve.json"],
    "domain": ["simplex3.domain.json", "hexagon.domain.json",
               "quadrant.domain.json"],
    "lines": ["poincare.lines.json", "lens_5_2.lines.json"]}
FAULTS = RATIONAL_STRINGS[:20] + OTHER_VALUES + [DELETE, "x", [1, 2],
                                                 ["1", "2", "3"]]
# where each kind's faults must land (the path with indices removed)
TARGETS = {
    "curve": {("vertices", "pos"), ("edges", "dir"), ("edges", "weight"),
              ("edges", "leaf_label"), ("vertices", "id"), ("edges", "head"),
              ("edges", "tail"), ("dim",), ("vertices",), ("edges",), ()},
    "domain": {("facets", "normal"), ("facets", "offset"), ("dim",),
               ("facets",), ()},
    "lines": {("lines", "point"), ("lines", "dir"), ("lines",), ()}}


@pytest.mark.parametrize("kind", sorted(FIXTURE_DOCS))
def test_readers_match_oracle_on_spoiled_documents(kind):
    rng = random.Random(f"readers:{kind}")
    hit = set()
    for name in FIXTURE_DOCS[kind]:
        doc = load_fixture_json(name)
        assert _read(kind, io_json, doc) == _read(kind, io_oracle, doc)
        for path in _paths(doc):
            shape = tuple(p for p in path if isinstance(p, str))
            for value in rng.sample(FAULTS, 6):
                bad = _spoil(doc, path, value)
                assert _read(kind, io_json, bad) == \
                    _read(kind, io_oracle, bad), (name, path, value)
                hit.add(shape)
        # optional fields added where they were absent
        for path in _paths(doc):
            if path[-1:] == ("tail",):
                for field in ("weight", "leaf_label", "head"):
                    bad = _spoil(doc, path[:-1] + (field,),
                                 rng.choice(FAULTS[:-4]))
                    assert _read(kind, io_json, bad) == \
                        _read(kind, io_oracle, bad), (name, path, field)
    assert TARGETS[kind] <= hit


def test_readers_match_oracle_on_seeded_trees():
    rng = random.Random(5)
    for _ in range(40):
        c, _ = random_tree_problem(rng, rng.randint(3, 9))
        doc = json.loads(oracle.canonical_json(io_json.curve_to_dict(c)))
        for e in doc["edges"]:
            e["weight"] = rng.choice([e["weight"], str(e["weight"])])
        for v in doc["vertices"]:
            v["pos"] = [rng.choice([x, f" {x}", f"+{x}" if x[0] != "-"
                                    else x]) for x in v["pos"]]
        assert _read("curve", io_json, doc) == _read("curve", io_oracle, doc)


# ---------------------------------------------------------------------------
# the integer edge test against the Fraction one


def _rand_rational(rng, big):
    num = rng.choice([0, rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)
                      if big else rng.randint(-60, 60)])
    return Fraction(num, rng.choice([1, 1, 2, 3, 7, 10 ** 30 + 1]
                                    if big else [1, 1, 2, 3, 4, 6]))


def _rand_direction(rng):
    while True:
        u = tuple(rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(3))
        if any(u):
            return u


def _edges(rng, count):
    """(tail, head, direction) triples, each of a named kind."""
    kinds = ["parallel", "antiparallel", "skew", "zero-length", "off-axis"]
    out = []
    for k in range(count):
        kind = kinds[k % len(kinds)]
        big = k % 3 == 0
        u = _rand_direction(rng)
        tail = tuple(_rand_rational(rng, big) for _ in range(3))
        t = abs(_rand_rational(rng, big)) or Fraction(1, 3)
        if kind == "antiparallel":
            t = -t
        if kind == "zero-length":
            t = 0
        head = tuple(p + t * x for p, x in zip(tail, u))
        if kind == "skew":
            i = rng.randrange(3)
            head = head[:i] + (head[i] + _rand_rational(rng, big)
                               or Fraction(1, 5),) + head[i + 1:]
        if kind == "off-axis":
            zeros = [i for i in range(3) if u[i] == 0] or [0]
            i = rng.choice(zeros)
            head = head[:i] + (head[i] + Fraction(1, 7),) + head[i + 1:]
        out.append((tail, head, u))
    return out


def test_positive_multiple_matches_fraction_version():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for tail, head, u in _edges(rng, 3000):
        got = _positive_multiple(tail, head, u)
        want = oracle.positive_multiple(vec_sub(head, tail), u)
        if want is None:
            assert got is None, (tail, head, u)
        else:
            assert got[1] > 0 and Fraction(*got) == want, (tail, head, u)
        seen[want is None] += 1
    assert min(seen.values()) > 500


def _two_vertex_curve(tail, head, u, weight=1):
    return TropicalCurve(3, [("a", tail), ("b", head)],
                         [Edge("a", "b", u, weight),
                          Edge("a", None, tuple(-x for x in u), weight),
                          Edge("b", None, u, weight)])


def test_validate_curve_matches_fraction_version():
    rng = random.Random(23)
    curves = [_two_vertex_curve(*edge) for edge in _edges(rng, 1500)]
    for _ in range(60):
        c, _ = random_tree_problem(rng, rng.randint(3, 8))
        curves.append(c)
        # shift one vertex: edge tests and balancing fail around it
        vid = rng.choice(list(c.vertices))
        moved = [(v, tuple(x + (Fraction(1, 3) if v == vid else 0)
                           for x in pos)) for v, pos in c.vertices.items()]
        curves.append(TropicalCurve(3, moved, c.edges))
        # reweight one edge: balancing fails at both of its ends
        k = rng.randrange(len(c.edges))
        edges = list(c.edges)
        e = edges[k]
        edges[k] = Edge(e.tail, e.head, e.direction, e.weight + 1,
                        e.leaf_label)
        curves.append(TropicalCurve(3, list(c.vertices.items()), edges))
    issues = set()
    for c in curves:
        got = validate_curve(c)
        assert got.issues == oracle.validate_curve(c)
        assert got.ok == (not got.issues)
        issues.update(i.split(":")[-1].split(",")[0] for i in got.issues)
    assert {" head - tail is not a positive multiple of the direction",
            " balancing fails"} <= issues


def test_split_point_test_matches_fraction_version():
    """split_at_edge accepts p exactly when the Fraction test finds
    0 < t < tot, with t for p - tail and tot for head - tail."""
    rng = random.Random(29)
    accepted = 0
    for tail, head, u in _edges(rng, 500):
        c = _two_vertex_curve(tail, head, u)
        tot = oracle.positive_multiple(vec_sub(head, tail), u)
        for s in (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), -1):
            p = tuple(a + s * (b - a) for a, b in zip(tail, head))
            t = oracle.positive_multiple(vec_sub(p, tail), u)
            inside = t is not None and tot is not None and 0 < t < tot
            try:
                res = split_at_edge(c, 0, p)
            except WorkbenchError as err:
                assert err.code == "SPLIT_POINT" and not inside, (p, u)
            else:
                assert inside and res.point == p, (p, u)
                accepted += 1
    assert accepted > 200
