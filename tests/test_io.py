import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import io_oracle
from conftest import fixture_path, load_fixture_json

from troplag import io_json
from troplag.cli import run_command
from troplag.curve import Edge, TropicalCurve, split_at_edge
from troplag.domain import (Facet, Line, LineConfiguration, PolyhedralDomain,
                            classify_boundary_point, wavefront)
from troplag.errors import WorkbenchError
from troplag.io_json import (canonical_json, curve_from_dict, curve_to_dict,
                             domain_from_dict, domain_to_dict, lines_from_dict,
                             lines_to_dict, load_curve, load_domain,
                             load_lines)


def test_curve_roundtrip_byte_stable():
    curve = load_curve(fixture_path("simplex_tripod.curve.json"))
    once = canonical_json(curve_to_dict(curve))
    again = canonical_json(curve_to_dict(curve_from_dict(json.loads(once))))
    assert once == again


def test_domain_and_lines_roundtrip():
    dom = load_domain(fixture_path("simplex3.domain.json"))
    once = canonical_json(domain_to_dict(dom))
    again = canonical_json(domain_to_dict(domain_from_dict(json.loads(once))))
    assert once == again
    lines = load_lines(fixture_path("poincare.lines.json"))
    once = canonical_json(lines_to_dict(lines))
    again = canonical_json(lines_to_dict(lines_from_dict(json.loads(once))))
    assert once == again


def test_rejects_floats():
    with pytest.raises(WorkbenchError) as err:
        curve_from_dict({"dim": 2,
                         "vertices": [{"id": "a", "pos": [0.5, 0]}],
                         "edges": []})
    assert err.value.code == "SCHEMA_ERROR"


def test_zero_denominator_is_parse_error():
    with pytest.raises(WorkbenchError) as err:
        curve_from_dict({"dim": 2,
                         "vertices": [{"id": "a", "pos": ["1/0", "0"]}],
                         "edges": []})
    assert err.value.code == "PARSE_ERROR"


def test_schema_pointer_on_missing_field():
    with pytest.raises(WorkbenchError) as err:
        domain_from_dict({"dim": 2, "facets": [{"offset": "0"}]})
    assert err.value.code == "SCHEMA_ERROR"
    assert err.value.pointer == "/facets/0/normal"


def test_big_integers_accepted_as_strings():
    big = 10 ** 30
    c = curve_from_dict({
        "dim": 2,
        "vertices": [{"id": "a", "pos": ["0", "0"]},
                     {"id": "b", "pos": [str(big), "0"]}],
        "edges": [{"tail": "a", "head": "b", "dir": [1, 0],
                   "weight": str(big)}]})
    assert c.edges[0].weight == big


# ---------------------------------------------------------------------------
# the readers against the Fraction readers they replaced (io_oracle)

ROOT = Path(__file__).resolve().parents[1]
CURVE_FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob(
    "*.curve.json"))
LINES_FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob(
    "*.lines.json"))
SETTINGS = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True)


class Count(int):
    """An int subclass, which a coordinate list may hold."""


def _outcome(fn, key, data):
    try:
        value = fn(data)
    except WorkbenchError as err:
        return ("error", err.code, str(err), err.pointer)
    return ("ok", key(value))


def _ends(c):
    try:
        return c.ends()
    except WorkbenchError as err:
        return str(err)


def _curve_key(c):
    """Everything a reader's curve shows: positions as Fractions, the
    Edge records and the types in them, the ends, the incidence and the
    written bytes."""
    return (c.dim, list(c.vertices.items()), c.edges,
            [(type(e.direction), type(e.weight)) for e in c.edges],
            _ends(c), {v: c.incident(v) for v in c.vertices},
            canonical_json(curve_to_dict(c)))


def _lines_key(lc):
    return ([lc.point(j) for j in range(len(lc))], lc.lines, lc.denominator,
            canonical_json(lines_to_dict(lc)))


def _same_curve(data):
    assert _outcome(curve_from_dict, _curve_key, data) == \
        _outcome(io_oracle.curve_from_dict, _curve_key, data)


def _same_lines(data):
    assert _outcome(lines_from_dict, _lines_key, data) == \
        _outcome(io_oracle.lines_from_dict, _lines_key, data)


@pytest.mark.parametrize("name", CURVE_FIXTURES + LINES_FIXTURES)
def test_readers_match_oracle_on_fixtures(name):
    data = load_fixture_json(name)
    (_same_curve if name.endswith(".curve.json") else _same_lines)(data)


def _perfbench_pools(workload, seeds):
    """The input pools the benchmark draws for a workload and seeds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    bytecode = sys.dont_write_bytecode
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.dont_write_bytecode = bytecode
    return [p for seed in seeds for p in
            run.INPUTS[workload](random.Random(f"{workload}:{seed}"))[0]]


def test_readers_match_oracle_on_benchmark_pools():
    for p in _perfbench_pools("trees", (1, 2, 3)):
        _same_curve(p["curve"])
        _same_lines(p["lines"])
    for p in _perfbench_pools("enumerate", (1, 2, 3)):
        _same_lines(p["lines"])


def test_readers_match_oracle_past_one_block():
    """Lists of 200 points, parsed in blocks of rows: whole-number
    blocks beside fractional ones, and a fallback form or a rejected
    value in a late block."""
    rng = random.Random(11)
    for late in (None, "+3", " 4 ", "٣/7", "1/0", "3/-4", True, 7):
        rows = [[str(k), f"{rng.randint(-9, 9)}/{3 if k > 100 else 1}"]
                for k in range(200)]
        if late is not None:
            rows[150][1] = late
        _same_curve({"dim": 2, "edges": [], "vertices": [
            {"id": f"v{k}", "pos": pos} for k, pos in enumerate(rows)]})
        _same_lines({"lines": [{"point": pos, "dir": [1, 0]}
                               for pos in rows]})


def test_line_records_carry_their_denominator():
    """A configuration's `Line` records hold integer points over its
    denominator and that denominator, so a slice of them, or records of
    two configurations mixed, or with records holding rational points,
    make a configuration of the same lines."""
    lc = lines_from_dict({"lines": [
        {"point": ["1/2", "0"], "dir": [1, 0]},
        {"point": ["2", "1/3"], "dir": [0, 1]},
        {"point": ["-5", "4/3"], "dir": [1, 1]}]})
    other = lines_from_dict({"lines": [{"point": ["3/5", "7"],
                                        "dir": [1, 2]}]})
    assert lc.denominator == 6 and other.denominator == 5
    for records, points in [
            (lc.lines[1:], [lc.point(1), lc.point(2)]),
            (lc.lines[:1] + other.lines, [lc.point(0), other.point(0)]),
            ([Line((Fraction(1, 4), 1), (1, 0)), lc.lines[2]],
             [(Fraction(1, 4), 1), lc.point(2)])]:
        sub = LineConfiguration(records)
        assert [sub.point(j) for j in range(len(sub))] == points
        assert all(l.denominator == sub.denominator for l in sub.lines)
        assert [l.direction for l in sub.lines] == \
            [l.direction for l in records]
    assert LineConfiguration(lc.lines[1:]).denominator == 3


def test_plain_fixtures_parse_without_fractions(monkeypatch):
    """Every fixture writes its coordinates in the plain grammar, and
    reading one builds no Fraction: the positions and points go
    straight into integers over one denominator."""
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    docs = {n: load_fixture_json(n) for n in CURVE_FIXTURES + LINES_FIXTURES}
    monkeypatch.setattr(Fraction, "__new__", spy)
    for name, data in docs.items():
        read = curve_from_dict if name in CURVE_FIXTURES else lines_from_dict
        assert read(data) is not None and built == [], name
    assert Fraction(1, 2) and built == [(1, 2)]


# plain coordinates, forms only the Fraction(str) fallback accepts, and
# rejected values: each kind anywhere in a list
PLAIN_FORMS = ["-0", "007", "03/04", "6/8", "-12/4", "0/5", str(10 ** 40),
               f"-{10 ** 30}/{10 ** 29 + 7}"]
FALLBACK_VALUES = ["+3", " 4 ", "1.5", "2e1", "1_000", "٣", "3/4 ", "-1.25",
                   "+3/4", "٣/٤", 0, -7, 10 ** 30, Count(5)]
REJECTED_VALUES = ["1/0", "3/-4", "3/00", "", "/", "3/", "--3", "1,2", "1, 2",
                   ",", "0x10", "½", "1" * 5000, "1/" + "7" * 5000, True,
                   False, None, 0.5, 1e30, [], {}, ["1"], Fraction(1, 2)]
PLAIN = (st.integers(-10 ** 6, 10 ** 6).map(str)
         | st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(
             lambda t: f"{t[0]}/{t[1]}")
         | st.sampled_from(PLAIN_FORMS))
FALLBACK = st.sampled_from(FALLBACK_VALUES)
REJECTED = st.sampled_from(REJECTED_VALUES)


def weighted(*strategies):
    """A draw from one of `strategies`, each as often as it is listed:
    `st.one_of` keeps a repeated strategy once, and splits a union such
    as PLAIN into its branches, so its weights are not the listed ones."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


COORDINATES = st.lists(weighted(PLAIN, PLAIN, FALLBACK, REJECTED),
                       max_size=4)


# an edge's fields: for each key the plain values, read in bulk, and the
# other values, forms only the per-edge loop converts and values it
# refuses; ABSENT leaves the key out
ABSENT = object()
NOT_DICTS = ["e", None, [], 3]
ODD_ENTRIES = [True, False, 0.5, "x", " 1 ", None, "1", "-2", Count(1)]


def edge_fields(dim):
    """{key: (plain values, other values)} for edges of dimension dim:
    a strategy and a list."""
    return {
        "tail": (st.sampled_from(["v0", "v1", "v9"]),
                 [0, 7, None, 1.5, True, ["v0"], ABSENT]),
        "head": (st.sampled_from(["v1", "v0", None, ABSENT]),
                 [1, False, 2.5, {}]),
        "dir": (st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                [[v] + [0] * (dim - 1) for v in ODD_ENTRIES]
                + [[0] * (dim - 1) + [v] for v in ODD_ENTRIES]
                + [[1] * (dim - 1), [1] * (dim + 1), "1", None, 5,
                   {"x": 1}, ABSENT]),
        "weight": (st.sampled_from([1, 2, 3, ABSENT]),
                   ["2", "-1", " 3", Count(2), None, "x", "", "1" * 5000,
                    True, False, 1.0, [1]]),
        "leaf_label": (st.sampled_from([0, 1, 3, None, ABSENT]),
                       ["0", "2", Count(1), "x", True, False, 1.5, [0]]),
    }


def _put(edge, key, value):
    edge.pop(key, None)
    if value is not ABSENT:
        edge[key] = value


@st.composite
def curve_documents(draw):
    """A curve document.  In about half of them every position is
    plain, so that the edges are read.  The edges are all plain, or
    plain but for one field or one edge that is no dict, or drawn field
    by field with most fields plain."""
    dim = draw(st.integers(1, 3))
    plain = draw(st.booleans())
    vertices = []
    for k in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["list"] * 9 + ["int id"])) if plain \
            else draw(st.sampled_from(["list"] * 6 + ["short", "missing",
                                                      "string", "no id"]))
        v = {"id": k if shape == "int id" else f"v{k}"}
        if shape in ("list", "int id", "no id"):
            v["pos"] = draw(st.lists(
                PLAIN if plain else weighted(PLAIN, PLAIN, PLAIN, FALLBACK,
                                             REJECTED),
                min_size=dim, max_size=dim))
        elif shape == "short":
            v["pos"] = draw(st.lists(PLAIN, max_size=dim - 1))
        elif shape == "string":
            v["pos"] = "0"
        if shape == "no id":
            del v["id"]
        vertices.append(v)
    fields = edge_fields(dim)
    mix = draw(st.sampled_from(["plain", "one", "one", "each"]))
    edges = []
    for _ in range(draw(st.integers(0, 3))):
        edge = {}
        for key, (plain_values, others) in fields.items():
            if mix == "each" and draw(st.integers(0, 6)) == 0:
                _put(edge, key, draw(st.sampled_from(others)))
            else:
                _put(edge, key, draw(plain_values))
        edges.append(edge)
    if mix == "each" and edges and draw(st.integers(0, 11)) == 0:
        edges[-1] = draw(st.sampled_from(NOT_DICTS))
    if mix == "one" and edges:
        k = draw(st.integers(0, len(edges) - 1))
        key = draw(st.sampled_from([*fields, None]))
        if key is None:
            edges[k] = draw(st.sampled_from(NOT_DICTS))
        else:
            _put(edges[k], key, draw(st.sampled_from(fields[key][1])))
    return {"dim": dim, "vertices": vertices, "edges": edges}


def _plain_curve(dim):
    return {"dim": dim, "vertices": [{"id": "v0", "pos": ["0"] * dim},
                                     {"id": "v1", "pos": ["1/2"] * dim}],
            "edges": [{"tail": "v0", "head": "v1", "dir": [1] * dim},
                      {"tail": "v0", "dir": [-1] * dim, "weight": 2,
                       "leaf_label": 0}]}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_curve_reader_matches_oracle_on_each_odd_field(dim):
    """A plain curve with one edge field, one edge or one vertex id in
    any other form is read as the oracle reads it, at either edge."""
    data = _plain_curve(dim)
    _same_curve(data)
    for k in (0, 1):
        for key, (_, others) in edge_fields(dim).items():
            for value in others:
                data = _plain_curve(dim)
                _put(data["edges"][k], key, value)
                _same_curve(data)
        for value in NOT_DICTS:
            data = _plain_curve(dim)
            data["edges"][k] = value
            _same_curve(data)
        for value in (k, None, True):
            data = _plain_curve(dim)
            data["vertices"][k]["id"] = value
            _same_curve(data)


@SETTINGS
@given(curve_documents())
def test_curve_reader_matches_oracle_on_drawn_coordinates(data):
    _same_curve(data)


PLAIN_TEXTS = st.text(alphabet="0123456789-/, +_٣", max_size=12) \
    | st.lists(st.sampled_from(["0", "7", "12", "-", "/", ",", "-3", "/4",
                                "/0", "0/5"]), max_size=8).map("".join) \
    | st.sampled_from(["", "//", "/-", "-/3", "1/2/3", ",1", "1,", ",",
                       "/1", "1/", "1/,2", "1//2", "3/-4", "1,,2",
                       "-0,-0/7,00/01", "1" * 5000, "-" + "9" * 5000,
                       "2/" + "7" * 5000, "1,2/3,-4/6,5/1"])


@SETTINGS
@given(PLAIN_TEXTS)
def test_plain_matches_the_regular_expression_reader(text):
    """`_plain`, which reads a joined coordinate list with no regular
    expression, accepts what the old grammar accepted and converts it
    to the same integers over the same denominator."""
    assert io_json._plain(text) == io_oracle.plain(text)


def test_plain_documents_are_read_in_bulk(monkeypatch):
    """Every curve and line set of the benchmark pools (trees and
    enumerate, seeds 1-3) and of the fixtures is read in bulk: no field
    goes through `parse_int` or `parse_rational`, nor through the
    per-item loops' readers of a position, a point or a direction, so a
    silent fall back to any of those loops fails here."""
    reads = [(curve_from_dict, load_fixture_json(n)) for n in CURVE_FIXTURES]
    reads += [(lines_from_dict, load_fixture_json(n)) for n in LINES_FIXTURES]
    for p in _perfbench_pools("trees", (1, 2, 3)):
        reads += [(curve_from_dict, p["curve"]), (lines_from_dict, p["lines"])]
    reads += [(lines_from_dict, p["lines"])
              for p in _perfbench_pools("enumerate", (1, 2, 3))]
    calls = []
    for name in ("parse_int", "parse_rational", "_rational_list",
                 "_int_vector"):
        monkeypatch.setattr(io_json, name,
                            lambda *args, name=name: calls.append(name))
    for read, data in reads:
        assert read(data) is not None and calls == [], data
    assert len(reads) > 100


# line directions the bulk read does not take: converted or refused
ODD_LINE_DIRS = [[v, 2] for v in ODD_ENTRIES] + [
    "12", None, 5, {}, {"x": 1}, (1, 2)]


@SETTINGS
@given(st.lists(st.one_of(
    st.builds(lambda p, d: {"point": p, "dir": d}, COORDINATES,
              st.just([1, 2, 3])),
    st.builds(lambda p: {"point": p, "dir": [0, "x"]}, COORDINATES),
    st.builds(lambda p: {"dir": [1]}, COORDINATES),
    st.builds(lambda p, d: {"point": p, "dir": d}, st.lists(PLAIN, max_size=3),
              st.sampled_from(ODD_LINE_DIRS)),
    st.just({"point": "0", "dir": [1]})), max_size=4))
def test_lines_reader_matches_oracle_on_drawn_coordinates(lines):
    _same_lines({"lines": lines})


def test_lines_reader_matches_oracle_on_each_odd_field():
    """Plain lines with one direction, one point or one line in any
    other form are read as the oracle reads them."""
    def plain():
        return {"lines": [{"point": ["1/2", "0"], "dir": [1, 0]},
                          {"point": ["2", "-1/3"], "dir": [0, 1]}]}

    _same_lines(plain())
    for k in (0, 1):
        for key, values in (("dir", ODD_LINE_DIRS + [ABSENT]),
                            ("point", ["0", None, ("1", "2"), ABSENT])):
            for value in values:
                data = plain()
                _put(data["lines"][k], key, value)
                _same_lines(data)
        for value in NOT_DICTS:
            data = plain()
            data["lines"][k] = value
            _same_lines(data)


# ---------------------------------------------------------------------------
# library calls read a number as the readers do

# every value of the strategies above, but the Fraction objects, which
# only a library call keeps, and a few drawn plain forms
LIBRARY_VALUES = ["0", "-12", "1/2", "1/10", "5/7", *PLAIN_FORMS,
                  *FALLBACK_VALUES,
                  *(v for v in REJECTED_VALUES if type(v) is not Fraction)]


def _answer(fn, *args):
    """fn(*args), or the code and the message, without the pointer, of
    the WorkbenchError it raises."""
    try:
        return ("ok", fn(*args))
    except WorkbenchError as err:
        return ("error", err.code, str(err).partition(": ")[2])


def _typed(values):
    return [(type(v), v) for v in values]


def _edge_key(c):
    return [(e, _typed(e.direction), _typed((e.weight, e.leaf_label)))
            for e in c.edges]


def _library_curve(pos, edge):
    return TropicalCurve(2, [("a", pos), ("b", ("1", "0"))], [edge])


def test_library_reads_positions_and_edges_as_the_reader():
    """A position, an edge weight, a direction entry and a leaf label
    given to `TropicalCurve` as a dict edge or an `Edge` record give the
    reader's number, or its error code and message."""
    for v in LIBRARY_VALUES:
        data = {"dim": 2, "vertices": [{"id": "a", "pos": [v, "0"]},
                                       {"id": "b", "pos": ["1", "0"]}],
                "edges": [{"tail": "a", "head": "b", "dir": [1, 0]}]}
        read = _answer(lambda: list(curve_from_dict(data).vertices.items()))
        assert _answer(lambda: list(_library_curve(
            (v, "0"), Edge("a", "b", (1, 0))).vertices.items())) == read, v
        for key, dict_value, record in [
                ("dir", [v, 0], Edge("a", "b", (v, 0))),
                ("weight", v, Edge("a", "b", (1, 0), v)),
                ("leaf_label", v, Edge("a", "b", (1, 0), 1, v))]:
            edge = {"tail": "a", "head": "b", "dir": [1, 0], key: dict_value}
            data = {"dim": 2, "vertices": [{"id": "a", "pos": ["0", "0"]},
                                           {"id": "b", "pos": ["1", "0"]}],
                    "edges": [edge]}
            read = _answer(lambda: _edge_key(curve_from_dict(data)))
            for e in (dict(edge), record):
                assert _answer(lambda: _edge_key(_library_curve(
                    ("0", "0"), e))) == read, (key, v, e)


def _facet_key(d):
    return [(f, _typed(f.normal), type(f.offset)) for f in d.facets]


def _configuration_key(lc):
    return ([lc.point(j) for j in range(len(lc))],
            [_typed(l.direction) for l in lc.lines], lc.denominator)


def test_library_reads_facets_and_lines_as_the_reader():
    """A facet offset and a normal entry, a line point and a direction
    entry, given to `PolyhedralDomain` or `LineConfiguration` as a dict
    or as a record, give the reader's number, or its error."""
    for v in LIBRARY_VALUES:
        for facet, record in [({"normal": [1, 0], "offset": v},
                               Facet((1, 0), v)),
                              ({"normal": [v, 0], "offset": "0"},
                               Facet((v, 0), 0))]:
            read = _answer(lambda: _facet_key(domain_from_dict(
                {"dim": 2, "facets": [facet]})))
            for f in (dict(facet), record):
                assert _answer(lambda: _facet_key(
                    PolyhedralDomain(2, [f]))) == read, (facet, f)
        for line, record in [({"point": [v, "0"], "dir": [1, 0]},
                              Line((v, "0"), (1, 0))),
                             ({"point": ["0", "0"], "dir": [v, 1]},
                              Line((0, 0), (v, 1)))]:
            read = _answer(lambda: _configuration_key(lines_from_dict(
                {"lines": [line]})))
            for l in (dict(line), record):
                assert _answer(lambda: _configuration_key(
                    LineConfiguration([l]))) == read, (line, l)


def test_library_reads_points_and_deltas_as_the_reader():
    """`wavefront`'s delta, `split_at_edge`'s point and
    `classify_boundary_point`'s point give the answer of the number that
    the reader makes of the value, or the reader's error."""
    square = load_domain(fixture_path("unit_square.domain.json"))
    triangle = load_domain(fixture_path("triangle.domain.json"))
    rp2 = load_curve(fixture_path("rp2.curve.json"))
    segment = _library_curve(("0", "0"), Edge("a", "b", (1, 0)))
    for v in LIBRARY_VALUES:
        parsed = _answer(io_json.parse_rational, v, ("value",))
        for call in [lambda x: wavefront(square, x),
                     lambda x: split_at_edge(segment, 0, (x, "0")),
                     lambda x: classify_boundary_point(rp2, triangle, (x, x))]:
            want = _answer(call, parsed[1]) if parsed[0] == "ok" else parsed
            assert _answer(call, v) == want, v


def test_cli_refuses_a_delta_or_a_root_end_as_usage():
    """`--delta` and `--root end:<v>` answer as the number the reader
    makes of v, and are a USAGE error wherever the reader refuses v.
    Each is one argument, `--delta=v`, so that argparse takes a v
    starting with "-" as the option's value."""
    square = fixture_path("unit_square.domain.json")
    tripod = ["multiplicity", "--curve",
              fixture_path("simplex_tripod.curve.json"),
              "--lines", fixture_path("simplex_tripod.lines.json")]
    for v in (v for v in LIBRARY_VALUES if type(v) is str):
        for argv, parse, text in [
                (["wavefront", "--domain", square, f"--delta={v}"],
                 io_json.parse_rational, "--delta={}".format),
                (tripod + [f"--root=end:{v}"], io_json.parse_int,
                 "--root=end:{}".format)]:
            got = run_command(argv)
            try:
                x = parse(v, ())
            except WorkbenchError:
                assert got[0] == 1 and \
                    json.loads(got[1])["error"] == "USAGE", (argv, got)
            else:
                argv[-1] = text(x)
                assert got == run_command(argv), argv
