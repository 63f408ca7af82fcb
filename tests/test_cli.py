import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from conftest import (blown_up_polygon, contracted, fixture_path,
                      four_valent_and_flat, largest_offset, rand_primitive,
                      random_tree_problem, triangle_and_tripod,
                      triangle_with_rays)

from troplag import domain, topology
from troplag.cli import _parser, run_command
from troplag.curve import validate_curve
from troplag.errors import WorkbenchError
from troplag.io_json import curve_to_dict, load_curve
from troplag.lattice import cross, mixed
from troplag.multiplicity import KAPPA_CAP, ev_matrix, mixed_h_product


SRC = Path(__file__).resolve().parents[1] / "src"


def run_json(argv):
    code, text = run_command(argv)
    return code, json.loads(text)


def run_fresh(argv):
    """`troplag argv` in a fresh, isolated interpreter on this checkout's
    source, with stdout and stderr captured."""
    run = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "from troplag.cli import main; sys.exit(main(sys.argv[2:]))")
    return subprocess.run([sys.executable, "-I", "-c", run, str(SRC), *argv],
                          capture_output=True, text=True)


def test_h1_poincare_command():
    code, out = run_json(["h1", "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json")])
    assert code == 0
    assert out["h1Order"] == 1 and out["mv"] == 1
    assert out["rationalHomologySphere"] is True


def test_h1_simplex_tripod_with_domain():
    code, out = run_json(["h1", "--curve", fixture_path("simplex_tripod.curve.json"),
                          "--domain", fixture_path("simplex3.domain.json")])
    assert code == 0
    assert out["h1Order"] == 4 and out["parityWarning"] is None


def test_surface_rp2_command():
    code, out = run_json(["surface", "--curve",
                          fixture_path("rp2.curve.json"),
                          "--domain", fixture_path("triangle.domain.json")])
    assert code == 0
    assert out["crosscaps"] == 1 and out["punctures"] == 0
    assert out["surface"] == "RP^2"


def test_multiplicity_command_roots():
    code, out = run_json(["multiplicity",
                          "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json")])
    assert code == 0
    assert out["mixedHProduct"] == 1
    assert out["determinant"] == 1 and out["agree"]
    code, out = run_json(["multiplicity",
                          "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json"),
                          "--root", "end:2"])
    assert code == 0 and out["mixedHProduct"] == 1


def test_lens_commands():
    for p, q, canonical in [(1, 0, 0), (2, 1, 1), (5, 2, 2), (7, 3, 2)]:
        code, out = run_json(["lens",
                              "--curve", fixture_path("lens.curve.json"),
                              "--lines",
                              fixture_path(f"lens_{p}_{q}.lines.json")])
        assert code == 0
        assert out["p"] == p and out["qCanonical"] == canonical


def test_lens_command_with_a_large_prime(tmp_path):
    """p = 10^9 + 7: q^-1 mod p is found without scanning the residues."""
    lines = tmp_path / "lens.lines.json"
    lines.write_text(json.dumps({"lines": [
        {"point": ["0", "0", "0"], "dir": [1, 0, 0]},
        {"point": ["0", "0", "1"], "dir": [-999999937, 1000000007, 0]}]}))
    code, out = run_json(["lens", "--curve", fixture_path("lens.curve.json"),
                          "--lines", str(lines)])
    assert code == 0
    assert out == {"p": 1000000007, "qCanonical": 70}


def test_h1_disappearing():
    code, out = run_json(["h1",
                          "--curve", fixture_path("disappearing.curve.json"),
                          "--lines",
                          fixture_path("disappearing.lines.json")])
    assert code == 0
    assert out["h1Order"] == "INFINITE_H1"
    assert out["deformationPersists"] is False


def test_unmarked_segment_keeps_both_ends_apart(tmp_path):
    """The segment (1/2,0,0) -> (0,1/2,1/2) of the simplex is one edge
    with two ends.  Its invariants are those of the marked segment, with
    the directions from the domain or as lines (end at b first: the ends
    of a lone edge are listed head first)."""
    curve = fixture_path("segment.curve.json")
    lines = tmp_path / "strata.lines.json"
    lines.write_text(json.dumps({"lines": [
        {"point": ["0", "1/2", "1/2"], "dir": [0, 1, -1]},
        {"point": ["1/2", "0", "0"], "dir": [1, 0, 0]}]}))
    for source in (["--domain", fixture_path("simplex3.domain.json")],
                   ["--lines", str(lines)]):
        code, h1 = run_json(["h1", "--curve", curve] + source)
        assert code == 0 and h1["h1Order"] == 2 and h1["product"] == 2
        code, lens = run_json(["lens", "--curve", curve] + source)
        assert code == 0 and (lens["p"], lens["qCanonical"]) == (2, 1)
        code, pieces = run_json(["pieces", "--curve", curve] + source)
        assert code == 0
        assert {p["anchor"]: p["kernel"] for p in pieces["pieces"]} == \
            {"end:0:a": [0, -1, 1], "end:0:b": [-2, -1, -1]}
    for name in ("lens_2_1", "lens_5_2", "lens_7_3"):
        source = ["--curve", curve, "--lines",
                  fixture_path(f"{name}.lines.json")]
        _, mult = run_json(["multiplicity"] + source)
        _, h1 = run_json(["h1"] + source)
        assert h1["product"] == mult["mixedHProduct"] == h1["h1Order"] > 0


def test_validate_exit_codes(tmp_path):
    code, out = run_json(["validate",
                          "--curve", fixture_path("simplex_tripod.curve.json"),
                          "--domain", fixture_path("simplex3.domain.json")])
    assert code == 0 and out["curve"]["ok"] and out["evenPrimitive"]["ok"]

    bad = {"dim": 2,
           "vertices": [{"id": "v", "pos": ["0", "0"]},
                        {"id": "x", "pos": ["1", "0"]},
                        {"id": "y", "pos": ["0", "1"]},
                        {"id": "z", "pos": ["-1", "0"]}],
           "edges": [{"tail": "v", "head": "x", "dir": [1, 0]},
                     {"tail": "v", "head": "y", "dir": [0, 1]},
                     {"tail": "v", "head": "z", "dir": [-1, 0]}]}
    path = tmp_path / "bad.curve.json"
    path.write_text(json.dumps(bad))
    code, out = run_json(["validate", "--curve", str(path)])
    assert code == 2
    assert not out["curve"]["ok"]


@pytest.mark.parametrize("content, says", [
    (b"\xff\xfe{}", "utf-8"),
    (b"[" * 100000 + b"\n", "recursion"),
    (b'{"dim": ' + b"7" * 5000 + b', "vertices": [], "edges": []}',
     "digits")], ids=["not-utf8", "deep", "long-integer"])
def test_unreadable_json_is_a_parse_error(tmp_path, content, says):
    """Bytes that are not UTF-8, a list nested 100,000 deep and a
    5,000-digit integer: PARSE_ERROR at the path, exit 1, the JSON
    report on stdout and nothing on stderr, in a fresh interpreter."""
    path = tmp_path / "bad.curve.json"
    path.write_bytes(content)
    proc = run_fresh(["validate", "--curve", str(path)])
    assert (proc.returncode, proc.stderr) == (1, "")
    out = json.loads(proc.stdout)
    assert out["error"] == "PARSE_ERROR"
    assert out["message"].startswith(f"PARSE_ERROR at {path}: invalid JSON: ")
    assert says in out["message"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_an_answer_past_the_digit_limit_is_output_too_large(tmp_path, fmt):
    """The tripod's lines with every direction scaled by 10^2000 + 7:
    each input integer has 2,001 digits, but the mixed product is cubic
    in them, past the interpreter's 4,300-digit limit.  OUTPUT_TOO_LARGE,
    exit 1, the error report on stdout and nothing on stderr, in a fresh
    interpreter, in either format."""
    big = 10 ** 2000 + 7
    lines = json.loads(Path(fixture_path("simplex_tripod.lines.json"))
                       .read_text())
    for line in lines["lines"]:
        line["dir"] = [big * x for x in line["dir"]]
    path = tmp_path / "big.lines.json"
    path.write_text(json.dumps(lines))
    proc = run_fresh(["multiplicity", "--curve",
                      fixture_path("simplex_tripod.curve.json"),
                      "--lines", str(path), "--format", fmt])
    assert (proc.returncode, proc.stderr) == (1, "")
    says = ("OUTPUT_TOO_LARGE: cannot write the report: Exceeds the limit "
            "(4300 digits) for integer string conversion")
    if fmt == "json":
        assert json.loads(proc.stdout) == {"error": "OUTPUT_TOO_LARGE",
                                           "message": says}
    else:
        assert proc.stdout == f"error: OUTPUT_TOO_LARGE\nmessage: {says}\n"


def test_parse_and_schema_errors(tmp_path):
    zero_den = tmp_path / "zero.curve.json"
    zero_den.write_text(json.dumps({
        "dim": 2,
        "vertices": [{"id": "a", "pos": ["1/0", "0"]},
                     {"id": "b", "pos": ["1", "1"]}],
        "edges": [{"tail": "a", "head": "b", "dir": [1, 1]}]}))
    code, out = run_json(["validate", "--curve", str(zero_den)])
    assert code == 1 and out["error"] == "PARSE_ERROR"

    missing_dir = tmp_path / "missing.curve.json"
    missing_dir.write_text(json.dumps({
        "dim": 2,
        "vertices": [{"id": "a", "pos": ["0", "0"]},
                     {"id": "b", "pos": ["1", "1"]}],
        "edges": [{"tail": "a", "head": "b"}]}))
    code, out = run_json(["validate", "--curve", str(missing_dir)])
    assert code == 1 and out["error"] == "SCHEMA_ERROR"
    assert "/edges/0/dir" in out["message"]


def test_enumerate_command_and_cap(tmp_path):
    code, out = run_json(["enumerate",
                          "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json")])
    assert code == 0 and out["total"] == 1 and out["kappa"] == 3

    star = {"dim": 3,
            "vertices": [{"id": "v", "pos": ["0", "0", "0"]}],
            "edges": [{"tail": "v", "head": None, "dir": [1, 0, 0],
                       "weight": 1, "leaf_label": j} for j in range(8)]
            + [{"tail": "v", "head": None, "dir": [-1, 0, 0], "weight": 8,
                "leaf_label": 8}]}
    path = tmp_path / "star.curve.json"
    path.write_text(json.dumps(star))
    lines = {"lines": [{"point": ["0", "0", "0"], "dir": [0, 1, 0]}] * 9}
    lpath = tmp_path / "star.lines.json"
    lpath.write_text(json.dumps(lines))
    code, out = run_json(["enumerate", "--curve", str(path),
                          "--lines", str(lpath)])
    assert code == 1 and out["error"] == "KAPPA_CAP"


def test_kappa_cap_default_and_limit():
    assert _parser().parse_args(["enumerate"]).kappa_cap == KAPPA_CAP
    argv = ["enumerate", "--curve", fixture_path("poincare.curve.json"),
            "--lines", fixture_path("poincare.lines.json")]
    code, out = run_json(argv + ["--kappa-cap", str(KAPPA_CAP)])
    assert code == 0 and out["total"] == 1
    code, out = run_json(argv + ["--kappa-cap", str(KAPPA_CAP + 1)])
    assert code == 1 and out["error"] == "USAGE"


def test_bad_root_is_usage_error():
    code, out = run_json(["multiplicity",
                          "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json"),
                          "--root", "end:x"])
    assert code == 1 and out["error"] == "USAGE"


def test_non_rational_delta_is_usage_error():
    code, out = run_json(["wavefront", "--domain",
                          fixture_path("unit_square.domain.json"),
                          "--delta", "abc"])
    assert code == 1 and out["error"] == "USAGE"


def test_zero_denominator_delta_is_usage_error():
    code, out = run_json(["wavefront", "--domain",
                          fixture_path("unit_square.domain.json"),
                          "--delta", "1/0"])
    assert code == 1 and out["error"] == "USAGE"


def test_wavefront_command_deterministic():
    argv = ["wavefront", "--domain", fixture_path("unit_square.domain.json"),
            "--delta", "1/4"]
    code1, text1 = run_command(argv)
    code2, text2 = run_command(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    data = json.loads(text1)
    assert data["betti"]["b1"] == 1
    assert len(data["vertices"]) == 8


def test_suitability_command():
    code, out = run_json(["suitability",
                          "--curve", fixture_path("poincare.curve.json"),
                          "--lines", fixture_path("poincare.lines.json")])
    assert code == 0 and out["pass"]


def test_table_format():
    code, text = run_command(["h1",
                              "--curve", fixture_path("poincare.curve.json"),
                              "--lines", fixture_path("poincare.lines.json"),
                              "--format", "table"])
    assert code == 0
    assert "h1Order: 1" in text
    assert "mv: 1" in text


def test_pieces_command():
    code, out = run_json(["pieces",
                          "--curve", fixture_path("rp2.curve.json"),
                          "--domain", fixture_path("triangle.domain.json")])
    assert code == 0
    kinds = sorted(p["kind"] for p in out["pieces"])
    assert kinds == ["DISK_PIECE", "MOEBIUS_PIECE"]


def test_pieces_with_lines_needs_a_spatial_curve():
    """Directions given for a planar curve: a dimension error, as for h1
    and lens, not a complaint that the directions are missing."""
    for cmd in ("pieces", "h1", "lens"):
        code, out = run_json([cmd, "--curve", fixture_path("rp2.curve.json"),
                              "--lines", fixture_path("lens_2_1.lines.json")])
        assert code == 1 and out["error"] == "DIMENSION_MISMATCH", cmd
        assert out["message"].endswith(f"{cmd} needs a 3-dim curve")
    rp2 = load_curve(fixture_path("rp2.curve.json"))
    with pytest.raises(WorkbenchError) as err:
        topology.piece_decomposition(rp2)
    assert err.value.code == "MISSING_Z"


def test_planar_curve_with_spatial_lines_is_a_dimension_error():
    """klein.curve (planar, no end labels) with poincare.lines: each
    command names the dimension, not a failed cross product or a line
    "None"."""
    args = ["--curve", fixture_path("klein.curve.json"),
            "--lines", fixture_path("poincare.lines.json")]
    for cmd, message in (
            ("multiplicity", "rotational momenta need a 3-dim curve"),
            ("suitability", "line 0 is not 2-dimensional")):
        code, out = run_json([cmd] + args)
        assert code == 1, cmd
        assert out == {"error": "DIMENSION_MISMATCH",
                       "message": f"DIMENSION_MISMATCH: {message}"}


@pytest.mark.parametrize("argv", [["enumerate", "--kappa-cap", "abc"],
                                  ["bogus"], []])
def test_parse_errors_are_usage_errors(argv):
    code, out = run_json(argv)
    assert code == 1 and out["error"] == "USAGE"


@pytest.mark.parametrize("curve", ["rp2.curve.json", "poincare.curve.json",
                                   "bad"])
def test_validate_searches_the_domain_once(monkeypatch, tmp_path, curve):
    """Valid, dimension-mismatched and invalid curves: one face search."""
    if curve == "bad":
        path = tmp_path / "bad.curve.json"
        path.write_text(json.dumps({
            "dim": 2, "vertices": [{"id": "a", "pos": ["0", "0"]},
                                   {"id": "b", "pos": ["1/2", "1/2"]}],
            "edges": [{"tail": "a", "head": "b", "dir": [1, 0],
                       "weight": 1, "leaf_label": None}]}))
    else:
        path = fixture_path(curve)
    searches = []
    real = domain._face_sets
    monkeypatch.setattr(domain, "_face_sets",
                        lambda d: searches.append(d) or real(d))
    code, out = run_json(["validate", "--curve", str(path), "--domain",
                          fixture_path("triangle.domain.json")])
    assert len(searches) == 1
    assert out["domain"]["ok"] is True
    assert code == (0 if curve == "rp2.curve.json" else 2)


# ---------------------------------------------------------------------------
# curves whose chains end at something other than a 3-valent vertex

LINE_COMMANDS = ("multiplicity", "h1", "lens", "pieces")


def two_ray_line(u, first=1):
    """Two opposite rays from one 2-valent marking, the ray along
    first * u listed first."""
    return {"dim": 3, "vertices": [{"id": "m", "pos": ["1/2", "0", "-1"]}],
            "edges": [{"tail": "m", "dir": [first * x for x in u]},
                      {"tail": "m", "dir": [-first * x for x in u]}]}


def one_ray():
    """A single ray from a 1-valent vertex, which is not an end."""
    return {"dim": 3, "vertices": [{"id": "a", "pos": ["0", "0", "0"]}],
            "edges": [{"tail": "a", "dir": [1, 2, 3]}]}


def write_problem(where, curve, zs):
    """Curve and lines files for `curve` (a dict) and directions zs."""
    cpath, lpath = where / "c.curve.json", where / "z.lines.json"
    cpath.write_text(json.dumps(curve))
    lpath.write_text(json.dumps({"lines": [
        {"point": [str(k), "0", "1/2"], "dir": list(z)}
        for k, z in enumerate(zs)]}))
    return ["--curve", str(cpath), "--lines", str(lpath)]


@pytest.mark.parametrize("first", [1, -1])
def test_two_ray_line_resolves_both_ends(tmp_path, first):
    """Both sides of the one chain are ends 0 and 1, whichever ray comes
    first: the mixed product is |mixed(z0, z1, u)|, lens p is the H1
    order, and each end's momentum is d x z for its outward d."""
    u, zs = (1, -2, 3), [(1, 0, 0), (-2, 5, 0)]
    files = write_problem(tmp_path, two_ray_line(u, first), zs)
    out = {}
    for cmd in LINE_COMMANDS:
        code, out[cmd] = run_json([cmd] + files)
        assert code == 0, out[cmd]
    assert out["multiplicity"]["mixedHProduct"] == abs(mixed(*zs, u)) == 15
    assert out["lens"]["p"] == out["h1"]["h1Order"] == 15
    outward = [tuple(first * x for x in u), tuple(-first * x for x in u)]
    assert [tuple(leaf["rho"]) for leaf in out["h1"]["leafData"]] == \
        [cross(d, z) for d, z in zip(outward, zs)]
    assert out["pieces"]["gluing"] == [[0, 1, [0, 1]]]


def test_ray_from_a_one_valent_vertex_is_rejected(tmp_path):
    """The 1-valent vertex is neither a junction nor an end: a
    validation error on every command that maps chains to nodes."""
    files = write_problem(tmp_path, one_ray(), [(1, 0, 0)])
    for cmd in LINE_COMMANDS:
        code, out = run_json([cmd] + files)
        assert code == 2 and out["error"] == "NOT_TRIVALENT", (cmd, out)
        assert "neither a junction nor an end" in out["message"]


def _gate_cases():
    """Spatial curves that the tree core refuses, as parameters (curve,
    vertex, code, text): vertex is the one the refusal names, None for
    a cycle.  Random trees get one internal chain contracted."""
    curves = four_valent_and_flat()
    cases = [("star", curves["star"], "v"),
             ("path-uwx", curves["path-uwx"], "x"),
             ("path-uxw", curves["path-uxw"], "x")]
    rng = random.Random(29)
    for k in range(5):
        c, _ = random_tree_problem(rng, rng.randint(4, 8), k % 2 == 0)
        i = rng.choice(c.bounded_indices())
        cases.append((f"contracted-{k}", contracted(c, i), c.edges[i].tail))
    out = [pytest.param(c, v, "NOT_TRIVALENT", f"vertex {v} has valence 4",
                        id=name) for name, c, v in cases]
    out.append(pytest.param(triangle_with_rays(), None, "TREE_ONLY",
                            "the curve is not a tree", id="triangle"))
    return out


@pytest.mark.parametrize("curve, vertex, code, text", _gate_cases())
def test_one_refusal_at_every_tree_core_entry(tmp_path, curve, vertex, code,
                                              text):
    """A junction whose valence is not 3 (`chain_nodes`) and a cycle
    (`build_problem`) get one code and text from every entry point into
    the tree core: the mixed product from every kind of root, the
    evaluation matrix, h1, pieces and their commands.  NOT_TRIVALENT
    exits 2 and TREE_ONLY 1.  pieces takes a curve with a cycle."""
    assert validate_curve(curve).ok
    rng = random.Random(len(curve.edges))
    zs = [rand_primitive(rng) for _ in curve.ends()]
    junctions = curve.trivalent_vertices()
    calls = [lambda root=root: mixed_h_product(curve, zs, root)
             for root in [None, ("end", len(zs) - 1)] + junctions]
    calls += [lambda: ev_matrix(curve, zs),
              lambda: topology.h1_order(curve, zs=zs)]
    commands = ["multiplicity", "h1"]
    if vertex is None:
        assert topology.piece_decomposition(curve, zs=zs).pieces
    else:
        calls += [lambda: topology.piece_decomposition(curve, zs=zs),
                  lambda: topology.vertex_multiplicity(curve, vertex)]
        commands.append("pieces")
    for compute in calls:
        with pytest.raises(WorkbenchError) as err:
            compute()
        assert str(err.value) == f"{code}: {text}"
    files = write_problem(tmp_path, curve_to_dict(curve), zs)
    for cmd in commands:
        assert run_json([cmd] + files) == (
            2 if code == "NOT_TRIVALENT" else 1,
            {"error": code, "message": f"{code}: {text}"}), cmd


def test_a_curve_in_two_pieces_is_no_tree(tmp_path):
    """Every command taking lines validates the curve first and finds it
    disconnected, with JSON on stdout."""
    zs = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 3), (2, 1, 3)]
    files = write_problem(tmp_path, triangle_and_tripod(), zs)
    for cmd in LINE_COMMANDS:
        code, out = run_json([cmd] + files)
        assert (code, out["error"]) == (2, "INVALID_CURVE"), (cmd, out)
        assert "not connected" in out["message"], (cmd, out)


def test_an_unbalanced_tripod_is_refused(tmp_path):
    """Rays (1,0,0), (0,1,0), (0,0,1) from one vertex do not balance:
    the multiplicity refuses the curve as h1 does, instead of reporting
    a product and a determinant of 0 that agree."""
    curve = {"dim": 3, "vertices": [{"id": "o", "pos": ["0", "0", "0"]}],
             "edges": [{"tail": "o", "dir": list(d)}
                       for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]}
    files = write_problem(tmp_path, curve, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    for cmd in LINE_COMMANDS:
        code, out = run_json([cmd] + files)
        assert (code, out["error"]) == (2, "INVALID_CURVE"), (cmd, out)
        assert "balancing fails" in out["message"], (cmd, out)


# ---------------------------------------------------------------------------
# schema-valid curves and lines never reach a traceback or an internal
# error (INTERNAL_INCONSISTENCY stays reserved for real bugs)

PROPERTY = settings(max_examples=200, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
SHAPES = ("tree", "primitive tree", "line", "ray")


def drawn_problem(seed, shape):
    """A curve of the given shape and one random primitive line direction
    per end, as (curve dict, zs, whether every weight is 1)."""
    rng = random.Random(seed)
    if shape in ("tree", "primitive tree"):
        curve, zs = random_tree_problem(rng, rng.randint(3, 7),
                                        primitive=shape != "tree")
        return (curve_to_dict(curve), zs,
                all(e.weight == 1 for e in curve.edges))
    if shape == "line":
        return two_ray_line(rand_primitive(rng)), \
            [rand_primitive(rng) for _ in range(2)], True
    return one_ray(), [rand_primitive(rng)], True


def answer(argv):
    """The exit code and stdout of a command that answers: exit 0, 1 or
    2, JSON on stdout, and no internal error."""
    code, text = run_command(argv)
    assert code in (0, 1, 2)
    json.loads(text)
    assert "INTERNAL_INCONSISTENCY" not in text, (argv[0], text)
    return code, text


def check_answer(argv):
    return answer(argv)[0]


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@PROPERTY
@given(st.integers(0, 2 ** 32), st.sampled_from(SHAPES))
def test_chain_commands_answer_every_drawn_curve(drawn_dir, seed, shape):
    """multiplicity, lens and pieces on every drawn curve, h1 on those
    with every weight 1 (weighted trees: the test below)."""
    curve, zs, unit = drawn_problem(seed, shape)
    files = write_problem(drawn_dir, curve, zs)
    for cmd in LINE_COMMANDS:
        if cmd != "h1" or unit:
            check_answer([cmd] + files)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.sampled_from(SHAPES))
def test_curve_commands_answer_every_drawn_curve(drawn_dir, seed, shape):
    """validate, suitability and enumerate on the same drawn problems:
    every drawn curve is valid, and the other two answer or refuse it
    (the lines are not a boundary configuration; a line or a ray has
    too few ends to enumerate)."""
    curve, zs, _ = drawn_problem(seed, shape)
    files = write_problem(drawn_dir, curve, zs)
    assert check_answer(["validate"] + files) == 0
    for cmd in ("suitability", "enumerate"):
        check_answer([cmd] + files)


@pytest.mark.xfail(strict=True, reason="h1 on a weighted tree still "
                   "reaches INTERNAL_INCONSISTENCY (ROADMAP item 3)")
@PROPERTY
@given(st.integers(0, 2 ** 32), st.sampled_from(SHAPES))
# The known failure, pinned so that Hypothesis stops at it: h1 on this
# weighted tree gives "edge torsion n = 72 not divisible by mv = 144".
@example(234, "tree")
def test_h1_answers_every_drawn_curve(drawn_dir, seed, shape):
    curve, zs, _ = drawn_problem(seed, shape)
    check_answer(["h1"] + write_problem(drawn_dir, curve, zs))


@PROPERTY
@given(st.integers(0, 2 ** 32), st.booleans())
def test_domain_commands_answer_every_drawn_polygon(drawn_dir, seed, spoiled):
    """wavefront --delta, and validate --domain and surface with a
    fixture curve, on blown-up polygons, valid and spoiled (one corner
    of index 2), with delta at 20-80% of the largest offset: each
    answers.  On a valid polygon the wave front answers too, validates
    in the polygon, and its surface is a torus."""
    rng = random.Random(seed)
    facets = blown_up_polygon(rng, rng.randint(5, 12), spoiled)
    delta = largest_offset(facets) * Fraction(rng.randint(20, 80), 100)
    dpath = drawn_dir / "p.domain.json"
    dpath.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": list(u), "offset": str(a)} for u, a in facets]}))
    dom = ["--domain", str(dpath)]
    klein = ["--curve", fixture_path("klein.curve.json")]
    for cmd in ("validate", "surface"):
        check_answer([cmd] + klein + dom)
    code, text = answer(["wavefront"] + dom + ["--delta", str(delta)])
    assert code == (2 if spoiled else 0), text
    if spoiled:
        return
    wpath = drawn_dir / "w.curve.json"
    wpath.write_text(text)
    wave = ["--curve", str(wpath)]
    assert check_answer(["validate"] + wave + dom) == 0
    code, text = answer(["surface"] + wave + dom)
    assert code == 0 and json.loads(text)["surface"] == "torus", text


SPATIAL_CURVES = ("poincare", "lens", "disappearing", "segment",
                  "simplex_tripod")
SPATIAL_DOMAINS = ("prism", "spoiled prism", "random", "simplex")


def drawn_spatial_domain(seed, kind):
    """A 3-D domain document: a prism over a blown-up polygon (spoiled
    or not) of height 1-12, the simplex fixture, or up to 8 random facets
    with normals in [-2, 2]^3 (not always primitive, nor bounded, nor
    nonempty)."""
    rng = random.Random(seed)
    if kind == "simplex":
        return json.loads(open(fixture_path("simplex3.domain.json")).read())
    if kind == "random":
        facets = []
        for _ in range(rng.randint(0, 8)):
            normal = [0, 0, 0]
            while not any(normal):
                normal = [rng.randint(-2, 2) for _ in range(3)]
            facets.append({"normal": normal, "offset": str(
                Fraction(rng.randint(-12, 12), rng.randint(1, 4)))})
        return {"dim": 3, "facets": facets}
    polygon = blown_up_polygon(rng, rng.randint(4, 9), kind != "prism")
    return {"dim": 3, "facets": [
        {"normal": [u[0], u[1], 0], "offset": str(a)} for u, a in polygon]
        + [{"normal": [0, 0, 1], "offset": "0"},
           {"normal": [0, 0, -1], "offset": str(-rng.randint(1, 12))}]}


@settings(max_examples=40, deadline=5000, database=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from(SPATIAL_DOMAINS))
def test_spatial_domain_commands_answer(drawn_dir, seed, kind):
    """h1, lens and pieces with --domain, for every 3-D fixture curve in
    prisms, the simplex and random domains: each answers (exit 0, 1 or 2
    with JSON, no internal error, no traceback), within the deadline."""
    dpath = drawn_dir / "s.domain.json"
    dpath.write_text(json.dumps(drawn_spatial_domain(seed, kind)))
    for name in SPATIAL_CURVES:
        for cmd in ("h1", "lens", "pieces"):
            answer([cmd, "--curve", fixture_path(f"{name}.curve.json"),
                    "--domain", str(dpath)])
