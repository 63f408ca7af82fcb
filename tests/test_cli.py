import json

import pytest

from conftest import fixture_path

from troplag import domain
from troplag.cli import _parser, run_command
from troplag.multiplicity import KAPPA_CAP


def run_json(argv):
    code, text = run_command(argv)
    return code, json.loads(text)


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
