"""Byte-for-byte CLI outputs on the fixture corpus.

Each file in tests/golden/ holds the exit code of one invocation on its
first line ("exit N") and the exact stdout after it.  Regenerate them only
when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from conftest import fixture_path

from troplag.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"

CURVES_3D = ["disappearing", "lens", "poincare", "simplex_tripod"]
CURVES_2D = ["crossing", "klein", "klein_sum", "rp2", "sphere_w2"]
DOMAINS_2D = ["hexagon", "quadrant", "rect42", "triangle", "unit_square"]
LINES = ["disappearing", "lens_1_0", "lens_2_1", "lens_5_2", "lens_7_3",
         "poincare", "simplex_tripod"]
# (curve, domain) pairs of the fixture index
IN_DOMAIN = [("simplex_tripod", "simplex3"), ("rp2", "triangle"),
             ("klein", "quadrant"), ("klein_sum", "quadrant"),
             ("sphere_w2", "rect42")]


def _cases():
    cases = []
    for c in CURVES_3D + CURVES_2D:
        cases.append(["validate", "--curve", f"{c}.curve"])
    for c in CURVES_3D:
        cases.append(["validate", "--curve", f"{c}.curve",
                      "--domain", "simplex3.domain"])
    for c in CURVES_2D:
        for d in DOMAINS_2D:
            cases.append(["validate", "--curve", f"{c}.curve",
                          "--domain", f"{d}.domain"])
    cases.append(["validate", "--curve", "sphere_w2.curve",
                  "--domain", "rect42.domain", "--relaxed"])
    for c in CURVES_3D:
        for cmd in ("multiplicity", "h1", "pieces", "lens", "suitability",
                    "enumerate"):
            for lines in LINES:
                cases.append([cmd, "--curve", f"{c}.curve",
                              "--lines", f"{lines}.lines"])
        for cmd in ("h1", "pieces", "lens"):
            cases.append([cmd, "--curve", f"{c}.curve",
                          "--domain", "simplex3.domain"])
    for root in ("end:0", "end:1", "end:2", "o", "end:3", "p1", "end:x"):
        cases.append(["multiplicity", "--curve", "poincare.curve",
                      "--lines", "poincare.lines", "--root", root])
    cases.append(["multiplicity", "--curve", "simplex_tripod.curve",
                  "--lines", "simplex_tripod.lines", "--root", "p"])
    for root in ("end:7", "nonsense"):
        cases.append(["multiplicity", "--curve", "lens.curve",
                      "--lines", "lens_5_2.lines", "--root", root])
    for cmd in ("h1", "pieces", "lens"):
        for given in (["--domain", "simplex3.domain"],
                      ["--lines", "lens_5_2.lines"]):
            cases.append([cmd, "--curve", "segment.curve", *given])
    for c, d in IN_DOMAIN:
        for cmd in ("surface", "pieces", "h1", "lens"):
            cases.append([cmd, "--curve", f"{c}.curve",
                          "--domain", f"{d}.domain"])
    for cmd in ("surface", "pieces"):
        cases.append([cmd, "--curve", "sphere_w2.curve",
                      "--domain", "rect42.domain", "--relaxed"])
    cases.append(["pieces", "--curve", "rp2.curve",
                  "--lines", "poincare.lines"])
    cases.append(["multiplicity", "--curve", "crossing.curve",
                  "--lines", "poincare.lines"])
    for d in DOMAINS_2D + ["simplex3"]:
        for delta in ("1/4", "1/8"):
            cases.append(["wavefront", "--domain", f"{d}.domain",
                          "--delta", delta])
    for delta in ("abc", "1/0"):
        cases.append(["wavefront", "--domain", "unit_square.domain",
                      "--delta", delta])
    cases.append(["wavefront", "--domain", "unit_square.domain"])
    for cmd in ("validate", "multiplicity", "h1", "surface", "pieces",
                "lens", "enumerate", "suitability"):
        cases.append([cmd])
    for cmd in ("h1", "pieces", "lens"):
        cases.append([cmd, "--curve", "poincare.curve"])
    for cap in ("2", "9"):
        cases.append(["enumerate", "--curve", "poincare.curve",
                      "--lines", "poincare.lines", "--kappa-cap", cap])
    cases.append(["h1", "--curve", "poincare.curve",
                  "--lines", "poincare.lines", "--format", "table"])
    cases.append(["enumerate", "--curve", "poincare.curve",
                  "--lines", "poincare.lines", "--format", "table"])
    return cases


CASES = {"_".join(a.lstrip("-").replace(":", "-").replace("/", "-")
                  for a in argv): argv for argv in _cases()}


def _run(argv):
    argv = [fixture_path(a + ".json") if a.endswith((".curve", ".domain",
                                                      ".lines")) else a
            for a in argv]
    code, text = run_command(argv)
    return f"exit {code}\n{text}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_goldens_print_no_python_reprs():
    """Points in messages read as the JSON's p/q strings."""
    assert not [p.name for p in GOLDEN.glob("*.txt")
                if "Fraction(" in p.read_text(encoding="utf-8")]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(_run(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
