"""Deep trees: every rooted computation runs without recursion limits.

A caterpillar with kappa ends has a spine of kappa - 2 junctions, so any
recursive walk of it goes kappa frames deep.  KAPPA is well above the
interpreter's default recursion limit.
"""

import json
import random
import sys
from collections import Counter

import pytest

from conftest import rand_primitive, random_tree_problem

from troplag import cli
from troplag.curve import Edge, TropicalCurve, validate_curve
from troplag.io_json import canonical_json, curve_to_dict
from troplag.lattice import cross, is_zero, vec_add, vec_sub
from troplag.multiplicity import (DET_KAPPA_CAP, Problem, ev_matrix,
                                  mixed_h_product)
from troplag.topology import h1_order, piece_decomposition

KAPPA = 2000

SPINE = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def caterpillar(kappa, seed):
    """Balanced primitive caterpillar with a transverse line per end.

    Spine edge k joins junctions v<k> and v<k+1> with direction
    SPINE[k % 3]; every vertex multiplicity is 1.
    """
    n = kappa - 2
    spine = [SPINE[k % 3] for k in range(n - 1)]
    pos = [(0, 0, 0)]
    for s in spine:
        pos.append(vec_add(pos[-1], s))
    rays = [(0, (-1, 0, 0)), (0, (0, -1, 0))]
    rays += [(k, vec_sub(spine[k - 1], spine[k])) for k in range(1, n - 1)]
    rays += [(n - 1, (1, 0, 0)), (n - 1, vec_sub(spine[-1], (1, 0, 0)))]
    edges = [Edge(f"v{k}", f"v{k + 1}", spine[k]) for k in range(n - 1)]
    edges += [Edge(f"v{k}", None, d, 1, label)
              for label, (k, d) in enumerate(rays)]
    curve = TropicalCurve(3, [(f"v{k}", p) for k, p in enumerate(pos)],
                          edges)
    rng = random.Random(seed)
    zs = []
    for _, d in rays:
        z = rand_primitive(rng)
        while is_zero(cross(d, z)):
            z = rand_primitive(rng)
        zs.append(z)
    return curve, zs


@pytest.fixture(scope="module")
def deep():
    return caterpillar(KAPPA, 7)


def test_deep_caterpillar_is_deeper_than_the_recursion_limit():
    assert sys.getrecursionlimit() < KAPPA


def test_deep_caterpillar_validates(deep):
    curve, _ = deep
    assert validate_curve(curve).ok
    assert len(curve.ends()) == KAPPA


def test_deep_mixed_product_is_root_independent(deep):
    curve, zs = deep
    first = mixed_h_product(curve, zs)
    assert first != 0
    assert mixed_h_product(curve, zs, ("end", KAPPA // 2)) == first
    assert mixed_h_product(curve, zs, f"v{KAPPA // 3}") == first


def test_deep_h1_matches_the_mixed_product(deep):
    curve, zs = deep
    rep = h1_order(curve, zs=zs)
    assert rep.product == mixed_h_product(curve, zs)
    assert rep.h1_order * rep.mv == rep.product
    assert rep.recursion_agrees


def test_deep_pieces(deep):
    curve, zs = deep
    kinds = Counter(p.kind for p in piece_decomposition(curve, zs=zs).pieces)
    assert kinds == Counter({"PANTS_BUNDLE": KAPPA - 2,
                             "SOLID_TORUS": KAPPA})


# ev_matrix is kappa x kappa with a determinant of O(kappa) bits, and the
# oracle runs up to the CLI's cap.  At 256 ends the sparse elimination
# takes 0.02-0.1 s and the dense one 1.2-3.2 s, so a fall back to dense
# elimination shows in `pytest --durations`.
@pytest.mark.parametrize("kappa", [4, 9, 64, DET_KAPPA_CAP])
def test_caterpillar_determinant_oracle(kappa):
    curve, zs = caterpillar(kappa, kappa)
    value = mixed_h_product(curve, zs)
    assert abs(ev_matrix(curve, zs).determinant()) == value
    assert mixed_h_product(curve, zs, f"v{kappa // 2 - 1}") == value


def test_random_tree_determinant_oracle_at_the_cap():
    curve, zs = random_tree_problem(random.Random(257), DET_KAPPA_CAP)
    value = mixed_h_product(curve, zs)
    assert value != 0
    assert abs(ev_matrix(curve, zs).determinant()) == value


def run_multiplicity(tmp_path, curve, zs):
    cpath, lpath = tmp_path / "c.curve.json", tmp_path / "c.lines.json"
    cpath.write_text(canonical_json(curve_to_dict(curve)))
    lpath.write_text(canonical_json(
        {"lines": [{"point": [0, 0, 0], "dir": list(z)} for z in zs]}))
    code, text = cli.run_command(["multiplicity", "--curve", str(cpath),
                                  "--lines", str(lpath)])
    return code, json.loads(text)


def test_multiplicity_command_skips_the_determinant_above_the_cap(
        tmp_path, monkeypatch, deep):
    curve, zs = deep
    calls = []
    monkeypatch.setattr(Problem, "evaluation_matrix",
                        lambda *args: calls.append(args))
    code, report = run_multiplicity(tmp_path, curve, zs)
    assert calls == []
    assert code == 0
    assert report == {"mixedHProduct": mixed_h_product(curve, zs),
                      "method": "RECURSIVE"}


def test_multiplicity_command_checks_the_determinant_at_the_cap(tmp_path):
    curve, zs = caterpillar(DET_KAPPA_CAP, DET_KAPPA_CAP)
    code, report = run_multiplicity(tmp_path, curve, zs)
    assert code == 0
    assert report["agree"] is True
    assert report["determinant"] == report["mixedHProduct"] == \
        mixed_h_product(curve, zs)
