"""Deep trees: every rooted computation runs without recursion limits.

A caterpillar with kappa ends has a spine of kappa - 2 junctions, so any
recursive walk of it goes kappa frames deep.  KAPPA is well above the
interpreter's default recursion limit.  A segment through MARKINGS
collinear 2-valent markings is one chain, walked in linear time.  The
count gates at the end check that the tree walks take a number of steps
linear in the number of ends, on the benchmark's own trees.
"""

import importlib.util
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import rand_primitive, random_tree_problem

from troplag import cli, multiplicity, topology
from troplag.curve import Edge, TropicalCurve, validate_curve
from troplag.io_json import canonical_json, curve_from_dict, curve_to_dict
from troplag.lattice import cross, is_zero, vec_add, vec_sub
from troplag.multiplicity import (DET_KAPPA_CAP, Problem, build_problem,
                                  ev_matrix, mixed_h_product)
from troplag.topology import h1_order, lens_parameters, piece_decomposition

KAPPA = 2000

MARKINGS = 20000

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


def marked_segment(n, seed):
    """The segment from b0 = (0, 0, 0) to b1 = (0, 0, n + 1), with a
    2-valent marking at each integer height 1..n.  Edge k joins heights
    k and k + 1, stored downwards for even k, and the edges are listed
    in a shuffled order.  Returns the curve and walk[k], the index of
    edge k."""
    names = ["b0", *(f"m{k}" for k in range(1, n + 1)), "b1"]
    edges = []
    for k in range(n + 1):
        label = 0 if k == 0 else 1 if k == n else None
        edges.append(Edge(names[k], names[k + 1], (0, 0, 1), 1, label)
                     if k % 2 else
                     Edge(names[k + 1], names[k], (0, 0, -1), 1, label))
    order = list(range(n + 1))
    random.Random(seed).shuffle(order)
    walk = [0] * (n + 1)
    for i, k in enumerate(order):
        walk[k] = i
    curve = TropicalCurve(3, [(v, (0, 0, h)) for h, v in enumerate(names)],
                          [edges[k] for k in order], 1)
    return curve, walk


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def test_marked_segment_chain_in_linear_time():
    """One chain through 20,000 markings, its edges in walk order from
    the end met first; its Problem and lens parameters (those of the
    one-marking lens fixture with lens_5_2's lines) each within 1 s."""
    curve, walk = marked_segment(MARKINGS, 5)
    zs = [(1, 0, 0), (-2, 5, 0)]
    (junctions, chains), took = timed(curve.chain_nodes)
    assert took < 1.0
    if walk[-1] < walk[0]:
        walk.reverse()
    assert junctions == []
    assert chains == [(chains[0][0], chains[0][1], chains[0][2], 1,
                       tuple(walk))]
    prob, took = timed(build_problem, curve, zs)
    assert took < 1.0
    assert prob.adj == [[1], [0]]
    assert prob.chain[0, 1] == ((0, 0, 1), 1, 0)
    lens, took = timed(lens_parameters, curve, zs=zs)
    assert took < 1.0
    assert lens.as_dict() == {"p": 5, "qCanonical": 2}


# ---------------------------------------------------------------------------
# count gates: the rooted-tree walks are linear in the number of ends

GATE_KAPPAS = (512, 1024, 2048, 4096)


def _benchmark_trees():
    """`tree_problem` of the benchmark's input generator, perfbench/gen.py,
    loaded from its file without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = bytecode
    return gen.tree_problem


def with_markings(curve):
    """The curve with a 2-valent marking at the midpoint of each bounded
    edge, so that each of its chains takes one marking step."""
    vertices = list(curve.vertices.items())
    edges = []
    for k, e in enumerate(curve.edges):
        if e.head is None:
            edges.append(e)
            continue
        mid = f"mk{k}"
        vertices.append((mid, tuple(
            (a + b) / 2 for a, b in zip(curve.position(e.tail),
                                        curve.position(e.head)))))
        edges += [Edge(e.tail, mid, e.direction, e.weight),
                  Edge(mid, e.head, e.direction, e.weight)]
    return TropicalCurve(3, vertices, edges)


def _counted(monkeypatch, owner, name):
    """Count the calls of owner.name, which still runs as before."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _chain_steps(monkeypatch):
    """Count the edges `TropicalCurve._chains` takes, one per step of its
    walk: a chain's first edge, then one per marking it passes."""
    steps = []
    real = TropicalCurve._chains

    def counting(self):
        for chain in real(self):
            steps.append(len(chain[4]))
            yield chain

    monkeypatch.setattr(TropicalCurve, "_chains", counting)
    return steps


def _tree_walk_counts(monkeypatch, curve, zs):
    """(junction steps of Problem.momenta from end 0 and from a junction,
    steps of the torsion recursion, chain walk steps of build_problem on
    the curve with every bounded edge marked)."""
    prob = build_problem(curve, zs)
    mults = topology._junction_indices(prob)
    with monkeypatch.context() as m:
        glues = _counted(m, multiplicity, "_glue")
        walk = prob.momenta(0)
        prob.momenta(prob.kappa)
        momenta = len(glues)
        contents = _counted(m, topology, "content")
        topology._torsion_recursion(prob, walk, mults)
        torsion = len(contents)
    marked = with_markings(curve)
    with monkeypatch.context() as m:
        steps = _chain_steps(m)
        build_problem(marked, zs)
        chains = sum(steps)
    return momenta, torsion, chains


@pytest.mark.parametrize("shape", ["caterpillar", "split"])
def test_tree_walks_are_linear_in_the_ends(monkeypatch, shape):
    """On the benchmark's caterpillar and split trees with kappa = 512 to
    4096, the junction steps of Problem.momenta, the steps of the torsion
    recursion and the steps of the chain walk at most double with each
    doubling of kappa (ratio <= 2.2), so none is superlinear.  Counts,
    not times, so the gate holds on any host."""
    tree_problem = _benchmark_trees()
    counts = []
    for kappa in GATE_KAPPAS:
        doc, lines = tree_problem(random.Random(kappa), kappa, shape, False)
        curve = curve_from_dict(doc)
        zs = [tuple(line["dir"]) for line in lines["lines"]]
        counts.append(_tree_walk_counts(monkeypatch, curve, zs))
    # one junction step per junction and root, one recursion step per
    # node below the root, one chain step per edge
    momenta, torsion, chains = counts[0]
    kappa = GATE_KAPPAS[0]
    assert momenta == 2 * (kappa - 2) - 1
    assert torsion >= 2 * kappa - 3 and chains >= 3 * kappa - 6
    for small, large in zip(counts, counts[1:]):
        for a, b in zip(small, large):
            assert 0 < b <= 2.2 * a, counts
