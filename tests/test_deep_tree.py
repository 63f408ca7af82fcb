"""Deep trees: every rooted computation runs without recursion limits.

A caterpillar with kappa ends has a spine of kappa - 2 junctions, so any
recursive walk of it goes kappa frames deep.  KAPPA is well above the
interpreter's default recursion limit.
"""

import random
import sys
from collections import Counter

import pytest

from conftest import rand_primitive

from troplag.curve import Edge, TropicalCurve, validate_curve
from troplag.lattice import cross, is_zero, vec_add, vec_sub
from troplag.multiplicity import ev_matrix, mixed_h_product
from troplag.topology import h1_order, piece_decomposition

KAPPA = 2000
# ev_matrix is kappa x kappa and its determinant is O(kappa^3) on
# ever-longer integers: the oracle is only run up to this size
DET_KAPPA_MAX = 64

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


@pytest.mark.parametrize("kappa", [4, 9, DET_KAPPA_MAX])
def test_caterpillar_determinant_oracle(kappa):
    curve, zs = caterpillar(kappa, kappa)
    value = mixed_h_product(curve, zs)
    assert abs(ev_matrix(curve, zs).determinant()) == value
    assert mixed_h_product(curve, zs, f"v{kappa // 2 - 1}") == value
