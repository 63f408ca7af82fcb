import random
from fractions import Fraction

import pytest

from troplag.errors import WorkbenchError
from troplag.lattice import (SnfResult, complete_basis, content, cross,
                             det_bareiss, elementary_divisors, gcd_primitive,
                             lattice_index, mixed, smith_normal_form,
                             solve_bareiss, solve_cross, solve_dot,
                             solve_exact)


def test_gcd_primitive_examples():
    assert gcd_primitive((0, 0, 0)) == (0, (0, 0, 0))
    assert gcd_primitive((2, -3, 0)) == (1, (2, -3, 0))
    assert gcd_primitive((-6, 4, -10)) == (2, (3, -2, 5))


def test_gcd_primitive_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        v = tuple(rng.randint(-30, 30) for _ in range(3))
        g, u = gcd_primitive(v)
        scaled = tuple(g * x for x in u)
        # u is sign normalized, so the round trip holds up to orientation
        assert scaled == v or scaled == tuple(-x for x in v)
        if any(v):
            assert content(u) == 1
            lead = next(x for x in u if x != 0)
            assert lead > 0


def test_cross_paper_values():
    assert cross((-1, 0, 0), (0, 1, 2)) == (0, 2, -1)
    assert cross((1, 1, 0), (0, 1, 5)) == (5, -5, 1)


def test_cross_algebra():
    rng = random.Random(2)
    for _ in range(200):
        u = tuple(rng.randint(-20, 20) for _ in range(3))
        v = tuple(rng.randint(-20, 20) for _ in range(3))
        assert cross(u, u) == (0, 0, 0)
        assert cross(u, v) == tuple(-x for x in cross(v, u))
        assert sum(a * b for a, b in zip(cross(u, v), u)) == 0
        assert sum(a * b for a, b in zip(cross(u, v), v)) == 0


def _cofactor_det(u, v, w):
    m = [u, v, w]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_mixed_examples():
    assert mixed((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert mixed((0, 2, -1), (-3, 0, 1), (5, -5, 1)) == 1
    for p, q in [(2, 1), (5, 2), (7, 3)]:
        assert mixed((1, 0, 0), (-q, p, 0), (0, 0, 1)) == p


def test_mixed_against_cofactors():
    rng = random.Random(3)
    for _ in range(300):
        u, v, w = (tuple(rng.randint(-20, 20) for _ in range(3))
                   for _ in range(3))
        assert mixed(u, v, w) == _cofactor_det(u, v, w)


def test_snf_examples():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    r = smith_normal_form(ident)
    assert r.D == ident and r.check(ident)
    r = smith_normal_form(((2, 0), (0, 3)))
    assert r.D == ((1, 0), (0, 6))
    r = smith_normal_form(((2, 4, 6),))
    assert r.divisors() == (2,)


def test_snf_contract_random():
    rng = random.Random(4)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(nc))
                  for _ in range(nr))
        res = smith_normal_form(m)
        assert isinstance(res, SnfResult)
        assert res.check(m)


def test_lattice_index_examples():
    assert lattice_index([(0, -1, -1), (1, 1, -1)]) == 1
    assert lattice_index([(1, 0, 0), (0, 2, 0)]) == 2
    assert lattice_index([(1, 0, 0)]) == 1
    with pytest.raises(WorkbenchError):
        lattice_index([(0, 0, 0), (0, 0, 0)])


def test_lattice_index_unimodular_recombination():
    rng = random.Random(5)
    for _ in range(100):
        gens = [tuple(rng.randint(-6, 6) for _ in range(3))
                for _ in range(2)]
        if all(x == 0 for g in gens for x in g):
            continue
        before = lattice_index(gens)
        # random SL2(Z) recombination of the generators
        for _ in range(4):
            k = rng.randint(-3, 3)
            i, j = rng.sample([0, 1], 2)
            gens[i] = tuple(a + k * b for a, b in zip(gens[i], gens[j]))
        assert lattice_index(gens) == before


def test_solve_exact_identity():
    res = solve_exact([[1, 0], [0, 1]], [3, 4])
    assert res.unique and res.solution == (3, 4)


def test_solve_exact_momenta_rows():
    res = solve_exact([[0, 2, -1], [-3, 0, 1], [5, -5, 1]], [0, 0, 0])
    assert res.unique
    assert res.solution == (0, 0, 0)
    assert abs(res.det) == 1


def test_solve_exact_underdetermined():
    res = solve_exact([[1, 2], [2, 4]], [0, 0])
    assert res.status == "underdetermined"
    assert len(res.kernel) == 1
    res2 = solve_exact([[1, 2], [2, 4]], [0, 1])
    assert res2.status == "none"


def _system(rng, n, rank, in_span):
    """Random n x n integer system of the given rank; b in the column
    space when in_span, a random b otherwise."""
    left = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(n)]
    right = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rank)]
    a = [[sum(left[i][k] * right[k][j] for k in range(rank))
          for j in range(n)] for i in range(n)]
    if in_span:
        x = [rng.randint(-9, 9) for _ in range(n)]
        return a, [sum(r * v for r, v in zip(row, x)) for row in a]
    return a, [rng.randint(-30, 30) for _ in range(n)]


def test_solve_bareiss_against_fraction_solve():
    rng = random.Random(7)
    seen = set()
    # full rank, rank-deficient with b in the column space, and
    # rank-deficient with a random b, for every size 1..8
    cases = [(n, full, in_span) for n in range(1, 9)
             for full, in_span in ((True, False), (False, True),
                                   (False, False))] * 25
    for n, full, in_span in cases:
        rank = n if full else rng.randint(0, n - 1)
        a, b = _system(rng, n, rank, in_span)
        det, num, consistent = solve_bareiss(a, b)
        assert det == det_bareiss(a)
        ref = solve_exact(a, b)
        if det != 0:
            seen.add("unique")
            assert consistent
            assert tuple(Fraction(v, det) for v in num) == ref.solution
        else:
            assert num is None
            assert consistent == (ref.status != "none")
            seen.add("consistent" if consistent else "inconsistent")
    assert seen == {"unique", "consistent", "inconsistent"}


def test_solve_bareiss_examples():
    assert solve_bareiss([[2, 0], [0, 3]], [4, 1]) == (6, (12, 2), True)
    # a zero leading entry forces a row swap, which flips the sign
    assert solve_bareiss([[0, 1], [1, 0]], [5, 7]) == (-1, (-7, -5), True)
    # a column without a pivot is skipped, not a stop
    assert solve_bareiss([[0, 1], [0, 2]], [1, 2]) == (0, None, True)
    assert solve_bareiss([[0, 1], [0, 2]], [1, 3]) == (0, None, False)
    with pytest.raises(WorkbenchError):
        solve_bareiss([[1, 2]], [1])


def test_solvers_for_corner_machinery():
    rng = random.Random(6)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        g = content(v)
        x = solve_dot(v, g if g else 1)
        if g == 0:
            assert x is None
            continue
        assert sum(a * b for a, b in zip(v, x)) == g
    for _ in range(100):
        while True:
            u = tuple(rng.randint(-6, 6) for _ in range(3))
            if content(u) == 1:
                break
        rows = complete_basis(u)
        assert rows[0] == u
        assert det_bareiss(rows) == 1
        t = cross(u, tuple(rng.randint(-5, 5) for _ in range(3)))
        z = solve_cross(u, t)
        assert cross(u, z) == t


def test_elementary_divisor_chain():
    divs = elementary_divisors(((4, 0, 0), (0, 6, 0), (0, 0, 10)))
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0
