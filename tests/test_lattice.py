import random
import signal
from fractions import Fraction

import pytest

from enumeration_oracle import is_consistent
from exact_oracle import bareiss_echelon_eager, solve_exact
from troplag.errors import WorkbenchError
from troplag.lattice import (SnfResult, _bareiss_echelon, content, cross,
                             det_bareiss, elementary_divisors, gcd_primitive,
                             is_zero, lattice_index, mixed, primitive_raw,
                             rank_exact, smith_normal_form, solve_bareiss,
                             solve_cross, solve_dot, vec_neg, vec_scale)


def test_gcd_primitive_examples():
    assert gcd_primitive((0, 0, 0)) == (0, (0, 0, 0))
    assert gcd_primitive((2, -3, 0)) == (1, (2, -3, 0))
    assert gcd_primitive((-6, 4, -10)) == (2, (3, -2, 5))


@pytest.mark.parametrize("v,g,raw,normal,neg,times_minus_two", [
    ((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((), 0, (), (), (), ()),
    ((6, -4, 10), 2, (3, -2, 5), (3, -2, 5), (-6, 4, -10), (-12, 8, -20)),
    ((-6, 4, -10), 2, (-3, 2, -5), (3, -2, 5), (6, -4, 10), (12, -8, 20)),
    ((0, -3, 0), 3, (0, -1, 0), (0, 1, 0), (0, 3, 0), (0, 6, 0)),
    ([4, -6, 8], 2, (2, -3, 4), (2, -3, 4), (-4, 6, -8), (-8, 12, -16)),
    ([-5], 5, (-1,), (1,), (5,), (10,)),
    ([0, 0], 0, (0, 0), (0, 0), (0, 0), (0, 0))])
def test_vector_helpers_pinned(v, g, raw, normal, neg, times_minus_two):
    """content, primitive_raw, gcd_primitive, vec_neg and vec_scale on
    zero, empty, mixed-sign and list input: a tuple always comes back,
    with its type checked as well as its value."""
    assert content(v) == g
    got = (primitive_raw(v), gcd_primitive(v)[1], vec_neg(v),
           vec_scale(-2, v))
    assert got == (raw, normal, neg, times_minus_two)
    assert {type(u) for u in got} == {tuple}
    assert gcd_primitive(v)[0] == g
    assert is_zero(v) == (g == 0)


def test_is_zero_pinned():
    assert is_zero(()) and is_zero([]) and is_zero((0, 0, 0))
    assert is_zero((Fraction(0), Fraction(0, 5), 0))
    assert is_zero([Fraction(0)])
    assert not is_zero((Fraction(0), Fraction(1, 3)))
    assert not is_zero((0, 0, -1)) and not is_zero([2])


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


def _random_rows(rng, m, n, density, bound, spoil=None):
    """An m x n integer matrix whose entries are nonzero with the given
    probability, spoiled by a duplicate row, a zero column or rank at
    most n // 2 when asked."""
    def entry():
        return rng.randint(-bound, bound) if rng.random() < density else 0
    if spoil == "low rank":
        k = n // 2
        left = [[entry() for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(n)] for i in range(m)]
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if spoil == "duplicate" and m >= 2:
        i, j = rng.sample(range(m), 2)
        rows[i] = list(rows[j])
    if spoil == "zero column" and n:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return rows


SPOILS = (None, "duplicate", "zero column", "low rank")


def test_det_bareiss_against_fraction_elimination():
    """det_bareiss, sign included, equals the determinant of the Fraction
    Gaussian elimination (tests/exact_oracle.py) for n = 0..12, sparse to
    dense, with entries of up to 200 bits, nonsingular and singular."""
    rng = random.Random(11)
    signs = set()
    for n in range(13):
        for density in (0.15, 0.4, 1.0):
            for bound in (9, 2 ** 200):
                for spoil in SPOILS:
                    for _ in range(3):
                        rows = _random_rows(rng, n, n, density, bound, spoil)
                        det = det_bareiss(rows)
                        assert det == solve_exact(rows, [0] * n).det
                        signs.add((n, (det > 0) - (det < 0)))
    assert {(n, s) for n in range(4, 13) for s in (-1, 0, 1)} <= signs


def test_bareiss_echelon_matches_the_eager_elimination():
    """The elimination that leaves unreached rows alone gives the rows,
    pivots and sign of the eager one (tests/exact_oracle.py) on
    rectangular systems with carried right-hand columns."""
    rng = random.Random(13)
    for _ in range(3000):
        m, n, carried = rng.randint(0, 9), rng.randint(0, 9), \
            rng.randint(0, 2)
        rows = _random_rows(rng, m, n + carried, rng.choice((0.2, 0.5, 1.0)),
                            rng.choice((2, 9, 2 ** 200)),
                            rng.choice(SPOILS))
        a = [list(r) for r in rows]
        b = [list(r) for r in rows]
        assert _bareiss_echelon(a, n) == bareiss_echelon_eager(b, n)
        assert a == b


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


def _tampered(m, spoil):
    """The Smith form of m with spoil applied to its (U, D, V)."""
    r = smith_normal_form(m)
    return SnfResult(*spoil(r.U, r.D, r.V))


def _row_times(A, i, k):
    return tuple(tuple(k * x for x in row) if n == i else row
                 for n, row in enumerate(A))


I2 = ((1, 0), (0, 1))
# each spoiled result breaks one clause of the contract and keeps the
# others: (m, spoil, the clause it breaks)
SNF_SPOILS = [
    (((2, 0), (0, 3)),
     lambda U, D, V: (((U[0][0] + U[1][0], U[0][1] + U[1][1]), U[1]), D, V),
     "U M V != D"),
    (((0, 0), (0, 0)), lambda U, D, V: (_row_times(U, 0, 2), D, V),
     "|det U| != 1"),
    (((0, 0), (0, 0)), lambda U, D, V: (U, D, _row_times(V, 1, 2)),
     "|det V| != 1"),
    (((2, 0), (0, 3)),
     lambda U, D, V: (_row_times(U, 1, -1), _row_times(D, 1, -1), V),
     "a negative divisor"),
    (((2, 0), (0, 3)), lambda U, D, V: (I2, ((2, 0), (0, 3)), I2),
     "2 does not divide 3"),
    (((0, 0), (0, 1)), lambda U, D, V: (I2, ((0, 0), (0, 1)), I2),
     "a nonzero divisor after 0"),
    (((1, 1), (0, 1)), lambda U, D, V: (I2, ((1, 1), (0, 1)), I2),
     "a nonzero entry off the diagonal"),
]


@pytest.mark.parametrize("m, spoil, clause", SNF_SPOILS,
                         ids=[c for _, _, c in SNF_SPOILS])
def test_snf_check_refuses_a_spoiled_result(m, spoil, clause):
    """check() holds for the Smith form and fails once any one clause of
    its contract is broken."""
    assert smith_normal_form(m).check(m)
    assert not _tampered(m, spoil).check(m)


def _square(seed, n):
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                 for _ in range(n))


def _within(seconds, fn, *args):
    """fn(*args), or AssertionError once `seconds` of wall time have
    passed, so that a hang fails the test instead of stalling the run."""
    def overtime(signum, frame):
        raise AssertionError(f"not finished in {seconds} s")
    old = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n, seed", [(10, 1), (20, 1)] +
                         [(7, seed) for seed in range(1, 21)])
def test_snf_contract_large(n, seed):
    """Dense square matrices with entries in [-9, 9]: each Smith form
    takes milliseconds, well within the 1 s bound, and meets the
    U * M * V == D contract."""
    m = _square(seed, n)
    assert _within(1, smith_normal_form, m).check(m)


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


# The test_solve_exact_* tests check the Fraction reference solver
# (tests/exact_oracle.py) and the same facts for solve_bareiss.


def test_solve_exact_identity():
    res = solve_exact([[1, 0], [0, 1]], [3, 4])
    assert res.unique and res.solution == (3, 4)
    assert solve_bareiss([[1, 0], [0, 1]], [3, 4]) == (1, (3, 4), ())


def test_solve_exact_momenta_rows():
    res = solve_exact([[0, 2, -1], [-3, 0, 1], [5, -5, 1]], [0, 0, 0])
    assert res.unique
    assert res.solution == (0, 0, 0)
    assert abs(res.det) == 1
    d, num, kernel = solve_bareiss([[0, 2, -1], [-3, 0, 1], [5, -5, 1]],
                                   [0, 0, 0])
    assert num == (0, 0, 0) and kernel == () and abs(d) == 1


def test_solve_exact_underdetermined():
    res = solve_exact([[1, 2], [2, 4]], [0, 0])
    assert res.status == "underdetermined"
    assert len(res.kernel) == 1
    res2 = solve_exact([[1, 2], [2, 4]], [0, 1])
    assert res2.status == "none"
    d, num, kernel = solve_bareiss([[1, 2], [2, 4]], [0, 0])
    assert num is not None and len(kernel) == 1
    assert solve_bareiss([[1, 2], [2, 4]], [0, 1])[1] is None


def _system(rng, m, n, rank, in_span, frac=False):
    """Random m x n system of the given rank; b in the column space when
    in_span, a random b otherwise.  With frac, row i is divided by a
    random denominator and the solution and b are rational."""
    left = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rank)]
    a = [[sum(left[i][k] * right[k][j] for k in range(rank))
          for j in range(n)] for i in range(m)]
    if frac:
        a = [[Fraction(v, q) for v in row]
             for row, q in zip(a, (rng.randint(1, 6) for _ in range(m)))]
    if in_span:
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4) if frac else 1)
             for _ in range(n)]
        return a, [sum(r * v for r, v in zip(row, x)) for row in a]
    return a, [Fraction(rng.randint(-30, 30), rng.randint(1, 4) if frac
                        else 1) for _ in range(m)]


def test_solve_bareiss_against_fraction_solve():
    rng = random.Random(7)
    seen = set()
    # square n x n for n = 1..8, overdetermined m x 2 (edge and line
    # intersections), underdetermined k x 3 (affine spans of faces) and
    # small systems with Fraction entries; each full rank, rank-deficient
    # with b in the column space, and rank-deficient with a random b
    shapes = [("square", n, n) for n in range(1, 9)] + \
        [("over", m, 2) for m in (3, 4)] + \
        [("under", k, 3) for k in (1, 2)] + \
        [("fraction", m, n) for m in range(1, 5) for n in range(1, 5)]
    cases = [(shape, m, n, full, in_span) for shape, m, n in shapes
             for full, in_span in ((True, False), (True, True),
                                   (False, True), (False, False))] * 12
    for shape, m, n, full, in_span in cases:
        rank = min(m, n) if full else rng.randint(0, min(m, n) - 1)
        a, b = _system(rng, m, n, rank, in_span, shape == "fraction")
        d, num, kernel = solve_bareiss(a, b)
        ref = solve_exact(a, b)
        seen.add((shape, ref.status))
        assert type(d) is int and d != 0
        assert (num is None) == (ref.status == "none")
        assert is_consistent(a, b) == (ref.status != "none")
        if num is not None:
            assert all(type(v) is int for v in num)
            assert tuple(Fraction(v, d) for v in num) == ref.solution
        # the oracle reports no kernel for an inconsistent system
        ref_kernel = solve_exact(a, [0] * m).kernel
        assert len(kernel) == len(ref_kernel) == n - rank_exact(a)
        for k, r in zip(kernel, ref_kernel):
            assert all(type(v) is int for v in k)
            assert tuple(Fraction(v, d) for v in k) == r
        assert (not kernel and num is not None) == ref.unique
        if shape == "square":
            assert d == det_bareiss(a) if not kernel else det_bareiss(a) == 0
    statuses = {"square": ("unique", "underdetermined", "none"),
                "over": ("unique", "underdetermined", "none"),
                "under": ("underdetermined", "none"),
                "fraction": ("unique", "underdetermined", "none")}
    assert seen == {(shape, st) for shape, sts in statuses.items()
                    for st in sts}


def test_solve_bareiss_examples():
    assert solve_bareiss([[2, 0], [0, 3]], [4, 1]) == (6, (12, 2), ())
    # a zero leading entry forces a row swap, which flips the sign
    assert solve_bareiss([[0, 1], [1, 0]], [5, 7]) == (-1, (-7, -5), ())
    # a column without a pivot is skipped, not a stop, and is free
    assert solve_bareiss([[0, 1], [0, 2]], [1, 2]) == (1, (0, 1), ((1, 0),))
    assert solve_bareiss([[0, 1], [0, 2]], [1, 3]) == (1, None, ((1, 0),))
    # rectangular systems, and rows cleared of their own denominators
    assert solve_bareiss([[1, 2]], [1]) == (1, (1, 0), ((-2, 1),))
    assert solve_bareiss([[1, 0], [0, 1], [1, 1]], [1, 2, 4]) == \
        (1, None, ())
    assert solve_bareiss([[Fraction(1, 2), 0], [0, 1]],
                         [1, Fraction(1, 3)]) == (3, (6, 1), ())
    assert solve_bareiss([], []) == (1, (), ())
    with pytest.raises(WorkbenchError):
        solve_bareiss([[1, 2], [1]], [1, 1])
    with pytest.raises(WorkbenchError):
        solve_bareiss([[1, 2]], [1, 2])


def test_is_consistent_examples():
    assert is_consistent([[1, 2], [2, 4]], [1, 2])
    assert not is_consistent([[1, 2], [2, 4]], [1, 3])
    # a zero column is skipped, and a zero row needs a zero right side
    assert is_consistent([[0, 1], [0, 2]], [1, 2])
    assert not is_consistent([[0, 0], [0, 1]], [1, 0])
    assert not is_consistent([[1, 0], [0, 1], [1, 1]], [1, 2, 4])
    assert is_consistent([[Fraction(1, 2), 0]], [Fraction(1, 3)])
    assert is_consistent([], [])
    with pytest.raises(WorkbenchError):
        is_consistent([[1, 2]], [1, 2])


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
        t = cross(u, tuple(rng.randint(-5, 5) for _ in range(3)))
        z = solve_cross(u, t)
        assert cross(u, z) == t


def test_elementary_divisor_chain():
    divs = elementary_divisors(((4, 0, 0), (0, 6, 0), (0, 0, 10)))
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0
