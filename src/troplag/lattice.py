"""Exact integer linear algebra.

Everything in here is plain ``int`` arithmetic, with ``Fraction`` input
cleared of denominators: vector products and primitivity; one
fraction-free (Bareiss) elimination for determinants, solutions, ranks
and kernels; and the Smith normal form for lattice indices and
saturation.  No floating point is used anywhere in the package.
Vectors are tuples, matrices are tuples of row tuples.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import Record, WorkbenchError


# ---------------------------------------------------------------------------
# vectors


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_scale(c, u):
    return tuple(c * a for a in u)


def dot(u, v):
    if len(u) != len(v):
        raise WorkbenchError("DIMENSION_MISMATCH",
                             f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def is_zero(u):
    return all(a == 0 for a in u)


def content(v) -> int:
    """GCD of the coordinates (nonnegative; 0 for the zero vector)."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive_raw(v):
    """v divided by its content, orientation kept.  Zero stays zero."""
    g = content(v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def gcd_primitive(v):
    """Split v as g * u with g = content(v) and u primitive.

    The sign of u is normalized so that its first nonzero coordinate is
    positive; hence g * u == v holds up to this sign flip only.  Use
    primitive_raw when the orientation of v must be preserved.
    """
    g = content(v)
    if g == 0:
        return 0, tuple(v)
    u = tuple(a // g for a in v)
    for a in u:
        if a != 0:
            if a < 0:
                u = vec_neg(u)
            break
    return g, u


def cross(u, v):
    """Vector product in Z^3 (or Q^3)."""
    if len(u) != 3 or len(v) != 3:
        raise WorkbenchError("DIMENSION_MISMATCH", "cross needs 3-vectors")
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def mixed(u, v, w):
    """Mixed product (u x v) . w == det of the matrix with rows u, v, w."""
    return dot(cross(u, v), w)


def rot90(u):
    """Counterclockwise quarter turn in Z^2."""
    if len(u) != 2:
        raise WorkbenchError("DIMENSION_MISMATCH", "rot90 needs a 2-vector")
    return (-u[1], u[0])


# ---------------------------------------------------------------------------
# Smith normal form


def _mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(inner))
                       for j in range(cols))
                 for i in range(rows))


def _bareiss_echelon(a, ncols):
    """Fraction-free row echelon form of an integer matrix, in place.

    Eliminates in the first ``ncols`` columns of the row lists ``a``
    (further columns, such as a right-hand side, are carried along) and
    skips a column with no pivot.  By Sylvester's identity (Bareiss 1968)
    every division is exact and each entry stays a minor of the input, so
    the last pivot of a square nonsingular matrix is its determinant up to
    the sign of the row permutation.  Returns (pivot columns, that sign).
    """
    nr = len(a)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        for i in range(r, nr):
            if a[i][c] != 0:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        p = a[r][c]
        tail = a[r][c + 1:]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            row[c + 1:] = [(x * p - f * y) // prev
                           for x, y in zip(row[c + 1:], tail)]
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def det_bareiss(rows) -> int:
    """Exact determinant of an integer matrix: by hand for 2 x 2 and
    3 x 3, where the elimination costs ten times more, and by fraction-
    free elimination above."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise WorkbenchError("DIMENSION_MISMATCH", "determinant needs a square matrix")
    if n == 0:
        return 1
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        return mixed(*rows)
    a = [list(r) for r in rows]
    pivots, sign = _bareiss_echelon(a, n)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def _integer_rows(rows):
    """Rows of ints: a system holding a Fraction has each row scaled by
    the lcm of its denominators; an all-int system is returned as it is."""
    # a sum of ints is an int, and a single Fraction makes it a Fraction
    if type(sum(chain.from_iterable(rows))) is int:
        return rows
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def solve_bareiss(rows, rhs):
    """Fraction-free solve of an m x n system A x = b (int or Fraction).

    Returns the plain tuple (d, numerators, kernel), all integers:
    - d is nonzero; it is det(A) when A is a square nonsingular integer
      matrix.
    - numerators[i] = d * x_i for the solution whose free variables are
      0, or None when the system is inconsistent.
    - kernel[k] / d is the k-th reduced-echelon kernel vector: d at the
      k-th free column, 0 at the other free columns.  It is empty
      exactly when the solution is unique.
    Each row is cleared of denominators on its own, which changes
    neither the solutions nor the kernel, only d.
    """
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows) or len(rhs) != len(rows):
        raise WorkbenchError("DIMENSION_MISMATCH",
                             "ragged rows or a right-hand side of the "
                             "wrong length")
    a = _integer_rows([[*r, b] for r, b in zip(rows, rhs)])
    pivots, sign = _bareiss_echelon(a, n)
    r = len(pivots)
    # The last pivot is the r x r minor of the pivot rows and columns, so
    # by Cramer's rule d * x is integral for the solution and the kernel
    # vectors below, and each division in the back-substitution over the
    # echelon rows is exact.
    d = sign * a[r - 1][pivots[-1]] if r else 1

    def back(col, scale):
        # the pivot variables of the echelon rows with right-hand side
        # scale * column col, every free variable 0
        x = [0] * n
        for i in range(r - 1, -1, -1):
            row = a[i]
            s = scale * row[col]
            for c in pivots[i + 1:]:
                s -= row[c] * x[c]
            x[pivots[i]] = s // row[pivots[i]]
        return x

    num = None if any(row[n] for row in a[r:]) else tuple(back(n, d))
    kernel = []
    if r < n:
        for f in range(n):
            if f not in pivots:
                k = back(f, -d)     # move column f to the right, x_f = 1
                k[f] = d
                kernel.append(tuple(k))
    return d, num, tuple(kernel)


def rank_exact(rows) -> int:
    """Rank over Q: the pivot count of the fraction-free echelon form."""
    a = _integer_rows([list(r) for r in rows])
    return len(_bareiss_echelon(a, len(a[0]) if a else 0)[0])


class SnfResult(Record):
    """U * M * V == D with U, V unimodular and D a divisor chain."""
    __slots__ = ("U", "D", "V")

    def __init__(self, U: tuple, D: tuple, V: tuple):
        self.U = U
        self.D = D
        self.V = V

    def divisors(self):
        r = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(r) if self.D[i][i] != 0)

    def check(self, m) -> bool:
        if mat_mul(mat_mul(self.U, m), self.V) != self.D:
            return False
        if abs(det_bareiss(self.U)) != 1 or abs(det_bareiss(self.V)) != 1:
            return False
        r = min(len(self.D), len(self.D[0]) if self.D else 0)
        for i in range(r):
            d = self.D[i][i]
            if d < 0:
                return False
            if i + 1 < r:
                nxt = self.D[i + 1][i + 1]
                if d == 0 and nxt != 0:
                    return False
                if d != 0 and nxt % d != 0:
                    return False
        for i in range(len(self.D)):
            for j in range(len(self.D[0]) if self.D else 0):
                if i != j and self.D[i][j] != 0:
                    return False
        return True


def smith_normal_form(rows) -> SnfResult:
    """Smith normal form by elementary row/column operations.

    Pivot selection: smallest nonzero absolute value, ties broken by
    lowest row then column index, which makes the output deterministic.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _mat_identity(nr)
    v = _mat_identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate pivot
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        # clear row and column t; remainders may reappear, so iterate
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

        # enforce divisibility of the remaining block by the pivot
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(tuple(tuple(r) for r in u),
                     tuple(tuple(r) for r in a),
                     tuple(tuple(r) for r in v))


def elementary_divisors(rows):
    return smith_normal_form(rows).divisors()


def lattice_index(gens) -> int:
    """Index of the sublattice spanned by gens inside its saturation.

    The saturation is the set of integer vectors in the rational span, and
    the index equals the product of the nonzero elementary divisors of the
    generator matrix.  A saturated (direct summand) sublattice gives 1.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise WorkbenchError("ZERO_SPAN", "no generators")
    if all(is_zero(g) for g in gens):
        raise WorkbenchError("ZERO_SPAN", "all generators are zero")
    idx = 1
    for d in elementary_divisors(gens):
        idx *= d
    return idx


# ---------------------------------------------------------------------------
# small integer solvers used by the corner-basis and splitting machinery


def _xgcd(a, b):
    """g, s, t with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_dot(v, target=1):
    """Deterministic x in Z^n with v . x == target, or None.

    Solvable exactly when content(v) divides target; coefficients come
    from chaining the extended Euclidean algorithm along the coordinates.
    """
    g = 0
    coeffs = []
    for a in v:
        g2, s, t = _xgcd(g, a)
        coeffs = [s * c for c in coeffs] + [t]
        g = g2
    if g == 0 or target % g != 0:
        return None
    m = target // g
    return tuple(m * c for c in coeffs)


def solve_cross(u, t):
    """Deterministic z with u x z == t; u primitive, t orthogonal to u.

    With u . x == 1, u x (t x x) == t (u . x) - x (u . t) == t.
    """
    if dot(u, t) != 0:
        raise WorkbenchError("NO_SOLUTION", "target not orthogonal to u")
    x = solve_dot(u, 1)
    if x is None:
        raise WorkbenchError("NOT_PRIMITIVE", f"{u} is not primitive")
    return cross(t, x)
