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
    return tuple([-a for a in u])


def vec_scale(c, u):
    return tuple([c * a for a in u])


def dot(u, v):
    if len(u) != len(v):
        raise WorkbenchError("DIMENSION_MISMATCH",
                             f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def is_zero(u):
    return not any(u)


def content(v) -> int:
    """GCD of the coordinates (nonnegative; 0 for the zero vector)."""
    return gcd(*v)


def primitive_raw(v):
    """v divided by its content, orientation kept.  Zero stays zero."""
    g = content(v)
    if g == 0:
        return tuple(v)
    return tuple([a // g for a in v])


def gcd_primitive(v):
    """Split v as g * u with g = content(v) and u primitive.

    The sign of u is normalized so that its first nonzero coordinate is
    positive; hence g * u == v holds up to this sign flip only.  Use
    primitive_raw when the orientation of v must be preserved.
    """
    g = content(v)
    if g == 0:
        return 0, tuple(v)
    u = tuple([a // g for a in v])
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

    A row with 0 in the pivot column is only rescaled by p / prev, and
    these factors telescope over consecutive steps, so such a row is left
    as it is: ``level[i]`` is the pivot of the step that last updated row
    i (1 before any), and its current value is the stored one times
    prev / level[i].  A step whose pivot column is nonzero in the row
    updates it with (x * p - f * y) // level[i] in place of // prev,
    which is exact because the result is the same minor the eager update
    gives; a row chosen as pivot is first brought up to date, and so are
    the rows below the rank at the end.  The output is that of the eager
    elimination, entry for entry.
    """
    nr = len(a)
    level = [1] * nr
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
            level[r], level[i] = level[i], level[r]
            sign = -sign
        row = a[r]
        if level[r] != prev:
            row[:] = [x * prev // level[r] for x in row]
        p = row[c]
        tail = row[c + 1:]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            if f:
                lv = level[i]
                row[c + 1:] = [(x * p - f * y) // lv
                               for x, y in zip(row[c + 1:], tail)]
                row[c] = 0
                level[i] = p
        prev = p
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if level[i] != prev:
            a[i][:] = [x * prev // level[i] for x in a[i]]
    return pivots, sign


def det_bareiss(rows) -> int:
    """Exact determinant of an integer matrix: by hand for 2 x 2 and
    3 x 3, where the elimination costs ten times more, and by fraction-
    free elimination above.

    The elimination takes the columns sparsest first (Markowitz 1957),
    by nonzero count with ties in their given order, so the dense ones
    fill in last; the sign of that column permutation is multiplied in.
    """
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
    counts = [n - col.count(0) for col in zip(*rows)]
    order = sorted(range(n), key=counts.__getitem__)
    a = [[r[j] for j in order] for r in rows]
    pivots, sign = _bareiss_echelon(a, n)
    if len(pivots) < n:
        return 0
    # sort the permutation back by swaps, one sign flip each
    for j in range(n):
        while order[j] != j:
            k = order[j]
            order[j], order[k] = order[k], k
            sign = -sign
    return sign * a[n - 1][n - 1]


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


def _pair(p, b):
    """Rows of a 2 x 2 integer matrix of determinant 1 taking (p, b),
    p != 0, to (gcd(p, b), 0); when p divides b it takes them to (p, 0),
    so an exact step leaves the pivot as it is."""
    if b % p == 0:
        return (1, 0), (-(b // p), 1)
    g, s, t = _xgcd(p, b)
    return (s, t), (-b // g, p // g)


def smith_normal_form(rows) -> SnfResult:
    """Smith normal form by 2 x 2 unimodular row and column steps.

    Pivot selection: smallest nonzero absolute value, ties broken by
    lowest row then column index, which makes the output deterministic.
    Each step (`_pair`; Kannan-Bachem 1979, Cohen GTM 138 2.4) puts the
    gcd of the pivot and one entry of its column or row at the pivot and
    0 at the entry, so |pivot| only shrinks.  An entry right of and below
    the pivot that it does not divide has its row added to the pivot
    row, and the next column step shrinks the pivot again.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _mat_identity(nr)
    v = _mat_identity(nc)

    def rows_step(i, k, m):
        # rows i and k of a and u become m times them; an exact step,
        # ((1, 0), (-c, 1)), changes row k alone (every other step here
        # has f != 0)
        (e, f), (g, h) = m
        for w in (a, u):
            wi, wk = w[i], w[k]
            if f:
                w[i] = [e * p + f * q for p, q in zip(wi, wk)]
                w[k] = [g * p + h * q for p, q in zip(wi, wk)]
            else:
                w[k] = [q + g * p for p, q in zip(wi, wk)]

    def cols_step(j, k, m):
        # columns j and k of a and v become them times m transposed; an
        # exact step changes column k alone
        (e, f), (g, h) = m
        for w in (a, v):
            if f:
                for row in w:
                    p, q = row[j], row[k]
                    row[j], row[k] = e * p + f * q, g * p + h * q
            else:
                for row in w:
                    row[k] += g * row[j]

    for t in range(min(nr, nc)):
        best = min([(abs(x), i, j) for i in range(t, nr)
                    for j, x in enumerate(a[i][t:], t) if x], default=None)
        if best is None:
            break
        _, i, j = best
        if i != t:      # swap the pivot's row and column into place
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        if j != t:
            for row in chain(a, v):
                row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    rows_step(t, i, _pair(a[t][t], a[i][t]))
            for j in range(t + 1, nc):
                if a[t][j]:
                    cols_step(t, j, _pair(a[t][t], a[t][j]))
            if any([row[t] for row in a[t + 1:]]):
                continue
            p = a[t][t]
            for i in range(t + 1, nr):
                if any([x % p for x in a[i][t + 1:]]):
                    rows_step(t, i, ((1, 1), (0, 1)))
                    break
            else:
                break
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]

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
