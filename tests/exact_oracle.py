"""The Fraction Gauss-Jordan solver the package used before its one
fraction-free elimination (``lattice.solve_bareiss``), kept verbatim as
an independent reference for the tests.

`bareiss_echelon_eager` is that elimination as it was before it left
alone the rows a pivot does not reach: it updates every row below the
pivot at every step, dividing by the previous pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from troplag.errors import WorkbenchError


@dataclass(frozen=True)
class SolveResult:
    status: str                 # "unique" | "none" | "underdetermined"
    solution: tuple | None
    kernel: tuple               # basis of the homogeneous solution space
    det: Fraction | None        # exact determinant when the matrix is square

    @property
    def unique(self):
        return self.status == "unique"


def solve_exact(rows, rhs) -> SolveResult:
    """Gaussian elimination over Q.

    Returns the unique solution, reports inconsistency, or returns a
    kernel basis together with one particular solution.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(rhs) != nr:
        raise WorkbenchError("DIMENSION_MISMATCH",
                             f"{nr} rows versus {len(rhs)} right-hand sides")
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(rows)]

    det = Fraction(1) if nr == nc else None
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            if det is not None:
                det = Fraction(0)
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            if det is not None:
                det = -det
        if det is not None:
            det *= a[r][c]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if det is not None and r < nr:
        det = Fraction(0)

    for i in range(r, nr):
        if a[i][nc] != 0:
            return SolveResult("none", None, (), det)

    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = a[i][nc]

    free = [c for c in range(nc) if c not in pivots]
    kernel = []
    for fc in free:
        k = [Fraction(0)] * nc
        k[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            k[c] = -a[i][fc]
        kernel.append(tuple(k))

    if free:
        return SolveResult("underdetermined", tuple(x), tuple(kernel), det)
    return SolveResult("unique", tuple(x), (), det)


def bareiss_echelon_eager(a, ncols):
    """Fraction-free row echelon form of the row lists ``a``, in place,
    in the first ``ncols`` columns; (pivot columns, row-swap sign)."""
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
