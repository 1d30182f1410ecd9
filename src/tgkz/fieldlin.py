"""Exact linear algebra by row reduction: the library solves Fraction
systems only (the homogenizing functional, cyclotomic demotion); the test
oracles also reduce over Q(zeta), as any field type with +, -, *, / and
truth as nonzero works.  Nothing here mutates its inputs.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def solve(matrix_rows, rhs):
    """One solution x of M x = rhs, or None if inconsistent.

    Free variables are set to zero, which makes the output deterministic.
    """
    m = [list(r) + [b] for r, b in zip(matrix_rows, rhs)]
    if not m:
        return ()
    ncols = len(matrix_rows[0])
    red, pivots = rref(m)
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return tuple(x)


def solve_unique(matrix_rows, rhs):
    """The solution of M x = rhs if it exists and is unique, else None.

    One row reduction of [M | rhs]: a pivot in the rhs column means no
    solution, and the solution is unique iff every column of M has a pivot.
    """
    if not matrix_rows:
        return None
    ncols = len(matrix_rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(matrix_rows, rhs)])
    if pivots != list(range(ncols)):
        return None
    return tuple(red[r][ncols] for r in range(ncols))
