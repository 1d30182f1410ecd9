"""Gaussian-elimination determinant over any field, kept as a test-only
oracle for the closed-form character-table determinant of tgkz.duality and
for the Fraction cone and lattice checks.

Works with any coefficient type supporting +, -, *, / and == 0 comparison
(fractions.Fraction, Cyclotomic); the input rows are not mutated.
"""

from fractions import Fraction


def determinant(rows):
    """Exact determinant by Gaussian elimination (field coefficients)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of non-square matrix")
    det = None
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            first = m[0][0]
            return first - first  # a zero of the right coefficient type
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        det = m[c][c] if det is None else det * m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det if sign == 1 else -det
