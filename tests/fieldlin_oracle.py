"""Gaussian-elimination determinant, rank and span test over any field,
kept as test-only oracles: the determinant for the closed-form
character-table determinant of tgkz.duality and for the Fraction cone and
lattice checks; rank and in_span, the former tgkz.fieldlin row reduction
over Q(zeta), for the integer-normal arrangement test of tgkz.cones.

Works with any coefficient type supporting +, -, *, / and == 0 comparison
(fractions.Fraction, Cyclotomic); the input rows are not mutated.
"""

from fractions import Fraction

from tgkz.fieldlin import rref


def rank(rows) -> int:
    return len(rref(rows)[1])


def in_span(vectors, target) -> bool:
    """Is target a linear combination of the given vectors (over the field)?"""
    vecs = [list(v) for v in vectors]
    if all(x == 0 for x in target):
        return True
    if not vecs:
        return False
    base = rank(vecs)
    return rank(vecs + [list(target)]) == base


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
