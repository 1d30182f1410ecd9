import random
from collections import Counter
from fractions import Fraction

from fieldlin_oracle import rank
from tgkz import fieldlin


def _two_pass_solve_unique(matrix_rows, rhs):
    """The former definition: one solution, then a separate rank."""
    if not matrix_rows:
        return None
    x = fieldlin.solve(matrix_rows, rhs)
    if x is None or rank(matrix_rows) != len(matrix_rows[0]):
        return None
    return x


def test_solve_unique_matches_two_pass_definition():
    """Seeded random Fraction systems up to 4x4, square and not, with
    dependent rows forced in: unique, singular-consistent and inconsistent
    systems all occur and agree with the two-pass definition."""
    rng = random.Random(4417)
    kinds = Counter()
    for _ in range(600):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:
            rows[-1] = [2 * x for x in rows[0]]
        rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(nrows)]
        got = fieldlin.solve_unique(rows, rhs)
        assert got == _two_pass_solve_unique(rows, rhs)
        if fieldlin.solve(rows, rhs) is None:
            kinds["inconsistent"] += 1
        elif got is None:
            kinds["not unique"] += 1
        else:
            kinds["unique"] += 1
            assert all(sum(a * x for a, x in zip(row, got)) == b
                       for row, b in zip(rows, rhs))
    assert min(kinds[k] for k in ("inconsistent", "not unique", "unique")) >= 50
    assert fieldlin.solve_unique([], []) is None
    assert fieldlin.solve_unique([[]], [Fraction(0)]) == ()
    assert fieldlin.solve_unique([[]], [Fraction(1)]) is None
