import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fieldlin_oracle import determinant
from tgkz import lattice
from tgkz.errors import SmithCheckError
from tgkz.lattice import (
    INFINITE,
    AbelianGroup,
    Functional,
    GroupElement,
    IntMatrix,
    express_in_columns,
    hnf_rows,
    hnf_with_transform,
    is_hermite,
    kernel_basis,
    kernel_lattice,
    kernel_lattice_free,
    lattice_index,
    smith_normal_form,
)


def test_group_element_arithmetic():
    g = AbelianGroup((4,), 1)
    a = g.element((3,), (2,))
    b = g.element((2,), (5,))
    assert (a + b).torsion == (1,)
    assert (a + b).free == (7,)
    assert (a - b).torsion == (1,)
    assert (a - b).free == (-3,)
    assert g.element((7,), (0,)).torsion == (3,)


def test_torsion_elements_enumeration():
    g = AbelianGroup((2, 4), 1)
    elems = list(g.torsion_elements())
    assert len(elems) == 8
    assert elems[0].torsion == (0, 0)
    assert len({e.torsion for e in elems}) == 8


def test_smith_normal_form_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    assert s.invariant_factors == (2, 4)


def test_smith_identities_random():
    """U*M*V = D with unimodular U, V and a divisibility chain, on 500
    random matrices up to 5x5 with entries up to 20 in absolute value."""
    rng = random.Random(90125)
    for _ in range(500):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        s = smith_normal_form(m)
        prod = s.U.mul(m).mul(s.V)
        d = [[0] * c for _ in range(r)]
        for i, f in enumerate(s.invariant_factors):
            d[i][i] = f
        assert prod.to_rows() == d
        assert abs(s.U.det()) == 1
        assert abs(s.V.det()) == 1
        facs = s.invariant_factors
        assert all(f > 0 for f in facs)
        assert all(facs[i + 1] % facs[i] == 0 for i in range(len(facs) - 1))



def _swap_cols_forgetting_v(a, v, i, j):
    for r in a:
        r[i], r[j] = r[j], r[i]


# a Smith reduction whose column swaps never reach V, under python -O
WRONG_TRANSFORM = """
from tgkz import lattice
from tgkz.errors import SmithCheckError
def swap_a_only(a, v, i, j):
    for r in a:
        r[i], r[j] = r[j], r[i]
lattice._swap_cols = swap_a_only
try:
    lattice.smith_normal_form(lattice.IntMatrix.from_rows([[3, 1]]))
except SmithCheckError as exc:
    print(exc.code, exc.context["shape"])
"""


def test_wrong_smith_transform_raises_typed_error(monkeypatch):
    monkeypatch.setattr(lattice, "_swap_cols", _swap_cols_forgetting_v)
    with pytest.raises(SmithCheckError) as exc:
        smith_normal_form(IntMatrix.from_rows([[3, 1]]))
    assert exc.value.code == "SNF_CHECK_FAILED"
    assert exc.value.context == {"shape": (1, 2)}
    res = subprocess.run([sys.executable, "-O", "-c", WRONG_TRANSFORM],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "SNF_CHECK_FAILED (1, 2)\n"

def test_hnf_rows_canonical():
    rows = hnf_rows([[2, 4], [6, 8]])
    again = hnf_rows(list(reversed(rows)) + [list(rows[0])])
    assert rows == again
    # pivots positive, entries above reduced
    assert rows[0][0] > 0


def test_kernel_basis_simple():
    assert kernel_basis(IntMatrix.from_rows([[1, 2]])).to_rows() == [[2, -1]]
    assert kernel_basis(IntMatrix.from_rows([[1, 0], [0, 1]])).rows == 0


def test_kernel_basis_is_kernel_random():
    rng = random.Random(42)
    for _ in range(80):
        r = rng.randint(1, 3)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        ker = kernel_basis(IntMatrix.from_rows(rows)).to_rows()
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(c)) == 0
                       for row in rows)
        m_rank = len([x for x in smith_normal_form(
            IntMatrix.from_rows(rows)).invariant_factors if x])
        assert len(ker) == c - m_rank


def test_kernel_lattice_with_torsion():
    # columns (1 mod 4, 1), (1 mod 4, 2): relations u with u1+2u2 = 0 and
    # u1+u2 = 0 mod 4, generated by (8, -4)
    g = AbelianGroup((4,), 1)
    cols = [g.element((1,), (1,)), g.element((1,), (2,))]
    ker = kernel_lattice(cols, g)
    assert ker.to_rows() == [[8, -4]]


def test_lattice_index_values():
    g = AbelianGroup((4,), 1)
    cols = [g.element((1,), (1,)), g.element((1,), (2,))]
    assert lattice_index(cols, g) == 1

    g2 = AbelianGroup((), 1)
    assert lattice_index([g2.element((), (2,))], g2) == 2
    assert lattice_index([g2.element((), (0,))], g2) is INFINITE


def express_in_rows(v, rows):
    """Integer coefficients c with sum(c_i * rows_i) = v, or None: a
    reference that reduces the rows afresh on every call."""
    return lattice._untransform(v, *hnf_with_transform(rows))


def test_express_in_rows():
    assert express_in_rows([4, 6], [[2, 0], [0, 3]]) == (2, 2)
    assert express_in_rows([1, 0], [[2, 0], [0, 3]]) is None


def test_is_hermite_exactly_when_rows_are_their_own_hnf():
    assert is_hermite(((2, -1),)) and is_hermite(())
    assert not is_hermite(((-2, 1),)) and not is_hermite(((0, 0),))
    assert not is_hermite(((1, 2), (0, 3), (0, 1)))
    rng = random.Random(11)
    for _ in range(300):
        rows = [tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))]
        rows += [tuple(rng.choice([0, 0, rng.randint(-3, 3)]) for _ in rows[0])
                 for _ in range(rng.randint(0, 2))]
        assert is_hermite(rows) == (tuple(hnf_rows(rows)) == tuple(rows))
        assert is_hermite(hnf_rows(rows))


def test_express_in_columns_with_torsion():
    g = AbelianGroup((4,), 1)
    cols = [g.element((1,), (1,)), g.element((1,), (2,))]
    for target in (g.element((2,), (1,)), g.element((3,), (0,)), g.zero()):
        w = express_in_columns(cols, g, target)
        assert sum((x * c for x, c in zip(w, cols)), g.zero()) == target
    # columns of even torsion never reach an odd torsion part
    even = [g.element((2,), (1,)), g.element((0,), (1,))]
    assert express_in_columns(even, g, g.element((1,), (0,))) is None


def test_functional_on_elements_and_vectors():
    g = AbelianGroup((2,), 2)
    tau = Functional.of([1, -2])
    assert tau((3, 1)) == 1
    assert tau(g.element((1,), (3, 1))) == 1
    assert tau.free_part == (Fraction(1), Fraction(-2))


def test_as_int_tuple_refuses_non_integral_functional():
    # an if, not an assert: python -O must not truncate 3/2 to 1
    assert Functional.of([3, -2]).as_int_tuple() == (3, -2)
    with pytest.raises(ValueError, match="not integral"):
        Functional.of([Fraction(3, 2), 1]).as_int_tuple()


def test_sort_key_orders_free_then_torsion():
    g = AbelianGroup((2,), 1)
    a = g.element((1,), (0,))
    b = g.element((0,), (1,))
    assert sorted([b, a], key=lambda e: e.sort_key())[0] is a


def test_kernel_lattice_contains_every_small_syzygy():
    # scan the |v_j| <= 10 box: v sums to zero in the group iff it is in the row span
    cases = [
        ([2], [((1,), (1,)), ((1,), (3,))]),
        ([4], [((1,), (1,)), ((1,), (2,))]),
        ([], [((), (2,)), ((), (3,))]),
    ]
    for orders, cols in cases:
        group = AbelianGroup(tuple(orders), len(cols[0][1]))
        columns = tuple(group.element(t, f) for t, f in cols)
        rows = kernel_lattice(columns, group).to_rows()
        for v in itertools.product(range(-10, 11), repeat=len(columns)):
            total = columns[0] * v[0]
            for c, vj in zip(columns[1:], v[1:]):
                total = total + c * vj
            assert total.is_zero() == (express_in_rows(list(v), rows) is not None)


def test_kernel_lattice_index_divides_torsion_power():
    rng = random.Random(7)
    for _ in range(40):
        orders = [rng.choice([2, 3, 4])] if rng.random() < 0.7 else []
        d = rng.choice([1, 2])
        n = rng.choice([2, 3])
        group = AbelianGroup(tuple(orders), d)
        columns = tuple(
            group.element(tuple(rng.randrange(o) for o in orders),
                          tuple(rng.randint(-2, 3) for _ in range(d)))
            for _ in range(n))
        full = kernel_lattice(columns, group)
        free = kernel_lattice_free(columns, group)
        assert full.rows == free.rows  # ell * (free kernel) kills torsion, so ranks agree
        if full.rows == 0:
            continue
        coords = [express_in_rows(full.row(i), free.to_rows())
                  for i in range(full.rows)]
        assert all(c is not None for c in coords)
        index = abs(determinant([[Fraction(x) for x in row] for row in coords]))
        ell = group.torsion_index
        assert index >= 1 and (Fraction(ell) ** full.rows) % index == 0
