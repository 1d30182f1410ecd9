import ast
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lattice_oracle
from conftest import make_config
from fieldlin_oracle import determinant
from tgkz import lattice
from tgkz.cones import check_hypotheses
from tgkz.errors import SmithCheckError
from tgkz.lattice import (
    INFINITE,
    AbelianGroup,
    Functional,
    GroupElement,
    det,
    express_in_columns,
    hnf_rows,
    hnf_with_transform,
    is_hermite,
    kernel_basis,
    kernel_lattice,
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


def test_element_rejects_extra_or_missing_coordinates():
    g = AbelianGroup((2,), 1)
    for torsion, free in (((1, 1), (0,)), ((), (0,)), ((1,), (0, 0)), ((1,), ())):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            g.element(torsion, free)
    assert g.element([3], [5]) == GroupElement(g, (1,), (5,))


def test_det_bareiss_against_fraction_elimination():
    rng = random.Random(1968)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.2:  # a repeated row: singular
            rows[-1] = list(rows[0])
        assert det(rows) == determinant([[Fraction(x) for x in r] for r in rows])
    for bad in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="determinant of non-square matrix"):
            det(bad)


def test_torsion_elements_enumeration():
    g = AbelianGroup((2, 4), 1)
    elems = list(g.torsion_elements())
    assert len(elems) == 8
    assert elems[0].torsion == (0, 0)
    assert len({e.torsion for e in elems}) == 8


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_smith_normal_form_example():
    m = ((2, 4), (6, 8))
    s = smith_normal_form(m)
    assert s.invariant_factors == (2, 4)


def test_smith_identities_random():
    """U*M*V = D with unimodular U, V and a divisibility chain, on 500
    random matrices up to 5x5 with entries up to 20 in absolute value."""
    rng = random.Random(90125)
    for _ in range(500):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        s = smith_normal_form(m)
        prod = _matmul(_matmul(s.U, m), s.V)
        d = [[0] * c for _ in range(r)]
        for i, f in enumerate(s.invariant_factors):
            d[i][i] = f
        assert prod == d
        assert s.D == tuple(map(tuple, d))
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1
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
    lattice.smith_normal_form([[3, 1]])
except SmithCheckError as exc:
    print(exc.code, exc.context["shape"])
"""


def test_wrong_smith_transform_raises_typed_error(monkeypatch):
    monkeypatch.setattr(lattice, "_swap_cols", _swap_cols_forgetting_v)
    with pytest.raises(SmithCheckError) as exc:
        smith_normal_form([[3, 1]])
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
    assert kernel_basis([[1, 2]]) == ((2, -1),)
    assert kernel_basis([[1, 0], [0, 1]]) == ()


def test_kernel_basis_is_kernel_random():
    rng = random.Random(42)
    for _ in range(80):
        r = rng.randint(1, 3)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        ker = kernel_basis(rows)
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(c)) == 0
                       for row in rows)
        m_rank = len([x for x in smith_normal_form(rows).invariant_factors if x])
        assert len(ker) == c - m_rank


def test_kernel_lattice_with_torsion():
    # columns (1 mod 4, 1), (1 mod 4, 2): relations u with u1+2u2 = 0 and
    # u1+u2 = 0 mod 4, generated by (8, -4)
    g = AbelianGroup((4,), 1)
    cols = [g.element((1,), (1,)), g.element((1,), (2,))]
    ker = kernel_lattice(cols, g)
    assert ker == ((8, -4),)


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
        rows = kernel_lattice(columns, group)
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
        free = kernel_basis([[c.free[i] for c in columns] for i in range(d)])
        assert len(full) == len(free)  # ell * (free kernel) kills torsion, so ranks agree
        if not full:
            continue
        coords = [express_in_rows(row, free) for row in full]
        assert all(c is not None for c in coords)
        index = abs(determinant([[Fraction(x) for x in row] for row in coords]))
        ell = group.torsion_index
        assert index >= 1 and (Fraction(ell) ** len(full)) % index == 0


def _random_columns(rng):
    """(columns, group): torsion rank 0-2, free rank 0-3, one to four
    columns, with zero, repeated and parallel free parts."""
    orders = [(), (rng.choice([2, 3, 4, 6]),), (2, rng.choice([2, 4, 6]))][rng.randint(0, 2)]
    group = AbelianGroup(orders, rng.randint(0, 3))
    columns = []
    for _ in range(rng.randint(1, 4)):
        free = tuple(rng.randint(-3, 3) for _ in range(group.free_rank))
        if columns and rng.random() < 0.25:
            free = tuple(rng.choice([1, -1, 2]) * x for x in rng.choice(columns).free)
        columns.append(group.element([rng.randrange(o) for o in orders], free))
    return tuple(columns), group


def test_kernel_basis_matches_the_smith_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.choice([0, rng.randint(-6, 6)]) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:  # a dependent row
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        assert kernel_basis(rows) == lattice_oracle.kernel_basis(rows), rows


def test_column_lattices_match_the_smith_oracle():
    """kernel_lattice and lattice_index on 300 random (columns, group),
    every torsion rank 0-2 and free rank 0-3 among them."""
    rng = random.Random(1993)
    shapes = set()
    for _ in range(300):
        columns, group = _random_columns(rng)
        shapes.add((group.torsion_rank, group.free_rank))
        assert kernel_lattice(columns, group) == \
            lattice_oracle.kernel_lattice(columns, group), (columns, group)
        index = lattice_index(columns, group)
        expect = lattice_oracle.lattice_index(columns, group)
        assert index is expect if expect is INFINITE else index == expect, (columns, group)
    assert shapes == {(k, d) for k in range(3) for d in range(4)}


def test_spanning_test_matches_the_smith_oracle():
    rng = random.Random(31)
    seen = set()
    for _ in range(200):
        columns, group = _random_columns(rng)
        if not group.free_rank:
            continue
        config = make_config(group.torsion_orders, [(c.torsion, c.free) for c in columns])
        spans = check_hypotheses(config).spans
        assert spans == lattice_oracle.spans(config), config
        seen.add(spans)
    assert seen == {True, False}


def test_only_finite_quotient_enumerations_take_a_smith_form():
    """In src/tgkz, smith_normal_form is called only where a finite
    quotient is enumerated: the characters of the free kernel modulo the
    full kernel, and the residues of Z^d modulo a simplex."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "smith_normal_form":
                callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    src = Path(lattice.__file__).parent
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == {"_minimal_primes", "_box_base"}
