import ast
import importlib
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import cyclotomic_oracle
from cyclotomic_oracle import Cyclotomic as Oracle
from cyclotomic_oracle import _reduce_mod_phi, _xgcd_poly, cramer_inverse
from fieldlin_oracle import determinant, in_span, rank
import tgkz
from tgkz import cyclotomic, fieldlin
from tgkz.cyclotomic import Cyclotomic, cyclotomic_polynomial
from tgkz.poly import parse_scalar
from tgkz.lattice import det


def test_rational_arithmetic():
    a = Cyclotomic.rational(Fraction(1, 2))
    b = Cyclotomic.rational(Fraction(1, 3))
    assert (a + b).rational_value() == Fraction(5, 6)
    assert (a * b).rational_value() == Fraction(1, 6)
    assert (a - a).is_zero()
    assert a.inverse().rational_value() == 2


def test_zeta_powers_cycle():
    i = Cyclotomic.zeta(4)
    assert (i * i).rational_value() == -1
    assert (i * i * i * i).is_one()
    assert i.inverse() * i == Cyclotomic.one()


def test_zeta8_squares_to_zeta4():
    z8 = Cyclotomic.zeta(8)
    z4 = Cyclotomic.zeta(4)
    assert z8 * z8 == Cyclotomic.coerce(z4)
    # primitive 8th root is not rational and has no rational square
    assert not z8.is_rational()


def test_mixed_order_promotion():
    z2 = Cyclotomic.zeta(2)     # -1
    z3 = Cyclotomic.zeta(3)
    s = z2 + z3
    assert (s - z3).rational_value() == -1
    # 1 + z3 + z3^2 = 0
    assert (Cyclotomic.one() + z3 + z3 * z3).is_zero()


def test_unit_rational_form():
    z = Cyclotomic.zeta(4)
    half_i = Cyclotomic.rational(Fraction(1, 2)) * z
    form = half_i.unit_rational_form()
    assert form is not None
    q, k = form
    assert q == Fraction(1, 2)
    assert Cyclotomic.rational(q, half_i.order) * Cyclotomic.zeta(half_i.order, k) == half_i
    mixed = Cyclotomic.one() + z
    assert mixed.unit_rational_form() is None


def test_to_text_round_values():
    assert Cyclotomic.rational(Fraction(-3, 2)).to_text() == "-3/2"
    assert Cyclotomic.zeta(4).to_text() == "zeta(4)"
    assert (Cyclotomic.rational(2) * Cyclotomic.zeta(4)).to_text() == "2*zeta(4)"


def test_fieldlin_solve_and_rank_over_cyclotomics():
    i = Cyclotomic.zeta(4)
    one = Cyclotomic.one()
    rows = [[one, i], [i, one]]
    assert determinant(rows) == one - i * i  # 1 - i^2 = 2
    sol = fieldlin.solve_unique(rows, [one, one])
    # x + i y = 1, i x + y = 1 -> x = y = 1/(1+i)
    s = sol[0]
    assert (s * (one + i)).is_one()
    assert rank(rows) == 2


def test_fieldlin_in_span():
    one = Cyclotomic.one()
    two = Cyclotomic.rational(2)
    assert in_span([[one, two]], [two, two + two])
    assert not in_span([[one, two]], [one, one])


def _poly_divide(num, den):
    """Exact division of coefficient lists (ascending powers)."""
    num = list(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quot[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    assert all(c == 0 for c in num)
    return quot


def _cyclotomic_coeffs(e):
    # x^e - 1 factors as the product of the cyclotomic polynomials of the divisors
    num = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divide(num, _cyclotomic_coeffs(d))
    return num


def test_zeta_is_root_of_its_cyclotomic_polynomial():
    for e in range(1, 13):
        z = Cyclotomic.zeta(e)
        acc = Cyclotomic.zero(e)
        power = Cyclotomic.one(e)
        for c in _cyclotomic_coeffs(e):
            acc = acc + power * Cyclotomic.rational(c)
            power = power * z
        assert acc.is_zero()


def test_zeta_power_multiplicative_order():
    for e in range(1, 13):
        for k in range(e):
            z = Cyclotomic.zeta(e, k)
            power, m = z, 1
            while not power.is_one():
                power = power * z
                m += 1
                assert m <= e
            assert m == e // gcd(e, k)


def _xgcd_inverse(x):
    """Inverse by extended Euclid against Phi_e, the path for any element."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(x.order)]
    g, s, _ = _xgcd_poly(list(x.coeffs), phi)
    return _reduce_mod_phi([c / g[0] for c in s], x.order)


def _convolution(a, b):
    """Product of two elements of one order: full convolution, then mod Phi_e."""
    out = [Fraction(0)] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return _reduce_mod_phi(out, a.order)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 8, 12])
def test_rational_fast_paths_match_generic_arithmetic(e):
    rng = random.Random(e)
    deg = len(cyclotomic_polynomial(e)) - 1
    for q in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-22, 5)):
        x = Cyclotomic.rational(q, e)
        assert x.inverse().coeffs == _xgcd_inverse(x)
        y = Cyclotomic(e, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(deg)])
        assert (x * y).coeffs == _convolution(x, y)
        assert (y * x).coeffs == _convolution(y, x)
        # a rational of order 1 is lifted to Q(zeta_e) first
        low = Cyclotomic.rational(q)
        assert (low * y).coeffs == _convolution(low.lift(e), y)
        assert (y * low).coeffs == _convolution(y, low.lift(e))


def test_demotion_cache_is_bounded_and_eviction_keeps_results():
    # multiples of zeta(12)^k demote to the smallest order whose field holds
    # them (Q(zeta_6) = Q(zeta_3)); rationals demote to order 1
    values = [Cyclotomic.zeta(12, k) * Fraction(k + 1, 3) for k in range(12)]
    values += [Cyclotomic.rational(Fraction(5, 2), 8), Cyclotomic.zeta(4).lift(8)]
    before = [(d.order, d.coeffs) for d in (x.demoted() for x in values)]
    assert [order for order, _ in before] == [1, 12, 3, 4, 3, 12, 1, 12, 3, 4, 3, 12, 1, 4]
    size = cyclotomic._demote.cache_info().maxsize
    for k in range(size + 1):  # as many fresh keys as the cache holds, and one more
        Cyclotomic.rational(Fraction(k, 7919), 6).demoted()
    assert cyclotomic._demote.cache_info().currsize == size
    after = [(d.order, d.coeffs) for d in (x.demoted() for x in values)]
    assert after == before


# ---------------------------------------------------------------------------
# differential test against the Fraction-tuple kernel (tests/cyclotomic_oracle.py)

ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def _random_coeffs(rng, e):
    """Power-basis coordinates of a random element of Q(zeta_e): zero, a
    rational, q * zeta^k, an element of a subfield, or a general one."""
    deg = len(cyclotomic_polynomial(e)) - 1
    q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))
    kind = rng.randrange(5)
    if kind == 0:
        return [Fraction(0)] * deg
    if kind == 1:
        return [q] + [Fraction(0)] * (deg - 1)
    if kind == 2:
        return list((Oracle.zeta(e, rng.randrange(e)) * q).coeffs)
    if kind == 3:
        d = rng.choice([d for d in ORACLE_ORDERS if e % d == 0])
        return list(Oracle(d, _random_coeffs(rng, d)).lift(e).coeffs)
    return [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 4, 6, 9, 35]))
            for _ in range(deg)]


def _random_pair(rng):
    """The same random element as (Cyclotomic, oracle)."""
    e = rng.choice(ORACLE_ORDERS)
    coeffs = _random_coeffs(rng, e)
    return Cyclotomic(e, coeffs), Oracle(e, coeffs)


def _assert_same(x, expected):
    assert isinstance(x, Cyclotomic)
    assert (x.order, x.coeffs) == (expected.order, expected.coeffs)
    # canonical form: positive denominator, coprime to the numerators, 0 = 0/1
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert any(x.num) or x.den == 1


def test_arithmetic_matches_the_fraction_kernel():
    rng = random.Random(20240207)
    scalars = [0, 1, -1, 3, Fraction(1, 2), Fraction(-7, 3)]
    for _ in range(150):
        (a, oa), (b, ob) = _random_pair(rng), _random_pair(rng)
        _assert_same(a + b, oa + ob)
        _assert_same(a - b, oa - ob)
        _assert_same(a * b, oa * ob)
        _assert_same(-a, -oa)
        assert (a == b) == (oa == ob)
        s = rng.choice(scalars)
        _assert_same(a + s, oa + s)
        _assert_same(s - a, s - oa)
        _assert_same(a * s, oa * s)
        _assert_same(s * a, s * oa)
        for k in (0, 1, 2, 3):
            _assert_same(a ** k, oa ** k)
        if not oa.is_zero():
            _assert_same(a.inverse(), oa.inverse())
            _assert_same(Fraction(2, 3) / a, Fraction(2, 3) / oa)
            _assert_same(b / a, ob / oa)
            for k in (-1, -2, -3):
                _assert_same(a ** k, oa ** k)
        for m in (1, 2, 3):
            _assert_same(a.lift(m * a.order), oa.lift(m * oa.order))
        for s in scalars + [oa.coeffs[0], -oa.coeffs[0]]:
            assert (a == s) == (oa == s)
            assert (a == Cyclotomic.rational(s)) == (oa == Oracle.rational(s))
        assert hash(a) == hash(oa)
        _assert_same(a.demoted(), oa.demoted())
        assert a.to_text() == oa.to_text()
        assert a.unit_rational_form() == oa.unit_rational_form()
        assert (a.is_zero(), a.is_rational(), a.is_one(), bool(a), a.rational_value()) == \
            (oa.is_zero(), oa.is_rational(), oa.is_one(), bool(oa), oa.rational_value())


@pytest.mark.parametrize("e", [3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 31, 36,
                               45, 60, 61, 97])
def test_norm_inverse_matches_cramer_oracle(e):
    """The Galois-norm inverse against Cramer's rule on the multiplication
    matrix, on seeded random elements with small and large coordinates.
    At order 97 the phi(e) + 1 determinants of the full rule take about
    15 s on a 2-vCPU machine, so there only the norm, its first
    determinant, is compared, and x * (1/x) = 1 fixes the rest."""
    rng = random.Random(e)
    deg = len(cyclotomic_polynomial(e)) - 1
    for size in (40, 3, 1) if e < 40 else (1,):
        x = Cyclotomic(e, [Fraction(rng.randint(-size, size), rng.randint(1, 4))
                           for _ in range(deg)])
        if x.is_zero():
            continue
        y = x.inverse()
        assert (x * y).is_one()
        if e < 97:
            _assert_same(y, cramer_inverse(x))
            continue
        rows = [cyclotomic._reduce_mod_phi((0,) * j + x.num, e) for j in range(deg)]
        conj = cyclotomic._conjugate_product(x.num, e)
        assert (conj * Cyclotomic(e, x.num)).rational_value() == det(rows)


def test_rational_elements_hash_as_the_numbers_they_equal():
    for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 4)):
        for order in (1, 4, 6, 12):
            x = Cyclotomic.rational(q, order)
            assert x == q and hash(x) == hash(q)
            assert {q: "x"}.get(x) == "x" and {x: "x"}.get(q) == "x"
    assert hash(Cyclotomic.one()) == hash(1) and {1: "one"}[Cyclotomic.one(8)] == "one"
    # zeta_4^2 = -1 was promoted by arithmetic; zeta_6 + zeta_6^5 = 1
    assert hash(Cyclotomic.zeta(4) ** 2) == hash(-1)
    assert hash(Cyclotomic.zeta(6) + Cyclotomic.zeta(6, 5)) == hash(1)
    # a non-rational element still hashes as its demoted form
    lifted = Cyclotomic.zeta(4).lift(12)
    assert lifted == Cyclotomic.zeta(4) and hash(lifted) == hash(Cyclotomic.zeta(4))


def test_negative_rational_inverts_to_a_positive_denominator():
    x = Cyclotomic.rational(Fraction(-4, 6), 8).inverse()
    assert (x.num, x.den) == ((-3, 0, 0, 0), 2)
    assert Cyclotomic.rational(-5).inverse().den == 5


def test_constructor_checks_coordinate_count_under_optimize():
    code = ("from tgkz.cyclotomic import Cyclotomic\n"
            "try:\n    Cyclotomic(4, [1])\n"
            "except ValueError as exc:\n    print(exc)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "Q(zeta_4) takes 2 coordinates, got 1\n"


def test_api_checks_raise_value_error_under_optimize():
    code = ("from tgkz.cyclotomic import Cyclotomic\n"
            "from tgkz.poly import groebner_ideal, intersect, intersect_many, parse_polynomial\n"
            "one = groebner_ideal([parse_polynomial('d1', 1)])\n"
            "two = groebner_ideal([parse_polynomial('d1', 2)])\n"
            "for call in (lambda: Cyclotomic.zeta(4).lift(6), lambda: intersect(one, two),\n"
            "             lambda: intersect_many([])):\n"
            "    try:\n        call()\n"
            "    except ValueError as exc:\n        print(exc)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "Q(zeta_4) does not embed in Q(zeta_6)",
        "ideals in different rings: 1 and 2 variables",
        "intersection of no ideals"]


def test_cyclotomic_polynomial_matches_recursive_division():
    for e in list(range(1, 400)) + [2310]:
        assert cyclotomic_polynomial(e) == cyclotomic_oracle.cyclotomic_polynomial(e), e
    with pytest.raises(ValueError, match="order must be >= 1"):
        cyclotomic_polynomial(0)


def test_unit_rational_form_matches_the_loop_oracle():
    """Tagged and untagged q * zeta_e^k and non-units, against the loop of
    one product per k, at every order to 60 and at 97, 120 and 210."""
    rng = random.Random(4620)
    count = 0
    for e in list(range(1, 61)) + [97, 120, 210]:
        for _ in range(4):
            k = rng.randrange(e)
            root = Cyclotomic.zeta(e, k) * rng.choice([1, -1])
            q = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
            scaled = Cyclotomic(e, (root * q).coeffs)  # untagged
            other = Cyclotomic(e, _random_coeffs(rng, e))
            for x in (root, scaled, other):
                assert x.unit_rational_form() == cyclotomic_oracle.unit_rational_form(x), x
                count += 1
    assert count == 4 * 3 * 63


def test_unit_rational_form_makes_one_root_at_most():
    x = parse_scalar("2*zeta(2310)^2000")
    assert x.root is None
    misses = cyclotomic._signed_root.cache_info().misses
    assert x.unit_rational_form() == (-2, 845)
    assert cyclotomic._signed_root.cache_info().misses - misses <= 1


def test_parsed_roots_keep_their_tag(monkeypatch):
    """A parsed signed power of zeta stays tagged, and its form is read off
    the tag, with no product, as the untagged stepping path finds it."""
    cases = (("-zeta(12)^7", (1, 1)), ("zeta(12)^9", (-1, 3)), ("-zeta(7)^3", (-1, 3)),
             ("zeta(2)", (-1, 0)), ("-1", (-1, 0)), ("zeta(4620)^4000", (-1, 1690)),
             ("-zeta(30)^29", (1, 14)), ("zeta(15015)^5760", (1, 5760)))
    roots = [parse_scalar(text) for text, _ in cases]
    for x, (text, form) in zip(roots[:-1], cases):
        assert Cyclotomic(x.order, x.coeffs).unit_rational_form() == form, text
    monkeypatch.setattr(Cyclotomic, "__mul__", None)
    for x, (text, form) in zip(roots, cases):
        assert x.root is not None, text
        assert x.unit_rational_form() == form, text


def test_root_of_many_small_primes_reads_its_tag_in_time():
    # zeta(15015)^5760 stepped by zeta about 9,000 times through dense
    # products in Q(zeta_15015) when the parser dropped its tag
    code = ("from tgkz.poly import parse_scalar\n"
            "print(parse_scalar('zeta(15015)^5760').unit_rational_form())\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=10)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "(Fraction(1, 1), 5760)\n"


# ---------------------------------------------------------------------------
# signed roots of unity: the tagged fast paths against the oracle

ROOT_ORDERS = tuple(range(1, 41)) + (60, 97)


def _signed_roots(e):
    """(tagged, oracle) for s * zeta_e^k, every k and s = +-1."""
    out = []
    for k in range(e):
        z, oz = Cyclotomic.zeta(e, k), Oracle.zeta(e, k)
        out += [(z, oz), (-z, -oz)]
    return out


def _assert_root(x):
    """x is tagged, and its form is that of the element built untagged."""
    assert x.root is not None
    untagged = Cyclotomic(x.order, x.coeffs)
    assert untagged.root is None
    assert (x.order, x.num, x.den) == (untagged.order, untagged.num, untagged.den)


def _partner_orders(e):
    """Orders other than e whose lcm with e keeps the oracle's products cheap."""
    return [d for d in ROOT_ORDERS if d != e and e * d // gcd(e, d) <= 120]


@pytest.mark.parametrize("e", ROOT_ORDERS)
def test_signed_roots_match_the_oracle(e):
    """Every +-zeta_e^k through the tagged operations, against the
    Fraction-tuple kernel.  The oracle's demotion solves a linear system
    per divisor of e, its unit_rational_form takes up to e products and its
    inverse at order 97 an extended Euclid on dense degree-96 polynomials,
    so a seeded sample of eight roots per order goes through every
    operation, all roots through negation, products, sums and, below order
    97, inverses, and every zeta_e^k through demotion."""
    rng = random.Random(e)
    roots = _signed_roots(e)
    sample = rng.sample(roots, min(8, len(roots)))
    inverses = {}

    def inverse(ox):  # the oracle's, once per root
        if ox.coeffs not in inverses:
            inverses[ox.coeffs] = ox.inverse()
        return inverses[ox.coeffs]

    for x, ox in roots:
        _assert_same(x, ox)
        _assert_root(x)
        _assert_same(-x, -ox)
        _assert_root(-x)
        y, oy = rng.choice(roots)
        _assert_same(x * y, ox * oy)
        _assert_root(x * y)
        assert (x == y) == (ox == oy)
        if e < 97:
            _assert_same(x.inverse(), inverse(ox))
            _assert_same(x / y, ox * inverse(oy))
        coeffs = _random_coeffs(rng, e)
        u, ou = Cyclotomic(e, coeffs), Oracle(e, coeffs)
        _assert_same(x + u, ox + ou)
        _assert_same(u - x, ou - ox)
    for x, ox in roots[::2] + sample:
        _assert_same(x.demoted(), ox.demoted())
        _assert_root(x.demoted())
    partners = _partner_orders(e)
    for x, ox in sample:
        _assert_same(x.inverse(), inverse(ox))
        _assert_root(x.inverse())
        assert x.to_text() == ox.to_text()
        assert hash(x) == hash(ox)
        assert x.unit_rational_form() == ox.unit_rational_form()
        y, oy = x.lift(2 * e), ox.lift(2 * e)
        _assert_same(y, oy)
        _assert_root(y)
        power = Oracle.one(e)
        for n in range(6):
            _assert_same(x ** n, power)
            _assert_root(x ** n)
            power = power * ox
        power = inverse(ox)
        for n in (-1, -2, -3):
            _assert_same(x ** n, power)
            power = power * inverse(ox)
        if partners:
            d = rng.choice(partners)
            k = rng.randrange(d)
            y, oy = Cyclotomic.zeta(d, k), Oracle.zeta(d, k)
            _assert_same(x * y, ox * oy)
            _assert_root(x * y)
            _assert_same(y / x, oy * inverse(ox))
            assert (x == y) == (ox == oy)


def test_rational_units_are_tagged_roots():
    for order in (1, 2, 3, 4, 9):
        assert Cyclotomic.one(order).root == (1, 0)
        assert Cyclotomic.rational(Fraction(-1), order) == -1
        assert Cyclotomic.rational(-1, order).root == ((1, order // 2) if order % 2 == 0
                                                      else (-1, 0))
    assert Cyclotomic.rational(2, 4).root is None and Cyclotomic.zero(4).root is None
    # one memo entry per root: -zeta_e^k is zeta_e^(k + e/2) for even e
    assert -Cyclotomic.zeta(6, 1) is Cyclotomic.zeta(6, 4) is Cyclotomic.zeta(6, -2)
    assert (-Cyclotomic.zeta(5, 1)).root == (-1, 1)
    # a root reached by sums stays untagged, and equal to the tagged one
    i = Cyclotomic.zeta(4)
    assert (i + i - i).root is None and i + i - i == i
    assert hash(i + i - i) == hash(i)


def test_root_memo_holds_only_the_roots_asked_for():
    # a table of all the powers of order 10007 would hold 10007 * 10006 integers
    cyclotomic._signed_root.cache_clear()
    ks = (0, 1, 77, 10006)
    for k in ks:
        z = Cyclotomic.zeta(10007, k)
        assert Cyclotomic.zeta(10007, k + 10007) is z
    assert cyclotomic._signed_root.cache_info().currsize == len(ks)
    assert (Cyclotomic.zeta(10007, 77) ** -1).root == (1, 10007 - 77)
    assert cyclotomic._signed_root.cache_info().currsize == len(ks) + 1
    size = cyclotomic._signed_root.cache_info().maxsize
    assert size is not None and size <= 4096


# ---------------------------------------------------------------------------
# tooling: the root memo shares its objects, so nothing may mutate one


def _slot_writers(tree):
    """Qualified names of the functions ("<module>" at top level) that
    assign, augment or delete an attribute named like a Cyclotomic slot, or
    set or delete one by name with setattr, delattr or __setattr__."""
    slots = set(Cyclotomic.__slots__)
    writers = set()

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def leaves(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for item in target.elts:
                yield from leaves(item)
        elif isinstance(target, ast.Starred):
            yield from leaves(target.value)
        else:
            yield target

    def by_name(node):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            return False
        name = node.args[1]
        func = node.func
        return (isinstance(name, ast.Constant) and name.value in slots
                and (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
                     or isinstance(func, ast.Attribute)
                     and func.attr in ("__setattr__", "__delattr__")))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (by_name(child) or any(isinstance(leaf, ast.Attribute) and leaf.attr in slots
                                      for t in targets(child) for leaf in leaves(t))):
                writers.add(scope or "<module>")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return writers


def test_cyclotomic_slots_are_written_only_by_the_constructors():
    modules = [tgkz] + [importlib.import_module(f"tgkz.{info.name}")
                        for info in pkgutil.iter_modules(tgkz.__path__)]
    writers = {(module.__name__, name) for module in modules
               for name in _slot_writers(ast.parse(Path(module.__file__).read_text(
                   encoding="utf-8")))}
    assert writers == {("tgkz.cyclotomic", "Cyclotomic.__init__"), ("tgkz.cyclotomic", "_raw")}
    # the check itself sees each kind of write
    for source, where in (("def f(x):\n    x.root = None", "f"),
                          ("class C:\n    def g(self, x):\n        x.num += (1,)", "C.g"),
                          ("a, (b.den, c) = 1, (2, 3)", "<module>"),
                          ("def f(x):\n    del x.num", "f"),
                          ("def f(x):\n    object.__setattr__(x, 'root', (1, 0))", "f"),
                          ("def f(x):\n    setattr(x, 'den', 2)", "f")):
        assert _slot_writers(ast.parse(source)) == {where}, source
    assert _slot_writers(ast.parse("def f(x):\n    x.terms = {}\n    return x.num")) == set()
