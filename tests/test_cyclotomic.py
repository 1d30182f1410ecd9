import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from cyclotomic_oracle import Cyclotomic as Oracle
from cyclotomic_oracle import _reduce_mod_phi, _xgcd_poly, cramer_inverse
from fieldlin_oracle import determinant
from tgkz import cyclotomic, fieldlin
from tgkz.cyclotomic import Cyclotomic, cyclotomic_polynomial
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
    assert fieldlin.rank(rows) == 2


def test_fieldlin_in_span():
    one = Cyclotomic.one()
    two = Cyclotomic.rational(2)
    assert fieldlin.in_span([[one, two]], [two, two + two])
    assert not fieldlin.in_span([[one, two]], [one, one])


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


def test_exact_division_checks_raise_value_error_under_optimize():
    code = ("from tgkz.cyclotomic import _poly_divmod_int\n"
            "for num, den in (([1, 0, 1], [1, 1]), ([0, 1], [1, 2]), ([-1, 0, 1], [1, 1])):\n"
            "    try:\n        print(_poly_divmod_int(num, den))\n"
            "    except ValueError as exc:\n        print(exc)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "polynomial division leaves a remainder",  # x^2 + 1 = (x - 1)(x + 1) + 2
        "leading coefficient does not divide exactly",  # x by 2x + 1
        "[-1, 1]"]  # x^2 - 1 = (x - 1)(x + 1)
