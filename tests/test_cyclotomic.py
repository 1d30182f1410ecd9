import random
from fractions import Fraction
from math import gcd

import pytest

from tgkz import cyclotomic, fieldlin
from tgkz.cyclotomic import (Cyclotomic, _reduce_mod_phi, _xgcd_poly,
                             cyclotomic_polynomial)


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
    assert fieldlin.determinant(rows) == one - i * i  # 1 - i^2 = 2
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
