import random

import pytest

from conftest import make_config
from tgkz.cyclotomic import Cyclotomic
from tgkz.poly import Polynomial, parse_polynomial
from tgkz.weyl import WeylElement, euler_operators


def test_normal_order_dx():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    assert (d * x).to_text() == "x1*d1 + 1"
    assert (x * d).to_text() == "x1*d1"


def test_normal_order_d2x2():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    prod = (d * d) * (x * x)
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    assert prod.to_text() == "x1^2*d1^2 + 4*x1*d1 + 2"
    assert ((d * x) * (d * x)).to_text() == "x1^2*d1^2 + 3*x1*d1 + 1"


def commutator(a, b):
    return a * b - b * a


def test_commutator_defining_relation():
    x = WeylElement.x(0, 2)
    d = WeylElement.d(0, 2)
    other = WeylElement.d(1, 2)
    assert commutator(d, x).to_text() == "1"
    assert commutator(other, x).is_zero()
    assert commutator(x, x).is_zero()


def test_commutator_random_products():
    """[a, bc] = [a,b]c + b[a,c] on random small elements."""
    rng = random.Random(12)

    def rand_elem():
        out = WeylElement.zero(2)
        for _ in range(rng.randint(1, 3)):
            xe = tuple(rng.randint(0, 2) for _ in range(2))
            de = tuple(rng.randint(0, 2) for _ in range(2))
            out = out + WeylElement.monomial(2, xe, de, rng.randint(-3, 3))
        return out

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        lhs = commutator(a, b * c)
        rhs = commutator(a, b) * c + b * commutator(a, c)
        assert lhs == rhs


def test_euler_operators_shapes():
    plane = make_config([], [((), (1, 0)), ((), (1, 1)), ((), (1, 2))])
    e1, e2 = euler_operators(plane)
    assert e1.to_text() == "x1*d1 + x2*d2 + x3*d3"
    assert e2.to_text() == "x2*d2 + 2*x3*d3"


def test_euler_commutes_with_homogeneous_parts():
    # [E, d1] = -d1 for the weight-1 variable of A = [1 2]
    line = make_config([], [((), (1,)), ((), (2,))])
    (e,) = euler_operators(line)
    d1 = WeylElement.d(0, 2)
    d2 = WeylElement.d(1, 2)
    assert commutator(e, d1) == d1 * Cyclotomic.rational(-1)
    assert commutator(e, d2) == d2 * Cyclotomic.rational(-2)


def test_sign_twist_involution_and_parity():
    w = WeylElement.monomial(2, (1, 0), (0, 1), 3) + \
        WeylElement.monomial(2, (0, 0), (1, 0), -2)
    tw = w.sign_twist()
    assert tw.sign_twist() == w
    assert tw.to_text() == "3*x1*d2 + 2*d1"
    # Euler-type terms are fixed: even total degree in x and d
    e = WeylElement.monomial(2, (1, 0), (1, 0), 1)
    assert e.sign_twist() == e


def test_to_json_ordering():
    w = WeylElement.monomial(1, (1,), (1,), 1) + WeylElement.constant(1, -2)
    js = w.to_json()
    assert js == [{"x": [1], "d": [1], "c": "1"},
                  {"x": [0], "d": [0], "c": "-2"}]


def random_weyl(rng, n, cyclotomic=False):
    out = WeylElement.zero(n)
    for _ in range(rng.randint(1, 4)):
        c = Cyclotomic.rational(rng.randint(-5, 5)) / rng.randint(1, 4)
        if cyclotomic:
            c = c * Cyclotomic.zeta(rng.choice([3, 4, 8, 12]), rng.randrange(12)) \
                + rng.randint(-2, 2)
        xe = tuple(rng.randint(0, 2) for _ in range(n))
        de = tuple(rng.randint(0, 2) for _ in range(n))
        out = out + WeylElement.monomial(n, xe, de, c)
    return out


def test_pow_matches_repeated_product():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    e = x * d
    assert e ** 3 == e * e * e
    assert (d ** 2).to_text() == "d1^2"
    rng = random.Random(5)
    for _ in range(10):
        w = random_weyl(rng, 2)
        power = WeylElement.constant(2, 1)
        for k in range(6):
            assert w ** k == power
            power = power * w


def test_flat_terms_on_2n_variables():
    w = WeylElement.monomial(2, (1, 0), (0, 3), 5) + WeylElement.constant(2, 1)
    assert w.nvars == 4
    assert w.terms == {(1, 0, 0, 3): 5, (0, 0, 0, 0): 1}
    assert (WeylElement.d(0, 1) * WeylElement.x(0, 1)).terms == {(1, 1): 1, (0, 0): 1}
    assert w.to_json() == [{"x": [1, 0], "d": [0, 3], "c": "5"},
                           {"x": [0, 0], "d": [0, 0], "c": "1"}]


def test_text_round_trips_through_the_parser():
    # the printer names flat variable i as the parser reads it
    rng = random.Random(2205)
    for n in (1, 2, 3):
        for cyclotomic in (False, True):
            for _ in range(15):
                w = random_weyl(rng, n, cyclotomic)
                parsed = parse_polynomial(w.to_text(), n, names=("x", "d"))
                assert parsed.nvars == w.nvars
                assert parsed.terms == w.terms


def test_mixed_products_with_polynomials_raise_type_error():
    # the same flat terms in the two algebras
    p = Polynomial.variable(1, 2)
    w = WeylElement.d(0, 1)
    assert p.terms == w.terms
    for op in (lambda: p * w, lambda: w * p, lambda: p + w, lambda: w - p):
        with pytest.raises(TypeError):
            op()
    assert p != w and w != p
