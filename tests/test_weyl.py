import random

import pytest

from conftest import make_config
from tgkz.cyclotomic import Cyclotomic
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


def test_pow_matches_repeated_product():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    e = x * d
    assert e ** 3 == e * e * e
    assert (d ** 2).to_text() == "d1^2"
