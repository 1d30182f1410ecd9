"""The canonical text format (tgkz.poly parsing and printing, Cyclotomic
text) against the character-loop format kept in tests/text_oracle.py."""

import random
import re
from fractions import Fraction

import pytest

import text_oracle
from conftest import random_battery, zp_spec
from tgkz.binomials import minimal_primes
from tgkz.cyclotomic import Cyclotomic, scaled_text
from tgkz.poly import Polynomial, parse_polynomial, parse_scalar, polynomial_to_text
from tgkz.problem import parse_spec
from tgkz.weyl import DEGLEX, WeylElement

# pieces of random parser input: numbers, names, zeta, a non-ASCII letter,
# the operators, whitespace and two characters the format refuses
_PIECES = ("0", "1", "2", "3", "7", "12", "d", "x", "d1", "d2", "x1", "x2", "zeta(",
           "zeta(4)", "zeta(6)^", "é", "+", "-", "*", "/", "^", "(", ")", " ", "\t",
           "_", ".")


def _random_text(rng):
    """Random parser input whose work stays small: numbers of at most two
    digits, exponents of one digit, and at most two powers."""
    while True:
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 12)))
        if not re.search(r"\d{3}|\^[\s-]*\d\d", text) and text.count("^") <= 2:
            return text


def _outcome(parse, text, nvars, names):
    """The parsed polynomial, or the exception's type and message."""
    try:
        return parse(text, nvars, names)
    except Exception as exc:  # the oracle must raise the same
        return type(exc), str(exc)


@pytest.mark.parametrize("nvars,names", [(2, ("x", "d")), (0, ())])
def test_parsing_matches_the_character_loop_oracle(nvars, names):
    rng = random.Random(20261020 + nvars)
    parsed = 0
    for _ in range(20000):
        text = _random_text(rng)
        got = _outcome(parse_polynomial, text, nvars, names)
        assert got == _outcome(text_oracle.parse_polynomial, text, nvars, names), text
        parsed += isinstance(got, Polynomial)
    assert parsed >= 500  # not only errors


@pytest.mark.parametrize("text", ["²", "d²", "3²", "①", "½"])
def test_numeric_characters_that_are_not_decimal_digits_raise_value_error(text):
    """Such characters read as letters of a name, so they fail as an
    unknown name or an unexpected token: a ValueError, as the oracle's
    int() gave.  Every other decimal digit parses as the oracle parses it."""
    with pytest.raises(ValueError):
        parse_polynomial(text, 2)
    with pytest.raises(ValueError):
        text_oracle.parse_polynomial(text, 2)
    assert parse_scalar("١٢/٣") == text_oracle.parse_polynomial("١٢/٣", 0, ()).terms[()] == 4


def test_scaled_text_prints_a_rational_times_a_name():
    assert [scaled_text(q, "d1") for q in (1, -1, 2, Fraction(-3, 2))] == \
        ["d1", "-d1", "2*d1", "-3/2*d1"]
    assert [scaled_text(q) for q in (1, -1, 0, Fraction(5, 7))] == ["1", "-1", "0", "5/7"]


def _assert_prints_as_oracle(polys, values):
    for p in polys:
        assert polynomial_to_text(p) == text_oracle.polynomial_to_text(p)
    for v in values:
        assert v.to_text() == text_oracle.cyclotomic_to_text(v)


def _primes_and_values(configs):
    polys, values = [], []
    for config in configs:
        for rho, prime in minimal_primes(config):
            polys += prime.generators
            values += rho.values
    return polys, values


def test_prime_texts_match_the_oracle_on_the_random_battery():
    polys, values = _primes_and_values(random_battery(20261, 40))
    assert any(not v.is_rational() for v in values)
    _assert_prints_as_oracle(polys, values)


@pytest.mark.parametrize("p", [13, 97])
def test_prime_texts_match_the_oracle_on_z_p(p):
    polys, values = _primes_and_values([parse_spec(zp_spec(p)).config])
    assert {v.to_text() for v in values} >= {"1", f"zeta({p})"}
    _assert_prints_as_oracle(polys, values)


def test_sum_coefficients_print_in_parentheses_as_the_oracle():
    """A coefficient that is a sum in its field prints in parentheses before
    a monomial and bare alone, as z6_plane's d3^2 + (1 + zeta(3))*d2*d4."""
    assert polynomial_to_text(parse_polynomial("d3^2 + (1 + zeta(3))*d2*d4", 4)) == \
        "d3^2 + (1 + zeta(3))*d2*d4"
    assert polynomial_to_text(parse_polynomial("zeta(6)*d1 + zeta(6)", 1)) == \
        "(1 + zeta(3))*d1 + 1 + zeta(3)"
    rng = random.Random(2026)
    polys, values = [], []
    for _ in range(300):
        e = rng.choice((3, 4, 5, 6, 8, 12))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            c = sum((Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) * Cyclotomic.zeta(e, k)
                     for k in range(rng.randint(1, 3))), Cyclotomic.zero())
            terms[exp] = c
            values.append(c)
        polys.append(Polynomial(3, terms))
    assert sum(" + " in polynomial_to_text(p) and "(" in polynomial_to_text(p)
               for p in polys) >= 50
    _assert_prints_as_oracle(polys, values)
    for p in polys:  # the Weyl printer: names x, d and the degree-lex order
        w = WeylElement(2, {exp[:2]: c for exp, c in p.terms.items()})
        assert w.to_text() == text_oracle.polynomial_to_text(w, ("x", "d"), DEGLEX)
