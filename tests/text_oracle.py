"""The character-loop text format, kept as a test-only oracle for the
canonical text of tgkz.poly and tgkz.cyclotomic.

A hand-rolled lexer (_Tokens) splits the text into str.isdigit runs,
str.isalpha runs and the operators +-*/^(); each sign run is folded by its
own loop; a rational coefficient prints by _coeff_text and a cyclotomic one
by cyclotomic_to_text, each with its own "rational times name" rule: the
format as tgkz wrote and read it before one regex lexer, one sign rule and
one term printer (cyclotomic.scaled_text) replaced them.
"""

from fractions import Fraction

from tgkz.cyclotomic import Cyclotomic, signed_sum
from tgkz.poly import GREVLEX, Polynomial, _check_power_size, monomial_text


def cyclotomic_to_text(x: Cyclotomic):
    d = x.demoted()
    if d.is_rational():
        return str(d.rational_value())
    parts = []
    for k, c in enumerate(d.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        zet = f"zeta({d.order})" if k == 1 else f"zeta({d.order})^{k}"
        if c == 1:
            term = zet
        elif c == -1:
            term = f"-{zet}"
        else:
            term = f"{c}*{zet}"
        parts.append(term)
    return signed_sum(parts)


def _coeff_text(c: Cyclotomic, with_monomial: bool):
    c = c.demoted()
    q = c.rational_value()
    if q is not None:
        if not with_monomial:
            return str(q)
        if q == 1:
            return ""
        if q == -1:
            return "-"
        return f"{q}*"
    text = cyclotomic_to_text(c)
    single = "+" not in text and " - " not in text
    if not with_monomial:
        return text
    if single:
        return f"{text}*"
    return f"({text})*"


def polynomial_to_text(p: Polynomial, names=("d",), order=GREVLEX) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for exp, c in p.sorted_terms(order):
        mono = monomial_text(exp, names)
        chunks.append(_coeff_text(c, bool(mono)) + mono)
    return signed_sum(chunks)


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("num", int(text[i:j])))
                i = j
            elif ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalpha()):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial text")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ValueError(f"expected {kind!r}, got {tok!r}")
        return tok


def parse_polynomial(text, nvars, names=("d",)) -> Polynomial:
    toks = _Tokens(text)
    total = len(names) * nvars

    def parse_int():
        sign = 1
        while toks.peek()[0] == "-":
            toks.next()
            sign = -sign
        return sign * toks.expect("num")[1]

    def atom():
        kind, val = toks.peek()
        if kind == "(":
            toks.next()
            p = expr()
            toks.expect(")")
            return p
        if kind == "num":
            toks.next()
            num = val
            if toks.peek()[0] == "/":
                toks.next()
                den = toks.expect("num")[1]
                return Polynomial.constant(total, Fraction(num, den))
            return Polynomial.constant(total, num)
        if kind == "name":
            toks.next()
            if val == "zeta":
                toks.expect("(")
                e = toks.expect("num")[1]
                toks.expect(")")
                k = 1
                if toks.peek()[0] == "^":
                    toks.next()
                    k = parse_int()
                return Polynomial.constant(total, Cyclotomic.zeta(e, k))
            for pos, prefix in enumerate(names):
                if val == prefix:
                    idx = toks.expect("num")[1]
                    if not 1 <= idx <= nvars:
                        raise ValueError(f"variable index out of range: {prefix}{idx}")
                    return Polynomial.variable(pos * nvars + idx - 1, total)
            raise ValueError(f"unknown name {val!r}")
        raise ValueError(f"unexpected token {kind!r}")

    def factor():
        base = atom()
        if toks.peek()[0] == "^":
            toks.next()
            k = parse_int()
            if len(base.terms) == 1 and set(base.terms) == {(0,) * total}:
                c = base.terms[(0,) * total]
                _check_power_size(c, k)
                return Polynomial.constant(total, c ** k)
            if k < 0:
                raise ValueError("negative powers only allowed on constants")
            return base ** k
        return base

    def term():
        p = factor()
        while toks.peek()[0] == "*":
            toks.next()
            p = p * factor()
        return p

    def expr():
        sign = 1
        while toks.peek()[0] in ("+", "-"):
            if toks.next()[0] == "-":
                sign = -sign
        p = term() * sign
        while toks.peek()[0] in ("+", "-"):
            sign = 1
            while toks.peek()[0] in ("+", "-"):
                if toks.next()[0] == "-":
                    sign = -sign
            p = p + term() * sign
        return p

    out = expr()
    if toks.peek()[0] is not None:
        raise ValueError(f"trailing input at token {toks.peek()!r}")
    return out
