"""Normally ordered elements of the Weyl algebra on n variables.

Terms are stored as (x-exponent, d-exponent) -> coefficient with every x to
the left of every d; products are renormalized through the Leibniz rule
d*x = x*d + 1.  Exact cyclotomic coefficients throughout; they carry their
own field (a Cyclotomic lifts mixed orders to their lcm), so an element is
just a variable count and its terms.
"""

from fractions import Fraction
from math import comb, factorial

from .cyclotomic import Cyclotomic
from .poly import _coeff_text


class WeylElement:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for (xe, de), c in (terms or {}).items():
            c = Cyclotomic.coerce(c)
            if not c.is_zero():
                clean[(tuple(int(v) for v in xe), tuple(int(v) for v in de))] = c
        self.terms = clean

    # -- constructors

    @staticmethod
    def zero(nvars):
        return WeylElement(nvars)

    @staticmethod
    def constant(nvars, c):
        zero = (0,) * nvars
        return WeylElement(nvars, {(zero, zero): c})

    @staticmethod
    def monomial(nvars, x_exp, d_exp, c=1):
        return WeylElement(nvars, {(tuple(x_exp), tuple(d_exp)): c})

    @staticmethod
    def x(i, nvars):
        e = [0] * nvars
        e[i] = 1
        return WeylElement.monomial(nvars, e, [0] * nvars)

    @staticmethod
    def d(i, nvars):
        e = [0] * nvars
        e[i] = 1
        return WeylElement.monomial(nvars, [0] * nvars, e)

    # -- structure

    def is_zero(self):
        return not self.terms

    def _operand(self, other):
        """other as an element on the same variables; scalars become constants."""
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return WeylElement.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("different variable counts")
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in self._operand(other).terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return WeylElement(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        n = self.nvars
        out = {}
        for (xa, da), ca in self.terms.items():
            for (xb, db), cb in other.terms.items():
                base = ca * cb
                # d^da then x^xb: iterate the Leibniz contraction per variable
                for k in _contractions(da, xb):
                    coef = base
                    for i in range(n):
                        coef = coef * (comb(da[i], k[i]) * comb(xb[i], k[i])
                                       * factorial(k[i]))
                    key = (tuple(xa[i] + xb[i] - k[i] for i in range(n)),
                           tuple(da[i] + db[i] - k[i] for i in range(n)))
                    out[key] = out[key] + coef if key in out else coef
        return WeylElement(n, out)

    def __rmul__(self, other):
        return self._operand(other) * self

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError(f"negative power {k}")
        out = WeylElement.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.terms == self._operand(other).terms

    def __hash__(self):
        return hash((self.nvars, frozenset(
            (k, v.demoted()) for k, v in self.terms.items())))

    def sign_twist(self):
        """The image under x -> -x, d -> -d: each term picks up the parity
        of its total degree."""
        terms = {}
        for (xe, de), c in self.terms.items():
            if (sum(xe) + sum(de)) % 2:
                c = -c
            terms[(xe, de)] = c
        return WeylElement(self.nvars, terms)

    def total_degree(self):
        return max((sum(xe) + sum(de) for (xe, de) in self.terms), default=0)

    # -- canonical forms

    def sorted_terms(self):
        def key(item):
            (xe, de), _ = item
            return (sum(xe) + sum(de), xe, de)
        return sorted(self.terms.items(), key=key, reverse=True)

    def to_text(self):
        if not self.terms:
            return "0"
        chunks = []
        for (xe, de), c in self.sorted_terms():
            mono = "*".join(
                [f"x{i+1}" + (f"^{e}" if e > 1 else "")
                 for i, e in enumerate(xe) if e] +
                [f"d{i+1}" + (f"^{e}" if e > 1 else "")
                 for i, e in enumerate(de) if e])
            chunks.append(_coeff_text(c, bool(mono)) + mono)
        out = chunks[0]
        for ch in chunks[1:]:
            if ch.startswith("-"):
                out += " - " + ch[1:]
            else:
                out += " + " + ch
        return out

    def to_json(self):
        return [{"x": list(xe), "d": list(de), "c": c.to_text()}
                for (xe, de), c in self.sorted_terms()]

    def __repr__(self):
        return f"WeylElement({self.to_text()})"


def _contractions(d_exp, x_exp):
    """All contraction multi-indices 0 <= k <= min(d_exp, x_exp)."""
    ranges = [range(min(a, b) + 1) for a, b in zip(d_exp, x_exp)]
    from itertools import product
    return product(*ranges)


def euler_operators(config):
    """Row-wise weighted vector fields: the i-th has weight a_{i,j} on the
    j-th coordinate scaling field x_j d_j."""
    n, dvars = config.n, config.d
    out = []
    free = config.free_columns()
    for i in range(dvars):
        op = WeylElement.zero(n)
        for j in range(n):
            if free[j][i]:
                xe = [0] * n
                xe[j] = 1
                op = op + WeylElement.monomial(n, xe, xe, free[j][i])
        out.append(op)
    return tuple(out)
