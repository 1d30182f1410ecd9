"""Normally ordered elements of the Weyl algebra on n variables.

As a vector, a normally ordered operator x^a d^b is the commutative
monomial in the 2n variables x_1..x_n, d_1..d_n (Saito-Sturmfels-Takayama,
Groebner Deformations of Hypergeometric Differential Equations, 2000, 1.1):
a WeylElement is a Polynomial with nvars = 2n and exponent keys a + b, and
shares its sums, negation, powers, equality and hashing.  Only the product
differs: it renormalizes through the Leibniz rule d*x = x*d + 1.  Text and
JSON list terms by total degree, then x, then d, and the text reads back
with parse_polynomial(text, n, names=("x", "d")).
"""

from itertools import product
from math import comb, factorial

from .poly import MonomialOrder, Polynomial, polynomial_to_text


class Deglex(MonomialOrder):
    """Total degree, then the exponents lexicographically: x before d."""

    def key(self, exp):
        return (sum(exp), exp)


DEGLEX = Deglex()


class WeylElement(Polynomial):
    __slots__ = ()

    # -- constructors on n variables

    @classmethod
    def zero(cls, nvars):
        return cls(2 * nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(2 * nvars, {(0,) * (2 * nvars): c})

    @classmethod
    def monomial(cls, nvars, x_exp, d_exp, c=1):
        return cls(2 * nvars, {tuple(x_exp) + tuple(d_exp): c})

    @classmethod
    def x(cls, i, nvars):
        return cls.variable(i, 2 * nvars)

    @classmethod
    def d(cls, i, nvars):
        return cls.variable(nvars + i, 2 * nvars)

    # -- the normally ordered product

    def __mul__(self, other):
        other = self._operand(other)
        n = self.nvars // 2
        out = {}
        for ka, ca in self.terms.items():
            xa, da = ka[:n], ka[n:]
            for kb, cb in other.terms.items():
                xb, db = kb[:n], kb[n:]
                base = ca * cb
                # d^da then x^xb: contract k_i of the d_i x_i pairs, per variable
                for k in product(*(range(min(a, b) + 1) for a, b in zip(da, xb))):
                    coef = base
                    for i in range(n):
                        coef = coef * (comb(da[i], k[i]) * comb(xb[i], k[i])
                                       * factorial(k[i]))
                    key = (tuple(xa[i] + xb[i] - k[i] for i in range(n))
                           + tuple(da[i] + db[i] - k[i] for i in range(n)))
                    out[key] = out[key] + coef if key in out else coef
        return type(self)(self.nvars, out)

    def __rmul__(self, other):
        return self._operand(other) * self

    def sign_twist(self):
        """The image under x -> -x, d -> -d: each term picks up the parity
        of its total degree."""
        return type(self)(self.nvars, {k: -c if sum(k) % 2 else c
                                       for k, c in self.terms.items()})

    # -- canonical forms

    def to_text(self):
        return polynomial_to_text(self, ("x", "d"), DEGLEX)

    def to_json(self):
        n = self.nvars // 2
        return [{"x": list(k[:n]), "d": list(k[n:]), "c": c.to_text()}
                for k, c in self.sorted_terms(DEGLEX)]


def euler_operators(config):
    """Row-wise weighted vector fields: the i-th has weight a_{i,j} on the
    j-th coordinate scaling field x_j d_j."""
    n, dvars = config.n, config.d
    out = []
    free = config.free_columns()
    for i in range(dvars):
        terms = {}
        for j in range(n):
            if free[j][i]:
                e = tuple(int(k == j) for k in range(n))
                terms[e + e] = free[j][i]
        out.append(WeylElement(2 * n, terms))
    return tuple(out)
