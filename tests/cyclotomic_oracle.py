"""The Fraction-tuple cyclotomic kernel, kept as a test-only oracle for
tgkz.cyclotomic.

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(e)-1) of
Q[x]/Phi_e(x) with one Fraction per coordinate; every operation runs on
Fractions.  Binary operations between elements of different orders lift
both to Q(zeta_lcm).  Demotion has no cache here.  Phi_e is x^e - 1
divided exactly by Phi_d for each proper divisor d, recursively, and
unit_rational_form(x) tries x * zeta^-k for k = 0, 1, ... on a tgkz
element: the algorithms tgkz.cyclotomic ran before it built Phi_e from
Moebius products and stepped by zeta.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from tgkz import cyclotomic, fieldlin
from tgkz.lattice import det


def _poly_divmod_int(num, den):
    """Exact division of integer coefficient lists (ascending), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1]
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ValueError("polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of Phi_e, ascending: x^e - 1 divided by Phi_d
    for every proper divisor d of e, recursively."""
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divmod_int(num, cyclotomic_polynomial(d))
    return tuple(num)


def unit_rational_form(x):
    """(q, k) with the tgkz element x = q * zeta(order)^k, q rational and k
    least, or None: one product x * zeta^-k per k, in increasing k."""
    for k in range(x.order):
        q = (x * cyclotomic.Cyclotomic.zeta(x.order, -k % x.order)).rational_value()
        if q is not None:
            return q, k
    return None


def _phi_degree(e):
    return len(cyclotomic_polynomial(e)) - 1


def _reduce_mod_phi(coeffs, e):
    """Reduce an ascending Fraction coefficient list modulo Phi_e."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    c = list(coeffs)
    for k in range(len(c) - 1, deg - 1, -1):
        lead = c[k]
        if lead:
            for i in range(deg + 1):
                c[k - deg + i] -= lead * phi[i]
        c.pop()
    while len(c) < deg:
        c.append(Fraction(0))
    return tuple(c)


def _xgcd_poly(a, b):
    """Extended Euclid in Q[x] on ascending Fraction lists: (g, s, t) with
    s*a + t*b = g."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, x in enumerate(q):
            out[i + shift] -= c * x
        return trim(out)

    r0, r1 = trim(list(a)), trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        # one full division step
        q = []
        rem = list(r0)
        while len(rem) >= len(r1) and rem:
            c = rem[-1] / r1[-1]
            shift = len(rem) - len(r1)
            while len(q) < shift + 1:
                q.append(Fraction(0))
            q[shift] += c
            rem = sub_scaled(rem, r1, c, shift)
        news = list(s0)
        newt = list(t0)
        for shift, c in enumerate(q):
            if c:
                news = sub_scaled(news, s1, c, shift)
                newt = sub_scaled(newt, t1, c, shift)
        r0, r1 = r1, rem
        s0, s1 = s1, news
        t0, t1 = t1, newt
    return r0, s0, t0


class Cyclotomic:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = int(order)
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == _phi_degree(self.order)

    @staticmethod
    def rational(q, order=1):
        q = Fraction(q)
        deg = _phi_degree(order)
        return Cyclotomic(order, (q,) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def zero(order=1):
        return Cyclotomic.rational(0, order)

    @staticmethod
    def one(order=1):
        return Cyclotomic.rational(1, order)

    @staticmethod
    def zeta(e, k=1):
        """zeta_e^k as an element of Q(zeta_e)."""
        e = int(e)
        k = int(k) % e
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return Cyclotomic(e, _reduce_mod_phi(coeffs, e))

    @staticmethod
    def coerce(x, order=1):
        if isinstance(x, Cyclotomic):
            return x
        return Cyclotomic.rational(x, order)

    def lift(self, e2):
        """Image under Q(zeta_order) -> Q(zeta_e2); requires order | e2."""
        e2 = int(e2)
        if e2 == self.order:
            return self
        assert e2 % self.order == 0
        step = e2 // self.order
        raised = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for t, c in enumerate(self.coeffs):
            if c:
                raised[t * step] += c
        return Cyclotomic(e2, _reduce_mod_phi(raised, e2))

    def _pair(self, other):
        other = Cyclotomic.coerce(other)
        e = self.order * other.order // gcd(self.order, other.order)
        return self.lift(e), other.lift(e)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return Cyclotomic.coerce(other).__sub__(self)

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(x * other for x in self.coeffs))
        a, b = self._pair(other)
        if b.is_rational():
            a, b = b, a  # the product commutes; scale by whichever is rational
        if a.is_rational():
            q = a.coeffs[0]
            return Cyclotomic(b.order, tuple(q * y for y in b.coeffs))
        out = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return Cyclotomic(a.order, _reduce_mod_phi(out, a.order))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        q = self.rational_value()
        if q is not None:
            return Cyclotomic.rational(1 / q, self.order)
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s, _ = _xgcd_poly(list(self.coeffs), phi)
        assert len(g) == 1 and g[0] != 0
        inv = [c / g[0] for c in s]
        return Cyclotomic(self.order, _reduce_mod_phi(inv, self.order))

    def __truediv__(self, other):
        other = Cyclotomic.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.coerce(other) * self.inverse()

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        return self.coeffs[0] if self.is_rational() else None

    def is_one(self):
        return self.is_rational() and self.coeffs[0] == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        d = self.demoted()
        return hash((d.order, d.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def demoted(self):
        """Equal element in the smallest cyclotomic subfield that contains it.

        Canonicalizes printing and hashing regardless of the order in which
        arithmetic promoted the operands.
        """
        return _demote(self.order, self.coeffs)

    def unit_rational_form(self):
        """(q, k) with self = q * zeta(order)^k and q rational, or None."""
        for k in range(self.order):
            ratio = self * Cyclotomic.zeta(self.order, -k % self.order)
            q = ratio.rational_value()
            if q is not None:
                return q, k
        return None

    def to_text(self):
        d = self.demoted()
        if d.is_rational():
            return str(d.coeffs[0])
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
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Cyclotomic({self.to_text()})"


def _demote(order, coeffs):
    """Cyclotomic(order, coeffs).demoted()."""
    if all(c == 0 for c in coeffs[1:]):
        return Cyclotomic.rational(coeffs[0])
    for e in sorted(d for d in range(1, order) if order % d == 0):
        deg = _phi_degree(e)
        basis = [Cyclotomic.zeta(e, t).lift(order).coeffs for t in range(deg)]
        rows = [[basis[t][i] for t in range(deg)] for i in range(len(coeffs))]
        sol = fieldlin.solve(rows, list(coeffs))
        if sol is not None:
            return Cyclotomic(e, sol)
    return Cyclotomic(order, coeffs)


def cramer_inverse(x):
    """1/x for a nonzero tgkz Cyclotomic x by Cramer's rule, the former
    library path: row j of the transposed multiplication matrix is
    num * zeta^j, its determinant is the norm of num, and num * y = 1 has
    y_i = det(rows with row i replaced by 1) / norm."""
    deg = len(x.num)
    rows = [cyclotomic._reduce_mod_phi((0,) * j + x.num, x.order) for j in range(deg)]
    norm = det(rows)
    one = (1,) + (0,) * (deg - 1)
    y = [det(rows[:i] + [one] + rows[i + 1:]) for i in range(deg)]
    return cyclotomic.Cyclotomic(x.order, [Fraction(x.den * v, norm) for v in y])
