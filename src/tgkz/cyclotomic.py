"""Exact arithmetic in cyclotomic fields Q(zeta_e).

An element of Q(zeta_e) = Q[x]/Phi_e(x), Phi_e the e-th cyclotomic
polynomial, is stored as integer numerators `num` in the power basis 1,
zeta, ..., zeta^(phi(e)-1) over one denominator `den`, in canonical form:
den > 0 and gcd(den, *num) == 1, so zero is all-zero over 1 and elements
of one order are equal exactly when (num, den) are.  All arithmetic runs on
Python ints (Phi_e is monic, so reducing by it never divides); `coeffs`
gives the coordinates as Fractions.  Phi_e is irreducible over Q, so every
nonzero element is invertible.  Binary operations between elements of
different orders lift both to Q(zeta_lcm).

Signed roots of unity s * zeta_e^k (s = +-1), such as character values,
carry a tag root = (s, k).  Only the bounded memo _signed_root makes tagged
objects, one per (e, s, k mod e), with -zeta^k stored as zeta^(k + e/2) for
even e; every other constructor leaves root = None, even for an element
that equals a root.  The memo shares its objects, so none may be mutated.
On tagged operands zeta, rational(+-1), products, inverse, negation, lift
and demoted are a lookup on exponents, so integer powers, built from
products and inverses, stay on tagged objects; sums and untagged operands
take the generic path.  unit_rational_form steps an untagged copy, so it
makes no root but zeta_e.  The tag changes neither equality, nor hashing,
nor (order, num, den).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, sub

from .errors import NotInvertibleError


@lru_cache(maxsize=64)
def cyclotomic_polynomial(e: int):
    """Integer coefficients of Phi_e, ascending order, monic.

    Phi_e(x) = Phi_r(x^(e/r)) for r the product of the primes dividing e,
    and Phi_r = prod_{d | r} (x^d - 1)^mu(r/d) by Moebius inversion of
    x^r - 1 = prod_{d | r} Phi_d.  The factors with mu = 1 are multiplied
    first, so each division by x^d - 1 is exact: a running sum.
    """
    e = int(e)
    if e < 1:
        raise ValueError("order must be >= 1")
    primes, rest = [], e
    for p in range(2, e + 1):
        if p * p > rest:
            break
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        primes.append(rest)
    num, divisors = [1], []
    for chosen in product((0, 1), repeat=len(primes)):
        d = prod(p for p, c in zip(primes, chosen) if c)
        if (len(primes) - sum(chosen)) % 2:  # mu(r/d) = -1
            divisors.append(d)
        else:  # times x^d - 1
            num = [b - a for a, b in zip(num + [0] * d, [0] * d + num)]
    for d in divisors:  # q (x^d - 1) = num gives q_k = q_(k-d) - num_k
        num = [-x for x in num]
        for k in range(d, len(num)):
            num[k] += num[k - d]
        del num[-d:]
    step = e // prod(primes)
    out = [0] * ((len(num) - 1) * step + 1)
    out[::step] = num
    return tuple(out)


def _phi_degree(e):
    return len(cyclotomic_polynomial(e)) - 1


def _reduce_mod_phi(coeffs, e):
    """Reduce an ascending integer coefficient list modulo Phi_e."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    c = list(coeffs)
    for k in range(len(c) - 1, deg - 1, -1):
        lead = c.pop()  # Phi_e is monic: subtracting lead * x^(k-deg) * Phi_e clears c[k]
        if lead:
            for i in range(deg):
                c[k - deg + i] -= lead * phi[i]
    return tuple(c) + (0,) * (deg - len(c))


class Cyclotomic:
    __slots__ = ("order", "num", "den", "root")

    def __init__(self, order, coeffs):
        """The element with the given rational power-basis coordinates."""
        self.order = int(order)
        self.root = None
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != _phi_degree(self.order):
            raise ValueError(f"Q(zeta_{self.order}) takes {_phi_degree(self.order)} "
                             f"coordinates, got {len(coeffs)}")
        # an lcm of reduced denominators leaves gcd(den, *num) == 1: canonical
        self.den = lcm(*(c.denominator for c in coeffs))
        self.num = tuple(c.numerator * (self.den // c.denominator) for c in coeffs)

    @property
    def coeffs(self):
        """Power-basis coordinates as a tuple of Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def rational(q, order=1):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        order = int(order)
        if q == 1 or q == -1:
            return _root(order, int(q), 0)
        return _raw(order, (q.numerator,) + (0,) * (_phi_degree(order) - 1), q.denominator)

    @staticmethod
    def zero(order=1):
        return Cyclotomic.rational(0, order)

    @staticmethod
    def one(order=1):
        return Cyclotomic.rational(1, order)

    @staticmethod
    def zeta(e, k=1):
        """zeta_e^k as an element of Q(zeta_e)."""
        return _root(int(e), 1, int(k))

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
        if e2 % self.order:
            raise ValueError(f"Q(zeta_{self.order}) does not embed in Q(zeta_{e2})")
        if self.root:
            s, k = self.root
            return _root(e2, s, k * (e2 // self.order))
        if self.is_rational():
            return _raw(e2, self.num[:1] + (0,) * (_phi_degree(e2) - 1), self.den)
        step = e2 // self.order
        raised = [0] * ((len(self.num) - 1) * step + 1)
        raised[::step] = self.num
        return _canonical(e2, _reduce_mod_phi(raised, e2), self.den)

    def _pair(self, other):
        other = Cyclotomic.coerce(other)
        if self.order == other.order:
            return self, other
        e = self.order * other.order // gcd(self.order, other.order)
        return self.lift(e), other.lift(e)

    def _linear(self, other, op):
        """a op b for op add or sub, over the denominators' product unless
        they are equal."""
        a, b = self._pair(other)
        if a.den == b.den:
            return _canonical(a.order, tuple(map(op, a.num, b.num)), a.den)
        return _canonical(a.order, tuple(op(x * b.den, y * a.den)
                                         for x, y in zip(a.num, b.num)), a.den * b.den)

    def __add__(self, other):
        return self._linear(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._linear(other, sub)

    def __rsub__(self, other):
        return Cyclotomic.coerce(other).__sub__(self)

    def __neg__(self):
        if self.root:
            s, k = self.root
            return _root(self.order, -s, k)
        return _raw(self.order, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical(self.order, tuple(x * other.numerator for x in self.num),
                              self.den * other.denominator)
        if self.root and isinstance(other, Cyclotomic) and other.root:
            (s, k), (t, j) = self.root, other.root
            e = lcm(self.order, other.order)
            return _root(e, s * t, k * (e // self.order) + j * (e // other.order))
        a, b = self._pair(other)
        if b.is_rational():
            a, b = b, a  # the product commutes; scale by whichever is rational
        if a.is_rational():
            q = a.num[0]
            return _canonical(b.order, tuple(q * y for y in b.num), a.den * b.den)
        out = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    out[i + j] += x * y
        return _canonical(a.order, _reduce_mod_phi(out, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.root:
            s, k = self.root
            return _root(self.order, s, -k)
        if self.is_rational():
            return _canonical(self.order, (self.den,) + self.num[1:], self.num[0])
        # num times the product of its other Galois conjugates is the norm,
        # a rational integer, so 1/num = conj / norm
        conj = _conjugate_product(self.num, self.order)
        norm = (conj * _raw(self.order, self.num, 1)).num[0]
        if not norm:
            raise NotInvertibleError(f"no inverse in Q(zeta_{self.order}): zero norm",
                                     order=self.order, num=self.num)
        return _canonical(self.order, tuple(self.den * c for c in conj.num), norm)

    def __truediv__(self, other):
        other = Cyclotomic.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.coerce(other) * self.inverse()

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        return square_and_multiply(self, k, Cyclotomic.one(self.order))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        return Fraction(self.num[0], self.den) if self.is_rational() else None

    def is_one(self):
        return self.num[0] == self.den == 1 and self.is_rational()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # a rational element equals, so hashes as, its int or Fraction
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        d = self.demoted()
        return hash((d.order, d.coeffs))

    def __bool__(self):
        return any(self.num)

    def demoted(self):
        """Equal element in the smallest cyclotomic subfield that contains it.

        Canonicalizes printing and hashing regardless of the order in which
        arithmetic promoted the operands.  A tagged s * zeta_e^k is a
        primitive e1-th root, e1 = e / gcd(e, k), times s, and lies in
        Q(zeta_d) exactly when e1 divides lcm(2, d).
        """
        if self.root:
            s, k = self.root
            g = gcd(self.order, k)
            e1, k1 = self.order // g, k // g
            if e1 % 4 == 2:  # zeta_2m = -zeta_m^((m + 1)/2) for odd m, and k1 is odd
                s, e1, k1 = -s, e1 // 2, k1 * (e1 // 2 + 1) // 2
            return _root(e1, s, k1)
        return _demote(self.order, self.num, self.den)

    def unit_rational_form(self):
        """(q, k) with self = q * zeta(order)^k, q rational and k least, or
        None.  An untagged copy of self steps through self * zeta^j, each a
        product with one nonzero term on the left, so j < order steps take
        O(order * phi(order)) work and make no root but zeta itself."""
        e = self.order
        zeta = Cyclotomic.zeta(e)
        ratio = _raw(e, self.num, self.den)
        for j in range(e):
            q = ratio.rational_value()
            if q is not None:  # self = q * zeta^-j
                k = -j % e
                # for even e, zeta^(e/2) = -1 gives the lesser k
                return (-q, k - e // 2) if e % 2 == 0 and k >= e // 2 else (q, k)
            ratio = zeta * ratio
        return None

    def to_text(self):
        d = self.demoted()
        if d.is_rational():
            return str(d.rational_value())
        zeta = f"zeta({d.order})"
        names = ["", zeta] + [f"{zeta}^{k}" for k in range(2, len(d.num))]
        return signed_sum([scaled_text(c, name)
                           for c, name in zip(d.coeffs, names) if c])

    def __repr__(self):
        return f"Cyclotomic({self.to_text()})"


def square_and_multiply(base, k, one):
    """base^k for an integer k >= 0 in about 2 log2(k) products; `one` is
    the unit of base's ring."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def scaled_text(q, name=""):
    """The rational q times `name` as text: the name alone for q = 1, -name
    for q = -1, q*name otherwise, and q alone when there is no name."""
    if not name:
        return str(q)
    if q == 1:
        return name
    if q == -1:
        return f"-{name}"
    return f"{q}*{name}"


def signed_sum(chunks):
    """Join signed term texts as "a + b - c": a leading "-" becomes " - "."""
    out = chunks[0]
    for ch in chunks[1:]:
        out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
    return out


def _conjugate_product(num, e):
    """prod over a in 2..e-1 prime to e of x(zeta^a), for the integral
    element x with coordinates num: each conjugate re-spreads num over the
    powers zeta^(i*a) and reduces modulo Phi_e."""
    out = Cyclotomic.one(e)
    for a in range(2, e):
        if gcd(a, e) == 1:
            raised = [0] * e
            for i, c in enumerate(num):
                raised[i * a % e] += c
            out = out * _raw(e, _reduce_mod_phi(raised, e), 1)
    return out


def _raw(order, num, den, root=None):
    """Cyclotomic(order, num / den) from a form already canonical; only
    _signed_root passes a root tag."""
    x = object.__new__(Cyclotomic)
    x.order, x.num, x.den, x.root = order, num, den, root
    return x


def _root(e, s, k):
    """s * zeta_e^k for s = +-1, from the memo: for even e, -zeta^k is
    zeta^(k + e/2)."""
    if e < 1:
        raise ValueError("order must be >= 1")
    if s < 0 and e % 2 == 0:
        s, k = 1, k + e // 2
    return _signed_root(e, s, k % e)


@lru_cache(maxsize=1024)
def _signed_root(e, s, k):
    """The tagged s * zeta_e^k, 0 <= k < e, one entry per root: a table of
    all e powers of one order would hold e * phi(e) integers."""
    num = _reduce_mod_phi((0,) * k + (1,), e)
    return _raw(e, num if s > 0 else tuple(-x for x in num), 1, (s, k))


def _canonical(order, num, den):
    """Cyclotomic(order, num / den) for integer num and nonzero den: divided
    by gcd(den, *num), with the sign moved off the denominator."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num, den = tuple(x // g for x in num), den // g
    return _raw(order, num, den)


@lru_cache(maxsize=1024)
def _demote(order, num, den):
    """Cyclotomic(order, num / den).demoted(), memoized in a fixed-size cache."""
    from . import fieldlin
    if not any(num[1:]):
        return _raw(1, num[:1], den)
    coeffs = [Fraction(x, den) for x in num]
    for e in sorted(d for d in range(1, order) if order % d == 0):
        deg = _phi_degree(e)
        basis = [Cyclotomic.zeta(e, t).lift(order).num for t in range(deg)]
        rows = [[Fraction(basis[t][i]) for t in range(deg)] for i in range(len(num))]
        sol = fieldlin.solve(rows, coeffs)
        if sol is not None:
            return Cyclotomic(e, sol)
    return _raw(order, num, den)
