"""Commutative polynomial algebra over Q(zeta_e).

Monomial orders, one Groebner core with a pair budget, reduced Groebner
bases of ideals and of submodules of free modules (used by the presentation
builder), saturation by one variable of a graded ideal (saturate_graded,
Bayer's lemma, no new variable), and the canonical round-trippable text
format.  Its lexer is one regex: runs of decimal digits (as int() reads
them) are numbers, runs of letters names, "+-*/^()" operators, and any other
character but whitespace raises ValueError; a numeric character that is not
a decimal digit (², ①, ½) reads as a letter, so it fails as an unknown name
or an unexpected token.  saturate, intersect and intersect_many adjoin a
variable and eliminate it (eliminate, BlockElim); no other module calls
them, and they remain as test oracles and benchmark layers.  The core is
Buchberger's algorithm with the Gebauer-Moeller pair criteria B_k, M, F and
the product criterion (Gebauer-Moeller, "On an installation of Buchberger's
algorithm", JSC 6, 1988; Becker-Weispfenning, Groebner Bases, 1993, ch. 5);
its pair budget counts the S-pairs it reduces after the criteria.

Coefficients carry their own field: a Cyclotomic knows its order and lifts
mixed orders to their lcm on every operation, so a Polynomial is just a
variable count and its terms.  Its arithmetic builds results of type(self):
weyl.WeylElement, a Polynomial on x and d with its own product, shares the
sums, powers, equality and hashing, and never mixes with a Polynomial.
buchberger lifts its input once to the lcm of the coefficient orders, so no
step of the core lifts again.  An IdealBasis is the ideal's reduced grevlex
basis, so equal ideals have equal bases.

The core works on term dicts {exponent tuple: coefficient} whose bases are
monic from the moment an element enters them, so nothing divides by a
leading coefficient.  Coefficients are Fraction or Cyclotomic and keep their
type (Polynomial's are Cyclotomic).  Module elements are dicts {(component,
exponents): coeff}; the core stores y_p * d^u as (p + 1, -(p + 1)) + u and
runs on it unchanged: a term divides another only within its component,
shifts and lcms keep the component, and no lcm of two leads is their sum.
"""

import heapq
import os
import re
from fractions import Fraction
from math import lcm
from operator import add, le, mul, sub

from ._value import frozen
from .cyclotomic import Cyclotomic, scaled_text, signed_sum, square_and_multiply
from .errors import BudgetExceededError, SpecError

DEFAULT_PAIR_BUDGET = 5000
# the largest power of a constant, in bits, that the text parser builds
MAX_POWER_BITS = 1 << 18


def default_pair_budget():
    """TGKZ_PAIR_BUDGET, or 5000 when unset; anything but a non-negative
    integer raises SpecError with code INVALID_ENVIRONMENT."""
    raw = os.environ.get("TGKZ_PAIR_BUDGET")
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    if not raw.strip().isdecimal():
        raise SpecError(f"TGKZ_PAIR_BUDGET must be a non-negative integer, got {raw!r}",
                        code="INVALID_ENVIRONMENT", variable="TGKZ_PAIR_BUDGET")
    return int(raw)


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    # leading tag positions that must agree for two terms to form an S-pair
    ntags = 0

    def key(self, exp):
        raise NotImplementedError


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic."""

    def key(self, exp):
        return (sum(exp), tuple(-x for x in reversed(exp)))


class BlockElim(MonomialOrder):
    """Eliminate the given variables: their total degree is compared first,
    grevlex breaks ties.  Monomials free of the block are smaller than any
    monomial meeting it, which is what elimination needs."""

    def __init__(self, elim):
        self.elim = tuple(sorted(elim))

    def key(self, exp):
        return (sum(exp[i] for i in self.elim), sum(exp), tuple(-x for x in reversed(exp)))


GREVLEX = Grevlex()


class WeightedLast(MonomialOrder):
    """Weighted degree w.e first, then the smaller exponent of variable
    `var`, then grevlex: a monomial order when w >= 0 and w[var] > 0.  On a
    w-homogeneous element the leading term has the least power of x_var, so
    x_var divides the leading term only if it divides the element (Bayer's
    lemma; Sturmfels, Groebner Bases and Convex Polytopes, 1996, Lemma 12.1)."""

    def __init__(self, weights, var):
        self.weights, self.var = tuple(weights), var

    def key(self, exp):
        return (sum(map(mul, self.weights, exp)), -exp[self.var], GREVLEX.key(exp))


class TermOverPosition(MonomialOrder):
    """Order on module terms (p + 1, -(p + 1)) + u: the first `eliminate`
    components outrank the rest, the smaller p first, then grevlex on u, then
    the smaller p, so a reduced basis eliminates them (Becker-Weispfenning)."""

    ntags = 2

    def __init__(self, eliminate=0):
        self.eliminate = int(eliminate)

    def key(self, exp):
        p, k = exp[0] - 1, self.eliminate
        return (k - p if p < k else 0, GREVLEX.key(exp[2:]), -p)


def _divides(a, b):
    return all(map(le, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


def _add(a, b):
    return tuple(map(add, a, b))


def _lcm_exp(a, b):
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exp, c in (terms or {}).items():
            c = Cyclotomic.coerce(c)
            if not c.is_zero():
                clean[tuple(int(x) for x in exp)] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def _of(cls, nvars, terms):
        """Wrap a dict of nonzero Cyclotomic coefficients as is."""
        p = cls(nvars)
        p.terms = terms
        return p

    @staticmethod
    def zero(nvars):
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars, c):
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def monomial(nvars, exp, c=1):
        return Polynomial(nvars, {tuple(exp): c})

    @classmethod
    def variable(cls, i, nvars):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- helpers

    def is_zero(self):
        return not self.terms

    def _operand(self, other):
        """other as an element of this ring; scalars become constants."""
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return type(self)(self.nvars, {(0,) * self.nvars: other})
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"and {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._operand(other).terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return type(self)(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return type(self)(self.nvars, {exp: c * other for exp, c in self.terms.items()})
        other = self._operand(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _add(e1, e2)
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return type(self)(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError(f"negative power {k}")
        return square_and_multiply(self, k, self._operand(1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a Cyclotomic hashes its demoted form, as equality across fields needs
        return hash((self.nvars, frozenset(self.terms.items())))

    def leading(self, order):
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def map_exponents(self, fn, new_nvars):
        terms = {}
        for e, c in self.terms.items():
            ne = fn(e)
            terms[ne] = terms[ne] + c if ne in terms else c
        return type(self)(new_nvars, terms)

    def extend_vars(self, extra):
        """Append `extra` fresh variables (exponent 0) at the end."""
        return self.map_exponents(lambda e: e + (0,) * extra, self.nvars + extra)

    def drop_last_vars(self, count):
        if any(any(e[self.nvars - count:]) for e in self.terms):
            raise ValueError(f"cannot drop variables that occur in {polynomial_to_text(self)}")
        return self.map_exponents(lambda e: e[:self.nvars - count], self.nvars - count)

    def sorted_terms(self, order=GREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    def to_text(self):
        return polynomial_to_text(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


# ---------------------------------------------------------------------------
# the Groebner core: term dicts, monic divisors, truth-value zero tests


def _reduce(f, divisors, leads, order):
    """Remainder of the term dict f on full division by monic `divisors`
    with leading terms `leads`: a term's coefficient is itself the
    reduction factor, so nothing is divided."""
    key = order.key
    remainder = {}
    work = dict(f)
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for idx, lexp in enumerate(leads):
            if _divides(lexp, exp):
                break
        else:
            # popped terms strictly decrease, so exp is new to the remainder
            remainder[exp] = coeff
            continue
        shift = _sub(exp, lexp)
        for gexp, gc in divisors[idx].items():
            if gexp == lexp:
                continue
            tgt = _add(gexp, shift)
            c = coeff * gc
            if tgt in work:
                work[tgt] = work[tgt] - c
                if not work[tgt]:
                    del work[tgt]
            else:
                # reductions only produce terms below exp, so tgt cannot be
                # banked in the remainder yet
                work[tgt] = -c
    return remainder


def _s_pair(f, g, fe, ge):
    """S-polynomial of monic term dicts with leading terms fe, ge: each is
    shifted up to their lcm, then they are subtracted."""
    lcm = _lcm_exp(fe, ge)
    fshift, gshift = _sub(lcm, fe), _sub(lcm, ge)
    terms = {_add(e, fshift): c for e, c in f.items()}
    for e, c in g.items():
        tgt = _add(e, gshift)
        diff = terms.pop(tgt) - c if tgt in terms else -c
        if diff:
            terms[tgt] = diff
    return terms


def _monic(f, lead):
    """The term dict f scaled by the inverse of its coefficient at `lead`."""
    lc = f[lead]
    if lc == 1:
        return f
    inv = 1 / lc
    return {e: c * inv for e, c in f.items()}


def _groebner(elems, order):
    """Reduced Groebner basis of nonzero term dicts, monic, sorted ascending
    by leading term.  Each element, input or remainder, joins through the
    Gebauer-Moeller update (JSC 6, 1988; Becker-Weispfenning, ch. 5): its
    leading term h drops the pending pairs whose lcm it divides strictly
    (B_k); of its pairs with the live elements of its tag it keeps one per
    minimal lcm (M, F) unless one of them is coprime (product criterion);
    elements whose leading term h divides retire from the live set but stay
    divisors.  Pairs leave the heap smallest (order key of the lcm, (i, j))
    first, and the budget (default_pair_budget) counts the pairs popped."""
    pair_budget = default_pair_budget()
    key, ntags = order.key, order.ntags
    basis, leads, live, pending = [], [], [], []

    def update(f):
        nonlocal live, pending
        h, k = max(f, key=key), len(basis)
        basis.append(_monic(f, h))
        leads.append(h)
        kept = [(lkey, (i, j), lcm) for lkey, (i, j), lcm in pending
                if not _divides(h, lcm)
                or lcm in (_lcm_exp(leads[i], h), _lcm_exp(leads[j], h))]
        if len(kept) < len(pending):
            pending = kept
            heapq.heapify(pending)
        partners = {}  # lcm -> live partners of h, ascending
        for i in live:
            if leads[i][:ntags] == h[:ntags]:
                partners.setdefault(_lcm_exp(leads[i], h), []).append(i)
        for lcm, group in partners.items():
            # no module lcm is a sum: a sum doubles the nonzero component entries
            if not any(other != lcm and _divides(other, lcm) for other in partners) \
                    and all(lcm != _add(leads[i], h) for i in group):
                heapq.heappush(pending, (key(lcm), (group[0], k), lcm))
        live = [i for i in live if not _divides(h, leads[i])] + [k]

    for f in elems:
        update(f)
    processed = 0
    while pending:
        _, (i, j), _ = heapq.heappop(pending)
        processed += 1
        if processed > pair_budget:
            raise BudgetExceededError(
                f"Groebner pair budget exceeded ({pair_budget} pairs)",
                pairs=processed, budget=pair_budget)
        rem = _reduce(_s_pair(basis[i], basis[j], leads[i], leads[j]), basis, leads, order)
        if rem:
            update(rem)
    # minimalize: live leading terms are distinct, and each retired one is a
    # multiple of a live one
    kept = sorted((i for i in live if not any(j != i and _divides(leads[j], leads[i])
                                              for j in live)), key=lambda i: key(leads[i]))
    # full tail reduction; leading terms are pairwise non-divisible so they
    # stay, monic, and `out` stays sorted ascending by them
    kept_leads = [leads[i] for i in kept]
    out = [basis[i] for i in kept]
    for i in range(len(out)):
        out[i] = _reduce(out[i], out[:i] + out[i + 1:],
                         kept_leads[:i] + kept_leads[i + 1:], order)
    return out


def normal_form(f, gens, order):
    """Full multivariate division remainder of f by gens, deterministic.
    Every divisor must be monic, as the bases buchberger returns are."""
    gens = [g for g in gens if not g.is_zero()]
    return Polynomial._of(f.nvars, _reduce(f.terms, [g.terms for g in gens],
                                           [g.leading(order)[0] for g in gens], order))


def s_polynomial(f, g, order):
    """S-polynomial of two monic polynomials: each is shifted up to the lcm
    of the leading monomials, then they are subtracted."""
    return Polynomial._of(f.nvars, _s_pair(f.terms, g.terms,
                                           f.leading(order)[0], g.leading(order)[0]))


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis, monic, sorted ascending by leading monomial.
    Raises BudgetExceededError after processing default_pair_budget()
    S-pairs (TGKZ_PAIR_BUDGET or 5000)."""
    gens = [g for g in gens if not g.is_zero()]
    # every coefficient enters Q(zeta_e) for the lcm e of their orders, so
    # no step of the core lifts one again
    e = lcm(*(c.order for g in gens for c in g.terms.values()))
    basis = _groebner([{x: c.lift(e) for x, c in g.terms.items()} for g in gens], order)
    return [Polynomial._of(gens[0].nvars, t) for t in basis]


@frozen
class IdealBasis:
    """An ideal by its reduced grevlex Groebner basis (monic, sorted
    ascending by leading monomial), so equal ideals have equal bases."""

    nvars: int
    generators: tuple


def groebner_ideal(gens, nvars=None) -> IdealBasis:
    gens = [g for g in gens if not g.is_zero()]
    if nvars is None:
        if not gens:
            raise ValueError("nvars required for the zero ideal")
        nvars = gens[0].nvars
    return IdealBasis(nvars, tuple(buchberger(gens, GREVLEX)))


def ideal_member(f, ideal: IdealBasis) -> bool:
    return normal_form(f, list(ideal.generators), GREVLEX).is_zero()


def ideal_equal(a: IdealBasis, b: IdealBasis) -> bool:
    return a.nvars == b.nvars and a.generators == b.generators


def eliminate(gens, elim_indices):
    """Generators of the elimination ideal (still in the big ring)."""
    basis = buchberger(gens, BlockElim(elim_indices))
    elim = set(elim_indices)
    return [g for g in basis if all(all(e[i] == 0 for i in elim) for e in g.terms)]


def _eliminate_last(gens, n):
    """The ideal of gens, in n + 1 variables, met with the ring of the first
    n.  On monomials free of the last variable BlockElim([n]) compares as
    grevlex does, so the part of its reduced basis free of that variable
    already is the reduced grevlex basis, ascending."""
    kept = eliminate(gens, [n])
    return IdealBasis(n, tuple(g.drop_last_vars(1) for g in kept))


def saturate(ideal: IdealBasis, var_indices) -> IdealBasis:
    """(I : (prod of the given variables)^infinity), reduced grevlex basis."""
    if not ideal.generators:
        return IdealBasis(ideal.nvars, ())
    n = ideal.nvars
    gens = [g.extend_vars(1) for g in ideal.generators]
    prod = Polynomial.variable(n, n + 1)
    for j in var_indices:
        prod = prod * Polynomial.variable(j, n + 1)
    gens.append(prod - 1)
    return _eliminate_last(gens, n)


def saturate_graded(gens, weights, var):
    """A Groebner basis of (gens) : x_var^infinity under WeightedLast(
    weights, var), for gens homogeneous in the weights w >= 0 with w[var] >
    0: their reduced basis in that order, each element divided by its
    largest power of x_var (Bigatti-La Scala-Robbiano, JSC 27, 1999)."""
    out = []
    for g in buchberger(gens, WeightedLast(weights, var)):
        k = min(e[var] for e in g.terms)
        out.append(g.map_exponents(lambda e: e[:var] + (e[var] - k,) + e[var + 1:], g.nvars)
                   if k else g)
    return out


def intersect(a: IdealBasis, b: IdealBasis) -> IdealBasis:
    """I cap J via t*I + (1-t)*J and elimination of t."""
    if a.nvars != b.nvars:
        raise ValueError(f"ideals in different rings: {a.nvars} and {b.nvars} variables")
    n = a.nvars
    if not a.generators or not b.generators:
        return IdealBasis(n, ())
    t = Polynomial.variable(n, n + 1)
    gens = [t * g.extend_vars(1) for g in a.generators]
    gens += [(Polynomial.constant(n + 1, 1) - t) * g.extend_vars(1) for g in b.generators]
    return _eliminate_last(gens, n)


def intersect_many(ideals) -> IdealBasis:
    if not ideals:
        raise ValueError("intersection of no ideals")
    out = ideals[0]
    for nxt in ideals[1:]:
        out = intersect(out, nxt)
    return out


# ---------------------------------------------------------------------------
# free-module Groebner bases: dicts {(component, exponents): coeff} on the core


def _core_terms(elem):
    return {(p + 1, -p - 1) + u: c for (p, u), c in elem.items()}


def module_normal_form(elem, gens, leads, eliminate=0):
    """Remainder of a module element on full division by monic `gens`, whose
    leading terms are `leads`, under TermOverPosition(eliminate)."""
    rem = _reduce(_core_terms(elem), [_core_terms(g) for g in gens],
                  [(p + 1, -p - 1) + u for p, u in leads], TermOverPosition(eliminate))
    return {(t[0] - 1, t[2:]): c for t, c in rem.items()}


def module_groebner(elems, eliminate=0):
    """Reduced Groebner basis of the submodule generated by elems under
    TermOverPosition(eliminate), with buchberger's contract."""
    basis = _groebner([_core_terms(e) for e in elems if e], TermOverPosition(eliminate))
    return [{(t[0] - 1, t[2:]): c for t, c in g.items()} for g in basis]


# ---------------------------------------------------------------------------
# text format: canonical printing and parsing
#
# poly   := ("+"|"-")* term (("+"|"-")+ term)*, a run of signs as one sign
# term   := factor ("*" factor)*
# factor := rational | "zeta(" int ")" ["^" int] | var ["^" int] | "(" poly ")"
# int    := "-"* digits
# var    := name followed by a 1-based index, e.g. d1, x3


def monomial_text(exp, names=("d",)):
    """Variable i is names[i // w] with index i % w + 1, w = len(exp) //
    len(names): the naming parse_polynomial reads."""
    w = len(exp) // len(names)
    parts = []
    for i, k in enumerate(exp):
        if k == 0:
            continue
        name = f"{names[i // w]}{i % w + 1}"
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def polynomial_to_text(p: Polynomial, names=("d",), order=GREVLEX) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for exp, c in p.sorted_terms(order):
        mono = monomial_text(exp, names)
        q = c.demoted().rational_value()
        if q is not None:
            chunks.append(scaled_text(q, mono))
            continue
        text = c.to_text()
        if mono and ("+" in text or " - " in text):  # a sum before a monomial
            text = f"({text})"
        chunks.append(f"{text}*{mono}" if mono else text)
    return signed_sum(chunks)


# a run of decimal digits, a run of letters, an operator, any other character
_TOKEN = re.compile(r"(\d+)|([^\W\d_]+)|([-+*/^()])|(\S)")


def _tokens(text):
    """The tokens of `text` as (kind, value) pairs: ("num", int),
    ("name", str) or (op, op); whitespace separates tokens."""
    for num, name, op, other in _TOKEN.findall(text):
        if other:
            raise ValueError(f"unexpected character {other!r} in polynomial text")
        if num:
            yield "num", int(num)
        elif name:
            yield "name", name
        else:
            yield op, op


def _check_power_size(c: Cyclotomic, k):
    """Refuse c^k when it would take more than MAX_POWER_BITS bits: |k|
    times the bit size of c, unless c is a root of unity, whose powers stay
    as small as it is."""
    bits = max(c.den.bit_length(), sum(map(abs, c.num)).bit_length())
    if abs(k) * bits <= MAX_POWER_BITS:
        return
    form = c.unit_rational_form()
    if form is None or abs(form[0]) != 1:
        raise SpecError(f"power too large: a {bits}-bit constant to the power {k} "
                        f"would take about {abs(k) * bits} bits, more than {MAX_POWER_BITS}",
                        exponent=k, bits=bits, bound=MAX_POWER_BITS)


def parse_polynomial(text, nvars, names=("d",)) -> Polynomial:
    """Parse the canonical text format.

    `names` lists accepted variable prefixes; prefix p with index i maps to
    flat variable (prefix_position * nvars + i - 1).  Total variables =
    len(names) * nvars.
    """
    toks = list(_tokens(text))[::-1]  # the next token last
    total = len(names) * nvars

    def peek():
        return toks[-1] if toks else (None, None)

    def take(kind):
        if peek()[0] != kind:
            raise ValueError(f"expected {kind!r}, got {peek()!r}")
        return toks.pop()

    def signs(accepted):
        """+1 or -1: the product of a run of the `accepted` signs."""
        sign = 1
        while peek()[0] in accepted:
            if toks.pop()[0] == "-":
                sign = -sign
        return sign

    def parse_int():
        return signs(("-",)) * take("num")[1]

    def atom():
        kind, val = peek()
        if kind not in ("(", "num", "name"):
            raise ValueError(f"unexpected token {kind!r}")
        toks.pop()
        if kind == "(":
            p = expr()
            take(")")
            return p
        if kind == "num":
            if peek()[0] == "/":
                toks.pop()
                return Polynomial.constant(total, Fraction(val, take("num")[1]))
            return Polynomial.constant(total, val)
        if val == "zeta":
            take("(")
            e = take("num")[1]
            take(")")
            k = 1
            if peek()[0] == "^":
                toks.pop()
                k = parse_int()
            return Polynomial.constant(total, Cyclotomic.zeta(e, k))
        for pos, prefix in enumerate(names):
            if val == prefix:
                idx = take("num")[1]
                if not 1 <= idx <= nvars:
                    raise ValueError(f"variable index out of range: {prefix}{idx}")
                return Polynomial.variable(pos * nvars + idx - 1, total)
        raise ValueError(f"unknown name {val!r}")

    def factor():
        base = atom()
        if peek()[0] == "^":
            toks.pop()
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
        while peek()[0] == "*":
            toks.pop()
            p = p * factor()
        return p

    def expr():  # negate, not multiply by -1, so a root of unity keeps its tag
        p = term() if signs(("+", "-")) > 0 else -term()
        while peek()[0] in ("+", "-"):
            p = p + term() if signs(("+", "-")) > 0 else p - term()
        return p

    out = expr()
    if toks:
        raise ValueError(f"trailing input at token {peek()!r}")
    return out


def parse_scalar(text) -> Cyclotomic:
    """Parse a constant expression (rationals, zeta powers, sums, products)."""
    p = parse_polynomial(str(text), 0, names=())
    # with no variable names every term has the empty exponent ()
    return p.terms.get((), Cyclotomic.zero())
