"""Commutative polynomial algebra over Q(zeta_e).

Monomial orders, Buchberger with a pair budget, reduced Groebner bases,
saturation and intersection by variable adjunction/elimination, a small
module-level Buchberger for submodules of free modules (used by the
presentation builder), and the canonical round-trippable text format.

Polynomial coefficients are Cyclotomic.  A polynomial Groebner basis is
monic from the moment an element enters it, and normal_form takes monic
divisors, so S-polynomials and reductions never divide by a leading
coefficient.  Module element coefficients may be Fraction or Cyclotomic:
the presentation builder feeds rational binomials as Fraction, which skips
the field arithmetic.
"""

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd

from .cyclotomic import Cyclotomic
from .errors import BudgetExceededError, SpecError

DEFAULT_PAIR_BUDGET = 5000


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
    def key(self, exp):
        raise NotImplementedError

    def tag(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.tag() == other.tag()

    def __hash__(self):
        return hash(self.tag())


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic."""

    def key(self, exp):
        return (sum(exp), tuple(-x for x in reversed(exp)))

    def tag(self):
        return "grevlex"


class BlockElim(MonomialOrder):
    """Eliminate the given variables: their total degree is compared first,
    grevlex breaks ties.  Monomials free of the block are smaller than any
    monomial meeting it, which is what elimination needs."""

    def __init__(self, elim):
        self.elim = tuple(sorted(elim))

    def key(self, exp):
        return (sum(exp[i] for i in self.elim), sum(exp), tuple(-x for x in reversed(exp)))

    def tag(self):
        return f"elim:{list(self.elim)}"


GREVLEX = Grevlex()


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _lcm_exp(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    __slots__ = ("nvars", "field_order", "terms")

    def __init__(self, nvars, field_order=1, terms=None):
        self.nvars = int(nvars)
        self.field_order = int(field_order)
        clean = {}
        for exp, c in (terms or {}).items():
            c = Cyclotomic.coerce(c)
            if not c.is_zero():
                clean[tuple(int(x) for x in exp)] = c
        self.terms = clean

    # -- constructors

    @staticmethod
    def _of(nvars, field_order, terms):
        """Wrap a dict of nonzero Cyclotomic coefficients as is."""
        p = Polynomial(nvars, field_order)
        p.terms = terms
        return p

    @staticmethod
    def zero(nvars, field_order=1):
        return Polynomial(nvars, field_order)

    @staticmethod
    def constant(nvars, c, field_order=1):
        c = Cyclotomic.coerce(c)
        return Polynomial(nvars, max(field_order, c.order), {(0,) * nvars: c})

    @staticmethod
    def monomial(nvars, exp, c=1, field_order=1):
        c = Cyclotomic.coerce(c)
        return Polynomial(nvars, max(field_order, c.order), {tuple(exp): c})

    @staticmethod
    def variable(i, nvars, field_order=1):
        exp = [0] * nvars
        exp[i] = 1
        return Polynomial.monomial(nvars, exp, 1, field_order)

    # -- helpers

    def is_zero(self):
        return not self.terms

    def promote(self, field_order):
        if field_order == self.field_order:
            return self
        assert field_order % self.field_order == 0
        return Polynomial(self.nvars, field_order,
                          {e: c.lift(field_order) for e, c in self.terms.items()})

    def _pair(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = Polynomial.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        e = self.field_order * other.field_order // _gcd(self.field_order, other.field_order)
        return self.promote(e), other.promote(e)

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return Polynomial(a.nvars, a.field_order, terms)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms[e] - c if e in terms else -c
        return Polynomial(a.nvars, a.field_order, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.nvars, self.field_order,
                          {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c0 = Cyclotomic.coerce(other)
            e = self.field_order * c0.order // _gcd(self.field_order, c0.order)
            return Polynomial(self.nvars, e,
                              {exp: c * c0 for exp, c in self.terms.items()})
        a, b = self._pair(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = _add(e1, e2)
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return Polynomial(a.nvars, a.field_order, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        assert k >= 0
        out = Polynomial.constant(self.nvars, 1, self.field_order)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

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
        return Polynomial(new_nvars, self.field_order, terms)

    def extend_vars(self, extra):
        """Append `extra` fresh variables (exponent 0) at the end."""
        return self.map_exponents(lambda e: e + (0,) * extra, self.nvars + extra)

    def drop_last_vars(self, count):
        assert all(all(x == 0 for x in e[self.nvars - count:]) for e in self.terms)
        return self.map_exponents(lambda e: e[:self.nvars - count], self.nvars - count)

    def sorted_terms(self, order=GREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    def __repr__(self):
        return f"Polynomial({polynomial_to_text(self)})"


def _common_field(polys):
    e = 1
    for p in polys:
        e = e * p.field_order // _gcd(e, p.field_order)
    return e


def normal_form(f, gens, order, leads=None):
    """Full multivariate division remainder of f by gens, deterministic.

    Every divisor must be monic (leading coefficient 1), as the bases that
    buchberger returns are: a term's coefficient is then itself the
    reduction factor and nothing is divided.  `leads`, when given, lists
    the leading monomial of each of `gens`, which must then all be nonzero.
    """
    if leads is None:
        gens = [g for g in gens if not g.is_zero()]
        leads = [g.leading(order)[0] for g in gens]
    if f.is_zero() or not gens:
        return f
    e = _common_field([f] + gens)
    f = f.promote(e)
    gens = [g.promote(e) for g in gens]
    remainder = {}
    work = dict(f.terms)
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        for idx, lexp in enumerate(leads):
            if _divides(lexp, exp):
                break
        else:
            # popped terms strictly decrease, so exp is new to the remainder
            remainder[exp] = coeff
            continue
        shift = _sub(exp, lexp)
        for gexp, gc in gens[idx].terms.items():
            if gexp == lexp:
                continue
            tgt = _add(gexp, shift)
            c = coeff * gc
            if tgt in work:
                work[tgt] = work[tgt] - c
                if work[tgt].is_zero():
                    del work[tgt]
            else:
                # reductions only produce terms below exp, so tgt cannot be
                # banked in the remainder yet
                work[tgt] = -c
    return Polynomial._of(f.nvars, e, remainder)


def s_polynomial(f, g, order, leads=None):
    """S-polynomial of two monic polynomials over the same field: each is
    shifted up to the lcm of the leading monomials, then they are
    subtracted, so the leading terms cancel.  `leads`, when given, is the
    pair of leading monomials."""
    fe, ge = leads if leads is not None else (f.leading(order)[0], g.leading(order)[0])
    lcm = _lcm_exp(fe, ge)
    fshift, gshift = _sub(lcm, fe), _sub(lcm, ge)
    terms = {_add(e, fshift): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        tgt = _add(e, gshift)
        diff = terms.pop(tgt) - c if tgt in terms else -c
        if diff:
            terms[tgt] = diff
    return Polynomial._of(f.nvars, _common_field([f, g]), terms)


def _monic(f, lead):
    """f scaled by the inverse of its coefficient at `lead`."""
    lc = f.terms[lead]
    if lc.is_one():
        return f
    inv = lc.inverse()
    return Polynomial._of(f.nvars, f.field_order, {e: c * inv for e, c in f.terms.items()})


def buchberger(gens, order=GREVLEX, pair_budget=None):
    """Reduced Groebner basis, monic, sorted ascending by leading monomial.

    Every element is made monic as it enters the basis (at most one
    inversion per element), so S-polynomials and reductions never divide.  Raises
    BudgetExceededError after processing `pair_budget` S-pairs (default
    from TGKZ_PAIR_BUDGET or 5000).
    """
    if pair_budget is None:
        pair_budget = default_pair_budget()
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    e = _common_field(basis)
    leads = [g.leading(order)[0] for g in basis]
    basis = [_monic(g.promote(e), le) for g, le in zip(basis, leads)]

    def entry(i, j):
        return order.key(_lcm_exp(leads[i], leads[j])), (i, j)

    # pairs leave the heap smallest (order key of the lcm, (i, j)) first
    pending = [entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(pending)
    processed = 0
    while pending:
        _, pair = heapq.heappop(pending)
        processed += 1
        if processed > pair_budget:
            raise BudgetExceededError(
                f"Groebner pair budget exceeded ({pair_budget} pairs)",
                pairs=processed, budget=pair_budget)
        i, j = pair
        le_i, le_j = leads[i], leads[j]
        if _lcm_exp(le_i, le_j) == _add(le_i, le_j):
            continue  # coprime leading monomials: S-poly reduces to zero
        spoly = s_polynomial(basis[i], basis[j], order, (le_i, le_j))
        rem = normal_form(spoly, basis, order, leads)
        if not rem.is_zero():
            lead = rem.leading(order)[0]
            basis.append(_monic(rem, lead))
            leads.append(lead)
            k = len(basis) - 1
            for i2 in range(k):
                heapq.heappush(pending, entry(i2, k))
    return _interreduce(basis, leads, order)


def _interreduce(basis, leads, order):
    """Reduced basis from a monic Groebner basis and its leading monomials."""
    # minimalize: drop generators whose leading monomial another one divides;
    # the sort is stable, so equal leading monomials keep their basis order
    ranked = sorted(zip(leads, basis), key=lambda lg: order.key(lg[0]))
    kept = []
    for i, (le, g) in enumerate(ranked):
        if not any(_divides(hle, le) and (hle != le or j < i)
                   for j, (hle, _) in enumerate(ranked) if j != i):
            kept.append((le, g))
    # full tail reduction; leading terms are pairwise non-divisible so they
    # stay, monic, and `kept` stays sorted ascending by them
    kept_leads = [le for le, _ in kept]
    out = [g for _, g in kept]
    for i in range(len(out)):
        out[i] = normal_form(out[i], out[:i] + out[i + 1:], order,
                             kept_leads[:i] + kept_leads[i + 1:])
    return out


@dataclass(frozen=True)
class IdealBasis:
    """A generating set, flagged when it is a reduced Groebner basis."""

    nvars: int
    generators: tuple
    order: MonomialOrder
    is_groebner: bool

    def field_order(self):
        return _common_field(list(self.generators)) if self.generators else 1


def groebner_ideal(gens, nvars=None, order=GREVLEX, pair_budget=None) -> IdealBasis:
    gens = [g for g in gens if not g.is_zero()]
    if nvars is None:
        if not gens:
            raise ValueError("nvars required for the zero ideal")
        nvars = gens[0].nvars
    basis = buchberger(gens, order, pair_budget)
    return IdealBasis(nvars, tuple(basis), order, True)


def ideal_member(f, ideal: IdealBasis) -> bool:
    basis = ideal.generators if ideal.is_groebner else \
        tuple(buchberger(list(ideal.generators), ideal.order))
    return normal_form(f, list(basis), ideal.order).is_zero()


def canonical_ideal(ideal: IdealBasis) -> IdealBasis:
    """Reduced grevlex Groebner basis: the canonical form used for equality."""
    if ideal.is_groebner and ideal.order == GREVLEX:
        return ideal
    return groebner_ideal(list(ideal.generators), ideal.nvars, GREVLEX)


def ideal_equal(a: IdealBasis, b: IdealBasis) -> bool:
    ca, cb = canonical_ideal(a), canonical_ideal(b)
    if ca.nvars != cb.nvars or len(ca.generators) != len(cb.generators):
        return False
    return all(f == g for f, g in zip(ca.generators, cb.generators))


def eliminate(gens, elim_indices, pair_budget=None):
    """Generators of the elimination ideal (still in the big ring)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    order = BlockElim(elim_indices)
    basis = buchberger(gens, order, pair_budget)
    elim = set(elim_indices)
    return [g for g in basis if all(all(e[i] == 0 for i in elim) for e in g.terms)]


def saturate(ideal: IdealBasis, var_indices, pair_budget=None) -> IdealBasis:
    """(I : (prod of the given variables)^infinity), reduced grevlex basis."""
    if not ideal.generators:
        return IdealBasis(ideal.nvars, (), GREVLEX, True)
    n = ideal.nvars
    gens = [g.extend_vars(1) for g in ideal.generators]
    prod = Polynomial.variable(n, n + 1)
    for j in var_indices:
        prod = prod * Polynomial.variable(j, n + 1)
    gens.append(prod - 1)
    kept = eliminate(gens, [n], pair_budget)
    back = [g.drop_last_vars(1) for g in kept]
    return groebner_ideal(back, n, GREVLEX, pair_budget)


def intersect(a: IdealBasis, b: IdealBasis, pair_budget=None) -> IdealBasis:
    """I cap J via t*I + (1-t)*J and elimination of t."""
    assert a.nvars == b.nvars
    n = a.nvars
    if not a.generators or not b.generators:
        return IdealBasis(n, (), GREVLEX, True)
    t = Polynomial.variable(n, n + 1)
    gens = [t * g.extend_vars(1) for g in a.generators]
    gens += [(Polynomial.constant(n + 1, 1) - t) * g.extend_vars(1) for g in b.generators]
    kept = eliminate(gens, [n], pair_budget)
    back = [g.drop_last_vars(1) for g in kept]
    return groebner_ideal(back, n, GREVLEX, pair_budget)


def intersect_many(ideals, pair_budget=None) -> IdealBasis:
    assert ideals
    out = ideals[0]
    for nxt in ideals[1:]:
        out = intersect(out, nxt, pair_budget)
    return out


# ---------------------------------------------------------------------------
# free-module Groebner bases (terms carry a component index)
#
# Elements are dicts (component, exponent) -> coefficient, a Fraction or a
# Cyclotomic; tests for zero use truth value.  The order is
# term-over-position: grevlex on the monomial, smaller component wins ties.


def _mod_key(order, key_pair):
    comp, exp = key_pair
    return (order.key(exp), -comp)


def _mod_leading(elem, order):
    k = max(elem, key=lambda ce: _mod_key(order, ce))
    return k, elem[k]


def _mod_normal_form(elem, gens, order, leads=None):
    if not elem:
        return {}
    if leads is None:
        leads = [_mod_leading(g, order)[0] for g in gens]
    remainder = {}
    work = dict(elem)
    while work:
        key = max(work, key=lambda ce: _mod_key(order, ce))
        coeff = work.pop(key)
        comp, exp = key
        for idx, (lcomp, lexp) in enumerate(leads):
            if lcomp == comp and _divides(lexp, exp):
                break
        else:
            remainder[key] = remainder[key] + coeff if key in remainder else coeff
            continue
        shift = _sub(exp, lexp)
        factor = coeff / gens[idx][leads[idx]]
        for (gcomp, gexp), gc in gens[idx].items():
            if (gcomp, gexp) == (comp, lexp):
                continue
            tgt = (gcomp, _add(gexp, shift))
            c = factor * gc
            if tgt in work:
                work[tgt] = work[tgt] - c
                if not work[tgt]:
                    del work[tgt]
            else:
                nc = -c
                if nc:
                    work[tgt] = nc
    return remainder


def module_normal_form(elem, gens, order=GREVLEX, leads=None):
    """Remainder of a module element on full division by `gens`.

    `leads`, when given, lists the leading (component, exponent) of each of
    `gens`.
    """
    return _mod_normal_form(elem, gens, order, leads)


def module_groebner(elems, order=GREVLEX, pair_budget=None):
    """Reduced Groebner basis of the submodule generated by elems.

    Same contract as buchberger: monic, canonical, sorted ascending by
    leading term.  S-pairs form only between elements sharing the leading
    component.  Coefficients may be Fraction or Cyclotomic; the result
    keeps the type the arithmetic produces.
    """
    if pair_budget is None:
        pair_budget = default_pair_budget()
    basis = [dict(e) for e in elems if e]
    leads = [_mod_leading(b, order)[0] for b in basis]

    def entry(i, j):
        (ci, ei), (_, ej) = leads[i], leads[j]
        return _mod_key(order, (ci, _lcm_exp(ei, ej))), (i, j)

    # pairs leave the heap smallest (order key of the lcm, (i, j)) first
    pending = [entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
               if leads[i][0] == leads[j][0]]
    heapq.heapify(pending)
    processed = 0
    while pending:
        _, (i, j) = heapq.heappop(pending)
        processed += 1
        if processed > pair_budget:
            raise BudgetExceededError(
                f"module Groebner pair budget exceeded ({pair_budget} pairs)",
                pairs=processed, budget=pair_budget)
        (_, ei), (_, ej) = leads[i], leads[j]
        lci, lcj = basis[i][leads[i]], basis[j][leads[j]]
        lcm = _lcm_exp(ei, ej)
        spair = {}
        for (c, e), co in basis[i].items():
            key = (c, _add(e, _sub(lcm, ei)))
            spair[key] = spair.get(key, 0) + co / lci
        for (c, e), co in basis[j].items():
            key = (c, _add(e, _sub(lcm, ej)))
            spair[key] = spair.get(key, 0) - co / lcj
        spair = {k: v for k, v in spair.items() if v}
        rem = _mod_normal_form(spair, basis, order, leads)
        if rem:
            basis.append(rem)
            leads.append(_mod_leading(rem, order)[0])
            k = len(basis) - 1
            for i2 in range(k):
                if leads[i2][0] == leads[k][0]:
                    heapq.heappush(pending, entry(i2, k))
    # interreduce; the stable sort keeps equal leading terms in basis order
    ranked = sorted(zip(leads, basis), key=lambda lg: _mod_key(order, lg[0]))
    kept = []
    for i, ((gc, ge), g) in enumerate(ranked):
        if not any(hc == gc and _divides(he, ge) and (he != ge or j < i)
                   for j, ((hc, he), _) in enumerate(ranked) if j != i):
            kept.append(((gc, ge), g))
    # leading terms survive the tail reduction, so `kept` stays sorted
    kept_leads = [lead for lead, _ in kept]
    out = [g for _, g in kept]
    for i in range(len(out)):
        out[i] = _mod_normal_form(out[i], out[:i] + out[i + 1:], order,
                                  kept_leads[:i] + kept_leads[i + 1:])
    return [{k: v / g[lead] for k, v in g.items()} for lead, g in zip(kept_leads, out)]


# ---------------------------------------------------------------------------
# text format: canonical printing and parsing
#
# poly   := ["+"|"-"] term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := rational | "zeta(" int ")" ["^" int] | var ["^" int] | "(" poly ")"
# var    := name followed by a 1-based index, e.g. d1, x3


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
    text = c.to_text()
    single = "+" not in text and " - " not in text
    if not with_monomial:
        return text
    if single:
        return f"{text}*"
    return f"({text})*"


def monomial_text(exp, name="d"):
    parts = []
    for i, k in enumerate(exp):
        if k == 0:
            continue
        parts.append(f"{name}{i + 1}" if k == 1 else f"{name}{i + 1}^{k}")
    return "*".join(parts)


def polynomial_to_text(p: Polynomial, name="d") -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for exp, c in p.sorted_terms():
        mono = monomial_text(exp, name)
        if not mono:
            chunks.append(_coeff_text(c, False))
        else:
            chunks.append(_coeff_text(c, True) + mono)
    out = chunks[0]
    for ch in chunks[1:]:
        if ch.startswith("-"):
            out += " - " + ch[1:]
        else:
            out += " + " + ch
    return out


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
    """Parse the canonical text format.

    `names` lists accepted variable prefixes; prefix p with index i maps to
    flat variable (prefix_position * nvars + i - 1).  Total variables =
    len(names) * nvars.
    """
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
            if k < 0:
                if len(base.terms) == 1 and set(base.terms) == {(0,) * total}:
                    c = base.terms[(0,) * total]
                    return Polynomial.constant(total, c ** k)
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


def parse_scalar(text) -> Cyclotomic:
    """Parse a constant expression (rationals, zeta powers, sums, products)."""
    p = parse_polynomial(str(text), 0, names=())
    if p.is_zero():
        return Cyclotomic.zero()
    assert set(p.terms) == {()}
    return p.terms[()]
