"""Two test-only oracles for the exact relation module of
systems.bbgkz_primitive_presentation.

The bounded relation search builds every module binomial y_g d^u - y_g' d^v
whose two sides have total degree at most a bound and equal full-group
degree, drops the ones already in the span of those kept before it, and
takes the reduced module Groebner basis; the search counts as stable at
bound b when bound b + 2 gives the same basis.

The two-run construction is the exact kernel as systems computed it before
its eliminating order: a position-over-term kernel run, then a
TermOverPosition run on the kernel to make its basis canonical.

Module elements are dicts {(generator index, exponents): coefficient}, as
poly.module_groebner takes and returns them.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

from tgkz.binomials import toric_ideal_full
from tgkz.lattice import express_in_columns
from tgkz.poly import GREVLEX, _monic, module_groebner, module_normal_form


def monomials_up_to(n, bound):
    for total in range(bound + 1):
        for combo in combinations_with_replacement(range(n), total):
            e = [0] * n
            for j in combo:
                e[j] += 1
            yield tuple(e)


def pair_elements(config, generators, bound):
    """Module binomials y_g d^u - y_g' d^v over all monomial pairs with equal
    full-group degree, one spanning chain per degree bucket."""
    buckets = {}
    for u in monomials_up_to(config.n, bound):
        shift = config.group.zero()
        for j, e in enumerate(u):
            if e:
                shift = shift + e * config.columns[j]
        for gi, t in enumerate(generators):
            deg = shift + t
            buckets.setdefault((deg.torsion, deg.free), []).append((u, gi))
    elements = []
    one = Fraction(1)
    for key in sorted(buckets):
        first, *others = [(gi, u) for u, gi in sorted(buckets[key])]
        for other in others:
            elements.append({first: one, other: -one})
    return elements


def term_key(term):
    """The TermOverPosition order with nothing eliminated, on (component,
    exponents) terms: grevlex on the exponents, then the smaller component."""
    comp, exp = term
    return GREVLEX.key(exp), -comp


def span_reduce(elems):
    """The elements in order of leading term, dropping each one already in
    the span of those kept before it; the kept ones are made monic."""
    kept, leads = [], []
    for e in sorted(elems, key=lambda e: term_key(max(e, key=term_key))):
        r = module_normal_form(e, kept, leads) if kept else e
        if r:
            lead = max(r, key=term_key)
            kept.append(_monic(r, lead))
            leads.append(lead)
    return kept


def bounded_basis(config, generators, bound):
    """Reduced module Groebner basis of the pair elements up to `bound`."""
    return module_groebner(span_reduce(pair_elements(config, generators, bound)))


def stable_basis(config, generators, bound):
    """The bounded basis at `bound`, or None when bound + 2 changes it."""
    basis = bounded_basis(config, generators, bound)
    return basis if basis == bounded_basis(config, generators, bound + 2) else None


def two_run_relation_module(config, generators):
    """The reduced TermOverPosition basis of the relations among the
    generators: the kernel of y_j -> d^(v_j) into S / I per class of N / ZA
    (see systems._relation_module) from one position-over-term run with a
    component e_C per class ahead of the generators, then canonical in a
    second run.  Position over term is TermOverPosition eliminating every
    component: the smaller component wins, then grevlex.  Every term of a
    component is larger than any term of a later one, so a reduced basis
    whose element leads in a later component has no term in the earlier
    ones: it eliminates them."""
    m, n = len(generators), config.n
    classes = []  # per class: [(generator index, w)], first member w = 0
    for j, g in enumerate(generators):
        for cls in classes:
            w = express_in_columns(config.columns, config.group, g - generators[cls[0][0]])
            if w is not None:
                cls.append((j, w))
                break
        else:
            classes.append([(j, (0,) * n)])
    c = len(classes)
    elems = []
    for p, cls in enumerate(classes):
        elems += [{(p, e): coeff.rational_value() for e, coeff in g.terms.items()}
                  for g in toric_ideal_full(config).generators]
        shift = [max(0, *(-w[k] for _, w in cls)) for k in range(n)]
        elems += [{(p, tuple(map(add, w, shift))): Fraction(1),
                   (c + j, (0,) * n): Fraction(-1)} for j, w in cls]
    kernel = [{(p - c, u): coeff for (p, u), coeff in e.items()}
              for e in module_groebner(elems, eliminate=c + m)
              if all(p >= c for p, _ in e)]
    return module_groebner(kernel)
