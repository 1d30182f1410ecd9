"""The bounded relation search, kept as a test-only oracle for the exact
relation module of systems.bbgkz_primitive_presentation.

It builds every module binomial y_g d^u - y_g' d^v whose two sides have
total degree at most a bound and equal full-group degree, drops the ones
already in the span of those kept before it, and takes the reduced module
Groebner basis; the search counts as stable at bound b when bound b + 2
gives the same basis.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from tgkz.poly import TermOverPosition, _monic, module_groebner, module_normal_form


def monomials_up_to(n, bound):
    for total in range(bound + 1):
        for combo in combinations_with_replacement(range(n), total):
            e = [0] * n
            for j in combo:
                e[j] += 1
            yield tuple(e)


def pair_elements(config, generators, bound):
    """Module binomials y_g d^u - y_g' d^v, as y-tagged terms, over all monomial
    pairs with equal full-group degree, one spanning chain per degree bucket."""
    m = len(generators)
    tags = [(0,) * gi + (1,) + (0,) * (m - 1 - gi) for gi in range(m)]
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
        first, *others = [tags[gi] + u for u, gi in sorted(buckets[key])]
        for other in others:
            elements.append({first: one, other: -one})
    return elements


def span_reduce(elems, order):
    """The elements in order of leading term, dropping each one already in
    the span of those kept before it; the kept ones are made monic."""
    key = order.key
    kept, leads = [], []
    for e in sorted(elems, key=lambda e: key(max(e, key=key))):
        r = module_normal_form(e, kept, order, leads) if kept else e
        if r:
            lead = max(r, key=key)
            kept.append(_monic(r, lead))
            leads.append(lead)
    return kept


def bounded_basis(config, generators, bound):
    """Reduced module Groebner basis of the pair elements up to `bound`."""
    order = TermOverPosition(len(generators))
    return module_groebner(span_reduce(pair_elements(config, generators, bound), order),
                           order)


def stable_basis(config, generators, bound):
    """The bounded basis at `bound`, or None when bound + 2 changes it."""
    basis = bounded_basis(config, generators, bound)
    return basis if basis == bounded_basis(config, generators, bound + 2) else None
