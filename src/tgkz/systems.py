"""D-module presentations attached to a semigroup module and a parameter.

Two presentation shapes are produced: the full form on a finite height slice
of the module (one generator per module element in the slice, one lowering
relation per column) and the finite primitive form (one generator per
primitive element, binomial gluing relations found by bounded search and
reduced to a canonical module Groebner basis, plus shifted Euler relations).
Quasi-degree arrangements and the homology vanishing test live here too.

The relation search writes the term d^u 1_c as the y-tagged exponent
onehot_m(c) + u (poly.TermOverPosition) with a Fraction coefficient (the
binomials are rational); WeylElement coerces to Cyclotomic when relations
are built.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import fieldlin
from .binomials import face_twisted_ideal, markov_basis
from .cones import (AffinePiece, Arrangement, PointConfig, facets,
                    homogenizing_functional, membership_in_arrangement,
                    positive_grading)
from .cyclotomic import Cyclotomic
from .errors import NotHomogeneousError, NotStabilizedError, SliceTooSmallError
from .poly import TermOverPosition, module_groebner, module_span_reduce
from .semigroups import (EXPLICIT, K, K_INTERIOR, SemigroupModule,
                         cone_points_up_to, elements_with_height_at_most,
                         module_generators, primitive_elements)
from .weyl import WeylElement, euler_operators

K_MOD_KINTERIOR = "K_MOD_KINTERIOR"
FACE = "FACE"


@dataclass(frozen=True)
class SystemPresentation:
    """Generators indexed by group degrees and left-module relations; each
    relation is a tuple of (generator index, normally ordered operator)."""

    config: PointConfig
    module_kind: str
    beta: tuple
    generators: tuple
    relations: tuple
    bounds: tuple = ()

    def to_json(self):
        return {
            "module": self.module_kind,
            "beta": [b.to_text() for b in self.beta],
            "generators": [{"torsion": list(g.torsion), "free": list(g.free)}
                           for g in self.generators],
            "relations": [
                [{"generator_index": idx, "operator": op.to_json()}
                 for idx, op in rel]
                for rel in self.relations],
            "bounds": {k: v for k, v in self.bounds},
        }


def coerce_beta(beta, d):
    beta = tuple(Cyclotomic.coerce(b) for b in beta)
    if len(beta) != d:
        raise ValueError(f"parameter needs {d} entries, got {len(beta)}")
    return beta


def _relation_key(rel):
    return tuple((idx, op.to_text()) for idx, op in rel)


def _make_relation(pairs):
    merged = {}
    for idx, op in pairs:
        merged[idx] = merged[idx] + op if idx in merged else op
    out = tuple((idx, merged[idx]) for idx in sorted(merged)
                if not merged[idx].is_zero())
    return out


def _primitive_set_for(module: SemigroupModule):
    if module.kind == EXPLICIT:
        return primitive_elements(module)
    return module_generators(module)


def _euler_relations(config, beta, generators):
    ops = euler_operators(config)
    out = []
    for gi, t in enumerate(generators):
        for i in range(config.d):
            coeff = beta[i] - Fraction(t.free[i])
            out.append(_make_relation([(gi, ops[i] - coeff)]))
    return out


def bbgkz_relations(module: SemigroupModule, beta, degree_bound) -> SystemPresentation:
    """Full presentation on the height slice of the module.

    Generators: every module element whose free part has height at most the
    bound.  Relations: the lowering relation d_j 1_u - 1_{u+a_j} whenever
    both endpoints fit in the slice, and a shifted Euler relation per
    generator and coordinate.  The slice must contain every primitive
    element or the presentation could not generate the module.
    """
    config = module.config
    n = config.n
    beta = coerce_beta(beta, config.d)
    height = positive_grading(config)
    prim = _primitive_set_for(module)
    top = max((height(v) for v in prim.degrees), default=Fraction(0))
    if Fraction(degree_bound) < top:
        raise SliceTooSmallError(
            f"slice bound {degree_bound} is below the largest primitive height {top}",
            bound=degree_bound)
    gens = tuple(elements_with_height_at_most(module, height, degree_bound))
    index = {g: i for i, g in enumerate(gens)}
    binomials = []
    for u, i in index.items():
        for j in range(n):
            v = u + config.columns[j]
            if v in index:
                rel = _make_relation([
                    (i, WeylElement.d(j, n)),
                    (index[v], WeylElement.constant(n, -1))])
                binomials.append(rel)
    binomials.sort(key=_relation_key)
    relations = tuple(binomials) + tuple(_euler_relations(config, beta, gens))
    return SystemPresentation(config, module.kind, beta, gens, relations,
                              (("h_degree_bound", int(degree_bound)),))


# ---------------------------------------------------------------------------
# primitive presentation


def default_binomial_bound(config: PointConfig) -> int:
    """2 + 2*ell*(largest one-sided degree of a Markov move); the bounded
    pair search plus a stabilization check stands in for a generating-degree
    bound that is not known in closed form."""
    moves = markov_basis(config)
    top = 1
    for m in moves:
        top = max(top, sum(x for x in m if x > 0), -sum(x for x in m if x < 0))
    return 2 + 2 * config.ell * top


def _monomials_up_to(n, bound):
    for total in range(bound + 1):
        for combo in combinations_with_replacement(range(n), total):
            e = [0] * n
            for j in combo:
                e[j] += 1
            yield tuple(e)


def _pair_elements(config, generators, bound):
    """Module binomials y_g d^u - y_g' d^v, as y-tagged terms, over all monomial
    pairs with equal full-group degree, one spanning chain per degree bucket."""
    m = len(generators)
    tags = [(0,) * gi + (1,) + (0,) * (m - 1 - gi) for gi in range(m)]
    buckets = {}
    for u in _monomials_up_to(config.n, bound):
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
        # each tagged term is built once and shared by the elements using it
        first, *others = [tags[gi] + u for u, gi in sorted(buckets[key])]
        for other in others:
            elements.append({first: one, other: -one})
    return elements


def _module_basis(config, generators, bound):
    order = TermOverPosition(len(generators))
    return module_groebner(
        module_span_reduce(_pair_elements(config, generators, bound), order), order)


def bbgkz_primitive_presentation(module: SemigroupModule, beta,
                                 binomial_degree_bound=None) -> SystemPresentation:
    """Finite presentation on the primitive generators.

    Binomial relations are the reduced module Groebner basis of all
    degree-matched operator pairs d^u 1_t - d^v 1_t' with one-sided degree
    within the bound; the same basis is recomputed two degrees higher and
    must agree (stabilization), otherwise the bound was too small and the
    run fails loudly rather than under-reporting relations.
    """
    config = module.config
    n = config.n
    beta = coerce_beta(beta, config.d)
    prim = _primitive_set_for(module)
    gens = prim.elements
    bound = default_binomial_bound(config) if binomial_degree_bound is None \
        else int(binomial_degree_bound)
    basis = _module_basis(config, gens, bound)
    wider = _module_basis(config, gens, bound + 2)
    if basis != wider:
        raise NotStabilizedError(
            f"binomial relations did not stabilize at bound {bound}", bound=bound)
    m = len(gens)
    binomials = []
    for elem in basis:
        degs = set()
        by_comp = {}
        for term, c in elem.items():
            gi, exp = term[:m].index(1), term[m:]
            deg = gens[gi]
            for j, e in enumerate(exp):
                if e:
                    deg = deg + e * config.columns[j]
            degs.add((deg.torsion, deg.free))
            by_comp.setdefault(gi, {})[((0,) * n, exp)] = c
        if len(degs) != 1:
            raise NotHomogeneousError("binomial relation is not degree homogeneous",
                                      bound=bound, degrees=len(degs))
        rel = _make_relation([(gi, WeylElement(n, 1, terms)) for gi, terms in by_comp.items()])
        binomials.append(rel)
    binomials.sort(key=_relation_key)
    relations = tuple(binomials) + tuple(_euler_relations(config, beta, gens))
    return SystemPresentation(config, module.kind, beta, gens, relations,
                              (("binomial_degree_bound", bound),
                               ("stabilized_at", bound + 2)))


def h0_face_presentation(config: PointConfig, face, rho, beta) -> SystemPresentation:
    """Cyclic presentation by the face ideal plus the Euler relations."""
    beta = coerce_beta(beta, config.d)
    ideal = face_twisted_ideal(config, face, rho)
    gens = (config.group.zero(),)
    relations = [
        _make_relation([(0, WeylElement.from_differential_polynomial(g))])
        for g in ideal.generators]
    ops = euler_operators(config)
    for i in range(config.d):
        relations.append(_make_relation([(0, ops[i] - beta[i])]))
    return SystemPresentation(config, FACE, beta, gens, tuple(relations),
                              (("face_columns", tuple(face.column_indices)),))


# ---------------------------------------------------------------------------
# quasi-degrees and the homology vanishing test


def quasi_degrees(config: PointConfig, kind, face=None, shift=None) -> Arrangement:
    """Zariski closure of the graded degrees of the chosen module.

    The closure and interior modules fill the whole space; the quotient
    boundary module contributes, per facet, the spans of the facet columns
    shifted by the degrees of the facet boundary generators (found by
    bounded enumeration); a face module contributes one shifted span.
    """
    d = config.d
    zero = (Fraction(0),) * d
    if kind in (K, K_INTERIOR):
        piece = AffinePiece(zero, tuple(config.nonzero_free_columns()),
                            tuple(config.nonunit_indices()))
        return Arrangement(d, (piece,))
    if kind == FACE:
        assert face is not None
        span = tuple(sorted({config.columns[j].free for j in face.column_indices
                             if any(x != 0 for x in config.columns[j].free)}))
        shift = zero if shift is None else tuple(Fraction(s) for s in shift)
        piece = AffinePiece(shift, span, tuple(face.column_indices))
        rank = fieldlin.rank([[Fraction(x) for x in v] for v in span]) if span else 0
        return Arrangement(rank, (piece,))
    assert kind == K_MOD_KINTERIOR, f"unsupported module spec {kind!r}"
    height = positive_grading(config)
    taus = facets(config)
    pieces = {}
    for tau in taus:
        cols_on = tuple(j for j in range(config.n)
                        if tau(config.columns[j].free) == 0)
        span = tuple(sorted({config.columns[j].free for j in cols_on
                             if any(x != 0 for x in config.columns[j].free)}))
        span_frac = [[Fraction(x) for x in v] for v in span]
        bound = sum((height(v) for v in span), Fraction(0)) + 1
        boundary = [p for p in cone_points_up_to(config, height, bound)
                    if tau(p) == 0]
        on_boundary = set(boundary)
        all_taus = taus
        for p in boundary:
            reducible = False
            for v in span:
                q = tuple(a - b for a, b in zip(p, v))
                if q in on_boundary or (all(t(q) >= 0 for t in all_taus)
                                        and tau(q) == 0):
                    reducible = True
                    break
            if reducible:
                continue
            if span and fieldlin.in_span(span_frac, [Fraction(x) for x in p]):
                shift_t = zero
            else:
                shift_t = tuple(Fraction(x) for x in p)
            pieces[(shift_t, span)] = AffinePiece(shift_t, span, cols_on)
    ordered = tuple(pieces[k] for k in sorted(pieces))
    top = 0
    for piece in ordered:
        if piece.span_vectors:
            top = max(top, fieldlin.rank([[Fraction(x) for x in v]
                                          for v in piece.span_vectors]))
    return Arrangement(top, ordered)


VANISHES = "VANISHES"
NONVANISHING = "NONVANISHING"


def vanishing_test(config: PointConfig, kind, beta, face=None, shift=None) -> str:
    """Terminal homology of the twisted Euler complex is nonzero exactly when
    the parameter lies on the module's quasi-degree arrangement."""
    beta = coerce_beta(beta, config.d)
    arrangement = quasi_degrees(config, kind, face=face, shift=shift)
    if membership_in_arrangement(beta, arrangement):
        return NONVANISHING
    return VANISHES


def regularity_certificate(config: PointConfig):
    """A functional taking value one on every column certifies regularity of
    the homology; None means no certificate from this criterion."""
    return homogenizing_functional(config)
