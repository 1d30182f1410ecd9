"""D-module presentations attached to a semigroup module and a parameter.

The presentation is the finite primitive form: one generator per primitive
element, binomial gluing relations computed exactly as a canonical module
Groebner basis, plus shifted Euler relations.  Quasi-degree arrangements
and the homology vanishing test live here too.

The relation module writes the term d^u 1_c as the y-tagged exponent
onehot_m(c) + u with a Fraction coefficient (the binomials are rational),
from one poly.TermOverPosition run that eliminates a component per class;
WeylElement coerces to Cyclotomic when relations are built.
"""

from fractions import Fraction
from operator import add

from ._value import frozen
from .binomials import markov_basis, toric_ideal_full
from .cones import (AffinePiece, Arrangement, PointConfig, facets,
                    homogenizing_functional, membership_in_arrangement,
                    positive_grading)
from .cyclotomic import Cyclotomic
from .errors import NotHomogeneousError, NotStabilizedError, SpecError
from .lattice import express_in_columns, rank
from .poly import TermOverPosition, module_groebner
from .semigroups import (EXPLICIT, K, K_INTERIOR, SemigroupModule,
                         cone_points_up_to, module_generators, primitive_elements)
from .weyl import WeylElement, euler_operators

K_MOD_KINTERIOR = "K_MOD_KINTERIOR"
FACE = "FACE"


@frozen
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
    return tuple((idx, merged[idx]) for idx in sorted(merged)
                 if not merged[idx].is_zero())


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


# ---------------------------------------------------------------------------
# primitive presentation


def default_binomial_bound(config: PointConfig) -> int:
    """The default ceiling on the one-sided degree of a binomial relation:
    2 + 2*ell*(largest one-sided degree of a Markov move)."""
    moves = markov_basis(config)
    top = 1
    for m in moves:
        top = max(top, sum(x for x in m if x > 0), -sum(x for x in m if x < 0))
    return 2 + 2 * config.ell * top


def _relation_module(config, generators):
    """Reduced module Groebner basis (TermOverPosition) of the binomial
    relations y_j d^u - y_k d^v (g_j + A u = g_k + A v) among the primitive
    generators, computed exactly.

    Only generators of one class of N / ZA are related.  With A w_j = g_j -
    g_r for the class's first member g_r and one shift D making each
    v_j = w_j + D >= 0, y_j d^u - y_k d^v is a relation exactly when
    d^(u + v_j) - d^(v + v_k) lies in the (saturated) full-group toric ideal
    I: the class's relations are the kernel of y_j -> d^(v_j) into S / I.
    One run on I e_C and d^(v_j) e_C - y_j, with a component e_C per class
    ahead of the generators and all e_C eliminated, leaves the kernel as the
    basis elements free of every e_C.
    """
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
    tags = [(0,) * p + (1,) + (0,) * (c + m - 1 - p) for p in range(c + m)]
    elems = []
    for tag, cls in zip(tags, classes):
        elems += [{tag + e: coeff.rational_value() for e, coeff in g.terms.items()}
                  for g in toric_ideal_full(config).generators]
        shift = [max(0, *(-w[k] for _, w in cls)) for k in range(n)]
        elems += [{tag + tuple(map(add, w, shift)): Fraction(1),
                   tags[c + j] + (0,) * n: Fraction(-1)} for j, w in cls]
    return [{t[c:]: coeff for t, coeff in e.items()}
            for e in module_groebner(elems, TermOverPosition(c + m, eliminate=c))
            if not any(1 in t[:c] for t in e)]


def bbgkz_primitive_presentation(module: SemigroupModule, beta,
                                 binomial_degree_bound=None) -> SystemPresentation:
    """Finite presentation on the primitive generators.

    Binomial relations are the reduced module Groebner basis of all
    degree-matched operator pairs d^u 1_t - d^v 1_t', computed exactly (see
    _relation_module).  The bound (default_binomial_bound when None) is a
    ceiling: a basis element with one-sided degree above it raises
    NotStabilizedError rather than report relations beyond the bound.
    """
    config = module.config
    n = config.n
    beta = coerce_beta(beta, config.d)
    gens = _primitive_set_for(module).elements
    bound = default_binomial_bound(config) if binomial_degree_bound is None \
        else int(binomial_degree_bound)
    basis = _relation_module(config, gens)
    m = len(gens)
    if any(sum(term[m:]) > bound for elem in basis for term in elem):
        raise NotStabilizedError(
            f"a binomial relation has one-sided degree above the bound {bound}",
            bound=bound)
    binomials = []
    for elem in basis:
        degs, by_comp = set(), {}
        for term, c in elem.items():
            gi, exp = term[:m].index(1), term[m:]
            deg = sum((e * col for e, col in zip(exp, config.columns)), gens[gi])
            degs.add((deg.torsion, deg.free))
            by_comp.setdefault(gi, {})[((0,) * n, exp)] = c
        if len(degs) != 1:
            raise NotHomogeneousError("binomial relation is not degree homogeneous",
                                      bound=bound, degrees=len(degs))
        binomials.append(_make_relation([(gi, WeylElement(n, terms))
                                         for gi, terms in by_comp.items()]))
    binomials.sort(key=_relation_key)
    relations = tuple(binomials) + tuple(_euler_relations(config, beta, gens))
    return SystemPresentation(config, module.kind, beta, gens, relations,
                              (("binomial_degree_bound", bound),
                               ("stabilized_at", bound + 2)))


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
        if face is None:
            raise SpecError("a face module needs its face", code="UNSUPPORTED_MODULE")
        span = tuple(sorted({config.columns[j].free for j in face.column_indices
                             if any(x != 0 for x in config.columns[j].free)}))
        shift = zero if shift is None else tuple(Fraction(s) for s in shift)
        piece = AffinePiece(shift, span, tuple(face.column_indices))
        return Arrangement(rank(span), (piece,))
    if kind != K_MOD_KINTERIOR:
        raise SpecError(f"unsupported module spec {kind!r}", code="UNSUPPORTED_MODULE")
    height = positive_grading(config)
    taus = facets(config)
    pieces = {}
    for tau in taus:
        cols_on = tuple(j for j in range(config.n)
                        if tau(config.columns[j].free) == 0)
        span = tuple(sorted({config.columns[j].free for j in cols_on
                             if any(x != 0 for x in config.columns[j].free)}))
        span_rank = rank(span)
        bound = sum((height(v) for v in span), Fraction(0)) + 1
        boundary = [p for p in cone_points_up_to(config, height, bound)
                    if tau(p) == 0]
        on_boundary = set(boundary)
        for p in boundary:
            reducible = False
            for v in span:
                q = tuple(a - b for a, b in zip(p, v))
                if q in on_boundary or (all(t(q) >= 0 for t in taus)
                                        and tau(q) == 0):
                    reducible = True
                    break
            if reducible:
                continue
            if rank(span + (p,)) == span_rank:
                shift_t = zero
            else:
                shift_t = tuple(Fraction(x) for x in p)
            pieces[(shift_t, span)] = AffinePiece(shift_t, span, cols_on)
    ordered = tuple(pieces[k] for k in sorted(pieces))
    top = max((rank(piece.span_vectors) for piece in ordered), default=0)
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
