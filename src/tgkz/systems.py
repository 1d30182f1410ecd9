"""D-module presentations attached to a semigroup module and a parameter.

The presentation is the finite primitive form: one generator per primitive
element, binomial gluing relations computed exactly as a canonical module
Groebner basis, plus shifted Euler relations.  Quasi-degree arrangements
and the homology vanishing test live here too.

The relation module writes the term d^u 1_j as the key (j, u) with a
Fraction coefficient (the binomials are rational), from one module_groebner
run that eliminates a component per class; a relation's d^u is the
WeylElement key (0,) * n + u, its coefficient coerced to Cyclotomic.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from ._value import frozen
from .binomials import markov_basis, toric_ideal_full
from .cones import (AffinePiece, Arrangement, PointConfig, facet_rows,
                    homogenizing_functional, membership_in_arrangement,
                    positive_grading)
from .cyclotomic import Cyclotomic
from .errors import NotHomogeneousError, NotStabilizedError, SpecError
from .lattice import express_in_columns, rank
from .poly import module_groebner
from .semigroups import (EXPLICIT, K, K_INTERIOR, SemigroupModule,
                         module_generators, primitive_elements)
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


@lru_cache(maxsize=16)
def _relation_module(config, generators):
    """Reduced module Groebner basis (poly.TermOverPosition) of the binomial
    relations y_j d^u - y_k d^v (g_j + A u = g_k + A v) among the primitive
    generators, computed exactly, once per (config, generators): it depends
    on neither the parameter nor the degree bound.  Callers share the
    memoized dicts {(generator index, u): coeff} and must not change them.

    Only generators of one class of N / ZA are related.  With A w_j = g_j -
    g_r for the class's first member g_r and one shift D making each
    v_j = w_j + D >= 0, y_j d^u - y_k d^v is a relation exactly when
    d^(u + v_j) - d^(v + v_k) lies in the (saturated) full-group toric ideal
    I: the class's relations are the kernel of y_j -> d^(v_j) into S / I.
    One run on I e_C and d^(v_j) e_C - y_j, with a component e_C per class
    ahead of the generators and all e_C eliminated, leaves the kernel as the
    basis elements free of every e_C.
    """
    classes = []  # per class: [(generator index, w)], first member w = 0
    for j, g in enumerate(generators):
        for cls in classes:
            w = express_in_columns(config.columns, config.group, g - generators[cls[0][0]])
            if w is not None:
                cls.append((j, w))
                break
        else:
            classes.append([(j, (0,) * config.n)])
    c = len(classes)
    elems = []
    for p, cls in enumerate(classes):
        elems += [{(p, e): coeff.rational_value() for e, coeff in g.terms.items()}
                  for g in toric_ideal_full(config).generators]
        shift = [max(0, *(-w[k] for _, w in cls)) for k in range(config.n)]
        elems += [{(p, tuple(map(add, w, shift))): Fraction(1),
                   (c + j, (0,) * config.n): Fraction(-1)} for j, w in cls]
    return tuple({(p - c, u): coeff for (p, u), coeff in e.items()}
                 for e in module_groebner(elems, eliminate=c)
                 if all(p >= c for p, _ in e))


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
    if any(sum(u) > bound for elem in basis for _, u in elem):
        raise NotStabilizedError(
            f"a binomial relation has one-sided degree above the bound {bound}",
            bound=bound)
    binomials = []
    for elem in basis:
        degs, by_comp = set(), {}
        for (gi, exp), c in elem.items():
            deg = sum((e * col for e, col in zip(exp, config.columns)), gens[gi])
            degs.add((deg.torsion, deg.free))
            by_comp.setdefault(gi, {})[(0,) * n + exp] = c
        if len(degs) != 1:
            raise NotHomogeneousError("binomial relation is not degree homogeneous",
                                      bound=bound, degrees=len(degs))
        binomials.append(_make_relation([(gi, WeylElement(2 * n, terms))
                                         for gi, terms in by_comp.items()]))
    binomials.sort(key=_relation_key)
    relations = tuple(binomials) + tuple(_euler_relations(config, beta, gens))
    return SystemPresentation(config, module.kind, beta, gens, relations,
                              (("binomial_degree_bound", bound),
                               ("stabilized_at", bound + 2)))


# ---------------------------------------------------------------------------
# quasi-degrees and the homology vanishing test


def _column_span(config, indices):
    """The distinct nonzero free parts of the given columns, sorted."""
    return tuple(sorted({config.columns[j].free for j in indices
                         if any(config.columns[j].free)}))


def quasi_degrees(config: PointConfig, kind, face=None, shift=None) -> Arrangement:
    """Zariski closure of the graded degrees of the chosen module.

    The closure and interior modules fill the whole space; a face module
    contributes one shifted span.  The quotient boundary module contributes,
    per facet tau, the facet columns' span shifted by each irreducible
    boundary point p (tau(p) = 0), and that shift is always zero:
    - positive_grading raises unless the cone is pointed and spanning (a
      rank d-1 config has only the facets +-n, whose sum is 0, and a lower
      rank one none), so each facet normal vanishes on a rank d-1 set of
      columns, which spans the facet's hyperplane;
    - every p with tau(p) = 0 lies in that span, so the shift is zero;
    - p = 0 is an irreducible boundary point of a pointed cone, so each
      facet gives exactly one piece (0, span), of rank d-1.
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
        span = _column_span(config, face.column_indices)
        shift = zero if shift is None else tuple(Fraction(s) for s in shift)
        piece = AffinePiece(shift, span, tuple(face.column_indices))
        return Arrangement(rank(span), (piece,))
    if kind != K_MOD_KINTERIOR:
        raise SpecError(f"unsupported module spec {kind!r}", code="UNSUPPORTED_MODULE")
    positive_grading(config)  # raises unless the cone is pointed and spanning
    free = config.free_columns()
    on = [tuple(j for j, col in enumerate(free) if sum(map(mul, tau, col)) == 0)
          for tau in facet_rows(config)]
    pieces = (AffinePiece(zero, _column_span(config, cols), cols) for cols in on)
    return Arrangement(d - 1, tuple(sorted(pieces, key=lambda p: p.span_vectors)))


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
