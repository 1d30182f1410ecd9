"""Lattice and twisted lattice ideals attached to a point configuration.

The untwisted toric ideal comes from the kernel of the free projection of
the columns; the full-group toric ideal from the kernel of the whole column
map, torsion included.  Characters on a kernel sublattice twist binomial
coefficients into roots of unity, which is how the minimal primes of the
full-group ideal arise.  A character chi on the saturated free kernel L
extends to Z^n, and x^u -> chi(u)^-1 x^u carries I_L onto I_{L,chi} keeping
leading terms (Eisenbud-Sturmfels, Duke Math. J. 84, 1996, section 2).

A lattice ideal is saturated one variable at a time by Bayer's lemma
(poly.saturate_graded), its binomials being homogeneous for the weights
h(a_j), h = cones.positive_grading of a pointed cone.  A unit column a_j has
weight 0 and finite order o_j, so x_j^o_j - chi(o_j e_j) lies in the ideal
and makes x_j a unit modulo it.  Nothing here eliminates.

Toric ideals and minimal primes are memoized per configuration value (small
LRU caches); callers must not mutate the cached ideals.
"""

from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from ._value import frozen
from .cones import Face, PointConfig, face_by_columns, positive_grading
from .cyclotomic import Cyclotomic
from .errors import (LatticeMismatchError, NotBinomialError, NotSaturatedError,
                     PrimesDoNotIntersectError, SmithCheckError)
from .lattice import (hermite_coordinates, hnf_with_transform, is_hermite, kernel_basis,
                      kernel_lattice, smith_normal_form)
from .poly import (GREVLEX, IdealBasis, Polynomial, groebner_ideal, ideal_equal,
                   ideal_member, normal_form, saturate_graded)


def _power_product(values, exponents):
    """prod values[i] ** exponents[i], multiplied in index order."""
    return prod((v ** c for v, c in zip(values, exponents)), start=Cyclotomic.one())


@frozen
class PartialCharacter:
    """A multiplicative map on a sublattice of Z^n, stored by its nonzero
    values on a Hermite-form lattice basis."""

    basis: tuple          # HNF rows
    values: tuple         # one nonzero Cyclotomic per row
    nvars: int

    @staticmethod
    def on_rows(rows, values, nvars):
        """Build from any basis; rebases values onto the Hermite form."""
        rows = [tuple(r) for r in rows]
        values = [Cyclotomic.coerce(v) for v in values]
        if len(rows) != len(values) or any(v.is_zero() for v in values):
            raise ValueError(f"{len(rows)} rows need as many nonzero values, got {len(values)}")
        if not rows:
            return PartialCharacter((), (), nvars)
        # free kernel rows come from kernel_basis already in Hermite form
        if is_hermite(rows):
            return PartialCharacter(tuple(rows), tuple(values), nvars)
        # T * rows = H, so row i of T holds the coordinates of H[i] on rows
        hermite, t = hnf_with_transform(rows)
        rebased = tuple(_power_product(values, row) for row in t[:len(hermite)])
        return PartialCharacter(hermite, rebased, nvars)

    @staticmethod
    def trivial_on(rows, nvars):
        return PartialCharacter.on_rows(rows, [Cyclotomic.one()] * len(rows), nvars)

    def value_of(self, m):
        """Value on a lattice element; the element must lie in the span."""
        coeffs = hermite_coordinates(m, self.basis)
        if coeffs is None:
            raise LatticeMismatchError(f"{tuple(m)} outside the character lattice")
        return _power_product(self.values, coeffs)

    def contains(self, m):
        return hermite_coordinates(m, self.basis) is not None


# ---------------------------------------------------------------------------
# kernels and Markov bases


@lru_cache(maxsize=16)
def _free_kernel(config: PointConfig):
    return kernel_basis(config.free_matrix())


def free_kernel_rows(config: PointConfig):
    """Kernel basis rows of the free column map (memoized); a fresh list."""
    return list(_free_kernel(config))


def full_kernel_rows(config: PointConfig):
    return list(kernel_lattice(config.columns, config.group))


def _binomial(m, nvars, value=1):
    """x^(m+) - value * x^(m-), from the positive and negative parts of m."""
    return (Polynomial.monomial(nvars, tuple(max(x, 0) for x in m))
            - Polynomial.monomial(nvars, tuple(max(-x, 0) for x in m), value))


def _face_kernel_rows(config: PointConfig, face_cols):
    """Kernel of the free parts of the given columns, embedded into Z^n: the
    kernel of the free matrix over one unit row per column off the face."""
    n = config.n
    off_face = tuple(tuple(int(i == j) for i in range(n)) for j in range(n) if j not in face_cols)
    return list(kernel_basis(config.free_matrix() + off_face))


@lru_cache(maxsize=16)
def _grading_weights(config: PointConfig):
    """h(a_j) for h = cones.positive_grading: 0 exactly on unit columns."""
    h = positive_grading(config)
    return tuple(int(h(c)) for c in config.columns)


def lattice_ideal(rows, config: PointConfig, values=None) -> IdealBasis:
    """Reduced grevlex basis of the (optionally twisted) lattice ideal of
    the row span, rows in Z^config.n: the binomials x^(m+) - chi(m) x^(m-)
    saturated by every variable of the rows' support, so membership depends
    only on the lattice.  Unit columns add x_j^o_j - chi(o_j e_j), o_j the
    order of a_j (LatticeMismatchError if the span misses o_j e_j); Bayer's
    lemma does the rest (NotPointedError if the cone is not pointed)."""
    n = config.n
    values = [1] * len(rows) if values is None else values
    gens = [_binomial(m, n, val) for m, val in zip(rows, values)]
    if not gens:
        return IdealBasis(n, ())
    weights = _grading_weights(config)
    support = [j for j in range(n) if any(m[j] for m in rows)]
    units = [j for j in support if not weights[j]]
    if units:
        rho = PartialCharacter.on_rows(rows, values, n)
        orders = config.group.torsion_orders
        for j in units:  # o_j e_j lies in the lattice, o_j the order of a_j
            order = lcm(*(o // gcd(t, o) for t, o in zip(config.columns[j].torsion, orders)))
            m = tuple(order * (i == j) for i in range(n))
            gens.append(_binomial(m, n, rho.value_of(m)))
    for j in support:
        if weights[j]:
            gens = saturate_graded(gens, weights, j)
    return groebner_ideal(gens, n)


@lru_cache(maxsize=16)
def toric_ideal_free(config: PointConfig) -> IdealBasis:
    """Lattice ideal of the kernel of the free projection of the columns,
    computed once per configuration (memoized)."""
    return lattice_ideal(free_kernel_rows(config), config)


@lru_cache(maxsize=16)
def toric_ideal_full(config: PointConfig) -> IdealBasis:
    """Lattice ideal of the kernel of the full column map, torsion included,
    computed once per configuration (memoized)."""
    return lattice_ideal(full_kernel_rows(config), config)


def markov_basis(config: PointConfig):
    """Exponent moves connecting the fibers of the free column map: the
    exponents of the reduced basis x^a - x^b of the free toric ideal, in order."""
    ideal = toric_ideal_free(config)
    moves = []
    for g in ideal.generators:
        exps = sorted(g.terms, key=GREVLEX.key, reverse=True)
        if len(exps) != 2:
            raise NotBinomialError("a lattice ideal basis element is not a binomial",
                                   terms=len(exps))
        bad = [c.to_text() for c, want in zip(map(g.terms.get, exps), (1, -1)) if c != want]
        if bad:
            raise NotBinomialError("a basis element is not x^a - x^b", coefficient=bad[0])
        moves.append(tuple(a - b for a, b in zip(exps[0], exps[1])))
    return moves


def power_ideal(config: PointConfig) -> IdealBasis:
    """Ideal generated by the torsion-order dilations of the Markov moves.

    Dilating every move by ell lands the generators inside the full-group
    ideal, and telescoping along Markov paths shows they generate it whenever
    the dilated fiber graph is connected; the ideal is taken as generated,
    without saturation.
    """
    gens = [_binomial([config.ell * x for x in m], config.n) for m in markov_basis(config)]
    return groebner_ideal(gens, config.n)


# ---------------------------------------------------------------------------
# twisted ideals


def twisted_ideal(config: PointConfig, rho: PartialCharacter, moves=None) -> IdealBasis:
    """Lattice ideal of the free kernel with coefficients twisted by rho;
    rho must live exactly on that kernel.  `moves`, when given, is
    markov_basis(config), taken once by a caller twisting many characters.
    rho extends to Z^n (the kernel is saturated); x^u -> rho(u)^-1 x^u maps
    the free toric ideal onto this one and keeps leading terms (Eisenbud and
    Sturmfels 1996, section 2), so its reduced basis is x^(m+) - rho(m) x^(m-)."""
    # both bases are Hermite forms, so they agree exactly when the lattices do
    if rho.basis != _free_kernel(config):
        raise LatticeMismatchError("character lattice differs from the free kernel")
    if moves is None:
        moves = markov_basis(config)
    return IdealBasis(config.n, tuple(_binomial(m, config.n, rho.value_of(m)) for m in moves))


def face_twisted_ideal(config: PointConfig, face: Face, rho: PartialCharacter) -> IdealBasis:
    """Variables whose columns avoid the face, plus the twisted lattice ideal
    of the face's own column submatrix (embedded back into all n variables)."""
    n = config.n
    on_face = set(face.column_indices)
    gens = [Polynomial.variable(j, n) for j in range(n) if j not in on_face]
    embedded = _face_kernel_rows(config, on_face)
    gens.extend(lattice_ideal(embedded, config, [rho.value_of(m) for m in embedded]).generators)
    return groebner_ideal(gens, n)


def extend_character(rho: PartialCharacter):
    """Extend to all of Z^n: value rho on the lattice, 1 on a complement.

    Requires saturation.  With B the basis rows and T * B^T = H, the lattice
    is saturated exactly when H is the identity; then the first r rows of T
    pair with B to the identity, so chi(e_j) = prod_i rho(b_i)^T[i][j]
    restricts to rho.  No root extraction is ever needed, so the
    coefficient field does not grow.
    """
    n = rho.nvars
    identity = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    r = len(rho.basis)
    h, t = hnf_with_transform([tuple(b[j] for b in rho.basis) for j in range(n)])
    if h != tuple(e[:r] for e in identity[:r]):
        raise NotSaturatedError("character lattice is not saturated",
                                pivots=tuple(row[i] for i, row in enumerate(h)))
    values = [_power_product(rho.values, column[:r]) for column in zip(*t)]
    full = PartialCharacter.on_rows(identity, values, n)
    for row, expected in zip(rho.basis, rho.values):
        if full.value_of(row) != expected:
            raise SmithCheckError("the extension disagrees with the character on its lattice",
                                  shape=(len(rho.basis), n), row=row)
    return full


def twist_automorphism(f: Polynomial, full_character: PartialCharacter) -> Polynomial:
    """Scale each monomial by the character value of its exponent."""
    return Polynomial(f.nvars, {exp: c * full_character.value_of(exp)
                                for exp, c in f.terms.items()})


# ---------------------------------------------------------------------------
# minimal primes of the full-group toric ideal


def minimal_primes(config: PointConfig):
    """Twisted lattice ideals cutting out the components of the full-group
    toric ideal.

    The free kernel modulo the full kernel is a finite abelian group; each of
    its characters lifts to a character on the free kernel trivial on the
    full kernel, and the resulting twisted ideals are exactly the minimal
    primes.  Each character is checked to be trivial on the full kernel, and
    the primes P are certified without elimination: (a) each reduced basis
    has the leading terms of the free basis, in order; (b) each P contains
    every generator of the full-group ideal I, by normal form; (c) the P are
    pairwise distinct; (d) there is one per character.  Any failure raises
    PrimesDoNotIntersectError.  Why this proves that the P meet in I: in
    characteristic 0, I is radical and its minimal primes are the twisted
    ideals, one per character, all with the initial ideal of the free basis
    (Eisenbud-Sturmfels, Duke Math. J. 84, 1996, Cor. 2.2).  By (a) each P
    has their Hilbert function, and by (b) it contains I, so its only
    top-dimensional component is one minimal prime Q; as P lies in Q with
    the same Hilbert function, P = Q.  By (c) and (d) the P are all the
    minimal primes, whose intersection is I.  Without (a), an ideal larger
    than a prime would still pass (b) and (c).
    Returns [(character, ideal)], characters enumerated in a fixed order,
    computed once per configuration (memoized); a fresh list on every call.
    """
    return list(_minimal_primes(config))


@lru_cache(maxsize=16)
def _minimal_primes(config: PointConfig):
    free_rows = free_kernel_rows(config)
    n = config.n
    if not free_rows:
        return ((PartialCharacter.trivial_on([], n), toric_ideal_free(config)),)
    full_rows = full_kernel_rows(config)
    r = len(free_rows)
    # coordinates of the full kernel on the free rows, which are in Hermite
    # form: of full rank r exactly when the full kernel has finite index
    x_rows = [hermite_coordinates(row, free_rows) for row in full_rows]
    if len(x_rows) != r or None in x_rows:
        raise LatticeMismatchError("full kernel is not of finite index in the free kernel",
                                   free_rank=r, full_rows=len(x_rows))
    snf = smith_normal_form(x_rows)
    orders = snf.invariant_factors
    if len(orders) != r:
        raise LatticeMismatchError("full kernel is not of finite index in the free kernel",
                                   free_rank=r, full_rank=len(orders))
    # every order divides the last, e, so the value on row k,
    # prod_j zeta_(o_j)^(c_j V[k][j]), is one power of zeta_e
    e = orders[-1]
    steps = [e // o for o in orders]
    characters = []
    for c in product(*(range(o) for o in orders)):
        values = [Cyclotomic.zeta(e, sum(cj * vj * s for cj, vj, s in zip(c, snf.V[k], steps)))
                  for k in range(r)]
        rho = PartialCharacter.on_rows(free_rows, values, n)
        if not all(rho.value_of(row).is_one() for row in full_rows):
            raise PrimesDoNotIntersectError(
                "character not trivial on the full kernel",
                torsion_orders=config.group.torsion_orders, primes=prod(orders))
        characters.append(rho)

    moves = markov_basis(config)  # once; every prime reuses it
    ideals = [twisted_ideal(config, rho, moves) for rho in characters]
    leads = [g.leading(GREVLEX)[0] for g in toric_ideal_free(config).generators]
    full = toric_ideal_full(config).generators
    if (len(ideals) != prod(orders)
            or any([g.leading(GREVLEX)[0] for g in p.generators] != leads for p in ideals)
            or not all(ideal_member(f, p) for p in ideals for f in full)
            or any(ideal_equal(p, q) for i, p in enumerate(ideals) for q in ideals[:i])):
        raise PrimesDoNotIntersectError(
            "minimal primes do not intersect to the full-group ideal",
            torsion_orders=config.group.torsion_orders, primes=len(ideals))
    return tuple(zip(characters, ideals))


# ---------------------------------------------------------------------------
# recognizing graded binomial primes


def classify_graded_binomial_prime(ideal: IdealBasis, config: PointConfig):
    """Match an ideal against the face-plus-twist shape.

    Returns (face, character-on-the-face-kernel) when the ideal equals the
    face's variable ideal plus a twisted face lattice ideal, None otherwise
    (including inputs that are not graded for the free column matrix).
    """
    n = config.n
    if ideal.nvars != n:
        return None
    free = config.free_columns()
    for g in ideal.generators:
        degs = {tuple(sum(e[j] * free[j][i] for j in range(n))
                      for i in range(config.d))
                for e in g.terms}
        if len(degs) > 1:
            return None
    gb = list(ideal.generators)
    if any(g.total_degree() == 0 for g in gb):
        return None  # unit ideal
    inside = [j for j in range(n)
              if not normal_form(Polynomial.variable(j, n), gb, GREVLEX).is_zero()]
    face = face_by_columns(config, inside)
    if face is None:
        return None
    sub_kernel = _face_kernel_rows(config, face.column_indices)
    values = []
    for m in sub_kernel:
        plus = tuple(max(x, 0) for x in m)
        minus = tuple(max(-x, 0) for x in m)
        nf_plus = normal_form(Polynomial.monomial(n, plus), gb, GREVLEX)
        nf_minus = normal_form(Polynomial.monomial(n, minus), gb, GREVLEX)
        if nf_minus.is_zero() or set(nf_plus.terms) != set(nf_minus.terms):
            return None
        exp = next(iter(nf_minus.terms))
        ratio = nf_plus.terms[exp] / nf_minus.terms[exp]
        scaled = nf_minus * ratio
        if not (nf_plus - scaled).is_zero():
            return None
        values.append(ratio)
    rho = PartialCharacter.on_rows(sub_kernel, values, n)
    rebuilt = face_twisted_ideal(config, face, rho)
    if not ideal_equal(ideal, rebuilt):
        return None
    return face, rho
