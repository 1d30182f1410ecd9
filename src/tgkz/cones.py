"""Polyhedral geometry of a point configuration in N = F (+) Z^d.

Everything runs on the free parts pi(a_j) in Z^d; zero free-part columns
come back as semigroup units.  The cone kernel is integer: facets are
primitive integer rows (`facet_rows`, once per config), pointedness is the
sum of the facet normals being positive on the columns, and the placing
triangulation tests rank by Hermite form and visibility by integer minors.
One placing triangulation per config gives the volume and the box scan's
simplices; arrangement membership is tested on integer normals.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from . import fieldlin
from ._value import frozen
from .cyclotomic import Cyclotomic
from .errors import EmptyConeError, HypothesisError, NotPointedError
from .lattice import (INFINITE, AbelianGroup, Functional, det, hnf_rows, kernel_basis,
                      lattice_index, rank)


@frozen
class PointConfig:
    """The defining data: a group N and the tuple of columns cal(A)."""

    group: AbelianGroup
    columns: tuple

    def __post_init__(self):
        if not self.columns:
            raise ValueError("at least one column required")
        object.__setattr__(self, "columns", tuple(self.columns))
        if any(c.group != self.group for c in self.columns):
            raise ValueError("column does not belong to the group")
        if self.group.free_rank < 1:
            raise ValueError("free rank must be >= 1")

    @property
    def n(self):
        return len(self.columns)

    @property
    def d(self):
        return self.group.free_rank

    @property
    def ell(self):
        return self.group.torsion_index

    def free_columns(self):
        return [c.free for c in self.columns]

    def free_matrix(self):
        return tuple(zip(*self.free_columns()))

    def nonzero_free_columns(self):
        """Distinct nonzero free parts, lexicographically sorted."""
        return sorted({c.free for c in self.columns if any(x != 0 for x in c.free)})

    def nonunit_indices(self):
        return [j for j, c in enumerate(self.columns) if any(x != 0 for x in c.free)]


# ---------------------------------------------------------------------------
# placing triangulation


def _pivot_columns(vectors):
    """Pivot columns of the Hermite form of integer `vectors`; on them the
    vectors' rational span projects isomorphically onto Q^rank."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in hnf_rows(vectors))


def _minor(rows, pivots):
    return det([[r[p] for p in pivots] for r in rows])


def placing_triangulation(vectors):
    """Incremental placing triangulation of the cone over `vectors`.

    Vectors are inserted in the given order; returns (simplices, rank) where
    each simplex is a tuple of indices into `vectors` and all simplices have
    exactly `rank` members.  New vectors inside the current cone add nothing;
    vectors raising the linear rank cone over every existing simplex; other
    outside vectors cone over the strictly visible boundary faces: the new
    vector and the opposite vertex give integer minors of opposite sign on the
    span's pivot columns (basis-coordinate determinants times one factor).
    """
    simplices = []
    basis = []
    pivots = ()
    for idx, v in enumerate(vectors):
        if not any(v):
            raise ValueError("zero vector has no ray")
        grown = _pivot_columns(basis + [v])
        if len(grown) > len(basis):
            # rank jump: cone every simplex over the new vector
            simplices = [s + (idx,) for s in simplices] or [(idx,)]
            basis.append(v)
            pivots = grown
            continue
        opposite = {}  # face -> the other vertex of its simplex, None if two share it
        for s in simplices:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                opposite[face] = None if face in opposite else s[i]
        for face, opp in opposite.items():
            if opp is None:
                continue
            rows = [vectors[f] for f in face]
            if _minor(rows + [vectors[opp]], pivots) * _minor(rows + [v], pivots) < 0:
                simplices.append(tuple(sorted(face + (idx,))))
    return simplices, len(basis)


@lru_cache(maxsize=16)
def _triangulation(config: PointConfig):
    """(points, simplices, rank) of the placing triangulation of (1, 0),
    then (1, p) for each distinct nonzero free column p: it triangulates
    conv({0} cup pi(A)), and its simplices through the origin, unlifted, are
    the placing triangulation of the columns alone.  By induction on placing
    steps: a rank jump cones every simplex in both runs; else a face {0} cup
    G lies in one simplex iff G does in the cone run, with the same opposite
    vertex, and det[(1,0); (1,g_i); (1,x)] on the lifted pivots equals
    det[g_i; x] on the cone pivots, so visibility agrees; faces without the
    origin only add simplices without it."""
    vectors = [(1,) + (0,) * config.d] + [(1,) + p for p in config.nonzero_free_columns()]
    simplices, rk = placing_triangulation(vectors)
    return vectors, simplices, rk


@lru_cache(maxsize=16)
def cone_triangulation(config: PointConfig):
    """Maximal simplicial subcones (as tuples of free-column vectors) covering
    the cone, from `_triangulation`; the distinct nonzero columns must span
    the free part, as each simplex carries a box."""
    vectors, simplices, rk = _triangulation(config)
    if len(vectors) == 1:
        raise EmptyConeError("all columns have zero free part")
    if rk != config.d + 1:
        raise HypothesisError("columns must span the free part rationally",
                              d=config.d, rank=rk - 1)
    return tuple(tuple(vectors[i][1:] for i in s[1:]) for s in simplices if s[0] == 0)


@lru_cache(maxsize=16)
def normalized_volume(config: PointConfig) -> int:
    """Normalized lattice volume of conv({0} cup pi(cal A)); unit simplex = 1."""
    vectors, simplices, rk = _triangulation(config)
    if rk < config.d + 1:
        return 0
    return sum(abs(det([vectors[i] for i in s])) for s in simplices)


# ---------------------------------------------------------------------------
# facets and faces


def _facet_normals(vectors, d):
    """Primitive integer normals of the facets of the cone over the nonzero
    integer `vectors` in Q^d, lexicographically sorted: nonnegative on every
    vector and vanishing on a rank d-1 subset of them.

    The signed maximal minors tau_k = (-1)^k det(subset without coordinate
    k) of d-1 vectors span their orthogonal line, and vanish exactly when
    the subset has rank below d-1; for d = 1 the empty subset gives (1,).
    """
    found = set()
    for subset in combinations(vectors, d - 1):
        tau = [(-1) ** k * det([v[:k] + v[k + 1:] for v in subset]) for k in range(d)]
        g = gcd(*tau)
        if not g:
            continue
        for sign in (1, -1):
            normal = tuple(sign * x // g for x in tau)
            if all(_dot(normal, c) >= 0 for c in vectors):
                found.add(normal)
    return tuple(sorted(found))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=16)
def facet_rows(config: PointConfig):
    """The facet functionals as primitive integer rows, once per config."""
    cols = config.nonzero_free_columns()
    if not cols:
        raise EmptyConeError("all columns have zero free part")
    return _facet_normals(cols, config.d)


def facets(config: PointConfig):
    """Primitive integer functionals nonnegative on the cone and vanishing on
    a (d-1)-dimensional subset of it, lexicographically sorted."""
    return tuple(Functional.of(t) for t in facet_rows(config))


@lru_cache(maxsize=16)
def is_pointed(config: PointConfig) -> bool:
    """True iff some rational functional is strictly positive on every
    nonzero pi(a_j).  On the pivot columns of their Hermite form the nonzero
    columns span Q^r and their cone is full-dimensional, so it is pointed
    exactly when the sum of its facet normals is positive on every column."""
    cols = config.nonzero_free_columns()
    if not cols:
        return True
    pivots = _pivot_columns(cols)
    cols = [tuple(c[p] for p in pivots) for c in cols]
    # spanning columns have pivots 0..d-1: the cone's own facet rows serve
    normals = facet_rows(config) if len(pivots) == config.d \
        else _facet_normals(cols, len(pivots))
    h = [sum(column) for column in zip(*normals)]
    return all(_dot(h, c) > 0 for c in cols)


@frozen
class Face:
    """A face of the cone, recorded by the columns lying on it (0-based,
    zero free-part columns belong to every face)."""

    column_indices: tuple
    normals: tuple
    dim: int


def face_lattice(config: PointConfig):
    """Every face of the pointed cone, sorted by (dim, columns).  A face is
    an intersection of facets, so its column set is the full column set met
    with facet column sets one at a time; the meets close in one pass over
    the faces found, at most F per face."""
    if not is_pointed(config):
        raise NotPointedError("face lattice requires a pointed cone")
    taus = facets(config)
    free = config.free_columns()
    on = [frozenset(j for j in range(config.n) if t(free[j]) == 0) for t in taus]
    colsets = [frozenset(range(config.n))]
    seen = set(colsets)
    for colset in colsets:  # grows while it is read
        for meet in {colset & cols for cols in on} - seen:
            seen.add(meet)
            colsets.append(meet)
    faces = []
    for colset in colsets:
        nonzero = [free[j] for j in colset if any(x != 0 for x in free[j])]
        faces.append(Face(tuple(sorted(colset)),
                          tuple(t for t, cols in zip(taus, on) if colset <= cols),
                          rank(nonzero)))
    return tuple(sorted(faces, key=lambda f: (f.dim, f.column_indices)))


def face_by_columns(config: PointConfig, column_indices):
    target = tuple(sorted(set(column_indices)))
    for f in face_lattice(config):
        if f.column_indices == target:
            return f
    return None


# ---------------------------------------------------------------------------
# gradings and functionals


def epsilon_vector(config: PointConfig):
    """Sum of the free parts over all columns (with multiplicity)."""
    out = [0] * config.d
    for c in config.columns:
        for i, x in enumerate(c.free):
            out[i] += x
    return tuple(out)


def homogenizing_functional(config: PointConfig):
    """Rational h with h(pi(a_j)) = 1 for every column, or None.

    Existence certifies that every column lies on a common affine hyperplane
    at height one.  Under the spanning hypothesis the solution is unique;
    otherwise the deterministic particular solution is returned.
    """
    rows = [[Fraction(x) for x in c.free] for c in config.columns]
    rhs = [Fraction(1)] * config.n
    sol = fieldlin.solve(rows, rhs)
    return Functional(tuple(sol)) if sol is not None else None


def positive_grading(config: PointConfig) -> Functional:
    """h = sum of the facet functionals: integral, zero exactly on the
    torsion columns, >= 1 on every column with nonzero free part."""
    if not is_pointed(config):
        raise NotPointedError("positive grading requires a pointed cone")
    # the zero row keeps d entries when rank-deficient columns have no facet
    h = [sum(column) for column in zip((0,) * config.d, *facet_rows(config))]
    if any(_dot(h, c) < 1 for c in config.nonzero_free_columns()):
        raise NotPointedError("no strictly positive integral grading found")
    return Functional.of(h)


# ---------------------------------------------------------------------------
# affine arrangements (quasi-degree supports)


@frozen
class AffinePiece:
    shift: tuple          # rational d-vector
    span_vectors: tuple   # integer d-vectors spanning the linear part
    column_indices: tuple  # columns contributing the span (0-based, display)


@frozen
class Arrangement:
    dim: int
    pieces: tuple


def membership_in_arrangement(beta, arrangement: Arrangement) -> bool:
    """Exact test whether beta (cyclotomic entries allowed) lies on one of
    the affine pieces.  A span defined over Q has its complement over
    Q(zeta) spanned by its integer normals n (an empty span: the kernel of
    a zero row), so beta is on it iff sum n_i (beta_i - shift_i) == 0."""
    beta = tuple(Cyclotomic.coerce(b) for b in beta)
    for piece in arrangement.pieces:
        target = [b - Fraction(s) for b, s in zip(beta, piece.shift)]
        normals = kernel_basis(piece.span_vectors or ((0,) * len(target),))
        if not any(sum(n * t for n, t in zip(normal, target)) for normal in normals):
            return True
    return False


# ---------------------------------------------------------------------------
# standing hypotheses


@frozen
class HypothesesReport:
    spans: bool
    pointed: bool
    delta_divides_ell: bool
    delta: object
    ell: int

    @property
    def ok(self):
        return self.spans and self.pointed and self.delta_divides_ell

    def to_json(self):
        return {
            "spans": self.spans,
            "pointed": self.pointed,
            "delta_divides_ell": self.delta_divides_ell,
            "delta": "INFINITE" if self.delta is INFINITE else self.delta,
            "ell": self.ell,
            "ok": self.ok,
        }


@lru_cache(maxsize=16)
def check_hypotheses(config: PointConfig) -> HypothesesReport:
    """The standing hypotheses, once per configuration (memoized).  The free
    parts span Z^d exactly when their Hermite form is the identity."""
    spans = hnf_rows(config.free_columns()) == tuple(
        tuple(int(i == j) for j in range(config.d)) for i in range(config.d))
    pointed = is_pointed(config)
    delta = lattice_index(config.columns, config.group)
    ell = config.ell
    divides = isinstance(delta, int) and delta > 0 and ell % delta == 0
    return HypothesesReport(spans, pointed, divides, delta, ell)
