"""The Fraction cone routines, kept as a test-only oracle for tgkz.cones.

The placing triangulation expresses every placed vector in coordinates of
the current basis (re-expressing all of them on each rank jump) and decides
visibility by Fraction determinants of those coordinates; facet normals are
Smith kernel rows of the rank d-1 column subsets; pointedness solves
one Fraction linear program per column subset of size <= d+1; the face
lattice tries every subset of the facets; the boundary quasi-degrees
enumerate the irreducible facet points up to a height bound.  The cone
triangulation places the columns alone, apart from the volume's
triangulation.  Nothing is memoized.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

from fieldlin_oracle import determinant
from lattice_oracle import kernel_basis
from tgkz import fieldlin
from tgkz.cones import AffinePiece, Arrangement, Face, facets, positive_grading
from tgkz.lattice import det, rank
from tgkz.semigroups import cone_points_up_to


def placing_triangulation(vectors):
    """(simplices, rank) of the incremental placing triangulation."""
    simplices = []
    basis_idx = []
    coords = {}  # index -> coordinates w.r.t. the current basis

    def express(v):
        rows = [[Fraction(vectors[b][i]) for b in basis_idx] for i in range(len(v))]
        return fieldlin.solve_unique(rows, [Fraction(x) for x in v])

    placed = []
    for idx, v in enumerate(vectors):
        if not any(x != 0 for x in v):
            raise ValueError("zero vector has no ray")
        if not basis_idx:
            basis_idx.append(idx)
            simplices = [(idx,)]
            placed.append(idx)
            coords[idx] = (Fraction(1),)
            continue
        lam = express(v)
        if lam is None:
            simplices = [s + (idx,) for s in simplices]
            basis_idx.append(idx)
            placed.append(idx)
            coords = {j: express(vectors[j]) for j in placed}
            continue
        coords[idx] = lam
        face_count = {}
        face_opp = {}
        for s in simplices:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                face_count[face] = face_count.get(face, 0) + 1
                face_opp[face] = s[i]
        fresh = []
        for face, cnt in face_count.items():
            if cnt != 1:
                continue
            rows = [list(coords[f]) for f in face]
            s_side = determinant(rows + [list(coords[face_opp[face]])])
            p_side = determinant(rows + [list(lam)])
            if s_side != 0 and p_side != 0 and (s_side > 0) != (p_side > 0):
                fresh.append(tuple(sorted(face + (idx,))))
        simplices.extend(fresh)
        placed.append(idx)
    return simplices, len(basis_idx)


def cone_triangulation(config):
    """The placing triangulation of the cone over the distinct nonzero
    columns alone, as tuples of vectors: the box scan's triangulation before
    it was read off the volume's triangulation."""
    vecs = config.nonzero_free_columns()
    simplices, _ = placing_triangulation(vecs)
    return tuple(tuple(vecs[i] for i in s) for s in simplices)


def normalized_volume(config) -> int:
    """Normalized volume of conv({0} cup pi(cal A)) from the oracle
    triangulation of the homogenized points."""
    pts = sorted({(0,) * config.d} | {c.free for c in config.columns})
    vectors = [(1,) + p for p in pts]
    simplices, rk = placing_triangulation(vectors)
    if rk < config.d + 1:
        return 0
    return sum(abs(det([vectors[i] for i in s]))
               for s in simplices if len(s) == config.d + 1)


def facet_normals(vectors, d):
    """Primitive facet normals of the cone over `vectors` in Q^d, sorted:
    the kernel row of every rank d-1 subset and its negative, kept when
    nonnegative on every vector and vanishing on a rank d-1 subset."""
    found = set()

    def consider(tau):
        if all(sum(map(mul, tau, c)) >= 0 for c in vectors):
            vanish = [c for c in vectors if sum(map(mul, tau, c)) == 0]
            if rank(vanish) == d - 1:
                found.add(tau)

    if d == 1:
        consider((1,))
        consider((-1,))
    else:
        for subset in combinations(vectors, d - 1):
            if rank(subset) != d - 1:
                continue
            kern = kernel_basis(subset)
            if len(kern) != 1:
                continue
            consider(kern[0])
            consider(tuple(-x for x in kern[0]))
    return tuple(sorted(found))


def is_pointed(config) -> bool:
    """False iff 0 is a convex combination of at most d+1 nonzero columns."""
    cols = config.nonzero_free_columns()
    d = config.d
    for size in range(1, min(len(cols), d + 1) + 1):
        for subset in combinations(cols, size):
            rows = [[Fraction(v[i]) for v in subset] for i in range(d)]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * d + [Fraction(1)]
            lam = fieldlin.solve_unique(rows, rhs)
            if lam is not None and all(x >= 0 for x in lam):
                return False
    return True


def face_lattice(config):
    """Faces from the column sets of all 2^F subsets of the facets."""
    taus = facets(config)
    free = config.free_columns()
    seen = {}
    for k in range(len(taus) + 1):
        for chosen in combinations(range(len(taus)), k):
            colset = tuple(j for j in range(config.n)
                           if all(taus[i](free[j]) == 0 for i in chosen))
            if colset in seen:
                continue
            normals = tuple(t for t in taus
                            if all(t(free[j]) == 0 for j in colset))
            dim = rank([free[j] for j in colset if any(x != 0 for x in free[j])])
            seen[colset] = Face(colset, normals, dim)
    return tuple(sorted(seen.values(), key=lambda f: (f.dim, f.column_indices)))


def boundary_quasi_degrees(config):
    """Quasi-degrees of K / K_interior: per facet tau, the span of the facet
    columns shifted by each irreducible boundary point p (tau(p) = 0) of
    height at most the span's height sum plus one, the shift being zero
    when p lies in the span."""
    d = config.d
    zero = (Fraction(0),) * d
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
