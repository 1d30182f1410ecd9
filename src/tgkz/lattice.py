"""Exact integer linear algebra and finitely generated abelian groups.

Matrices are tuples of integer rows, arbitrary precision.  Lattice bases are
returned as rows in Hermite normal form with positive pivots, so equal
lattices always produce identical output.

One Hermite form with its transform, T * rows = H (hnf_with_transform),
answers every lattice question (Cohen, GTM 138, section 2.4): the rows of T
past the rank of H span the kernel of the rows' map; H's pivots give the
index [N : Z cal(A)] and the spanning test; the first rows of T solve for a
target (express_in_columns) and extend a character from a saturated
lattice.  The column questions on cal(A) share one memoized form,
_column_hermite.  The Smith form is kept only where a finite quotient is
enumerated: its transform V fixes the characters of the free kernel modulo
the full kernel (binomials._minimal_primes) and the residues of Z^d modulo
a simplex (semigroups._box_base).
"""

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul

from ._value import frozen
from .errors import SmithCheckError


class _Infinite:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


#: Sentinel returned by lattice_index when the subgroup has infinite index.
INFINITE = _Infinite()


def det(rows):
    """Exact determinant of a square integer matrix, given by its rows, by
    fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)


@frozen
class SmithDecomposition:
    U: tuple
    D: tuple
    V: tuple
    invariant_factors: tuple


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for r in a:
        r[i], r[j] = r[j], r[i]
    for r in v:
        r[i], r[j] = r[j], r[i]


def _add_row(a, u, dst, src, q):
    # row dst += q * row src
    ad, asrc = a[dst], a[src]
    for k in range(len(ad)):
        ad[k] += q * asrc[k]
    ud, usrc = u[dst], u[src]
    for k in range(len(ud)):
        ud[k] += q * usrc[k]


def _add_col(a, v, dst, src, q):
    for r in a:
        r[dst] += q * r[src]
    for r in v:
        r[dst] += q * r[src]


def smith_normal_form(m) -> SmithDecomposition:
    """U*M*V = D with U, V unimodular and positive diagonal factors in a
    divisibility chain d1 | d2 | ... ; M is given by its rows, at least one."""
    a = [list(r) for r in m]
    nr, nc = len(a), len(a[0])
    u = _unit_rows(nr)
    v = _unit_rows(nc)
    k = 0
    while k < min(nr, nc):
        # smallest nonzero |entry| in the remaining block becomes the pivot
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(a, u, k, piv[0])
        _swap_cols(a, v, k, piv[1])
        while True:
            dirty = False
            for i in range(k + 1, nr):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    _add_row(a, u, i, k, -q)
                    if a[i][k] != 0:
                        # remainder smaller than pivot: promote it
                        _swap_rows(a, u, k, i)
                        dirty = True
            for j in range(k + 1, nc):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    _add_col(a, v, j, k, -q)
                    if a[k][j] != 0:
                        _swap_cols(a, v, k, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every entry of the remaining block before we
            # advance, otherwise the divisibility chain can break later
            offender = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % a[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, u, k, offender, 1)
        if a[k][k] < 0:
            for j in range(nc):
                a[k][j] = -a[k][j]
            for j in range(nr):
                u[k][j] = -u[k][j]
        k += 1
    um, dm, vm = (tuple(map(tuple, x)) for x in (u, a, v))
    factors = tuple(dm[i][i] for i in range(min(nr, nc)) if dm[i][i] != 0)
    if _mul(_mul(um, m), vm) != dm or \
            any(g % f for f, g in zip(factors, factors[1:])):
        raise SmithCheckError("Smith normal form failed its self-check",
                              shape=(nr, nc))
    return SmithDecomposition(um, dm, vm, factors)


def hnf_rows(rows):
    """Canonical basis of the lattice spanned by the given integer rows.

    Row-style Hermite normal form: positive pivots in staircase position,
    entries above each pivot reduced into [0, pivot).  Zero rows dropped.
    """
    h, _ = hnf_with_transform(rows)
    return h


def rank(vectors) -> int:
    """Rank of integer vectors over Q: the row count of their Hermite form."""
    return len(hnf_rows(vectors))


def is_hermite(rows):
    """True iff the rows are their own hnf_rows: nonzero, with positive
    pivots in strict staircase and entries above each pivot in [0, pivot)."""
    pivots = _pivot_positions(rows)
    return len(pivots) == len(rows) and all(
        rows[i][p] > 0 and (i == 0 or pivots[i - 1] < p)
        and all(0 <= rows[k][p] < rows[i][p] for k in range(i))
        for i, p in enumerate(pivots))


def hnf_with_transform(rows):
    """(H, T) with T unimodular, T * rows = H padded by zero rows."""
    m = [list(int(x) for x in r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    t = _unit_rows(nr)
    r = 0
    for c in range(nc):
        if r == nr:
            break
        # clear column c below position r by Euclidean row steps
        while True:
            pivot = None
            for i in range(r, nr):
                if m[i][c] != 0 and (pivot is None or abs(m[i][c]) < abs(m[pivot][c])):
                    pivot = i
            if pivot is None:
                break
            m[r], m[pivot] = m[pivot], m[r]
            t[r], t[pivot] = t[pivot], t[r]
            done = True
            for i in range(r + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    for k in range(nc):
                        m[i][k] -= q * m[r][k]
                    for k in range(nr):
                        t[i][k] -= q * t[r][k]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
                t[r] = [-x for x in t[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    for k in range(nc):
                        m[i][k] -= q * m[r][k]
                    for k in range(nr):
                        t[i][k] -= q * t[r][k]
            r += 1
    basis = tuple(tuple(row) for row in m[:r])  # each has its nonzero pivot
    return basis, tuple(map(tuple, t))


def _pivot_positions(hrows):
    out = []
    for row in hrows:
        for j, x in enumerate(row):
            if x != 0:
                out.append(j)
                break
    return out


def hermite_coordinates(v, hrows):
    """Integer y with sum(y_i * hrows_i) = v, or None, for rows in Hermite
    form (see is_hermite): pivot substitution, no transform."""
    w = [int(x) for x in v]
    y = []
    for row, p in zip(hrows, _pivot_positions(hrows)):
        q, r = divmod(w[p], row[p])
        if r:
            return None
        y.append(q)
        w = [a - q * b for a, b in zip(w, row)]
    return None if any(w) else tuple(y)


def _untransform(v, h, t):
    """Coordinates of v on the rows that T * rows = H came from, or None."""
    y = hermite_coordinates(v, h)
    if y is None:
        return None
    # y * H = v and T * rows = H, so (y * T) * rows = v
    return tuple(sum(map(mul, y, col)) for col in zip(*t))


def kernel_basis(m):
    """Canonical basis rows of {u in Z^cols : M u = 0}, M given by rows: with
    T * M^T = H, the rows of T past the rank of H."""
    h, t = hnf_with_transform(tuple(zip(*m)))
    return hnf_rows(t[len(h):])


@frozen
class AbelianGroup:
    """N = Z/l1 (+) ... (+) Z/lk (+) Z^d with the invariant-factor chain l1 | l2 | ... ."""

    torsion_orders: tuple
    free_rank: int

    def __post_init__(self):
        orders = tuple(int(x) for x in self.torsion_orders)
        object.__setattr__(self, "torsion_orders", orders)
        if any(o < 2 for o in orders):
            raise ValueError("torsion orders must be >= 2")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")

    @property
    def torsion_rank(self):
        return len(self.torsion_orders)

    @property
    def torsion_index(self):
        """|F|, the order of the torsion subgroup."""
        return prod(self.torsion_orders)

    def element(self, torsion, free):
        torsion, free = tuple(torsion), tuple(free)
        if len(torsion) != self.torsion_rank or len(free) != self.free_rank:
            raise ValueError("coordinate length mismatch")
        return GroupElement(self, tuple(int(t) % o for t, o in zip(torsion, self.torsion_orders)),
                            tuple(int(x) for x in free))

    def zero(self):
        return self.element((0,) * self.torsion_rank, (0,) * self.free_rank)

    def torsion_elements(self):
        """All elements of the torsion subgroup F, in lexicographic order."""
        from itertools import product
        zero_free = (0,) * self.free_rank
        for t in product(*(range(o) for o in self.torsion_orders)):
            yield GroupElement(self, t, zero_free)


@frozen
class GroupElement:
    group: AbelianGroup
    torsion: tuple
    free: tuple

    def __add__(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return self.group.element(
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
            tuple(a + b for a, b in zip(self.free, other.free)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.group.element(tuple(-t for t in self.torsion),
                                  tuple(-x for x in self.free))

    def __mul__(self, k):
        k = int(k)
        return self.group.element(tuple(k * t for t in self.torsion),
                                  tuple(k * x for x in self.free))

    __rmul__ = __mul__

    def is_zero(self):
        return all(t == 0 for t in self.torsion) and all(x == 0 for x in self.free)

    def has_finite_order(self):
        return all(x == 0 for x in self.free)

    def sort_key(self):
        return (self.free, self.torsion)


@frozen
class Functional:
    """Rational linear functional on the free part N-bar = Z^d."""

    free_part: tuple

    @staticmethod
    def of(coeffs):
        return Functional(tuple(Fraction(c) for c in coeffs))

    def __call__(self, v):
        vec = v.free if isinstance(v, GroupElement) else tuple(v)
        if len(vec) != len(self.free_part):
            raise ValueError("dimension mismatch")
        return sum((c * Fraction(x) for c, x in zip(self.free_part, vec)), Fraction(0))

    def sort_key(self):
        return self.free_part


@lru_cache(maxsize=16)
def _column_hermite(columns, group):
    """hnf_with_transform of the n + k presentation vectors of Z cal(A) in
    Z^(k+d): each column's full coordinates, then l_i e_i per torsion order;
    once per (columns, group) (memoized)."""
    width = group.torsion_rank + group.free_rank
    relations = [tuple(o if j == i else 0 for j in range(width))
                 for i, o in enumerate(group.torsion_orders)]
    return hnf_with_transform([c.torsion + c.free for c in columns] + relations)


def kernel_lattice(columns, group):
    """Basis (rows, HNF) of {u in Z^n : sum u_j a_j = 0 in N}, torsion included."""
    h, t = _column_hermite(tuple(columns), group)
    return hnf_rows([row[:len(columns)] for row in t[len(h):]])


def express_in_columns(columns, group, target):
    """Integer w with sum w_j a_j = target in N, or None."""
    coeffs = _untransform(target.torsion + target.free,
                          *_column_hermite(tuple(columns), group))
    return coeffs and coeffs[:len(columns)]


def lattice_index(columns, group):
    """Index [N : Z*cal(A)] as a positive integer, or INFINITE: the product
    of the Hermite pivots when there are k + d of them."""
    h, _ = _column_hermite(tuple(columns), group)
    if len(h) < group.torsion_rank + group.free_rank:
        return INFINITE
    return prod(row[i] for i, row in enumerate(h))
