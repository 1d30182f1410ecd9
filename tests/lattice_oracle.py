"""The Smith-form lattice routines, kept as a test-only oracle for
tgkz.lattice.

Kernels are the columns of the Smith transform V past the rank; the index
[N : Z cal(A)] is the product of the invariant factors of the presentation
matrix [M | L] (full coordinates M beside the torsion relations l_i e_i);
the free parts span Z^d when their Smith factors are d ones.

smith_normal_form and hnf_with_transform are the normal forms as they were
when each kept its matrix and its transforms apart, stepping both in turn
with paired helpers; tgkz.lattice must return the same forms and
transforms.  Only tgkz.lattice.hnf_rows is shared with the code under test,
to print kernels canonically.
"""

from operator import mul

from tgkz.errors import SmithCheckError
from tgkz.lattice import INFINITE, SmithDecomposition, hnf_rows


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)


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


def kernel_basis(m):
    """Canonical basis rows of {u in Z^cols : M u = 0}, M given by rows."""
    s = smith_normal_form(m)
    return hnf_rows(tuple(zip(*s.V))[len(s.invariant_factors):])


def presentation_matrix(columns, group):
    """[M | L]: torsion rows then free rows of full coordinates, beside the
    torsion relations l_i e_i."""
    rows = ([[c.torsion[i] for c in columns] for i in range(group.torsion_rank)]
            + [[c.free[i] for c in columns] for i in range(group.free_rank)])
    return [row + [o if i == j else 0 for j, o in enumerate(group.torsion_orders)]
            for i, row in enumerate(rows)]


def kernel_lattice(columns, group):
    """Basis (rows, HNF) of {u in Z^n : sum u_j a_j = 0 in N}."""
    n = len(columns)
    if group.torsion_rank + group.free_rank == 0:
        return hnf_rows([[int(i == j) for j in range(n)] for i in range(n)])
    return hnf_rows([r[:n] for r in kernel_basis(presentation_matrix(columns, group))])


def lattice_index(columns, group):
    """Index [N : Z cal(A)] as a positive integer, or INFINITE."""
    total = group.torsion_rank + group.free_rank
    if total == 0:
        return 1
    s = smith_normal_form(presentation_matrix(columns, group))
    if len(s.invariant_factors) < total:
        return INFINITE
    out = 1
    for f in s.invariant_factors:
        out *= f
    return out


def spans(config):
    """True iff the free parts of the columns generate Z^d."""
    factors = smith_normal_form(config.free_matrix()).invariant_factors
    return len(factors) == config.d and all(f == 1 for f in factors)
