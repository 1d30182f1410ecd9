"""The Smith-form lattice routines, kept as a test-only oracle for
tgkz.lattice.

Kernels are the columns of the Smith transform V past the rank; the index
[N : Z cal(A)] is the product of the invariant factors of the presentation
matrix [M | L] (full coordinates M beside the torsion relations l_i e_i);
the free parts span Z^d when their Smith factors are d ones.  Only
tgkz.lattice.smith_normal_form and hnf_rows are shared with the code under
test; neither is what these routines check.
"""

from tgkz.lattice import INFINITE, hnf_rows, smith_normal_form


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
