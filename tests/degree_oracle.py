"""A test-only oracle for the relation module of the primitive presentation
that shares no code with the Groebner core: Macaulay's basis theorem in the
toric-module setting of Matusevich-Miller-Walther (JAMS 18, 2005).

The generators y_j (degree g_j) and their binomial relations present C[K]
(or C[K_interior]): the primitive set generates the module over the column
monoid, and each degree of the module carries a one-dimensional piece.  So
the standard monomials y_j d^u of the relations' Groebner basis, those that
no leading term divides, have pairwise distinct degrees g_j + A u, and up to
a height bound those degrees are exactly the module's points: the free
lattice points of the cone (of its interior) of height at most the bound,
each with its whole torsion fiber.  Heights come from cones.positive_grading,
cone membership from cones.facet_rows.
"""

from itertools import product

from tgkz.cones import facet_rows, positive_grading
from tgkz.semigroups import K


def _lead(elem):
    """Leading (component, exponents) term under the TermOverPosition order
    with nothing eliminated: grevlex on the exponents, then the smaller
    component."""
    return max(elem, key=lambda t: (sum(t[1]), tuple(-x for x in reversed(t[1])), -t[0]))


def height_of(config):
    """The height of a free part: the integral positive grading, at least 1
    on every nonzero column."""
    h = [int(c) for c in positive_grading(config).free_part]
    return lambda v: sum(map(int.__mul__, h, v))


def module_points(config, kind, bound):
    """Every degree (torsion, free) of K (kind K) or K_interior whose free
    part has height at most `bound`."""
    height = height_of(config)
    low = 0 if kind == K else 1
    rows = facet_rows(config)
    # the height slice of the cone is the hull of 0 and each column scaled
    # to height `bound`, so each coordinate is at most this in size
    reach = [max((bound * abs(a[i]) // height(a) for a in config.nonzero_free_columns()),
                 default=0) for i in range(config.d)]
    free = [v for v in product(*(range(-r, r + 1) for r in reach))
            if height(v) <= bound and all(sum(map(int.__mul__, row, v)) >= low for row in rows)]
    fibre = list(product(*(range(o) for o in config.group.torsion_orders)))
    return {(t, v) for v in free for t in fibre}


def standard_degree_failure(config, kind, generators, basis, bound):
    """None when the standard monomials y_j d^u of `basis` (dicts
    {(j, u): coefficient}) with height at most `bound` have pairwise
    distinct degrees that are exactly module_points(config, kind, bound);
    otherwise a description of the first failure found."""
    height = height_of(config)
    orders = config.group.torsion_orders
    columns = config.columns
    leads = {}
    for elem in basis:
        j, u = _lead(elem)
        leads.setdefault(j, []).append(u)

    def standard(j, u):
        return not any(all(map(int.__le__, v, u)) for v in leads.get(j, ()))

    def degree(j, u):
        g = generators[j]
        torsion = tuple((t + sum(e * a.torsion[i] for e, a in zip(u, columns))) % o
                        for i, (t, o) in enumerate(zip(g.torsion, orders)))
        free = tuple(x + sum(e * a.free[i] for e, a in zip(u, columns))
                     for i, x in enumerate(g.free))
        return torsion, free

    # standard monomials are closed under division, and height only grows
    # along u, so every one below the bound is reached one step at a time
    zero = (0,) * config.n
    todo = [(j, zero) for j, g in enumerate(generators)
            if height(g.free) <= bound and standard(j, zero)]
    seen, degrees = set(todo), {}
    while todo:
        j, u = todo.pop()
        deg = degree(j, u)
        if deg in degrees:
            return f"y_{j} d^{u} and y_{degrees[deg][0]} d^{degrees[deg][1]} share degree {deg}"
        degrees[deg] = (j, u)
        for k in range(config.n):
            step = u[:k] + (u[k] + 1,) + u[k + 1:]
            if (j, step) not in seen and height(deg[1]) + height(columns[k].free) <= bound \
                    and standard(j, step):
                seen.add((j, step))
                todo.append((j, step))
    expect = module_points(config, kind, bound)
    if set(degrees) != expect:
        return (f"{len(set(degrees) - expect)} standard degrees outside the module, "
                f"{len(expect - set(degrees))} module points not reached")
    return None
