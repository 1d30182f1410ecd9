"""Semigroup modules over the monoid generated by the columns.

Three module kinds are supported: the full facet-nonnegative region K (the
preimage of the real cone, whole torsion fibers included), its strict
interior, and modules given by an explicit finite generator list.  Each has
an exact membership test and a finite primitive generating set obtained by
Caratheodory reduction into half-open parallelepiped boxes over a placing
triangulation.

Cone tests use the integer cone kernel's facet rows (`cones.facet_rows`,
primitive, once per config): v is in K when every dot product is >= 0, in
the interior when every one is >= 1.  Box points come from each simplex's
Hermite form in integers, the residues spread along its diagonal, and are
tested all at once (SWAR): each facet row is one integer with a W-bit field
per candidate b + o and a guard bit on top, W fixed per box by a bound on
the values and floors, so one add and one AND per row test every candidate
against a floor.  Each primitive set is computed once per module.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product
from operator import add, and_, lshift, mul

from ._value import frozen
from .cones import PointConfig, cone_triangulation, facet_rows, is_pointed
from .errors import BoxScanIncompleteError, NotPointedError, SpecError
from .lattice import GroupElement, hnf_with_transform

K = "K"
K_INTERIOR = "K_INTERIOR"
EXPLICIT = "EXPLICIT"
_KINDS = (K, K_INTERIOR, EXPLICIT)
_LOW = {K: 0, K_INTERIOR: 1}  # least facet value of a module element


@frozen
class SemigroupModule:
    kind: str
    config: PointConfig
    explicit_generators: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown module kind {self.kind!r}")
        object.__setattr__(self, "explicit_generators",
                           tuple(self.explicit_generators))
        if self.kind == EXPLICIT:
            if not self.explicit_generators:
                raise ValueError("explicit module needs at least one generator")
            rows = facet_rows(self.config)
            for g in self.explicit_generators:
                if g.group != self.config.group:
                    raise ValueError("generator outside the ambient group")
                if not _in_cone(rows, g.free):
                    raise ValueError(f"explicit generator {g} lies outside the cone")
        elif self.explicit_generators:
            raise ValueError("generators only allowed for explicit modules")


@frozen
class PrimitiveSet:
    """Irreducible module generators and their free-part degrees (aligned)."""

    elements: tuple
    degrees: tuple


def _values(rows, v):
    return tuple(sum(map(mul, row, v)) for row in rows)


def _in_cone(rows, v, low=0) -> bool:
    """Every facet value of v is >= low: 0 for the cone, 1 for its interior."""
    return all(x >= low for x in _values(rows, v))


@lru_cache(maxsize=16)
def _membership_memo(config: PointConfig):
    return dict.fromkeys(units(config), True)  # the only finite-order members


@lru_cache(maxsize=16)
def _distinct_nonunit_columns(config: PointConfig):
    return tuple(sorted({c for c in config.columns if not c.has_finite_order()},
                        key=lambda e: e.sort_key()))


def units(config: PointConfig):
    """The unit subgroup of the column monoid: the (finite) group generated
    by the columns of finite order."""
    gens = [c for c in config.columns if c.has_finite_order()]
    seen = {config.group.zero()}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen, key=lambda e: e.sort_key())


def membership(t, module: SemigroupModule) -> bool:
    if t.group != module.config.group:
        raise ValueError("element outside the ambient group")
    if module.kind == EXPLICIT:
        return any(member_semigroup(module.config, t - g)
                   for g in module.explicit_generators)
    return _in_cone(facet_rows(module.config), t.free, _LOW[module.kind])


def member_semigroup(config: PointConfig, t) -> bool:
    """Membership of t in the unsaturated column monoid (units included).

    Depth-first column subtraction on an explicit stack, with answers kept
    per config; it ends because a grading strictly decreases, so the cone
    must be pointed (else NotPointedError).
    """
    if not is_pointed(config):
        raise NotPointedError("semigroup membership requires a pointed cone")
    memo = _membership_memo(config)
    rows = facet_rows(config)
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
        elif cur.has_finite_order() or not _in_cone(rows, cur.free):
            memo[cur] = False
        else:
            for c in _distinct_nonunit_columns(config):
                known = memo.get(cur - c)
                if known is None:  # decide this branch first, then retry
                    stack.append(cur - c)
                    break
                if known:
                    memo[cur] = True
                    break
            else:
                memo[cur] = False
    return memo[t]


# ---------------------------------------------------------------------------
# primitive generating sets


def _box_base(simplex):
    """One representative b per residue class of Z^d modulo the sublattice
    spanned by d linearly independent integer vectors v_j, in the
    fundamental box {sum mu_j v_j : 0 <= mu_j < 1}.

    If T S = H is the Hermite form of the rows v_j of S, the classes are the
    r with 0 <= r_i < H_ii, vol = prod H_ii = |det S|, and r has
    coordinates mu = r S^-1 = r H^-1 T and point frac(mu) S.  vol * H^-1 T
    is integral (vol * H^-1 = adj H) and comes from H by back substitution.
    """
    d = len(simplex)
    h, t = hnf_with_transform(simplex)
    if len(h) != d or any(len(v) != d for v in simplex):
        raise ValueError("box vectors must be d linearly independent vectors")
    dets = [row[i] for i, row in enumerate(h)]
    vol = math.prod(dets)
    scaled = [None] * d  # row i of vol * H^-1 T
    for i in reversed(range(d)):
        scaled[i] = [(vol * t[i][j] - sum(h[i][k] * scaled[k][j] for k in range(i + 1, d)))
                     // dets[i] for j in range(d)]
    coords = list(zip(*scaled))  # coords[j] . r = vol * mu_j
    m_rows = list(zip(*simplex))
    base = set()
    for residue in product(*map(range, dets)):
        mu = [sum(map(mul, row, residue)) % vol for row in coords]
        base.add(tuple(x // vol for x in _values(m_rows, mu)))
    if len(base) != vol:
        raise BoxScanIncompleteError(
            "box representatives do not cover the residue classes",
            simplex=simplex, expected=vol, found=len(base))
    return base


def _box_points(simplex, scales, rows, floor, base, reducers=()):
    """Lattice points b + o of {sum mu_j v_j : 0 <= mu_j < scales[j]} for
    the vectors v_j of `simplex`, yielded as (b, o) when the values
    rows . (b + o) are >= floor and not >= any floor in `reducers`; b runs
    over `base`, the simplex's _box_base, and o = sum k_j v_j, 0 <= k_j < s_j.

    A pass takes as many whole base points as fit in 2^16 candidates (at least
    one) and makes row i one integer V_i whose W-bit field bidx + nb*(k_1 +
    s_1*(k_2 + ...)) holds tau_i(b + o) - floor_i + 2^(W-1).  A box point has
    |tau_i| < sum_j s_j |tau_i(v_j)|, and W leaves 2^(W-1) above that plus the
    largest |floor entry|, so every field of V_i and of V_i + (floor_i - f_i) *
    ONES lies in [1, 2^W): no carry crosses a field, and guard bit W-1 is set
    exactly when tau_i >= f_i.  Hits are the guard bits of AND_i V_i less those
    of AND_i (V_i + (floor_i - f_i) * ONES), f a reducer.  V_i is built in time
    linear in its bits: base fields are joined as binary strings, then axis j
    makes s_j blocks, block k adding k*tau_i(v_j).
    """
    steps = [_values(simplex, row) for row in rows]  # tau_i(v_j)
    reach = max((sum(map(mul, scales, map(abs, t))) for t in steps), default=0)
    width = (reach + max(map(abs, chain(floor, *reducers)), default=0)).bit_length() + 1

    def pack(values):  # one W-bit field per row, row 0 lowest
        return sum(map(lshift, values, range(0, width * len(values), width)))

    def spread(x, step, n, s):  # n fields -> s blocks, block k = x + k*step
        out = x
        for k in range(1, s):
            x += step
            out |= x << (k * n * width)
        return out

    packed = [pack(column) for column in zip(*rows)]  # pack(rows . b) = b . packed
    start, fmt = pack([1 << (width - 1)] * len(rows)) - pack(floor), f"0{width * len(rows)}b"
    offsets = [(0,) * len(simplex)]  # index k_1 + s_1*(k_2 + ...)
    for v, s in zip(simplex, scales):
        multiples = [tuple(k * x for x in v) for k in range(s)]
        offsets = [tuple(map(add, o, kv)) for kv in multiples for o in offsets]
    base, per_pass = list(base), max(1, (1 << 16) // len(offsets))  # bounds the integers
    for part in (base[lo:lo + per_pass] for lo in range(0, len(base), per_pass)):
        # each point's row fields as one string (row m-1 first), then per row
        text = "".join([format(start + sum(map(mul, b, packed)), fmt)
                        for b in reversed(part)]).encode()
        fields = [bytearray(width * len(part)) for _ in rows]
        for i, w in product(range(len(rows)), range(width)):
            fields[i][w::width] = text[(len(rows) - 1 - i) * width + w::len(rows) * width]
        fields = [int(x, 2) for x in fields]
        ones, n = int(("0" * (width - 1) + "1") * len(part), 2), len(part)
        for j, s in enumerate(scales):
            if s > 1:
                fields = [spread(x, t[j] * ones, n, s) for x, t in zip(fields, steps)]
                ones, n = spread(ones, 0, n, s), n * s
        members = reduce(and_, fields, ones << (width - 1))
        for f in reducers:
            members ^= reduce(and_, (x + (lo - hi) * ones for x, lo, hi
                                     in zip(fields, floor, f)), members)
        hit = (bits := bin(members)[:1:-1]).find("1")  # bits[p] is bit p
        while hit >= 0:
            yield part[hit // width % len(part)], offsets[hit // width // len(part)]
            hit = bits.find("1", hit + 1)


def _primitive_degrees(module: SemigroupModule, scales):
    """Per scale, the free degrees of the box candidates that lie in the
    module and stay irreducible, sorted.  Facet values are linear, so v - c
    stays in the module exactly when every tau(v) >= tau(c) + low, the floor
    of c.  Each simplex's box base is built once for all scales."""
    config = module.config
    rows = facet_rows(config)
    low = _LOW[module.kind]
    floors = [tuple(x + low for x in _values(rows, c.free))
              for c in _distinct_nonunit_columns(config)]
    member = (low,) * len(rows)
    kept = [set() for _ in scales]
    for simplex in cone_triangulation(config):
        base = _box_base(simplex)
        for out, scale in zip(kept, scales):
            out.update(tuple(map(add, b, o)) for b, o in _box_points(
                simplex, [scale] * config.d, rows, member, base, floors))
    return [tuple(sorted(out)) for out in kept]


@lru_cache(maxsize=16)
def module_generators(module: SemigroupModule) -> PrimitiveSet:
    """Finite primitive generating set of the closure or interior module.

    Candidates are the lattice points of the half-open boxes over the placing
    triangulation's maximal simplices (interior modules widen the boxes by one
    extra copy of each ray, since a coefficient >= 2 is always reducible);
    a secondary scan at doubled scale runs on every computation and raises
    BoxScanIncompleteError if it finds a different set.  Full torsion fibers
    are attached afterwards: membership and reducibility only see the free
    part, so every fiber behaves identically.  The immutable result is
    memoized per module.
    """
    if module.kind == EXPLICIT:
        raise SpecError("explicit modules carry their own generators; "
                        "use primitive_elements", code="UNSUPPORTED_MODULE")
    config = module.config
    if not is_pointed(config):
        raise NotPointedError("primitive set requires a pointed cone")
    base_scale = 1 if module.kind == K else 2
    degrees, widened = _primitive_degrees(module, (base_scale, 2 * base_scale))
    if degrees != widened:
        raise BoxScanIncompleteError(
            "candidate box missed a primitive element",
            module=module.kind, scale=base_scale,
            degrees=sorted(set(degrees) ^ set(widened)))
    # reduced torsion parts and int degrees: no group.element re-reduction;
    # sorted degrees, then lexicographic torsion, is the sort_key order
    torsion = [f.torsion for f in config.group.torsion_elements()]
    elements = [GroupElement(config.group, t, v) for v in degrees for t in torsion]
    return PrimitiveSet(tuple(elements), tuple(e.free for e in elements))


def primitive_elements(module: SemigroupModule) -> PrimitiveSet:
    """Irreducible subset of an explicit generator list: keep t whenever no
    non-unit column can be subtracted without leaving the module."""
    if module.kind != EXPLICIT:
        raise SpecError("kind must be EXPLICIT", code="UNSUPPORTED_MODULE")
    nonunit = _distinct_nonunit_columns(module.config)
    keep = []
    for g in sorted(set(module.explicit_generators), key=lambda e: e.sort_key()):
        if not any(membership(g - c, module) for c in nonunit):
            keep.append(g)
    return PrimitiveSet(tuple(keep), tuple(e.free for e in keep))


# ---------------------------------------------------------------------------
# bounded slices


def cone_points_up_to(config: PointConfig, height, bound):
    """Free-part lattice points of the cone with height(v) <= bound, where
    `height` is a functional >= 1 on every nonzero column; -den * height,
    den clearing its denominators, is tested as one more row.  No cone point
    has negative height, so a negative bound leaves none."""
    simplices = cone_triangulation(config)
    if bound < 0:
        return []
    den = math.lcm(*(Fraction(c).denominator for c in height.free_part))
    rows = facet_rows(config) + (tuple(int(-den * c) for c in height.free_part),)
    floor = (0,) * (len(rows) - 1) + (-math.floor(den * Fraction(bound)),)
    out = set()
    for simplex in simplices:
        scales = [math.floor(Fraction(bound) / height(v)) + 2 for v in simplex]
        out.update(tuple(map(add, b, o))
                   for b, o in _box_points(simplex, scales, rows, floor,
                                           _box_base(simplex)))
    return sorted(out)
