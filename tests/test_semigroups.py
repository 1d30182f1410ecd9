import itertools
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from box_oracle import box_points as oracle_box_points
from conftest import make_config, random_battery, square_prism
from tgkz import fieldlin, semigroups
from tgkz.cones import cone_triangulation, facet_rows, facets, positive_grading
from tgkz.errors import BoxScanIncompleteError, HypothesisError, SpecError
from tgkz.lattice import Functional, SmithDecomposition, smith_normal_form
from tgkz.semigroups import (
    EXPLICIT,
    K,
    K_INTERIOR,
    PrimitiveSet,
    SemigroupModule,
    _box_base,
    _box_points,
    _primitive_degrees,
    cone_points_up_to,
    member_semigroup,
    membership,
    module_generators,
    primitive_elements,
    units,
)


def test_units_trivial_and_torsion(split_line, plane_segment):
    assert [u.free for u in units(plane_segment)] == [(0, 0)]
    us = units(split_line)
    # no torsion column of infinite order: only the identity here
    assert [(u.torsion, u.free) for u in us] == [((0,), (0,))]


def test_units_include_finite_order_columns():
    cfg = make_config([2], [((1,), (0,)), ((1,), (1,))])
    us = units(cfg)
    assert [(u.torsion, u.free) for u in us] == [((0,), (0,)), ((1,), (0,))]


def test_member_semigroup_numerical():
    cfg = make_config([], [((), (2,)), ((), (3,))])
    got = [member_semigroup(cfg, cfg.group.element((), (k,)))
           for k in range(8)]
    assert got == [True, False, True, True, True, True, True, True]


def test_membership_interior_vs_closure(plane_segment):
    g = plane_segment.group
    mod_k = SemigroupModule(K, plane_segment)
    mod_int = SemigroupModule(K_INTERIOR, plane_segment)
    boundary = g.element((), (1, 0))
    inside = g.element((), (2, 1))
    assert membership(boundary, mod_k)
    assert not membership(boundary, mod_int)
    assert membership(inside, mod_k)
    assert membership(inside, mod_int)


def test_primitive_generators_split_line(split_line):
    prim = module_generators(SemigroupModule(K, split_line))
    assert [(e.torsion, e.free) for e in prim.elements] == \
        [((0,), (0,)), ((1,), (0,))]
    prim_int = module_generators(SemigroupModule(K_INTERIOR, split_line))
    assert [(e.torsion, e.free) for e in prim_int.elements] == \
        [((0,), (1,)), ((1,), (1,))]


def test_primitive_generators_even_pair(even_pair):
    prim = module_generators(SemigroupModule(K, even_pair))
    assert sorted(e.free for e in prim.elements) == [(0, 0), (1, 1)]
    prim_int = module_generators(SemigroupModule(K_INTERIOR, even_pair))
    assert sorted(e.free for e in prim_int.elements) == [(1, 1), (2, 2)]


def test_primitive_size_multiple_of_torsion(battery):
    for cfg in battery:
        prim = module_generators(SemigroupModule(K, cfg))
        assert len(prim.elements) % cfg.ell == 0


def test_explicit_primitive_filtering(split_line):
    g = split_line.group
    z = g.zero()
    t = g.element((1,), (0,))
    deep = g.element((0,), (5,))
    mod = SemigroupModule(EXPLICIT, split_line, (z, t, deep))
    prim = primitive_elements(mod)
    assert [(e.torsion, e.free) for e in prim.elements] == \
        [((0,), (0,)), ((1,), (0,))]


def test_module_generators_rejects_explicit(split_line):
    mod = SemigroupModule(EXPLICIT, split_line, (split_line.group.zero(),))
    with pytest.raises(SpecError):
        module_generators(mod)


def elements_with_height_at_most(module, height, bound):
    """All module elements t with height(free part of t) <= bound, every
    torsion fiber included; sorted (a brute-force enumerator)."""
    group = module.config.group
    fibers = (group.element(f.torsion, v)
              for v in cone_points_up_to(module.config, height, bound)
              for f in group.torsion_elements())
    return sorted((t for t in fibers if membership(t, module)),
                  key=lambda e: e.sort_key())


def test_hilbert_basis_brute_force_d2():
    """The K primitive set over a torsion-free config is the Hilbert-style
    minimal generating set: cross-check against direct enumeration."""
    for cols in [[(1, 0), (1, 2)], [(1, 0), (1, 3)], [(2, 1), (1, 2)],
                 [(1, 0), (1, 1), (1, 2)]]:
        cfg = make_config([], [((), c) for c in cols])
        mod = SemigroupModule(K, cfg)
        h = positive_grading(cfg)
        bound = 8
        pts = [e for e in elements_with_height_at_most(mod, h, bound)]
        semis = {e.free for e in pts}
        # brute force: points of the cone not reachable as p + column
        expected = set()
        for e in pts:
            if all((lambda q: q.free not in semis or not membership(q, mod))
                   (e - c) for c in cfg.columns):
                expected.add(e.free)
        prim = {e.free for e in module_generators(mod).elements}
        # restrict to the enumeration window
        assert {p for p in prim if h(p) <= bound} == expected


def _reduction_battery():
    """Deterministic configs with d <= 2, n <= 4, free entries <= 3,
    torsion orders in {2, 3, 4}."""
    battery = []
    d1 = [[(1,)], [(2,)], [(1,), (2,)], [(1,), (3,)], [(2,), (3,)],
          [(3,), (3,), (2,), (1,)]]
    for cols in d1:
        battery.append(make_config([], [((), c) for c in cols]))
    for order in (2, 3, 4):
        battery.append(make_config(
            [order], [((1,), (1,)), ((1,), (2,))]))
        battery.append(make_config(
            [order], [((1,), (2,)), ((0,), (3,))]))
    d2 = [[(1, 0), (1, 1), (1, 2)], [(1, 0), (1, 2)], [(1, 0), (0, 1)],
          [(1, 0), (1, 3)], [(2, 1), (1, 2)],
          [(1, 0), (1, 1), (1, 2), (1, 3)]]
    for cols in d2:
        battery.append(make_config([], [((), c) for c in cols]))
    battery.append(make_config([2], [((1,), (1, 0)), ((1,), (0, 1))]))
    battery.append(make_config([4], [((1,), (1, 0)), ((2,), (1, 2))]))
    battery.append(make_config([3], [((1,), (1, 0)), ((2,), (1, 1)),
                                     ((0,), (1, 2))]))
    return battery


def _check_reduction(mod, height_bound=6):
    cfg = mod.config
    h = positive_grading(cfg)
    prim = module_generators(mod)
    prim_set = set(prim.elements)
    cols = [c for c in cfg.columns if any(x for x in c.free)]

    @lru_cache(maxsize=None)
    def reduces(t):
        if t in prim_set:
            return True
        return any(membership(t - c, mod) and reduces(t - c) for c in cols)

    for t in elements_with_height_at_most(mod, h, height_bound):
        assert reduces(t), (cfg, t)
    # primitives are mutually irreducible: no column subtraction stays inside
    for p in prim.elements:
        assert not any(membership(p - c, mod) for c in cols), (cfg, p)


def test_reduction_battery_closure_and_interior():
    for cfg in _reduction_battery():
        _check_reduction(SemigroupModule(K, cfg))
        _check_reduction(SemigroupModule(K_INTERIOR, cfg))


def test_primitive_sets_invariant_under_column_permutation():
    cases = [
        ([4], [((1,), (1,)), ((1,), (2,))]),
        ([], [((), (1, 0)), ((), (1, 1)), ((), (1, 2))]),
        ([2], [((1,), (1,)), ((0,), (2,))]),
    ]
    for orders, cols in cases:
        for kind in (K, K_INTERIOR):
            reference = None
            for perm in itertools.permutations(cols):
                cfg = make_config(orders, list(perm))
                prim = module_generators(SemigroupModule(kind, cfg))
                got = sorted(prim.elements, key=lambda e: e.sort_key())
                if reference is None:
                    reference = got
                else:
                    assert got == reference


def test_closure_primitive_count_is_torsion_times_projection():
    # the cone-closure module is a full preimage, so primitivity only
    # depends on the free part and each degree carries all torsion fibers
    cases = [
        ([2], [((1,), (1,))]),
        ([4], [((1,), (1,)), ((1,), (2,))]),
        ([2], [((0,), (1, 0)), ((1,), (1, 1)), ((0,), (1, 2))]),
    ]
    for orders, cols in cases:
        cfg = make_config(orders, cols)
        proj = make_config([], [((), f) for _, f in cols])
        full = module_generators(SemigroupModule(K, cfg)).elements
        flat = module_generators(SemigroupModule(K, proj)).elements
        assert len(full) == cfg.group.torsion_index * len(flat)


# ---------------------------------------------------------------------------
# the rational box scan, kept as an oracle for the integer facet kernel


def _fraction_box_points(simplex, scale):
    """Box points over the simplex at one scale, or one scale per vector."""
    d = len(simplex[0])
    scales = [scale] * d if isinstance(scale, int) else scale
    m_rows = [[simplex[j][i] for j in range(d)] for i in range(d)]
    snf = smith_normal_form(m_rows)
    u_rows = [[Fraction(snf.U[i][j]) for j in range(d)]
              for i in range(d)]
    m_frac = [[Fraction(x) for x in row] for row in m_rows]
    base = set()
    for residue in itertools.product(*map(range, snf.invariant_factors)):
        x = fieldlin.solve_unique(u_rows, [Fraction(r) for r in residue])
        assert all(c.denominator == 1 for c in x)
        shift = [math.floor(c) for c in fieldlin.solve_unique(m_frac, x)]
        base.add(tuple(int(x[i]) - sum(shift[j] * simplex[j][i]
                                       for j in range(d)) for i in range(d)))
    return {tuple(b[i] + sum(k[j] * simplex[j][i] for j in range(d))
                  for i in range(d))
            for k in itertools.product(*map(range, scales)) for b in base}


def _fraction_in_module(v, kind, taus):
    if kind == K:
        return all(tau(v) >= 0 for tau in taus)
    return all(tau(v) > 0 for tau in taus)


def _fraction_primitive_degrees(module, scale):
    config, kind = module.config, module.kind
    taus = facets(config)
    tri = cone_triangulation(config)
    candidates = set().union(*(_fraction_box_points(s, scale) for s in tri))
    nonunit = {c.free for c in config.columns if not c.has_finite_order()}
    return tuple(
        v for v in sorted(candidates)
        if _fraction_in_module(v, kind, taus)
        and not any(_fraction_in_module(tuple(x - y for x, y in zip(v, c)),
                                        kind, taus) for c in nonunit))


def _fraction_module_generators(module):
    base_scale = 1 if module.kind == K else 2
    degrees = _fraction_primitive_degrees(module, base_scale)
    assert degrees == _fraction_primitive_degrees(module, 2 * base_scale)
    group = module.config.group
    elements = sorted((group.element(f.torsion, v) for v in degrees
                       for f in group.torsion_elements()),
                      key=lambda e: e.sort_key())
    return PrimitiveSet(tuple(elements), tuple(e.free for e in elements))


def _streamed(simplex, scale, rows, floor):
    """The streamed box scan as {point: values}, each point yielded once."""
    out = {}
    for b, o in _box_points(simplex, [scale] * len(simplex), rows, floor,
                            _box_base(simplex)):
        point = tuple(map(operator.add, b, o))
        assert point not in out
        out[point] = tuple(sum(map(operator.mul, row, point)) for row in rows)
    return out


def test_integer_kernel_matches_fraction_scan(battery):
    configs = battery + [square_prism([]), square_prism([2])]
    for cfg in configs:
        tri = cone_triangulation(cfg)
        taus = facets(cfg)
        rows = facet_rows(cfg)
        for simplex in tri:
            for scale in (1, 2):
                box = _fraction_box_points(simplex, scale)
                assert set(_streamed(simplex, scale, (), ())) == box, (cfg, simplex)
                for low in (0, 1):  # the cone, then its interior
                    streamed = _streamed(simplex, scale, rows, (low,) * len(rows))
                    assert streamed == {
                        v: tuple(tau(v) for tau in taus) for v in box
                        if all(tau(v) >= low for tau in taus)}, (cfg, simplex)
        for kind in (K, K_INTERIOR):
            mod = SemigroupModule(kind, cfg)
            assert _primitive_degrees(mod, (1, 2, 3, 4)) == [
                _fraction_primitive_degrees(mod, scale) for scale in (1, 2, 3, 4)], (cfg, kind)
            prim = module_generators(mod)
            assert prim.elements and prim == _fraction_module_generators(mod)


def _tuple_cone_points(config, height, bound):
    """cone_points_up_to with each candidate's values compared as a tuple,
    entry by entry, against the floor (the scan before packing)."""
    den = math.lcm(*(Fraction(c).denominator for c in height.free_part))
    rows = facet_rows(config) + (tuple(int(-den * c) for c in height.free_part),)
    floor = (0,) * (len(rows) - 1) + (-math.floor(den * Fraction(bound)),)
    out = set()
    for simplex in cone_triangulation(config):
        scales = [math.floor(Fraction(bound) / height(v)) + 2 for v in simplex]
        for v in _fraction_box_points(simplex, scales):
            values = (sum(map(operator.mul, row, v)) for row in rows)
            if all(map(operator.ge, values, floor)):
                out.add(v)
    return sorted(out)


def test_packed_kernel_matches_oracles_on_batteries():
    configs = (random_battery(20240, 40) + _reduction_battery()
               + [square_prism([]), square_prism([2])])
    for cfg in configs:
        for kind in (K, K_INTERIOR):
            mod = SemigroupModule(kind, cfg)
            assert _primitive_degrees(mod, (1, 2, 3, 4)) == [
                _fraction_primitive_degrees(mod, scale) for scale in (1, 2, 3, 4)], (cfg, kind)
        grading = positive_grading(cfg)
        halves = Functional(tuple(Fraction(3, 2) * c for c in grading.free_part))
        for height, bound in ((grading, 3), (halves, Fraction(7, 2))):
            # the last row, -den * height, is negative on the whole box
            assert cone_points_up_to(cfg, height, bound) == \
                _tuple_cone_points(cfg, height, bound), (cfg, height)


# The box 0 <= v < 8 on the line with values (v, -v): each value has
# |value| < 8, so with the largest |floor entry| 7 the bound 8 + 7 = 15
# fills 4 bits exactly and the fields are 5 bits wide.
@pytest.mark.parametrize("floor,reducers,expected", [
    ((5, -7), (), [5, 6, 7]),  # v = 5 and v = 7 sit exactly on a floor
    ((5, -6), (), [5, 6]),  # v = 4 and v = 7 fall one below a floor
    ((0, -7), ((7, -7), (-7, 0)), [1, 2, 3, 4, 5, 6]),  # |v - f| up to 14
    ((-7, -7), ((7, 0),), list(range(8))),  # no v is both >= 7 and <= 0
    ((-7, 7), (), []),
])
def test_packed_test_at_floor_and_width_boundaries(floor, reducers, expected):
    def meets(v, f):
        return all(map(operator.ge, (v, -v), f))

    assert expected == [v for v in range(8) if meets(v, floor)
                        and not any(meets(v, f) for f in reducers)]
    found = [b[0] + o[0] for b, o in _box_points(
        ((1,),), [8], ((1,), (-1,)), floor, _box_base(((1,),)), reducers)]
    assert sorted(found) == expected


def _yields(scan, simplex, scales, rows, floor, base, reducers=()):
    return sorted(scan(simplex, list(scales), rows, floor, base, reducers))


def test_bit_parallel_scan_matches_packed_word_oracle():
    """The all-candidates-at-once scan yields exactly the (b, o) pairs of the
    one-candidate-at-a-time packed-word scan, on every simplex of the
    batteries, at uniform and mixed per-axis scales, with no rows, with the
    K floor (with and without the column reducers) and with the interior
    floor plus the column reducers."""
    configs = (random_battery(20240, 40) + random_battery(7, 40)
               + [square_prism([]), square_prism([2])])
    rng = random.Random(20)
    cases = 0
    for cfg in configs:
        rows = facet_rows(cfg)
        columns = [c.free for c in cfg.columns if not c.has_finite_order()]
        for simplex in cone_triangulation(cfg):
            base = _box_base(simplex)
            mixed = [tuple(rng.randint(1, 5) for _ in simplex) for _ in range(2)]
            for scales in [(s,) * len(simplex) for s in (1, 2, 3)] + mixed:
                for low, reduce in ((None, False), (0, False), (0, True), (1, True)):
                    if low is None:
                        args = ((), (), base)
                    else:
                        floors = [tuple(x + low for x in semigroups._values(rows, c))
                                  for c in columns] if reduce else []
                        args = (rows, (low,) * len(rows), base, floors)
                    got = _yields(_box_points, simplex, scales, *args)
                    assert got == _yields(oracle_box_points, simplex, scales, *args), \
                        (cfg, simplex, scales, low, reduce)
                    cases += 1
    assert cases == 2060  # 103 simplices x 5 scale vectors x 4 floor setups


def test_extreme_fields_side_by_side_lose_no_candidate():
    """A det-3 simplex at mixed scales (4, 2), with rows and floors chosen so
    the field width is tight: W = 5 from reach 6 plus |floor entry| 9 = 15.
    Box points keep |tau_i| <= reach - 1, so fields lie in [2, 2^W - 2];
    the scan's integers reach both ends, each next to a field at the other
    end of its own range (indices 11 and 12, the k_2 block boundary), and
    no candidate may be lost or yielded twice."""
    simplex = ((1, 0), (1, 3))
    base = [(1, 2), (1, 1), (0, 0)]  # last point y = 0, first y = 2
    assert set(base) == _box_base(simplex)
    scales = (4, 2)
    rows = ((0, -1), (0, 1), (1, 0))
    floor = (-9, -9, 0)
    reducers = [(9, -9, -9), (-3, 1, 2), (-9, 4, 1)]
    width, half = 5, 16
    candidates = [(b, (k1 + k2, 3 * k2)) for k2 in range(2) for k1 in range(4)
                  for b in base]  # field order: base point, then k_1, then k_2

    def fields(lows):
        return [[sum(map(operator.mul, row, map(operator.add, b, o))) - lo + half
                 for b, o in candidates] for row, lo in zip(rows, lows)]

    tight = [fields(floor)] + [fields(f) for f in reducers]
    values = [v for integer in tight for row in integer for v in row]
    assert (min(values), max(values)) == (2, 2 ** width - 2)
    low_row, high_row = tight[1][0], tight[0][1]  # -y - 9 and y + 9, plus 2^(W-1)
    assert (low_row[11], low_row[12]) == (max(low_row), 2)
    assert (high_row[11], high_row[12]) == (min(high_row), 2 ** width - 2)

    def meets(point, f):
        return all(sum(map(operator.mul, row, point)) >= x for row, x in zip(rows, f))

    expected = sorted((b, o) for b, o in candidates
                      if meets(tuple(map(operator.add, b, o)), floor)
                      and not any(meets(tuple(map(operator.add, b, o)), f)
                                  for f in reducers))
    got = _yields(_box_points, simplex, scales, rows, floor, base, reducers)
    assert 0 < len(got) < len(candidates)
    assert got == expected
    assert len(set(got)) == len(got)


def test_scan_split_into_passes_matches_oracle():
    # 300 base points x 16 x 16 offsets exceed one pass of 2^16 candidates
    simplex = ((1, 0), (1, 300))
    rows = ((0, 1), (300, -1))
    base = _box_base(simplex)
    for floor, reducers, count in (((0, 0), [], 300 * 16 * 16),
                                   ((1, 1), [(2, 300), (300, 2)], 329)):
        got = _yields(_box_points, simplex, (16, 16), rows, floor, base, reducers)
        assert got == _yields(oracle_box_points, simplex, (16, 16), rows, floor,
                              base, reducers)
        assert len(got) == len(set(got)) == count


def test_cold_module_generators_scans_each_simplex_at_both_scales(monkeypatch):
    """The doubled-scale rescan is the safety net behind
    BoxScanIncompleteError: a cold module_generators scans every simplex
    exactly once at the base scale s and once at 2s."""
    calls = []
    real = semigroups._box_points
    monkeypatch.setattr(semigroups, "_box_points", lambda simplex, scales, *rest:
                        calls.append((simplex, tuple(scales)))
                        or real(simplex, scales, *rest))
    for cfg in random_battery(7, 6) + [square_prism([]), square_prism([2])]:
        for kind, scale in ((K, 1), (K_INTERIOR, 2)):
            module_generators.cache_clear()
            calls.clear()
            module_generators(SemigroupModule(kind, cfg))
            assert sorted(calls) == sorted(
                (simplex, (s,) * cfg.d) for simplex in cone_triangulation(cfg)
                for s in (scale, 2 * scale)), (cfg, kind)


def _drop_smallest_at_unit_scale(monkeypatch):
    original = semigroups._box_points

    def lossy(simplex, scales, *rest):
        found = sorted(original(simplex, scales, *rest))  # by point at unit scale
        return found[1:] if max(scales) == 1 else found
    monkeypatch.setattr(semigroups, "_box_points", lossy)


def test_lost_box_point_raises_typed_error(split_line, monkeypatch):
    module_generators.cache_clear()  # a cached set would skip the lossy scan
    _drop_smallest_at_unit_scale(monkeypatch)
    with pytest.raises(BoxScanIncompleteError) as info:
        module_generators(SemigroupModule(K, split_line))
    assert info.value.code == "BOX_SCAN_INCOMPLETE"
    assert info.value.context == {"module": K, "scale": 1, "degrees": [(0,)]}


def test_box_representative_count_is_checked(monkeypatch):
    # a wrong Smith transform collapses the residue classes onto one point
    def broken(m):
        snf = smith_normal_form(m)
        return SmithDecomposition(snf.U, snf.D, ((0, 0), (0, 0)), snf.invariant_factors)
    monkeypatch.setattr(semigroups, "smith_normal_form", broken)
    with pytest.raises(BoxScanIncompleteError) as info:
        _box_base(((1, 0), (1, 2)))
    assert info.value.context["expected"] == 2
    assert info.value.context["found"] == 1


def test_box_base_built_once_per_simplex_per_miss(monkeypatch):
    # the base-scale scan and the doubled-scale rescan share each Smith form
    calls = []
    monkeypatch.setattr(semigroups, "smith_normal_form",
                        lambda m: calls.append(m) or smith_normal_form(m))
    for cfg in random_battery(7, 6) + [square_prism([2])]:
        simplices = len(cone_triangulation(cfg))
        for kind in (K, K_INTERIOR):
            module_generators.cache_clear()
            calls.clear()
            module_generators(SemigroupModule(kind, cfg))
            assert len(calls) == simplices, (cfg, kind)


def test_cone_points_match_brute_force(battery):
    configs = battery + [square_prism([]), square_prism([2])]
    for cfg in configs:
        taus = facets(cfg)
        grading = positive_grading(cfg)
        halves = Functional(tuple(Fraction(3, 2) * c for c in grading.free_part))
        reach = max(abs(x) for c in cfg.columns for x in c.free)
        for height, bound in ((grading, 3), (halves, Fraction(7, 2))):
            # a cone point of height <= bound is a combination of columns
            # with coefficient sum <= bound, so its entries are small
            box = itertools.product(range(-3 * reach, 3 * reach + 1), repeat=cfg.d)
            expected = [v for v in box if height(v) <= bound
                        and all(tau(v) >= 0 for tau in taus)]
            assert cone_points_up_to(cfg, height, bound) == expected, (cfg, height)


NOT_SPANNING = (
    "from tgkz.cones import PointConfig\n"
    "from tgkz.errors import HypothesisError\n"
    "from tgkz.lattice import AbelianGroup, Functional\n"
    "from tgkz.semigroups import K, SemigroupModule, cone_points_up_to, module_generators\n"
    "group = AbelianGroup((), 2)\n"
    "config = PointConfig(group, (group.element((), (1, 0)), group.element((), (2, 0))))\n"
    "for call in (lambda: module_generators(SemigroupModule(K, config)),\n"
    "             lambda: cone_points_up_to(config, Functional.of((1, 0)), 3)):\n"
    "    try:\n        call()\n"
    "    except HypothesisError as exc:\n        print(exc.code, sorted(exc.context.items()))\n")


def test_non_spanning_box_scan_raises_typed_error():
    config = make_config([], [((), (1, 0)), ((), (2, 0))])
    for call in (lambda: module_generators(SemigroupModule(K, config)),
                 lambda: cone_points_up_to(config, Functional.of((1, 0)), 3)):
        with pytest.raises(HypothesisError) as info:
            call()
        assert info.value.code == "HYPOTHESIS_FAILED"
        assert info.value.context == {"d": 2, "rank": 1}
    # under -O an assert would vanish and the box scan fail elsewhere
    res = subprocess.run([sys.executable, "-O", "-c", NOT_SPANNING],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["HYPOTHESIS_FAILED [('d', 2), ('rank', 1)]"] * 2


NOT_POINTED = (
    "from tgkz.cones import PointConfig\n"
    "from tgkz.errors import NotPointedError\n"
    "from tgkz.lattice import AbelianGroup\n"
    "from tgkz.semigroups import EXPLICIT, SemigroupModule, membership, primitive_elements\n"
    "group = AbelianGroup((), 1)\n"
    "config = PointConfig(group, (group.element((), (1,)), group.element((), (-1,))))\n"
    "module = SemigroupModule(EXPLICIT, config, (group.zero(),))\n"
    "for call in (lambda: membership(group.element((), (5,)), module),\n"
    "             lambda: primitive_elements(module)):\n"
    "    try:\n        call()\n"
    "    except NotPointedError as exc:\n        print(exc.code)\n")


def test_monoid_membership_refuses_a_cone_that_is_not_pointed():
    # columns 1 and -1: subtracting a column never lowers a grading, so the
    # search would push 6, 7, 8, ... without end; it must refuse at once
    res = subprocess.run([sys.executable, "-c", NOT_POINTED],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["NOT_POINTED"] * 2


# ---------------------------------------------------------------------------
# iterative monoid membership


def _member_recursive(config, t, memo):
    """The recursive column-subtraction search, kept as a reference."""
    if t not in memo:
        if t.has_finite_order():
            memo[t] = t in set(units(config))
        elif any(tau(t.free) < 0 for tau in facets(config)):
            memo[t] = False
        else:
            memo[t] = any(_member_recursive(config, t - c, memo)
                          for c in config.columns
                          if not c.has_finite_order())
    return memo[t]


def test_member_semigroup_deep_free_part(split_line):
    g = split_line.group
    assert member_semigroup(split_line, g.element((0,), (5000,)))
    assert not member_semigroup(split_line, g.element((1,), (5000,)))
    assert member_semigroup(split_line, g.element((1,), (5001,)))


def test_member_semigroup_matches_recursive_reference(battery):
    configs = battery + [make_config([2], [((1,), (0,)), ((0,), (2,)),
                                           ((1,), (3,))])]
    for cfg in configs:
        memo = {}
        for f in cfg.group.torsion_elements():
            for free in itertools.product(range(-1, 7), repeat=cfg.d):
                t = cfg.group.element(f.torsion, free)
                assert member_semigroup(cfg, t) == \
                    _member_recursive(cfg, t, memo), (cfg, t)
