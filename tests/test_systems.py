import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cone_oracle import boundary_quasi_degrees
from conftest import make_config, random_battery, square_prism
from fieldlin_oracle import in_span
from relation_oracle import pair_elements, span_reduce
from tgkz import cones, semigroups, systems
from tgkz.cones import face_by_columns
from tgkz.cyclotomic import Cyclotomic
from tgkz.errors import NotHomogeneousError, NotPointedError, NotStabilizedError
from tgkz.lattice import Functional
from tgkz.poly import module_groebner
from tgkz.problem import parse_spec
from tgkz.semigroups import K, K_INTERIOR, SemigroupModule
from tgkz.systems import (
    FACE,
    K_MOD_KINTERIOR,
    NONVANISHING,
    VANISHES,
    _primitive_set_for,
    bbgkz_primitive_presentation,
    default_binomial_bound,
    quasi_degrees,
    regularity_certificate,
    vanishing_test,
)
from tgkz.weyl import WeylElement


def rel_texts(pres):
    return [[(i, op.to_text()) for i, op in rel] for rel in pres.relations]


def test_primitive_presentation_line_pair():
    line = make_config([], [((), (1,)), ((), (2,))])
    mod = SemigroupModule(K, line)
    pres = bbgkz_primitive_presentation(mod, (0,))
    assert [(g.torsion, g.free) for g in pres.generators] == [((), (0,))]
    assert rel_texts(pres) == [[(0, "d1^2 - d2")],
                               [(0, "x1*d1 + 2*x2*d2")]]
    assert dict(pres.bounds)["binomial_degree_bound"] == 6


def test_primitive_presentation_split_line(split_line):
    mod = SemigroupModule(K, split_line)
    pres = bbgkz_primitive_presentation(mod, (Fraction(1, 2),))
    assert len(pres.generators) == 2
    assert rel_texts(pres) == [[(0, "x1*d1 - 1/2")], [(1, "x1*d1 - 1/2")]]


def test_primitive_presentation_stable_at_large_bound(split_line):
    mod = SemigroupModule(K, split_line)
    pres = bbgkz_primitive_presentation(mod, (Fraction(1, 2),), 16)
    assert rel_texts(pres) == [[(0, "x1*d1 - 1/2")], [(1, "x1*d1 - 1/2")]]


def test_primitive_presentation_unstable_bound_raises(mod4_line):
    mod = SemigroupModule(K, mod4_line)
    with pytest.raises(NotStabilizedError) as info:
        bbgkz_primitive_presentation(mod, (0,), 0)
    assert info.value.context == {"bound": 0}


Z3_PLANE = make_config([3], [((1,), (1, 0)), ((2,), (1, 1)), ((0,), (1, 2))])


@pytest.mark.parametrize("name", ["mod4_line", "z3_plane"])
def test_relation_search_rational_matches_cyclotomic(name, mod4_line):
    config = {"mod4_line": mod4_line, "z3_plane": Z3_PLANE}[name]
    gens = _primitive_set_for(SemigroupModule(K, config)).elements
    rational = pair_elements(config, gens, default_binomial_bound(config))
    assert all(type(c) is Fraction for e in rational for c in e.values())
    field = [{k: Cyclotomic.one() * c for k, c in e.items()} for e in rational]
    fast = module_groebner(span_reduce(rational))
    slow = module_groebner(span_reduce(field))
    assert all(isinstance(c, Cyclotomic) for e in slow for c in e.values())
    assert [{k: Cyclotomic.coerce(c) for k, c in e.items()} for e in fast] == slow


def test_inhomogeneous_relation_raises_typed_error(monkeypatch, mod4_line):
    # 1_0 - d1*1_0 joins two degrees; mod4_line has four primitive generators
    basis = [{(0, (0, 0)): Fraction(1), (0, (1, 0)): Fraction(-1)}]
    monkeypatch.setattr(systems, "_relation_module", lambda config, gens: basis)
    with pytest.raises(NotHomogeneousError) as exc:
        bbgkz_primitive_presentation(SemigroupModule(K, mod4_line), (0,))
    assert exc.value.code == "NOT_HOMOGENEOUS"
    assert exc.value.context == {"bound": 18, "degrees": 2}


def test_primitive_presentation_interior(even_pair):
    mod = SemigroupModule(K_INTERIOR, even_pair)
    pres = bbgkz_primitive_presentation(mod, (0, 0))
    assert [g.free for g in pres.generators] == [(1, 1), (2, 2)]
    rels = rel_texts(pres)
    assert [(0, "x1*d1 + x2*d2 + 1")] in rels
    assert [(0, "2*x2*d2 + 1")] in rels
    assert [(1, "x1*d1 + x2*d2 + 2")] in rels
    assert [(1, "2*x2*d2 + 2")] in rels


def test_primitive_presentation_mod4(mod4_line):
    mod = SemigroupModule(K, mod4_line)
    pres = bbgkz_primitive_presentation(mod, (0,))
    assert len(pres.generators) == 4
    # binomial relations identify d1^2 across the torsion markers in pairs
    binom = [r for r in rel_texts(pres) if len(r) == 2]
    assert binom, "expected cross-generator binomial relations"
    for rel in binom:
        (i, ti), (j, tj) = rel
        assert i != j


def test_default_binomial_bound_values(mod4_line):
    line = make_config([], [((), (1,)), ((), (2,))])
    assert default_binomial_bound(line) == 6
    assert default_binomial_bound(mod4_line) == 18


def test_presentation_json_shape(split_line):
    mod = SemigroupModule(K, split_line)
    pres = bbgkz_primitive_presentation(mod, (Fraction(1, 2),))
    js = pres.to_json()
    assert js["module"] == K
    assert js["beta"] == ["1/2"]
    assert js["generators"] == [{"torsion": [0], "free": [0]},
                                {"torsion": [1], "free": [0]}]
    assert js["relations"][0][0]["generator_index"] == 0
    assert js["bounds"]["binomial_degree_bound"] == 6


def test_quasi_degrees_full_modules(even_pair):
    for kind in (K, K_INTERIOR):
        arr = quasi_degrees(even_pair, kind)
        assert len(arr.pieces) == 1
        piece = arr.pieces[0]
        assert piece.shift == (0, 0)
        assert set(piece.span_vectors) == {(1, 0), (1, 2)}


def test_quasi_degrees_boundary_quotient(even_pair):
    arr = quasi_degrees(even_pair, K_MOD_KINTERIOR)
    shifts = sorted(p.shift for p in arr.pieces)
    assert all(s == (0, 0) for s in shifts)
    spans = sorted(p.span_vectors for p in arr.pieces)
    assert spans == [((1, 0),), ((1, 2),)]


def _spec_configs():
    root = Path(__file__).resolve().parent.parent
    return [parse_spec(path.read_text(encoding="utf-8")).config
            for folder in ("sample_specs", "bench/specs")
            for path in sorted((root / folder).glob("*.json"))]


def test_boundary_quasi_degrees_match_enumeration_oracle(even_pair):
    configs = random_battery(1, 60) + random_battery(7, 40) + \
        [square_prism(()), square_prism((2,)), even_pair] + _spec_configs()
    for config in configs:
        assert quasi_degrees(config, K_MOD_KINTERIOR) == boundary_quasi_degrees(config)


def test_boundary_quasi_degrees_enumerate_no_points(monkeypatch):
    configs = [square_prism((2,))] + _spec_configs()
    calls = []
    real_points, real_call = semigroups.cone_points_up_to, Functional.__call__
    for module in [m for name, m in sys.modules.items() if name.startswith("tgkz")]:
        if getattr(module, "cone_points_up_to", None) is real_points:
            monkeypatch.setattr(module, "cone_points_up_to", lambda *args:
                                calls.append("cone_points_up_to") or real_points(*args))
    monkeypatch.setattr(Functional, "__call__", lambda *args:
                        calls.append("Functional.__call__") or real_call(*args))
    cones.facet_rows.cache_clear()
    cones.is_pointed.cache_clear()
    for config in configs:
        assert quasi_degrees(config, K_MOD_KINTERIOR).dim == config.d - 1
    assert calls == []


@pytest.mark.parametrize("cols, message", [
    # a line through the origin, and three rays filling the plane
    ([(1,), (-1,)], "positive grading requires a pointed cone"),
    ([(1, 0), (0, 1), (-1, -1)], "positive grading requires a pointed cone"),
    # rank d-1 (facets +-n sum to zero) and rank d-2 (no facets)
    ([(1, 0), (2, 0)], "no strictly positive integral grading found"),
    ([(1, 0, 0), (0, 1, 0)], "no strictly positive integral grading found"),
])
def test_boundary_quasi_degrees_refuse_non_pointed_or_non_spanning(cols, message):
    config = make_config([], [((), c) for c in cols])
    with pytest.raises(NotPointedError, match=message) as exc:
        quasi_degrees(config, K_MOD_KINTERIOR)
    assert exc.value.code == "NOT_POINTED"


def test_quasi_degrees_vertex_face():
    line = make_config([], [((), (1,))])
    vertex = face_by_columns(line, ())
    arr = quasi_degrees(line, FACE, face=vertex)
    assert len(arr.pieces) == 1
    assert arr.pieces[0].span_vectors == ()
    assert arr.pieces[0].shift == (0,)


BAD_QUASI_DEGREE_KINDS = (
    "from tgkz.cones import PointConfig\n"
    "from tgkz.errors import SpecError\n"
    "from tgkz.lattice import AbelianGroup\n"
    "from tgkz.systems import FACE, quasi_degrees\n"
    "group = AbelianGroup((), 2)\n"
    "config = PointConfig(group, (group.element((), (1, 0)), group.element((), (1, 2))))\n"
    "for kind in ('BOGUS', FACE):\n"
    "    try:\n        print(quasi_degrees(config, kind))\n"
    "    except SpecError as exc:\n        print(exc.code)\n")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_quasi_degrees_rejects_bad_module_kinds(flags):
    # an unknown kind, and a face module without its face
    res = subprocess.run([sys.executable, *flags, "-c", BAD_QUASI_DEGREE_KINDS],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["UNSUPPORTED_MODULE"] * 2


def _weyl_left_ideal_contains_one(ops, nvars, bound=6):
    """Bounded-degree membership of 1 in the left ideal generated by ops."""
    products = []
    for a in itertools.product(range(bound + 1), repeat=nvars):
        for b in itertools.product(range(bound + 1), repeat=nvars):
            if sum(a) + sum(b) > bound:
                continue
            mono = WeylElement.monomial(nvars, a, b, 1)
            for g in ops:
                products.append(mono * g)
    keys = sorted({k for e in products for k in e.terms})
    idx = {k: i for i, k in enumerate(keys)}
    zero = Cyclotomic.zero()
    rows = []
    for e in products:
        row = [zero] * len(keys)
        for k, c in e.terms.items():
            row[idx[k]] = c
        rows.append(row)
    const_key = (0,) * (2 * nvars)
    if const_key not in idx:
        return False
    target = [zero] * len(keys)
    target[idx[const_key]] = Cyclotomic.one()
    return in_span(rows, target)


def test_vanishing_vertex_face_matches_weyl_oracle():
    line = make_config([], [((), (1,))])
    vertex = face_by_columns(line, ())
    d1 = WeylElement.d(0, 1)
    euler = WeylElement.x(0, 1) * d1
    for beta, expected in [(Fraction(0), NONVANISHING),
                           (Fraction(1), VANISHES),
                           (Fraction(5), VANISHES),
                           (Fraction(-1, 2), VANISHES)]:
        verdict = vanishing_test(line, FACE, (beta,), face=vertex)
        assert verdict == expected
        ops = [d1, euler - WeylElement.constant(1, beta)]
        contains_one = _weyl_left_ideal_contains_one(ops, 1)
        assert contains_one == (verdict == VANISHES)


def test_vanishing_closure_module_everywhere(battery):
    import random
    rng = random.Random(3)
    for cfg in battery:
        for _ in range(20):
            beta = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                         for _ in range(cfg.d))
            assert vanishing_test(cfg, K, beta) == NONVANISHING


def test_regularity_certificates(split_line, mod4_line, plane_segment):
    cert = regularity_certificate(split_line)
    assert cert is not None
    assert all(cert(c) == 1 for c in split_line.columns)
    assert regularity_certificate(mod4_line) is None
    cert2 = regularity_certificate(plane_segment)
    assert cert2 is not None
    assert all(cert2(c) == 1 for c in plane_segment.columns)
