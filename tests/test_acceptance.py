"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
Worked values are frozen from independent hand computation; property checks
use fixed seeds so every run tests the same battery.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import make_config
from test_cones import _brute_force_facets
from test_semigroups import _check_reduction, _reduction_battery
from test_systems import _weyl_left_ideal_contains_one
from tgkz import fieldlin
from tgkz.binomials import minimal_primes, power_ideal, toric_ideal_free, \
    toric_ideal_full
from tgkz.cones import check_hypotheses, face_by_columns, facets, is_pointed, \
    normalized_volume
from tgkz.duality import character_split, dual_parameter, rank_formula, \
    sign_twist
from tgkz.lattice import det, smith_normal_form
from tgkz.poly import groebner_ideal, ideal_equal, intersect_many, \
    parse_polynomial, polynomial_to_text
from tgkz.problem import parse_spec
from tgkz.report import render, run_command
from tgkz.semigroups import K, K_INTERIOR, SemigroupModule, module_generators
from tgkz.systems import FACE, NONVANISHING, VANISHES, \
    bbgkz_primitive_presentation, regularity_certificate, vanishing_test
from tgkz.weyl import WeylElement, euler_operators

SPLIT_LINE_SPEC = ('{"torsion_orders": [2], "columns":'
                   ' [{"torsion": [1], "free": [1]}], "beta": ["1/2"]}')
MOD4_SPEC = ('{"torsion_orders": [4], "columns": [{"torsion": [1], "free": [1]},'
             ' {"torsion": [1], "free": [2]}], "beta": [0]}')
PLANE_SPEC = ('{"columns": [{"torsion": [], "free": [1, 0]},'
              ' {"torsion": [], "free": [1, 1]},'
              ' {"torsion": [], "free": [1, 2]}], "beta": [0, 0]}')


def P(text, nvars=2):
    return parse_polynomial(text, nvars)


def test_criterion_01_toric_and_power_ideals_with_discrepancy_note(mod4_line):
    line = make_config([], [((), (1,)), ((), (2,))])
    assert ideal_equal(toric_ideal_free(line),
                       groebner_ideal([P("d1^2 - d2")], nvars=2))
    assert ideal_equal(power_ideal(mod4_line),
                       groebner_ideal([P("d1^8 - d2^4")], nvars=2))
    assert ideal_equal(toric_ideal_full(mod4_line),
                       groebner_ideal([P("d1^8 - d2^4")], nvars=2))
    out = run_command(parse_spec(MOD4_SPEC), "ideals")
    assert any("d1^4 - d2^2" in note for note in out["notes"])


def test_criterion_02_minimal_primes_intersection_and_product(mod4_line):
    primes = minimal_primes(mod4_line)
    assert len(primes) == 4
    inter = intersect_many([ideal for _, ideal in primes])
    assert ideal_equal(inter, toric_ideal_full(mod4_line))
    product = P("1")
    for _, ideal in primes:
        (gen,) = ideal.generators
        product = product * gen
    assert polynomial_to_text(product) == "d1^8 - d2^4"


def test_criterion_03_split_line_primitives_presentation_split(split_line):
    prim = module_generators(SemigroupModule(K, split_line))
    assert [(e.torsion, e.free) for e in prim.elements] == \
        [((0,), (0,)), ((1,), (0,))]
    assert len(prim.elements) == split_line.ell == 2

    beta = (Fraction(1, 2),)
    mod = SemigroupModule(K, split_line)
    for bound in (None, 16):
        pres = bbgkz_primitive_presentation(mod, beta, bound)
        assert len(pres.generators) == 2
        rels = [[(i, op.to_text()) for i, op in rel]
                for rel in pres.relations]
        # no binomial relations; only the Euler relation on each generator
        assert rels == [[(0, "x1*d1 - 1/2")], [(1, "x1*d1 - 1/2")]]

    cert = character_split(split_line)
    assert [[c.to_text() for c in row] for row in cert.matrix] == \
        [["1", "1"], ["1", "-1"]]
    assert cert.determinant.rational_value() == -2


def test_criterion_04_rank_battery_with_volume_oracles(
        split_line, mod4_line, plane_segment):
    cases = [(split_line, 2), (mod4_line, 8), (plane_segment, 2)]
    for cfg, expected in cases:
        assert rank_formula(cfg, K) == expected
        assert rank_formula(cfg, K_INTERIOR) == expected
    # determinant oracles: sum of |det| over a hand triangulation of
    # conv({0} u columns), homogenized to height 1
    assert normalized_volume(split_line) == abs(det([[1]]))
    assert normalized_volume(mod4_line) == (
        abs(det([[1, 0], [1, 1]])) + abs(det([[1, 1], [1, 2]])))
    assert normalized_volume(plane_segment) == (
        abs(det([[1, 1, 0], [1, 1, 1], [1, 0, 0]]))
        + abs(det([[1, 1, 1], [1, 1, 2], [1, 0, 0]])))


def test_criterion_05_duality_shift_and_sign_twist(battery):
    rng = random.Random(2024)
    for cfg in battery:
        for _ in range(100):
            beta = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                         for _ in range(cfg.d))
            twice = dual_parameter(dual_parameter(beta, cfg), cfg)
            assert tuple(b.rational_value() for b in twice) == beta
        assert rank_formula(cfg, K) == rank_formula(cfg, K_INTERIOR)
        for e in euler_operators(cfg):
            assert sign_twist(e) == e
        mod = SemigroupModule(K, cfg)
        pres = bbgkz_primitive_presentation(mod, (0,) * cfg.d)
        twisted = sign_twist(pres)
        assert sign_twist(twisted).relations == pres.relations
        assert len(twisted.relations) == len(pres.relations)


def test_criterion_06_vanishing_matches_weyl_oracle():
    line = make_config([], [((), (1,))])
    vertex = face_by_columns(line, ())
    d1 = WeylElement.d(0, 1)
    euler = WeylElement.x(0, 1) * d1
    expected = {Fraction(0): NONVANISHING, Fraction(1): VANISHES,
                Fraction(5): VANISHES, Fraction(-1, 2): VANISHES}
    for beta, verdict in expected.items():
        assert vanishing_test(line, FACE, (beta,), face=vertex) == verdict
        ops = [d1, euler - WeylElement.constant(1, beta)]
        assert _weyl_left_ideal_contains_one(ops, 1) == (verdict == VANISHES)
    rng = random.Random(66)
    for _ in range(20):
        beta = (Fraction(rng.randint(-60, 60), rng.randint(1, 11)),)
        assert vanishing_test(line, K, beta) == NONVANISHING


def test_criterion_07_primitive_generation_battery():
    battery = _reduction_battery()
    assert len(battery) >= 18
    for cfg in battery:
        _check_reduction(SemigroupModule(K, cfg), height_bound=6)
        _check_reduction(SemigroupModule(K_INTERIOR, cfg), height_bound=6)


def test_criterion_08_exact_algebra_suites():
    rng = random.Random(424242)
    for _ in range(500):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        s = smith_normal_form(m)
        d = [[0] * c for _ in range(r)]
        for i, f in enumerate(s.invariant_factors):
            d[i][i] = f
        um = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in s.U]
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*s.V)]
                for row in um] == d
        assert abs(det(s.U)) == 1 and abs(det(s.V)) == 1
        facs = s.invariant_factors
        assert all(facs[i + 1] % facs[i] == 0 for i in range(len(facs) - 1))

    gens = [P("d1^2 - d2"), P("d1*d2 - d2"), P("d2^3 - d1")]
    base = groebner_ideal(gens, nvars=2).generators
    for perm in itertools.permutations(gens):
        assert groebner_ideal(list(perm), nvars=2).generators == base

    checked = 0
    while checked < 8:
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 2)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        cfg = make_config([], [((), c) for c in cols])
        if not is_pointed(cfg) or not check_hypotheses(cfg).spans:
            continue
        mine = {tuple(int(x) for x in t.free_part) for t in facets(cfg)}
        assert mine == _brute_force_facets(cfg)
        checked += 1


def test_criterion_09_regularity_certificates(
        split_line, mod4_line, plane_segment, even_pair):
    for cfg in (split_line, plane_segment, even_pair):
        cert = regularity_certificate(cfg)
        assert cert is not None
        assert all(cert(col) == 1 for col in cfg.columns)
    # free parts {1, 2} admit no functional with h(1) = h(2) = 1
    assert regularity_certificate(mod4_line) is None
    line_pair = make_config([], [((), (1,)), ((), (2,))])
    assert regularity_certificate(line_pair) is None


def test_criterion_10_report_determinism(tmp_path):
    for name, text in [("split_line", SPLIT_LINE_SPEC),
                       ("mod4_line", MOD4_SPEC), ("plane", PLANE_SPEC)]:
        spec = parse_spec(text)
        runs = [render(run_command(spec, "report")) for _ in range(3)]
        runs.append(render(run_command(spec, "report", workers=4)))
        assert len(set(runs)) == 1, name
    # and once through the real command line
    path = tmp_path / "spec.json"
    path.write_text(MOD4_SPEC)
    outs = set()
    for extra in ([], ["--workers", "4"]):
        res = subprocess.run(
            [sys.executable, "-m", "tgkz.cli", "report", "--spec",
             str(path), *extra], capture_output=True, text=True)
        assert res.returncode == 0
        outs.add(res.stdout)
    assert len(outs) == 1
