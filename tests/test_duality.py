import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import make_config
from fieldlin_oracle import determinant
from tgkz.cones import cone_triangulation, epsilon_vector, normalized_volume
from tgkz import cones, duality
from tgkz.cyclotomic import Cyclotomic
from tgkz.duality import (
    DEFAULT_TRUNCATION,
    character_split,
    character_table_determinant,
    dual_parameter,
    dual_system,
    rank_formula,
    sign_twist,
)
from tgkz.errors import HypothesisError, RankMismatchError, SpecError, SplitSingularError
from tgkz.problem import parse_spec
from tgkz.report import run_command
from tgkz.semigroups import EXPLICIT, K, K_INTERIOR, SemigroupModule
from tgkz.systems import bbgkz_primitive_presentation
from tgkz.weyl import euler_operators


def test_rank_battery(split_line, mod4_line, plane_segment):
    assert rank_formula(split_line, K) == 2
    assert rank_formula(mod4_line, K) == 8
    assert rank_formula(plane_segment, K) == 2


def test_rank_closure_equals_interior(battery):
    for cfg in battery:
        assert rank_formula(cfg, K) == rank_formula(cfg, K_INTERIOR)
        assert rank_formula(cfg, K) == cfg.ell * normalized_volume(cfg)


def test_rank_rejects_explicit(split_line):
    with pytest.raises(SpecError):
        rank_formula(split_line, EXPLICIT)


def test_dual_parameter_involution_random(battery):
    rng = random.Random(99)
    for cfg in battery:
        for _ in range(100):
            beta = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                         for _ in range(cfg.d))
            twice = dual_parameter(dual_parameter(beta, cfg), cfg)
            assert tuple(b.rational_value() for b in twice) == beta


def test_dual_parameter_value(split_line):
    assert epsilon_vector(split_line) == (1,)
    out = dual_parameter((Fraction(1, 2),), split_line)
    assert [b.rational_value() for b in out] == [Fraction(-3, 2)]


def test_dual_system_split_line(split_line):
    pres, report = dual_system(split_line, (0,))
    js = report.to_json()
    assert js == {"beta": ["0"], "epsilon": [1], "dual_beta": ["-1"],
                  "rank_primal": 2, "rank_dual": 2, "twisted": True}
    rels = [[(i, op.to_text()) for i, op in rel] for rel in pres.relations]
    assert rels == [[(0, "x1*d1 + 2")], [(1, "x1*d1 + 2")]]


def test_dual_system_line_pair():
    line = make_config([], [((), (1,)), ((), (2,))])
    pres, report = dual_system(line, (0,))
    assert report.rank_primal == report.rank_dual == 2
    rels = [[(i, op.to_text()) for i, op in rel] for rel in pres.relations]
    assert [(0, "d1^2 + d2")] in rels
    assert [(0, "x1*d1 + 2*x2*d2 + 4")] in rels


def test_dual_system_requires_hypotheses(even_pair):
    with pytest.raises(HypothesisError):
        dual_system(even_pair, (0, 0))


def test_rank_mismatch_raises_typed_error(monkeypatch, split_line):
    rank = duality.rank_formula
    monkeypatch.setattr(duality, "rank_formula",
                        lambda config, kind: rank(config, kind) + (kind == K_INTERIOR))
    with pytest.raises(RankMismatchError) as exc:
        dual_system(split_line, (0,))
    assert exc.value.code == "RANK_MISMATCH"
    assert exc.value.context == {"rank_primal": 2, "rank_dual": 3}


def test_singular_split_raises_typed_error(monkeypatch, split_line):
    monkeypatch.setattr(duality, "character_table_determinant",
                        lambda orders: Cyclotomic.zero())
    with pytest.raises(SplitSingularError) as exc:
        character_split(split_line)
    assert exc.value.code == "SPLIT_SINGULAR"
    assert exc.value.context == {"torsion_orders": (2,)}


def test_sign_twist_involution_on_presentations(battery):
    for cfg in battery:
        mod = SemigroupModule(K, cfg)
        beta = (Fraction(1, 3),) * cfg.d
        pres = bbgkz_primitive_presentation(mod, beta)
        twisted = sign_twist(pres)
        assert sign_twist(twisted).relations == pres.relations
        assert len(twisted.relations) == len(pres.relations)


def test_sign_twist_fixes_euler_operators(battery):
    for cfg in battery:
        for e in euler_operators(cfg):
            assert sign_twist(e) == e


def test_character_split_split_line(split_line):
    cert = character_split(split_line)
    assert [[c.to_text() for c in row] for row in cert.matrix] == \
        [["1", "1"], ["1", "-1"]]
    assert cert.determinant.rational_value() == -2
    assert cert.nonsingular
    assert cert.truncation == DEFAULT_TRUNCATION
    assert cert.pieces_checked > 0
    assert len(cert.exponents) == split_line.ell


def test_character_split_mod4(mod4_line):
    cert = character_split(mod4_line)
    assert cert.determinant.to_text() == "-16*zeta(4)"
    assert len(cert.exponents) == 4
    assert cert.nonsingular


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (5,), (6,), (8,), (12,), (2, 2), (2, 4),
                                    (3, 3), (2, 6), (2, 2, 2), (4, 4), (3, 6)],
                         ids=lambda orders: "x".join(map(str, orders)))
def test_character_table_determinant_matches_elimination(orders):
    """The Kronecker-Vandermonde product against Gaussian elimination on the
    table as character_split builds it."""
    config = make_config(list(orders), [((1,) * len(orders), (1,))])
    table = [list(row) for row in character_split(config).matrix]
    assert len(table) == prod(orders)
    expect = Cyclotomic.coerce(determinant(table))
    got = character_table_determinant(orders)
    assert got == expect and got.to_text() == expect.to_text()


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2), (2, 4), (3, 6), (2, 2, 2)],
                         ids=lambda orders: "x".join(map(str, orders)))
def test_character_table_exponent_form_matches_entry_products(orders):
    """Each entry, one power of zeta_e for the last order e, equals the
    product of its factors zeta_(o_i)^(r_i f_i), and prints the same."""
    config = make_config(list(orders), [((1,) * len(orders), (1,))])
    cert = character_split(config)
    fibers = list(product(*(range(o) for o in orders)))
    assert list(cert.exponents) == fibers
    expect = [[prod((Cyclotomic.zeta(o, rk * fk) for o, rk, fk in zip(orders, r, f)),
                    start=Cyclotomic.one()) for f in fibers] for r in fibers]
    assert [list(row) for row in cert.matrix] == expect
    assert cert.to_json()["matrix"] == [[c.to_text() for c in row] for row in expect]


def test_character_split_torsion_free(plane_segment):
    cert = character_split(plane_segment)
    assert cert.determinant.is_one()
    assert len(cert.exponents) == 1


def test_character_split_requires_hypotheses(even_pair):
    with pytest.raises(HypothesisError):
        character_split(even_pair)


@pytest.mark.parametrize("refuse", [
    lambda spec: dual_system(spec.config, spec.beta),
    lambda spec: character_split(spec.config),
    lambda spec: run_command(spec, "dual"),
], ids=["dual_system", "character_split", "run_command"])
def test_hypothesis_contexts_are_json_ready(refuse):
    # the CLI prints an error's context as one JSON line
    spec = parse_spec('{"columns": [{"torsion": [], "free": [1, 0]},'
                      ' {"torsion": [], "free": [1, 2]}], "beta": [0, 0]}')
    with pytest.raises(HypothesisError) as exc:
        refuse(spec)
    hypotheses = cones.check_hypotheses(spec.config).to_json()
    assert json.loads(json.dumps(exc.value.context)) == {"hypotheses": hypotheses}
    assert hypotheses["ok"] is False


def test_rank_duality_identity(battery):
    # the computable shadow of the pairing: closure rank at beta equals
    # interior rank at the shifted parameter (both are ell * volume)
    rng = random.Random(5)
    for cfg in battery:
        for _ in range(10):
            beta = tuple(Fraction(rng.randint(-9, 9)) for _ in range(cfg.d))
            assert rank_formula(cfg, K) == rank_formula(cfg, K_INTERIOR)
            dual_parameter(beta, cfg)  # defined everywhere on the battery


def test_volume_triangulated_once_per_config(monkeypatch, mod4_line):
    """The volume and the box scan share one placing run on the lifted
    points, the origin's first."""
    for cached in (cones._triangulation, cone_triangulation, normalized_volume):
        cached.cache_clear()
    calls = []
    real = cones.placing_triangulation
    monkeypatch.setattr(cones, "placing_triangulation",
                        lambda vectors: calls.append(vectors) or real(vectors))
    assert rank_formula(mod4_line, K) == rank_formula(mod4_line, K_INTERIOR) == 8
    dual_system(mod4_line, (0,))
    cone_triangulation(mod4_line)
    assert calls == [[(1, 0), (1, 1), (1, 2)]]
    for cached in (cones._triangulation, cone_triangulation, normalized_volume):
        assert cached.cache_parameters()["maxsize"] == 16
