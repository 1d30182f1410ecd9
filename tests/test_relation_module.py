"""The exact binomial relation module of the primitive presentation against
the bounded relation search and the two-run construction kept in
relation_oracle, and against the standard-monomial degrees of degree_oracle,
which shares no code with the Groebner core."""

import json
from pathlib import Path

import pytest

from conftest import random_battery
from degree_oracle import height_of, standard_degree_failure
from relation_oracle import bounded_basis, stable_basis, two_run_relation_module
from tgkz.errors import NotStabilizedError
from tgkz.problem import parse_spec
from tgkz.semigroups import K, K_INTERIOR, SemigroupModule
from tgkz.systems import (_primitive_set_for, _relation_module,
                          bbgkz_primitive_presentation, default_binomial_bound)

ROOT = Path(__file__).resolve().parent.parent
PRESENTATION_SPECS = {
    "mod4_line": "sample_specs", "plane_segment": "sample_specs",
    "split_line": "sample_specs", "mod6_line": "bench/specs", "z3_plane": "bench/specs",
    "cube3": "bench/specs", "mod2_plane": "bench/specs", "mod3_line": "bench/specs",
}


# every sample and bench spec but prism8_t2, whose relation module exceeds
# the default pair budget
DEGREE_SPECS = {path.stem: path for folder in ("sample_specs", "bench/specs")
                for path in sorted((ROOT / folder).glob("*.json"))
                if path.stem != "prism8_t2"}


def _spec(name, folder):
    return parse_spec((ROOT / folder / f"{name}.json").read_text(encoding="utf-8"))


def _assert_exact_matches_oracle(module, bound):
    gens = _primitive_set_for(module).elements
    expect = stable_basis(module.config, gens, bound)
    assert expect is not None, "the oracle did not stabilize"
    assert list(_relation_module(module.config, gens)) == expect


@pytest.mark.parametrize("kind", [K, K_INTERIOR])
@pytest.mark.parametrize("name", sorted(PRESENTATION_SPECS))
def test_exact_relations_match_oracle_at_default_bound(name, kind):
    config = _spec(name, PRESENTATION_SPECS[name]).config
    _assert_exact_matches_oracle(SemigroupModule(kind, config),
                                 default_binomial_bound(config))


@pytest.mark.parametrize("kind", [K, K_INTERIOR])
def test_exact_relations_match_oracle_on_z6_plane(kind):
    config = _spec("z6_plane", "sample_specs").config
    _assert_exact_matches_oracle(SemigroupModule(kind, config), 4)


def test_exact_relations_match_oracle_on_explicit_module():
    spec = parse_spec(json.dumps({
        "torsion_orders": [4],
        "columns": [{"torsion": [1], "free": [1]}, {"torsion": [1], "free": [2]}],
        "beta": [0],
        "module": [{"torsion": [0], "free": [0]}, {"torsion": [2], "free": [1]},
                   {"torsion": [3], "free": [3]}],
    }))
    assert len(_primitive_set_for(spec.module).elements) == 2
    _assert_exact_matches_oracle(spec.module, default_binomial_bound(spec.config))


def test_exact_relations_match_oracle_on_random_battery():
    # a BudgetExceededError here would mean an input beyond the default budget
    battery = random_battery(20240, 40)
    assert sum(len(c.nonunit_indices()) < c.n for c in battery) >= 10
    assert {c.group.torsion_orders for c in battery} == {(), (2,), (3,), (4,), (2, 2), (6,)}
    for config in battery:
        for kind in (K, K_INTERIOR):
            _assert_exact_matches_oracle(SemigroupModule(kind, config), 4)


def test_one_run_matches_two_run_oracle(battery):
    specs = [_spec(name, folder).config for name, folder in sorted(PRESENTATION_SPECS.items())]
    configs = battery + random_battery(20240, 40) + specs + \
        [_spec("z6_plane", "sample_specs").config]
    for config in configs:
        for kind in (K, K_INTERIOR):
            gens = _primitive_set_for(SemigroupModule(kind, config)).elements
            assert list(_relation_module(config, gens)) == two_run_relation_module(config, gens)


def _ceiling_passes(module, bound):
    try:
        bbgkz_primitive_presentation(module, (0,) * module.config.d, bound)
    except NotStabilizedError as exc:
        assert exc.context == {"bound": bound}
        return False
    return True


@pytest.mark.parametrize("name", sorted(PRESENTATION_SPECS))
def test_ceiling_outcome_matches_oracle_at_small_bounds(name):
    config = _spec(name, PRESENTATION_SPECS[name]).config
    for kind in (K, K_INTERIOR):
        module = SemigroupModule(kind, config)
        gens = _primitive_set_for(module).elements
        bases = [bounded_basis(config, gens, b) for b in range(11)]
        outcomes = [_ceiling_passes(module, b) for b in range(9)]
        assert outcomes == [bases[b] == bases[b + 2] for b in range(9)], kind
        if name == "mod4_line":
            assert outcomes == [False, False] + [True] * 7


def _degree_bound(config):
    # four steps of the highest column, two in dimension 3 where the slices
    # grow fastest
    height = height_of(config)
    steps = 2 if config.d >= 3 else 4
    return steps * max(height(a) for a in config.nonzero_free_columns())


@pytest.mark.parametrize("name", sorted(DEGREE_SPECS))
def test_standard_monomials_have_the_module_degrees(name):
    config = parse_spec(DEGREE_SPECS[name].read_text(encoding="utf-8")).config
    bound = _degree_bound(config)
    for kind in (K, K_INTERIOR):
        gens = _primitive_set_for(SemigroupModule(kind, config)).elements
        basis = _relation_module(config, gens)
        assert standard_degree_failure(config, kind, gens, basis, bound) is None, kind


@pytest.mark.parametrize("drop", range(3))
@pytest.mark.parametrize("kind", [K, K_INTERIOR])
@pytest.mark.parametrize("name", ["mod4_line", "z6_plane"])
def test_degree_oracle_fails_without_a_lowest_relation(name, kind, drop):
    config = _spec(name, "sample_specs").config
    gens = _primitive_set_for(SemigroupModule(kind, config)).elements
    basis = _relation_module(config, gens)
    height = height_of(config)

    def degree_height(elem):
        j, u = next(iter(elem))
        return height(gens[j].free) + sum(e * height(a.free) for e, a in zip(u, config.columns))

    lowest = sorted(basis, key=degree_height)[drop]
    mutant = [elem for elem in basis if elem is not lowest]
    bound = _degree_bound(config)
    assert degree_height(lowest) <= bound
    assert standard_degree_failure(config, kind, gens, mutant, bound) is not None
