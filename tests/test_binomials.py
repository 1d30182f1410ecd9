import random
from pathlib import Path

import pytest

from conftest import make_config, random_battery
from tgkz import binomials, cones, poly
from tgkz.binomials import (
    PartialCharacter,
    classify_graded_binomial_prime,
    extend_character,
    face_twisted_ideal,
    free_kernel_rows,
    full_kernel_rows,
    lattice_ideal,
    markov_basis,
    minimal_primes,
    power_ideal,
    toric_ideal_free,
    toric_ideal_full,
    twist_automorphism,
    twisted_ideal,
)
from tgkz.cyclotomic import Cyclotomic
from tgkz.lattice import smith_normal_form
from tgkz.errors import (LatticeMismatchError, NotBinomialError, NotPointedError,
                         NotSaturatedError, PrimesDoNotIntersectError, SmithCheckError)
from tgkz.poly import (
    IdealBasis,
    Polynomial,
    groebner_ideal,
    ideal_equal,
    intersect_many,
    parse_polynomial,
    polynomial_to_text,
    saturate,
)
from tgkz.problem import parse_spec
from tgkz.report import ideal_texts, run_command

BENCH_SPECS = Path(__file__).resolve().parent.parent / "bench" / "specs"
SAMPLES = BENCH_SPECS.parent.parent / "sample_specs"
# the lattice specs of the benchmark's `ideals` workload
IDEALS_SPECS = ("mod4_line3", "z6_plane", "z2z2_line", "mod8_line", "mod6_line")


def bench_config(name):
    return parse_spec((BENCH_SPECS / f"{name}.json").read_text(encoding="utf-8")).config


def buchberger_calls(monkeypatch, compute):
    """How many times `compute` runs poly.buchberger, the one Groebner core
    behind groebner_ideal, saturate and intersect."""
    calls = []
    real = poly.buchberger
    monkeypatch.setattr(poly, "buchberger", lambda *args: calls.append(args) or real(*args))
    compute()
    monkeypatch.setattr(poly, "buchberger", real)
    return len(calls)


def texts(ideal):
    return [polynomial_to_text(p) for p in ideal.generators]


def test_toric_ideal_free_line(mod4_line):
    assert texts(toric_ideal_free(mod4_line)) == ["d1^2 - d2"]


def test_toric_ideal_full_mod4(mod4_line):
    assert texts(toric_ideal_full(mod4_line)) == ["d1^8 - d2^4"]


def test_power_ideal_mod4(mod4_line):
    assert texts(power_ideal(mod4_line)) == ["d1^8 - d2^4"]


def test_toric_ideals_plane(plane_segment):
    free = toric_ideal_free(plane_segment)
    expect = groebner_ideal(
        [parse_polynomial("d1*d3 - d2^2", 3)], nvars=3)
    assert ideal_equal(free, expect)


def test_markov_basis_simple(mod4_line):
    assert markov_basis(mod4_line) == [(2, -1)]


def eliminating_lattice_ideal(rows, n, values=None):
    """The lattice ideal by the elimination path, kept as the oracle of
    lattice_ideal: one grevlex run on the binomials x^(m+) - value x^(m-),
    then saturation by every variable through an adjoined one (saturate)."""
    values = [1] * len(rows) if values is None else values
    gens = [Polynomial.monomial(n, tuple(max(x, 0) for x in m))
            - Polynomial.monomial(n, tuple(max(-x, 0) for x in m), value)
            for m, value in zip(rows, values)]
    return saturate(groebner_ideal(gens, n), range(n)) if gens else IdealBasis(n, ())


def oracle_twisted_ideal(config, rho):
    """The twisted ideal built from scratch: one Buchberger run on the
    twisted Markov binomials, then a saturation by elimination."""
    moves = markov_basis(config)
    return eliminating_lattice_ideal(moves, config.n, [rho.value_of(m) for m in moves])


def test_twisted_ideal_values(mod4_line):
    rows = free_kernel_rows(mod4_line)
    assert rows == [(2, -1)]
    i = Cyclotomic.zeta(4)
    rho = PartialCharacter.on_rows(rows, (i,), 2)
    tw = twisted_ideal(mod4_line, rho)
    assert texts(tw) == ["d1^2 - zeta(4)*d2"]
    assert ideal_equal(tw, oracle_twisted_ideal(mod4_line, rho))
    minus = PartialCharacter.on_rows(rows, (Cyclotomic.rational(-1),), 2)
    assert texts(twisted_ideal(mod4_line, minus)) == ["d1^2 + d2"]
    assert ideal_equal(twisted_ideal(mod4_line, minus), oracle_twisted_ideal(mod4_line, minus))


def test_twisted_ideal_matches_buchberger_and_saturate_oracle(battery):
    configs = battery + random_battery(20240, 60) + [bench_config(name) for name in IDEALS_SPECS]
    checked = 0
    for config in configs:
        for rho, prime in minimal_primes(config):
            expect = oracle_twisted_ideal(config, rho)
            for got in (prime, twisted_ideal(config, rho)):
                assert ideal_equal(got, expect)
                assert ideal_texts(got) == ideal_texts(expect)
            checked += 1
    assert checked == 164  # characters over 68 configs


def has_unit_column(config):
    return any(not any(c.free) for c in config.columns)


def test_lattice_ideal_matches_elimination_on_random_battery():
    # plus the configs with a unit column of two larger batteries, and
    # every lattice also twisted by roots of unity on its rows
    configs = random_battery(20250, 80)
    units = [config for seed in (20240, 77) for config in random_battery(seed, 200)
             if has_unit_column(config)]
    assert sum(map(has_unit_column, configs)) >= 20 and len(units) >= 150
    for config in configs + units:
        for rows in (free_kernel_rows(config), full_kernel_rows(config)):
            twist = [Cyclotomic.zeta(config.ell + 2, k + 1) for k in range(len(rows))]
            for values in (None, twist):
                got = lattice_ideal(rows, config, values)
                expect = eliminating_lattice_ideal(rows, config.n, values)
                assert got == expect
                assert ideal_texts(got) == ideal_texts(expect)


def test_lattice_ideal_matches_elimination_on_bench_and_sample_specs():
    # prism8_t2's full toric ideal takes about a second by elimination
    paths = sorted(p for p in [*BENCH_SPECS.glob("*.json"), *SAMPLES.glob("*.json")]
                   if p.stem != "prism8_t2")
    assert len(paths) == 16
    for path in paths:
        config = parse_spec(path.read_text(encoding="utf-8")).config
        for rows in (free_kernel_rows(config), full_kernel_rows(config)):
            assert lattice_ideal(rows, config) == eliminating_lattice_ideal(rows, config.n)


def test_twisted_lattice_ideals_match_elimination(battery):
    configs = battery + random_battery(20260, 30) + [bench_config(n) for n in IDEALS_SPECS]
    twists = faces = 0
    for config in configs:
        n = config.n
        moves = markov_basis(config)
        for rho, _ in minimal_primes(config):
            values = [rho.value_of(m) for m in moves]
            assert lattice_ideal(moves, config, values) == oracle_twisted_ideal(config, rho)
            twists += 1
        # a character on each face kernel with root-of-unity values
        for face in cones.face_lattice(config):
            on_face = sorted(face.column_indices)
            rows = binomials._face_kernel_rows(config, on_face) if on_face else []
            values = [Cyclotomic.zeta(config.ell + 2, k + 1) for k in range(len(rows))]
            rho = PartialCharacter.on_rows(rows, values, n)
            off_face = [Polynomial.variable(j, n) for j in range(n) if j not in on_face]
            twisted = eliminating_lattice_ideal(rows, n, [rho.value_of(m) for m in rows])
            gens = off_face + list(twisted.generators)
            expect = groebner_ideal(gens, n) if gens else IdealBasis(n, ())
            assert face_twisted_ideal(config, face, rho) == expect
            faces += 1
    assert twists > len(configs) and faces > 2 * len(configs)


def test_unit_column_joins_by_its_unit_binomial(monkeypatch):
    # Z/4 + Z with columns (1, 1), (1, 2) and the unit (1, 0): the unit's
    # weight is 0, so no grading is positive on it and Bayer's lemma does
    # not apply; it has order 4, so d3^4 - 1 joins the binomials, d3 is a
    # unit modulo them, and no Groebner run eliminates
    config = make_config([4], [((1,), (1,)), ((1,), (2,)), ((1,), (0,))])
    assert binomials._grading_weights(config) == (1, 2, 0)
    lattices = (free_kernel_rows(config), full_kernel_rows(config))
    runs = []
    real = poly.buchberger
    monkeypatch.setattr(poly, "buchberger", lambda gens, order=poly.GREVLEX: runs.append(
        (list(gens), order)) or real(gens, order))
    ideals = [lattice_ideal(rows, config) for rows in lattices]
    monkeypatch.setattr(poly, "buchberger", real)
    assert not any(isinstance(order, poly.BlockElim) for _, order in runs)
    # per lattice: Bayer saturations of d1 and d2, the first given the unit
    # binomial, then one grevlex run
    assert [getattr(order, "var", None) for _, order in runs] == [0, 1, None] * 2
    assert all(parse_polynomial("d3^4 - 1", 3) in gens for gens, _ in runs[::3])
    for rows, got in zip(lattices, ideals):
        assert got == eliminating_lattice_ideal(rows, config.n)
    assert texts(got) == ["d1^2 - d2*d3", "d3^4 - 1"]  # (2, -1, -1) and (0, 0, 4)


# Z/3 + Z with the units (1, 0) twice: the rows (0, 4, -1) and (0, 1, -1)
# span the full kernel, which holds (0, 3, 0) and (0, 0, 3), but they are
# not in Hermite form; with no unit binomial the ideal stays d3^4 - d3
UNIT_PAIR = make_config([3], [((0,), (1,)), ((1,), (0,)), ((1,), (0,))])
UNIT_PAIR_ROWS = [(0, 4, -1), (0, 1, -1)]


@pytest.mark.parametrize("values,expect", [
    (None, ["d2 - d3", "d3^3 - 1"]),
    # rho(0, 3, 0) = zeta(3) / zeta(6) = zeta(6) = 1 + zeta(3) = d2^3, and d2 = zeta(6) * d3
    ([Cyclotomic.zeta(3), Cyclotomic.zeta(6)], ["d2 + (-1 - zeta(3))*d3", "d3^3 + 1 + zeta(3)"]),
])
def test_lattice_ideal_joins_units_on_rows_off_hermite_form(values, expect):
    got = lattice_ideal(UNIT_PAIR_ROWS, UNIT_PAIR, values)
    assert got == eliminating_lattice_ideal(UNIT_PAIR_ROWS, UNIT_PAIR.n, values)
    assert texts(got) == expect


def test_lattice_ideal_refuses_lattices_it_cannot_saturate():
    # the span of (0, 1, -1) misses (0, 3, 0), and 3 is the order of d2's unit column
    with pytest.raises(LatticeMismatchError):
        lattice_ideal([(0, 1, -1)], UNIT_PAIR)
    # columns 1 and -1 span no pointed cone, so no grading is positive
    with pytest.raises(NotPointedError):
        toric_ideal_free(make_config([], [((), (1,)), ((), (-1,))]))


def test_twisted_ideal_runs_no_groebner_basis(monkeypatch, battery):
    mod4_line, plane_segment = battery[1], battery[2]
    for config, value in ((mod4_line, Cyclotomic.zeta(4)), (plane_segment, Cyclotomic.zeta(6))):
        rows = free_kernel_rows(config)
        rho = PartialCharacter.on_rows(rows, [value] * len(rows), config.n)
        moves = markov_basis(config)  # warms the memoized free toric ideal
        assert buchberger_calls(monkeypatch, lambda: twisted_ideal(config, rho, moves)) == 0
        assert buchberger_calls(monkeypatch, lambda: twisted_ideal(config, rho)) == 0


def test_cold_minimal_primes_groebner_runs(monkeypatch):
    # mod8_line has 8 characters and two variables, both of positive weight.
    # Cold, its primes take 6 Groebner runs: for each of the free and the
    # full toric ideal, one Bayer saturation per variable and one grevlex
    # run.  Buchberger then saturation by elimination took 4; certifying the
    # primes by intersecting them took 7 more (11), and building every prime
    # by Buchberger and saturation 16 more (27).
    config = bench_config("mod8_line")
    for cached in (binomials.toric_ideal_free, binomials.toric_ideal_full,
                   binomials._minimal_primes):
        cached.cache_clear()
    assert buchberger_calls(monkeypatch, lambda: minimal_primes(config)) == 6
    assert len(minimal_primes(config)) == 8


def zp_config(p):
    """Torsion Z/p with columns (1, (1,0)), (5, (1,1)), (0, (1,2))."""
    return make_config([p], [((1,), (1, 0)), ((5,), (1, 1)), ((0,), (1, 2))])


def _skewed(rho):
    """-rho on every basis row: a character of the free kernel that, unless
    it is another of the primes' characters, is not trivial on the full kernel."""
    return PartialCharacter.on_rows(rho.basis, [-v for v in rho.values], rho.nvars)


# faults in the primes that reach the certificate: each maps (config, rho,
# moves, the true prime, the index of rho) to the ideal handed on instead
PRIME_FAULTS = {
    # the first prime plus the variable d1: still contains the full-group ideal
    "widened": lambda config, rho, moves, prime, k: prime if k else groebner_ideal(
        list(prime.generators) + [Polynomial.variable(0, config.n)], config.n),
    "repeated": lambda config, rho, moves, prime, k: toric_ideal_free(config),
    "off_character": lambda config, rho, moves, prime, k: prime if k else twisted_ideal(
        config, _skewed(rho), moves),
}


@pytest.mark.parametrize("fault", [None, *PRIME_FAULTS])
def test_prime_certificate_agrees_with_intersection_oracle(monkeypatch, battery, fault):
    """The containment certificate accepts the primes exactly when they meet
    in the full-group ideal, on the true primes and with each fault."""
    configs = [config for config in battery + random_battery(20240, 30) + [
        bench_config(name) for name in IDEALS_SPECS] + [zp_config(13)]
        if free_kernel_rows(config)]  # an empty free kernel has no twists to check
    handed = []

    def twisted(config, rho, moves):
        prime = twisted_ideal(config, rho, moves)
        if fault is not None:
            prime = PRIME_FAULTS[fault](config, rho, moves, prime, len(handed))
        handed.append(prime)
        return prime

    monkeypatch.setattr(binomials, "twisted_ideal", twisted)
    verdicts = []
    for config in configs:
        binomials._minimal_primes.cache_clear()
        handed.clear()
        try:
            minimal_primes(config)
            accepted = True
        except PrimesDoNotIntersectError:
            accepted = False
        meet = intersect_many(handed)
        assert accepted == ideal_equal(meet, toric_ideal_full(config)), (config, fault)
        verdicts.append(accepted)
    binomials._minimal_primes.cache_clear()
    # a fault leaves the one prime of a torsion-free config true or rejects it
    assert all(verdicts) if fault is None else not all(verdicts)


def test_twisted_ideal_lattice_mismatch(mod4_line):
    rho = PartialCharacter.on_rows([(1, 0)], (Cyclotomic.rational(-1),), 2)
    with pytest.raises(LatticeMismatchError):
        twisted_ideal(mod4_line, rho)


def test_character_value_membership():
    i = Cyclotomic.zeta(4)
    rho = PartialCharacter.on_rows([(2, -1)], (i,), 2)
    assert rho.value_of((4, -2)) == i * i
    assert rho.contains((4, -2))
    assert not rho.contains((1, 0))
    with pytest.raises(LatticeMismatchError):
        rho.value_of((1, 0))


def test_extend_character_saturation_gate():
    # lattice 2Z inside Z is not saturated: refuse
    rho = PartialCharacter.on_rows([(2,)], (Cyclotomic.rational(-1),), 1)
    with pytest.raises(NotSaturatedError):
        extend_character(rho)


def test_invariant_checks_raise_typed_errors(monkeypatch, mod4_line):
    trinomial = parse_polynomial("d1^2 - d2 + d1", 2)
    monkeypatch.setattr(binomials, "toric_ideal_free",
                        lambda config: IdealBasis(2, (trinomial,)))
    with pytest.raises(NotBinomialError) as exc:
        markov_basis(mod4_line)
    assert exc.value.context == {"terms": 3}
    # two terms, but not x^a - x^b: a twist of it would not be the twisted ideal
    for text, coefficient in (("d1^2 - 2*d2", "-2"), ("d1^2 + d2", "1")):
        basis = IdealBasis(2, (parse_polynomial(text, 2),))
        monkeypatch.setattr(binomials, "toric_ideal_free", lambda config: basis)
        with pytest.raises(NotBinomialError) as exc:
            markov_basis(mod4_line)
        assert exc.value.context == {"coefficient": coefficient}
    monkeypatch.undo()
    # a full kernel of lower rank than the free kernel has infinite index
    monkeypatch.setattr(binomials, "full_kernel_rows", lambda config: [])
    binomials._minimal_primes.cache_clear()
    with pytest.raises(LatticeMismatchError) as exc:
        minimal_primes(mod4_line)
    assert exc.value.context == {"free_rank": 1, "full_rows": 0}
    monkeypatch.undo()
    # a transform that does not invert the basis extends to the wrong character
    real = binomials.hnf_with_transform
    monkeypatch.setattr(binomials, "hnf_with_transform",
                        lambda rows: (real(rows)[0], ((1, 0), (0, 1))))
    with pytest.raises(SmithCheckError) as exc:
        extend_character(PartialCharacter.on_rows([(2, -1)], (Cyclotomic.zeta(4),), 2))
    assert exc.value.context == {"shape": (1, 2), "row": (2, -1)}


def test_extend_character_restricts_to_rho_in_its_field(battery):
    """On the free kernels of small configs and on random lattices, with
    random root-of-unity and rational values in Q(zeta_e): the extension
    is refused exactly when the Smith factors of the lattice are not all
    one, and otherwise agrees with rho on its lattice and takes every value
    in Q(zeta_e)."""
    rng = random.Random(77)
    lattices = [free_kernel_rows(config) for config in battery + random_battery(5, 20)]
    for _ in range(60):
        n = rng.randint(1, 4)
        lattices.append([tuple(rng.randint(-3, 3) for _ in range(n))
                         for _ in range(rng.randint(1, n))])
    saturated = 0
    for rows in lattices:
        n = len(rows[0]) if rows else 1
        e = rng.choice([1, 2, 3, 4, 6, 12])
        values = [rng.choice([Cyclotomic.zeta(e, rng.randrange(e)),
                              Cyclotomic.rational(rng.choice([-2, 3]), e)]) for _ in rows]
        rho = PartialCharacter.on_rows(rows, values, n)
        if rho.basis and smith_normal_form(rho.basis).invariant_factors != \
                (1,) * len(rho.basis):
            with pytest.raises(NotSaturatedError):
                extend_character(rho)
            continue
        saturated += 1
        full = extend_character(rho)
        assert full.basis == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert [full.value_of(row) for row in rho.basis] == list(rho.values)
        assert all(e % v.demoted().order == 0 for v in full.values), (e, full.values)
    assert saturated >= 30


def test_extend_character_full_lattice():
    i = Cyclotomic.zeta(4)
    rho = PartialCharacter.on_rows([(2, -1)], (i,), 2)
    full = extend_character(rho)
    assert full.nvars == 2
    assert len(full.basis) == 2
    # extension restricts back to rho on its lattice
    assert full.value_of((2, -1)) == i
    # values stay in the same cyclotomic field
    assert all(v.order in (1, 2, 4) for v in full.values)


def test_minimal_primes_mod4(mod4_line):
    primes = minimal_primes(mod4_line)
    assert len(primes) == 4
    gen_texts = sorted(texts(ideal)[0] for _, ideal in primes)
    assert gen_texts == ["d1^2 + d2", "d1^2 + zeta(4)*d2",
                         "d1^2 - d2", "d1^2 - zeta(4)*d2"]
    inter = intersect_many([ideal for _, ideal in primes])
    assert ideal_equal(inter, toric_ideal_full(mod4_line))


def test_minimal_primes_torsion_free(plane_segment):
    primes = minimal_primes(plane_segment)
    assert len(primes) == 1
    assert ideal_equal(primes[0][1], toric_ideal_free(plane_segment))


def test_face_twisted_ideal_vertex(mod4_line):
    vertex = cones.Face((), (), 0)
    triv = PartialCharacter.trivial_on([], 2)
    ideal = face_twisted_ideal(mod4_line, vertex, triv)
    assert sorted(texts(ideal)) == ["d1", "d2"]


def test_twist_automorphism_carries_twisted_to_untwisted(mod4_line):
    rows = free_kernel_rows(mod4_line)
    i = Cyclotomic.zeta(4)
    rho = PartialCharacter.on_rows(rows, (i,), 2)
    full = extend_character(rho)
    tw = twisted_ideal(mod4_line, rho)
    moved = groebner_ideal([twist_automorphism(p, full)
                            for p in tw.generators], nvars=2)
    assert ideal_equal(moved, groebner_ideal(
        [parse_polynomial("d1^2 - d2", 2)], nvars=2))


def test_classify_round_trip(mod4_line):
    for rho, ideal in minimal_primes(mod4_line):
        out = classify_graded_binomial_prime(ideal, mod4_line)
        assert out is not None
        face, rho2 = out
        assert face.column_indices == (0, 1)
        assert rho2.value_of((2, -1)) == rho.value_of((2, -1))


def test_classify_rejects_ungraded(mod4_line):
    bad = groebner_ideal([parse_polynomial("d1 - d2", 2)], nvars=2)
    assert classify_graded_binomial_prime(bad, mod4_line) is None


def test_classify_rejects_unit_ideal(mod4_line):
    unit = groebner_ideal([parse_polynomial("1", 2)], nvars=2)
    assert classify_graded_binomial_prime(unit, mod4_line) is None


def test_toric_ideals_memoized_per_config(battery):
    for config in battery:
        free, full = toric_ideal_free(config), toric_ideal_full(config)
        assert toric_ideal_free(config) is free
        assert toric_ideal_full(config) is full
        # an equal config built anew hits the same entry
        assert toric_ideal_full(make_config(config.group.torsion_orders,
                                            [(c.torsion, c.free) for c in config.columns])) is full
        fresh_free = lattice_ideal(free_kernel_rows(config), config)
        fresh_full = lattice_ideal(full_kernel_rows(config), config)
        assert free.generators == fresh_free.generators
        assert full.generators == fresh_full.generators
        assert ideal_equal(free, fresh_free) and ideal_equal(full, fresh_full)
    assert markov_basis(battery[1]) is not markov_basis(battery[1])


def test_free_kernel_rows_computed_once_per_config(monkeypatch, mod4_line):
    calls = []
    real = binomials.kernel_basis
    monkeypatch.setattr(binomials, "kernel_basis", lambda m: calls.append(m) or real(m))
    binomials._free_kernel.cache_clear()
    rows = free_kernel_rows(mod4_line)
    assert free_kernel_rows(mod4_line) == rows and free_kernel_rows(mod4_line) is not rows
    minimal_primes(mod4_line)  # four characters, each checked against the rows
    assert len(calls) == 1


def test_characters_reuse_the_hermite_free_kernel(monkeypatch, mod4_line):
    expect = [(rho.basis, rho.values, ideal.generators)
              for rho, ideal in minimal_primes(mod4_line)]
    calls = []
    real = binomials.hnf_with_transform
    monkeypatch.setattr(binomials, "hnf_with_transform",
                        lambda rows: calls.append(rows) or real(rows))
    binomials._minimal_primes.cache_clear()  # compute anew under the spy
    primes = minimal_primes(mod4_line)
    assert [(rho.basis, rho.values, ideal.generators) for rho, ideal in primes] == expect
    assert calls == []  # four characters, none re-runs Hermite reduction
    assert PartialCharacter.on_rows([(-2, 1)], (Cyclotomic.rational(-1),), 2).basis == \
        ((2, -1),)  # a basis not in Hermite form is still reduced
    assert calls == [[(-2, 1)]]
    # two rows: one transform rebases both values
    rho = PartialCharacter.on_rows([(1, 1), (1, -1)], (Cyclotomic.zeta(4), -1), 2)
    assert rho.basis == ((1, 1), (0, 2))
    assert rho.values == (Cyclotomic.zeta(4), -Cyclotomic.zeta(4))
    assert rho.value_of((1, -1)) == -1
    assert calls == [[(-2, 1)], [(1, 1), (1, -1)]]


@pytest.mark.parametrize("workers", [None, 2])
def test_wrong_prime_raises_typed_error(monkeypatch, mod4_line, workers):
    monkeypatch.setattr(binomials, "twisted_ideal",
                        lambda config, rho, moves: toric_ideal_free(config))
    binomials._minimal_primes.cache_clear()
    with pytest.raises(PrimesDoNotIntersectError) as exc:
        minimal_primes(mod4_line)
    assert exc.value.code == "PRIMES_DO_NOT_INTERSECT"
    assert exc.value.context == {"torsion_orders": (4,), "primes": 4}
    # run_command still takes a worker count; the error reaches it unchanged
    spec = parse_spec((SAMPLES / "mod4_line.json").read_text(encoding="utf-8"))
    with pytest.raises(PrimesDoNotIntersectError) as exc:
        run_command(spec, "primes", workers=workers)
    assert exc.value.context == {"torsion_orders": (4,), "primes": 4}


def test_nontrivial_character_raises_typed_error(monkeypatch, mod4_line):
    on_rows = PartialCharacter.on_rows

    def skewed(rows, values, nvars):
        return on_rows(rows, [v * Cyclotomic.zeta(8) for v in values], nvars)

    monkeypatch.setattr(PartialCharacter, "on_rows", staticmethod(skewed))
    binomials._minimal_primes.cache_clear()
    with pytest.raises(PrimesDoNotIntersectError) as exc:
        minimal_primes(mod4_line)
    assert "not trivial on the full kernel" in str(exc.value)
    assert exc.value.context == {"torsion_orders": (4,), "primes": 4}
