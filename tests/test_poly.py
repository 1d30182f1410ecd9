import ast
import heapq
import importlib
import itertools
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tgkz
from conftest import make_config, random_battery
import relation_oracle
from reduce_oracle import linear_reduce
from relation_oracle import pair_elements, span_reduce, two_run_relation_module
from tgkz import binomials, poly, systems
from tgkz.binomials import (
    PartialCharacter,
    free_kernel_rows,
    full_kernel_rows,
    lattice_ideal,
    minimal_primes,
    power_ideal,
    twisted_ideal,
)
from tgkz.cyclotomic import Cyclotomic
from tgkz.errors import BudgetExceededError, SpecError
from tgkz.poly import (
    GREVLEX,
    BlockElim,
    IdealBasis,
    Polynomial,
    WeightedLast,
    groebner_ideal,
    ideal_equal,
    ideal_member,
    intersect,
    intersect_many,
    parse_polynomial,
    parse_scalar,
    polynomial_to_text,
    saturate,
)
from tgkz.problem import parse_spec
from tgkz.semigroups import K, K_INTERIOR, SemigroupModule
from tgkz.systems import _primitive_set_for, _relation_module, default_binomial_bound


def P(text, nvars):
    return parse_polynomial(text, nvars)


def test_parse_print_round_trip():
    cases = ["d1^2 - d2", "d1^8 - d2^4", "d1 + d2", "0",
             "zeta(4)*d1 - 2", "d1*d2^3 + 1/2"]
    for text in cases:
        assert polynomial_to_text(P(text, 2)) == text


def test_parse_scalar_values():
    assert parse_scalar("3/4").rational_value().numerator == 3
    assert parse_scalar("zeta(4)") == Cyclotomic.zeta(4)
    assert parse_scalar("-2*zeta(4)^3") == \
        Cyclotomic.rational(-2) * Cyclotomic.zeta(4, 3)


def test_powers_of_constants_have_a_size_bound():
    bound = poly.MAX_POWER_BITS
    # 3/2 takes 2 bits (numerator 3, denominator 2), 1 + zeta(4) takes 2
    assert parse_scalar(f"(3/2)^{bound // 2}") == Fraction(3, 2) ** (bound // 2)
    assert parse_scalar(f"(2/3)^-{bound // 2}") == Fraction(3, 2) ** (bound // 2)
    for text in (f"(3/2)^{bound // 2 + 1}", f"(2/3)^-{bound // 2 + 1}",
                 f"(1 + zeta(4))^{bound}", "2*d1^3 + (3/2)^1000000000000"):
        with pytest.raises(SpecError, match="power too large"):
            parse_polynomial(text, 1)
    # roots of unity, rational or not, keep their size under any power
    assert parse_scalar("(-1)^1000000000001") == -1
    assert parse_scalar("(-zeta(6))^-1000000000000") == Cyclotomic.zeta(3)  # -zeta6 = zeta3^2


def test_powers_square_and_multiply():
    # about 80 products for an exponent of 10^12; a loop of k products
    # would never finish
    assert parse_scalar("(zeta(4))^1000000000000") == 1
    assert parse_scalar("(2*zeta(6))^7") == Cyclotomic.rational(128) * Cyclotomic.zeta(6)
    assert P("(d1*d2)^1000000000000", 2) == \
        Polynomial.monomial(2, (10 ** 12, 10 ** 12))
    f = P("zeta(3)*d1 - d2 + 1/2", 2)
    power = Polynomial.constant(2, 1)
    for k in range(8):
        assert f ** k == power
        power = power * f


def test_groebner_simple_binomial():
    # x - t, y - t^2, eliminate nothing: GB contains x^2 - y relation after
    # elimination ordering; here check membership behaviour on a known ideal
    gens = [P("d1^2 - d2", 2), P("d1^3 - d1*d2", 2)]
    gb = groebner_ideal(gens, nvars=2)
    assert list(gb.generators) == poly.buchberger(gens)
    assert ideal_member(P("d1^4 - d2^2", 2), gb)
    assert not ideal_member(P("d1 - d2", 2), gb)


def test_groebner_reduced_deterministic_under_permutation():
    rng = random.Random(7)
    gens = [P("d1^2 - d2", 2), P("d1*d2 - d2", 2), P("d2^3 - d1", 2)]
    base = groebner_ideal(gens, nvars=2).generators
    for perm in itertools.permutations(gens):
        assert groebner_ideal(list(perm), nvars=2).generators == base
    # and with random duplicate/scaled inputs
    three = Polynomial.constant(2, Cyclotomic.rational(3))
    noisy = [p * three for p in gens] + [gens[0]]
    assert groebner_ideal(noisy, nvars=2).generators == base


def test_ideal_equal_and_canonical():
    a = groebner_ideal([P("d1^2 - d2", 2)], nvars=2)
    b = groebner_ideal([P("d2 - d1^2", 2), P("d1^2 - d2", 2)], nvars=2)
    assert ideal_equal(a, b)
    assert not ideal_equal(a, groebner_ideal([P("d1 - d2", 2)], nvars=2))


def test_saturation_removes_variable_factor():
    # (d1*d2 - d1 ) : d1^inf = (d2 - 1)
    ideal = groebner_ideal([P("d1*d2 - d1", 2)], nvars=2)
    sat = saturate(ideal, [0])
    assert ideal_equal(sat, groebner_ideal([P("d2 - 1", 2)], nvars=2))


def test_intersection_of_twisted_lines():
    # (d1 - d2) ∩ (d1 + d2) = (d1^2 - d2^2)
    a = groebner_ideal([P("d1 - d2", 2)], nvars=2)
    b = groebner_ideal([P("d1 + d2", 2)], nvars=2)
    both = intersect_many([a, b])
    assert ideal_equal(both,
                       groebner_ideal([P("d1^2 - d2^2", 2)], nvars=2))


def test_intersection_four_primes_over_zeta4():
    i = Cyclotomic.zeta(4)
    prs = []
    for k in range(4):
        c = Cyclotomic.zeta(4, k)
        gen = P("d1^2", 2) - P("d2", 2) * Polynomial.constant(2, c)
        prs.append(groebner_ideal([gen], nvars=2))
    inter = intersect_many(prs)
    assert ideal_equal(inter, groebner_ideal([P("d1^8 - d2^4", 2)], nvars=2))


def _saturate_unit_columns(config, rows):
    """Saturate the binomials of the rows by elimination (poly.saturate) at
    the unit columns of their support, if there are any."""
    n = config.n
    units = [j for j, c in enumerate(config.columns)
             if not any(c.free) and any(m[j] for m in rows)]
    if units:
        poly.saturate(groebner_ideal([binomials._binomial(m, n) for m in rows], n), units)


def test_elimination_returns_t_free_part_of_block_basis(monkeypatch):
    """saturate and intersect return the t-free part of the reduced
    BlockElim basis as is; the oracle is the former second step, a grevlex
    Groebner run on that part."""
    seen = []
    real = poly._eliminate_last

    def record(gens, n):
        got = real(gens, n)
        seen.append((gens, n, got))
        return got

    monkeypatch.setattr(poly, "_eliminate_last", record)
    callers = []
    for name in ("saturate", "intersect"):
        monkeypatch.setattr(poly, name, lambda *args, fn=getattr(poly, name), name=name:
                            callers.append(name) or fn(*args))
    root = Path(__file__).resolve().parent.parent / "bench" / "specs"
    configs = random_battery(31, 12) + [
        parse_spec((root / f"{name}.json").read_text(encoding="utf-8")).config
        for name in ("mod4_line3", "z6_plane", "z2z2_line", "mod8_line", "mod6_line")]
    for config in configs:
        _saturate_unit_columns(config, free_kernel_rows(config))
        intersect_many([ideal for _, ideal in minimal_primes(config)])
    assert {"saturate", "intersect"} <= set(callers)
    assert len(seen) == len(callers)
    for gens, n, got in seen:
        back = [g.drop_last_vars(1) for g in poly.eliminate(gens, [n])]
        expect = groebner_ideal(back, n)
        assert got == expect
        assert [polynomial_to_text(g) for g in got.generators] == \
            [polynomial_to_text(g) for g in expect.generators]


def test_budget_raises(monkeypatch):
    gens = [P("d1^2 - d2", 2), P("d1*d2 - d2", 2), P("d2^3 - d1", 2)]
    monkeypatch.setenv("TGKZ_PAIR_BUDGET", "0")
    with pytest.raises(BudgetExceededError):
        groebner_ideal(gens, nvars=2)


def test_random_generator_combinations_are_members():
    gens = [parse_polynomial("d1^2 - d2", 3), parse_polynomial("d2*d3 - 1", 3)]
    ideal = groebner_ideal(gens, nvars=3)
    rng = random.Random(11)
    for _ in range(25):
        combo = Polynomial.constant(3, Cyclotomic.rational(0))
        for g in gens:
            pieces = []
            for _ in range(rng.randint(1, 3)):
                exps = [rng.randint(0, 2) for _ in range(3)]
                mono = "*".join(f"d{i + 1}^{x}" for i, x in enumerate(exps) if x)
                pieces.append(f"{rng.randint(1, 3)}*{mono}" if mono
                              else str(rng.randint(1, 3)))
            sign = rng.choice(" -")
            combo = combo + g * parse_polynomial(sign + " + ".join(pieces), 3)
        assert ideal_member(combo, ideal)


# ---------------------------------------------------------------------------
# The division-based kernel that the monic one replaced, kept as an oracle:
# it divides by leading coefficients in every S-polynomial and reduction
# step and normalizes only at the end.  It returns the processed-pair count.


def _oracle_normal_form(f, gens, order, leads):
    if f.is_zero() or not gens:
        return f
    remainder = {}
    work = dict(f.terms)
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        for idx, lexp in enumerate(leads):
            if poly._divides(lexp, exp):
                break
        else:
            remainder[exp] = remainder[exp] + coeff if exp in remainder else coeff
            continue
        shift = poly._sub(exp, lexp)
        factor = coeff / gens[idx].terms[lexp]
        for gexp, gc in gens[idx].terms.items():
            if gexp == lexp:
                continue
            tgt = poly._add(gexp, shift)
            c = factor * gc
            if tgt in work:
                work[tgt] = work[tgt] - c
                if work[tgt].is_zero():
                    del work[tgt]
            else:
                work[tgt] = -c
    return Polynomial(f.nvars, remainder)


def _oracle_s_polynomial(f, g, order):
    (fe, fc), (ge, gc) = f.leading(order), g.leading(order)
    lcm = poly._lcm_exp(fe, ge)
    mf = Polynomial.monomial(f.nvars, poly._sub(lcm, fe))
    mg = Polynomial.monomial(g.nvars, poly._sub(lcm, ge))
    return (mf * f) * (Cyclotomic.one() / fc) - (mg * g) * (Cyclotomic.one() / gc)


def _oracle_buchberger(gens, order):
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return [], 0
    leads = [g.leading(order)[0] for g in basis]

    def entry(i, j):
        return order.key(poly._lcm_exp(leads[i], leads[j])), (i, j)

    pending = [entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(pending)
    processed = 0
    while pending:
        _, (i, j) = heapq.heappop(pending)
        processed += 1
        if poly._lcm_exp(leads[i], leads[j]) == poly._add(leads[i], leads[j]):
            continue
        rem = _oracle_normal_form(_oracle_s_polynomial(basis[i], basis[j], order),
                                  basis, order, leads)
        if not rem.is_zero():
            basis.append(rem)
            leads.append(rem.leading(order)[0])
            for i2 in range(len(basis) - 1):
                heapq.heappush(pending, entry(i2, len(basis) - 1))
    ranked = sorted(zip(leads, basis), key=lambda lg: order.key(lg[0]))
    kept = [(le, g) for i, (le, g) in enumerate(ranked)
            if not any(poly._divides(hle, le) and (hle != le or j < i)
                       for j, (hle, _) in enumerate(ranked) if j != i)]
    kept_leads = [le for le, _ in kept]
    out = [g for _, g in kept]
    for i in range(len(out)):
        out[i] = _oracle_normal_form(out[i], out[:i] + out[i + 1:], order,
                                     kept_leads[:i] + kept_leads[i + 1:])
    monic = [g * (Cyclotomic.one() / g.terms[le]) for le, g in zip(kept_leads, out)]
    return monic, processed


def _with_budget(budget, run):
    """run() with TGKZ_PAIR_BUDGET set to `budget`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TGKZ_PAIR_BUDGET", str(budget))
        return run()


def _core_pairs(run, oracle_pairs):
    """The pair count N of the criteria core on `run()`: under the pair
    budget N it succeeds, under N - 1 it raises with context pairs == N, and
    N is at most the criteria-free oracle's count.  Each popped pair forms
    one S-pair."""
    formed = []
    real = poly._s_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_s_pair", lambda *args: formed.append(args) or real(*args))
        _with_budget(oracle_pairs, run)
    pairs = len(formed)
    assert pairs <= oracle_pairs
    _with_budget(pairs, run)
    if pairs:
        with pytest.raises(BudgetExceededError) as exc:
            _with_budget(pairs - 1, run)
        assert exc.value.context["pairs"] == pairs
    return pairs


def _recorded_buchberger_inputs(monkeypatch, compute):
    """Every (generators, order) that `compute` hands to buchberger."""
    calls = []
    real = poly.buchberger

    def record(gens, order=GREVLEX):
        calls.append((list(gens), order))
        return real(gens, order)

    monkeypatch.setattr(poly, "buchberger", record)
    compute()
    monkeypatch.setattr(poly, "buchberger", real)
    return calls


def _module_runs(monkeypatch, owner, compute):
    """Every (elements, eliminate) that `compute` hands to
    owner.module_groebner."""
    runs = []
    real = owner.module_groebner

    def record(elems, eliminate=0):
        runs.append((list(elems), eliminate))
        return real(elems, eliminate)

    monkeypatch.setattr(owner, "module_groebner", record)
    compute()
    monkeypatch.setattr(owner, "module_groebner", real)
    return runs


def test_monic_kernel_matches_division_oracle(monkeypatch, battery):
    mod4_line, plane_segment = battery[1], battery[2]
    z6 = make_config([6], [((1,), (1, 0)), ((2,), (1, 1)), ((3,), (1, 2)),
                           ((0,), (1, 3))])

    def twisted(config, value):
        rows = free_kernel_rows(config)
        rho = PartialCharacter.on_rows(rows, [value] * len(rows), config.n)
        return twisted_ideal(config, rho)

    def compute():
        for config in battery + [z6]:
            lattice_ideal(free_kernel_rows(config), config)
            lattice_ideal(full_kernel_rows(config), config)
            power_ideal(config)
        # a twisted ideal is a rescaled free basis with no Groebner run of
        # its own, so Q(zeta_4) and Q(zeta_6) reach the core through the
        # intersections of two twists
        intersect(twisted(mod4_line, Cyclotomic.zeta(4)),
                  twisted(mod4_line, Cyclotomic.zeta(4, 3)))
        intersect(twisted(plane_segment, Cyclotomic.zeta(6)),
                  twisted(plane_segment, Cyclotomic.zeta(6, 5)))
        binomials._minimal_primes.cache_clear()
        minimal_primes(z6)  # three twisted primes and their intersections

    calls = _recorded_buchberger_inputs(monkeypatch, compute)
    orders = {type(order) for _, order in calls}
    fields = {c.order for gens, _ in calls for g in gens for c in g.terms.values()}
    assert orders == {type(GREVLEX), BlockElim, WeightedLast}
    assert {4, 6} <= fields
    for gens, order in calls:
        expect, pairs = _oracle_buchberger(gens, order)
        got = _with_budget(pairs, lambda: poly.buchberger(gens, order))
        assert got == expect
        assert [polynomial_to_text(g) for g in got] == \
            [polynomial_to_text(g) for g in expect]
        assert all(g.terms[g.leading(order)[0]].is_one() for g in got)
        _core_pairs(lambda: poly.buchberger(gens, order), pairs)


def test_s_polynomial_and_normal_form_match_oracle_on_monic_inputs():
    rng = random.Random(5)
    zeta6 = Polynomial.constant(3, Cyclotomic.zeta(6))
    gens = [P("d1^2 - d2", 3) * zeta6 + P("d3", 3), P("d1*d2^2 - 2*d3^2", 3),
            P("d2*d3 - d1", 3) + zeta6]
    basis = poly.buchberger(gens, GREVLEX)
    leads = [g.leading(GREVLEX)[0] for g in basis]
    for f, g in itertools.combinations(basis, 2):
        assert poly.s_polynomial(f, g, GREVLEX) == _oracle_s_polynomial(f, g, GREVLEX)
    for _ in range(20):
        f = Polynomial.zero(3)
        for _ in range(rng.randint(1, 5)):
            exp = [rng.randint(0, 3) for _ in range(3)]
            f = f + Polynomial.monomial(3, exp, Cyclotomic.zeta(6, rng.randint(0, 5)))
        assert poly.normal_form(f, basis, GREVLEX) == \
            _oracle_normal_form(f, basis, GREVLEX, leads)


class _ReadDivisors(list):
    """A divisor list that records the index of every divisor read: both
    divisions read one per reduction step."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, idx):
        self.reads.append(idx)
        return super().__getitem__(idx)


@pytest.mark.parametrize("order, components", [
    (GREVLEX, 0), (WeightedLast((1, 3, 2), 1), 0),
    (poly.TermOverPosition(0), 1), (poly.TermOverPosition(2), 4)])
def test_component_index_division_matches_linear_scan(order, components):
    """poly._reduce, with its divisors listed per component and the order
    keys of one memo, against the linear scan it replaced: at each step the
    same divisor, and the same remainder."""
    rng = random.Random(30 + components)
    keys = poly._Keys(order).__getitem__
    steps = 0

    def term(top):
        u = tuple(rng.randint(0, top) for _ in range(3))
        if not components:
            return u
        p = rng.randrange(components)
        return (p + 1, -p - 1) + u

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))

    for _ in range(100):
        divisors, leads = [], []
        for _ in range(rng.randint(1, 8)):
            g = {term(1): coeff() for _ in range(rng.randint(1, 4))}
            leads.append(max(g, key=order.key))
            divisors.append(poly._monic(g, leads[-1]))
        f = {term(3): coeff() for _ in range(rng.randint(1, 10))}
        old, new = _ReadDivisors(divisors), _ReadDivisors(divisors)
        expect = linear_reduce(f, old, leads, order)
        got = poly._reduce(f, new, poly._index(leads, order.ntags), keys, order.ntags)
        assert got == expect
        assert list(got) == list(expect)
        assert new.reads == old.reads
        steps += len(old.reads)
    assert steps > 300


# ---------------------------------------------------------------------------
# The separate module engine that the tagged-term core replaced, kept as an
# oracle: elements are dicts (component, exponent) -> coefficient, the order
# is that of a TermOverPosition(eliminate), spelled out on (component,
# exponent) pairs, and S-pairs and reductions divide by leading coefficients.
# It returns the processed-pair count with the basis.


def _oracle_mod_key(eliminate, key_pair):
    # an eliminated component outranks the rest, the smaller one first; then
    # grevlex, then the smaller component
    comp, exp = key_pair
    return (-min(comp, eliminate), GREVLEX.key(exp), -comp)


def _oracle_mod_lead(elem, eliminate):
    return max(elem, key=lambda ce: _oracle_mod_key(eliminate, ce))


def _oracle_mod_normal_form(elem, gens, eliminate, leads):
    remainder = {}
    work = dict(elem)
    while work:
        key = _oracle_mod_lead(work, eliminate)
        coeff = work.pop(key)
        comp, exp = key
        for idx, (lcomp, lexp) in enumerate(leads):
            if lcomp == comp and poly._divides(lexp, exp):
                break
        else:
            remainder[key] = coeff
            continue
        shift = poly._sub(exp, lexp)
        factor = coeff / gens[idx][leads[idx]]
        for (gcomp, gexp), gc in gens[idx].items():
            if (gcomp, gexp) == (comp, lexp):
                continue
            tgt = (gcomp, poly._add(gexp, shift))
            work[tgt] = work.get(tgt, 0) - factor * gc
            if not work[tgt]:
                del work[tgt]
    return remainder


def _oracle_module_groebner(elems, eliminate):
    basis = [dict(e) for e in elems if e]
    leads = [_oracle_mod_lead(b, eliminate) for b in basis]

    def entry(i, j):
        (ci, ei), (_, ej) = leads[i], leads[j]
        return _oracle_mod_key(eliminate, (ci, poly._lcm_exp(ei, ej))), (i, j)

    pending = [entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
               if leads[i][0] == leads[j][0]]
    heapq.heapify(pending)
    processed = 0
    while pending:
        _, (i, j) = heapq.heappop(pending)
        processed += 1
        (_, ei), (_, ej) = leads[i], leads[j]
        lcm = poly._lcm_exp(ei, ej)
        spair = {}
        for idx, shift in ((i, poly._sub(lcm, ei)), (j, poly._sub(lcm, ej))):
            sign = 1 if idx == i else -1
            for (c, e), co in basis[idx].items():
                key = (c, poly._add(e, shift))
                spair[key] = spair.get(key, 0) + sign * co / basis[idx][leads[idx]]
        rem = _oracle_mod_normal_form({k: v for k, v in spair.items() if v},
                                      basis, eliminate, leads)
        if rem:
            basis.append(rem)
            leads.append(_oracle_mod_lead(rem, eliminate))
            for i2 in range(len(basis) - 1):
                if leads[i2][0] == leads[-1][0]:
                    heapq.heappush(pending, entry(i2, len(basis) - 1))
    ranked = sorted(zip(leads, basis), key=lambda lg: _oracle_mod_key(eliminate, lg[0]))
    kept = [((gc, ge), g) for i, ((gc, ge), g) in enumerate(ranked)
            if not any(hc == gc and poly._divides(he, ge) and (he != ge or j < i)
                       for j, ((hc, he), _) in enumerate(ranked) if j != i)]
    kept_leads = [lead for lead, _ in kept]
    out = [g for _, g in kept]
    for i in range(len(out)):
        out[i] = _oracle_mod_normal_form(out[i], out[:i] + out[i + 1:], eliminate,
                                         kept_leads[:i] + kept_leads[i + 1:])
    return [{k: v / g[lead] for k, v in g.items()}
            for lead, g in zip(kept_leads, out)], processed


PRESENTATION_SPECS = {
    "mod4_line": "sample_specs", "plane_segment": "sample_specs",
    "split_line": "sample_specs", "mod6_line": "bench/specs", "z3_plane": "bench/specs",
    "cube3": "bench/specs", "mod2_plane": "bench/specs", "mod3_line": "bench/specs",
}


def _presentation_config(name):
    root = Path(__file__).resolve().parent.parent
    path = root / PRESENTATION_SPECS[name] / f"{name}.json"
    return parse_spec(path.read_text(encoding="utf-8")).config


def _cyclotomic_scaled(elems):
    """Each element times a sixth root of unity, so its leading coefficient
    is a non-rational unit."""
    return [{k: c * Cyclotomic.zeta(6, i % 5 + 1) for k, c in e.items()}
            for i, e in enumerate(elems)]


def _assert_module_core_matches_oracle(elems, eliminate=0):
    expect, pairs = _oracle_module_groebner(elems, eliminate)
    got = _with_budget(pairs, lambda: poly.module_groebner(elems, eliminate))
    assert got == expect
    assert {type(c) for g in got for c in g.values()} <= \
        {type(c) for e in elems for c in e.values()}
    return _core_pairs(lambda: poly.module_groebner(elems, eliminate), pairs)


@pytest.mark.parametrize("kind", [K, K_INTERIOR])
@pytest.mark.parametrize("name", sorted(PRESENTATION_SPECS))
def test_module_core_matches_division_oracle_on_span_reduced_inputs(name, kind):
    config = _presentation_config(name)
    gens = _primitive_set_for(SemigroupModule(kind, config)).elements
    elems = span_reduce(pair_elements(config, gens, default_binomial_bound(config)))
    _assert_module_core_matches_oracle(elems)
    _assert_module_core_matches_oracle(_cyclotomic_scaled(elems))


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_module_core_matches_division_oracle_on_raw_pair_elements(bound):
    non_monic = cross_component = 0
    for name in sorted(PRESENTATION_SPECS):
        config = _presentation_config(name)
        gens = _primitive_set_for(SemigroupModule(K, config)).elements
        elems = pair_elements(config, gens, bound)
        non_monic += sum(e[_oracle_mod_lead(e, 0)] != 1 for e in elems)
        cross_component += sum(len({comp for comp, _ in e}) > 1 for e in elems)
        _assert_module_core_matches_oracle(elems)
        _assert_module_core_matches_oracle(_cyclotomic_scaled(elems))
    assert non_monic and cross_component


def test_criteria_core_matches_criteria_free_oracles(monkeypatch, battery):
    """Every Groebner run behind the lattice ideals, their unit columns
    saturated by elimination, the minimal primes and the relation modules
    of the battery and of seeded random configs, under GREVLEX, BlockElim,
    WeightedLast and the eliminating TermOverPosition:
    the criteria core gives the oracle's basis and pops no more pairs."""
    configs = battery + random_battery(20240, 40)

    def compute():
        binomials._minimal_primes.cache_clear()
        systems._relation_module.cache_clear()
        for config in configs:
            for rows in (free_kernel_rows(config), full_kernel_rows(config)):
                lattice_ideal(rows, config)
                _saturate_unit_columns(config, rows)
            minimal_primes(config)
            for kind in (K, K_INTERIOR):
                gens = _primitive_set_for(SemigroupModule(kind, config)).elements
                _relation_module(config, gens)

    calls = []
    module_calls = _module_runs(monkeypatch, systems, lambda: calls.extend(
        _recorded_buchberger_inputs(monkeypatch, compute)))
    # lattice ideals saturate by Bayer's lemma (WeightedLast); the unit
    # columns of the random battery, saturated here by poly.saturate, run
    # BlockElim
    assert {type(order) for _, order in calls} == {type(GREVLEX), BlockElim, WeightedLast}
    # one run per relation module, eliminating at least one class component
    assert len(module_calls) == 2 * len(configs)
    assert {type(eliminate) for _, eliminate in module_calls} == {int}
    assert all(eliminate for _, eliminate in module_calls)
    for gens, order in calls:
        expect, pairs = _oracle_buchberger(gens, order)
        assert _with_budget(pairs, lambda: poly.buchberger(gens, order)) == expect
        _core_pairs(lambda: poly.buchberger(gens, order), pairs)
    for elems, eliminate in module_calls:
        _assert_module_core_matches_oracle(elems, eliminate)


def test_one_run_relation_module_pops_fewer_pairs_than_two_runs(monkeypatch):
    # z6_plane's K relation module: its one eliminating run pops 54 S-pairs,
    # where the position-over-term kernel run and the canonical rerun of the
    # two-run oracle pop 74 + 18 = 92
    root = Path(__file__).resolve().parent.parent
    config = parse_spec((root / "sample_specs" / "z6_plane.json")
                        .read_text(encoding="utf-8")).config
    gens = _primitive_set_for(SemigroupModule(K, config)).elements
    systems._relation_module.cache_clear()
    (elems, eliminate), = _module_runs(monkeypatch, systems,
                                       lambda: _relation_module(config, gens))
    assert ({comp for e in elems for comp, _ in e}, eliminate) == \
        (set(range(len(gens) + 2)), 2)
    assert _assert_module_core_matches_oracle(elems, eliminate) == 54
    two_runs = _module_runs(monkeypatch, relation_oracle,
                            lambda: two_run_relation_module(config, gens))
    assert [_core_pairs(lambda: poly.module_groebner(e, k), 10 ** 4)
            for e, k in two_runs] == [74, 18]


@pytest.mark.parametrize("texts", [
    # B_k: d3 joins last and divides the lcm d1*d2*d3 of the pending pair
    # (0, 1) strictly, as lcm(d1*d3, d3) and lcm(d2*d3, d3) are smaller
    ("d1*d3", "d2*d3", "d3"),
    # M: of the new pairs of d1*d2, (0, 2) has lcm d1*d2*d3, which strictly
    # divides the lcm d1*d2*d3*d4 of (1, 2)
    ("d2*d3", "d2*d3*d4", "d1*d2"),
])
def test_chain_criteria_drop_pairs_with_shared_variables(texts):
    gens = [P(text, 4) for text in texts]
    expect, pairs = _oracle_buchberger(gens, GREVLEX)
    # no two leading terms are coprime, so the product criterion drops none
    assert pairs == 3
    assert _core_pairs(lambda: poly.buchberger(gens, GREVLEX), pairs) == 2
    assert poly.buchberger(gens, GREVLEX) == expect


TGKZ_MODULES = [tgkz] + [importlib.import_module(f"tgkz.{info.name}")
                         for info in pkgutil.iter_modules(tgkz.__path__)]


@pytest.mark.parametrize("module", TGKZ_MODULES)
def test_no_assert_statements(module):
    # python -O strips assert statements, so every check must raise instead
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def _users(tree, names=("_groebner",)):
    """Names of the top-level definitions of a module that mention one of
    `names`, as a name, an attribute or an import."""
    users = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names):
                users.add(getattr(top, "name", type(top).__name__))
    return users


def test_groebner_core_runs_only_through_buchberger_and_module_groebner():
    # a run that bypasses buchberger escapes the coefficient lift, and the
    # buchberger spies of the tests and the benchmark's per-layer counters
    # read 0 for it
    users = {(module.__name__, name) for module in TGKZ_MODULES
             for name in _users(ast.parse(Path(module.__file__).read_text(
                 encoding="utf-8")))}
    assert users == {("tgkz.poly", "buchberger"), ("tgkz.poly", "module_groebner")}
    assert _users(ast.parse("from .poly import _groebner as core")) == {"ImportFrom"}
    assert _users(ast.parse("def f():\n    return poly._groebner")) == {"f"}


ELIMINATION = ("saturate", "eliminate", "_eliminate_last", "BlockElim", "intersect",
               "intersect_many")


def test_nothing_but_poly_names_an_elimination_function():
    # lattice ideals saturate by Bayer's lemma and unit binomials; the
    # eliminating functions stay in poly for the tests' oracles and the
    # benchmark's layer names
    users = {(module.__name__, name) for module in TGKZ_MODULES if module is not poly
             for name in _users(ast.parse(Path(module.__file__).read_text(
                 encoding="utf-8")), ELIMINATION)}
    assert users == set()
    assert _users(ast.parse("from .poly import saturate"), ELIMINATION) == {"ImportFrom"}
    assert _users(ast.parse("def f(i):\n    return poly.intersect(i, i)"), ELIMINATION) == {"f"}
    # a keyword argument and a longer name are not uses
    assert _users(ast.parse("def f(e):\n    return g(e, eliminate=1) or saturate_graded"),
                  ELIMINATION) == set()


def test_saturate_graded_divides_out_the_variable():
    # Bayer's lemma: (d1*d3 - d2*d3) : d3^infinity = (d1 - d2)
    assert poly.saturate_graded([P("d1*d3 - d2*d3", 3)], (1, 1, 1), 2) == [P("d1 - d2", 3)]
    # with d3 of weight 2 these are homogeneous; an S-pair gives d3^3, so
    # the saturation is the unit ideal, as elimination finds
    gens = [P("d1^2*d3 - d3^2", 3), P("d1*d3^2", 3)]
    got = poly.saturate_graded(gens, (1, 1, 2), 2)
    assert got[-1] == Polynomial.constant(3, 1)
    assert groebner_ideal(got) == saturate(groebner_ideal(gens), [2])


def test_weighted_last_is_a_monomial_order_with_the_variable_last():
    rng = random.Random(11)
    order = WeightedLast((2, 0, 1), 2)
    exps = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(60)]
    for a in exps:
        assert order.key(a) >= order.key((0, 0, 0))
        for b in exps:
            for c in exps[:10]:
                if order.key(a) < order.key(b):
                    assert order.key(poly._add(a, c)) < order.key(poly._add(b, c))
    # of two terms of one weighted degree, the one with less of d3 leads
    assert order.key((1, 0, 0)) > order.key((0, 3, 2)) > order.key((0, 0, 2))


def _stored(comp, exp):
    """The module term y_comp * d^exp as the Groebner core stores it."""
    (term,) = poly._core_terms({(comp, exp): 1})
    return term


def test_eliminating_order_ranks_eliminated_components_first():
    key = poly.TermOverPosition(eliminate=1).key
    # every term of component 0 outranks any term free of it; among those,
    # grevlex decides first and the smaller component breaks ties
    assert key(_stored(0, (0, 0))) > key(_stored(1, (5, 7)))
    assert key(_stored(3, (2, 0))) > key(_stored(1, (1, 1))) > key(_stored(2, (1, 1)))
    assert poly.TermOverPosition().key(_stored(1, (2, 0))) > \
        poly.TermOverPosition().key(_stored(0, (1, 1)))
    # the kernel of (e_1, e_2, e_3) -> (x, y, x*y) is the e_0-free part of
    # the basis: it comes first, and it is the reduced TermOverPosition()
    # basis of the kernel
    one = Fraction(1)
    elems = [{(0, (1, 0)): one, (1, (0, 0)): -one},
             {(0, (0, 1)): one, (2, (0, 0)): -one},
             {(0, (1, 1)): one, (3, (0, 0)): -one}]
    basis = poly.module_groebner(elems, eliminate=1)
    kernel = [{(comp - 1, exp): c for (comp, exp), c in g.items()}
              for g in basis if all(comp for comp, _ in g)]
    assert kernel == [{(0, (0, 1)): 1, (2, (0, 0)): -1},
                      {(1, (1, 0)): 1, (2, (0, 0)): -1}]
    assert [{(comp - 1, exp): c for (comp, exp), c in g.items()} for g in basis[:2]] == kernel
    assert poly.module_groebner(kernel) == kernel


def test_term_over_position_orders_terms_as_the_one_hot_key():
    # the one-hot layout the core used before, kept as the oracle: y_p d^u
    # was onehot_m(p) + u, keyed by (tags of the eliminated components,
    # grevlex on u, the other tags)
    def one_hot_key(m, k, comp, exp):
        tags = (0,) * comp + (1,) + (0,) * (m - 1 - comp)
        return tags[:k], GREVLEX.key(exp), tags[k:]

    rng = random.Random(21)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(0, 3)
        terms = {(rng.randrange(m), tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(12)}
        for k in range(m + 1):
            key = poly.TermOverPosition(eliminate=k).key
            for a, b in itertools.product(terms, repeat=2):
                assert (key(_stored(*a)) < key(_stored(*b))) == \
                    (one_hot_key(m, k, *a) < one_hot_key(m, k, *b)), (m, k, a, b)


def test_module_pairs_skip_no_coprime_leads():
    # f = x*1_0 + 1_1 and g = y*1_0: coprime leading monomials in one
    # component, yet y*f - x*g = y*1_1 is a new basis element
    f = {(0, (1, 0)): Fraction(1), (1, (0, 0)): Fraction(1)}
    g = {(0, (0, 1)): Fraction(1)}
    basis = poly.module_groebner([f, g])
    assert basis == [{(1, (0, 1)): 1}, g, f]
    expect, _ = _oracle_module_groebner([f, g], 0)
    assert basis == expect


# ---------------------------------------------------------------------------
# Mixed coefficient fields: each Cyclotomic lifts mixed orders to their lcm
# itself, so every operation must agree with the same inputs lifted to
# Q(zeta_12) first.

MIXED_ORDERS = (1, 2, 3, 4, 6, 12)


def _lift12(p):
    return Polynomial(p.nvars, {e: c.lift(12) for e, c in p.terms.items()})


def _mixed_coefficient(rng):
    e = rng.choice(MIXED_ORDERS)
    scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    return Cyclotomic.zeta(e, rng.randrange(e)) * scale + rng.randint(-1, 1)


def _mixed_polynomial(rng, nvars, size):
    return Polynomial(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                              _mixed_coefficient(rng) for _ in range(size)})


def _mixed_binomial(rng, nvars):
    lead, tail = (tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(2))
    e = rng.choice(MIXED_ORDERS)
    return Polynomial.monomial(nvars, lead) - \
        Polynomial.monomial(nvars, tail, Cyclotomic.zeta(e, rng.randrange(e)))


def test_mixed_field_arithmetic_agrees_with_lifting_first():
    rng = random.Random(12)
    seen = set()
    for _ in range(40):
        f, g = _mixed_polynomial(rng, 2, 3), _mixed_polynomial(rng, 2, 3)
        seen |= {c.order for p in (f, g) for c in p.terms.values()}
        F, G = _lift12(f), _lift12(g)
        for got, want in ((f + g, F + G), (f - g, F - G), (f * g, F * G), (f * 3, F * 3)):
            assert _lift12(got).terms == want.terms
            assert got == want
            assert polynomial_to_text(got) == polynomial_to_text(want)
        assert f == F and (f == g) == (F == G) and f != f + 1
        assert polynomial_to_text(f) == polynomial_to_text(F)
    assert seen == set(MIXED_ORDERS)


def test_ideal_bases_hash_as_they_compare():
    rng = random.Random(7)
    checked = 0
    while checked < 6:
        ideal = groebner_ideal([_mixed_binomial(rng, 3) for _ in range(2)])
        if all(c.order == 12 for g in ideal.generators for c in g.terms.values()):
            continue  # lifting would change nothing
        checked += 1
        lifted = IdealBasis(ideal.nvars, tuple(_lift12(g) for g in ideal.generators))
        assert lifted == ideal
        assert hash(lifted) == hash(ideal)
        assert len({ideal, lifted}) == 1
    # rings of different sizes: unequal without an error, even with equal
    # (empty) terms
    assert Polynomial.zero(1) != Polynomial.zero(2)
    assert Polynomial.constant(1, 2) != Polynomial.constant(2, 2)
    assert len({Polynomial.zero(1), Polynomial.zero(2)}) == 2


def test_mixed_field_groebner_agrees_with_lifting_first():
    rng = random.Random(4)
    seen, unequal = set(), 0
    for _ in range(12):
        gens = [_mixed_binomial(rng, 3) for _ in range(rng.randint(2, 3))]
        seen |= {c.order for g in gens for c in g.terms.values()}
        lifted = [_lift12(g) for g in gens]
        basis, lifted_basis = poly.buchberger(gens), poly.buchberger(lifted)
        # one lift at the entry: the whole basis lives in one field
        assert len({c.order for b in basis for c in b.terms.values()}) <= 1
        assert [_lift12(b).terms for b in basis] == [b.terms for b in lifted_basis]
        assert [polynomial_to_text(b) for b in basis] == \
            [polynomial_to_text(b) for b in lifted_basis]
        assert ideal_equal(groebner_ideal(gens), groebner_ideal(lifted))
        f = _mixed_polynomial(rng, 3, 4)
        assert _lift12(poly.normal_form(f, basis, GREVLEX)).terms == \
            poly.normal_form(_lift12(f), lifted_basis, GREVLEX).terms
        first = groebner_ideal(gens[:1])
        same = all(ideal_member(g, first) for g in gens[1:])
        assert ideal_equal(first, groebner_ideal(lifted)) == same
        unequal += not same
    assert seen == set(MIXED_ORDERS) and unequal


ZETA3_PLUS_ZETA8 = (
    "from tgkz.cyclotomic import Cyclotomic\n"
    "from tgkz.poly import Polynomial, polynomial_to_text\n"
    "p = Polynomial.constant(1, Cyclotomic.zeta(3)) + "
    "Polynomial.monomial(1, (1,), Cyclotomic.zeta(8))\n"
    "print(polynomial_to_text(p))\n")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_sum_over_coprime_fields(flags):
    # the constant in Q(zeta_3) and the term in Q(zeta_8) keep their fields
    res = subprocess.run([sys.executable, *flags, "-c", ZETA3_PLUS_ZETA8],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "zeta(8)*d1 + zeta(3)\n"
    p = Polynomial.constant(1, Cyclotomic.zeta(3)) + \
        Polynomial.monomial(1, (1,), Cyclotomic.zeta(8))
    assert p - Polynomial.monomial(1, (1,), Cyclotomic.zeta(8)) == \
        Polynomial.constant(1, Cyclotomic.zeta(24, 8))


NEGATIVE_POWERS = (
    "from tgkz.poly import Polynomial\n"
    "from tgkz.weyl import WeylElement\n"
    "for base, k in ((Polynomial.variable(0, 1), -1), (WeylElement.d(0, 1), -2)):\n"
    "    try:\n        print(base ** k)\n"
    "    except ValueError as exc:\n        print(exc)\n")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_negative_powers_raise_value_error(flags):
    res = subprocess.run([sys.executable, *flags, "-c", NEGATIVE_POWERS],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["negative power -1", "negative power -2"]


PUBLIC_VALUE_ERRORS = (
    "from tgkz.binomials import PartialCharacter\n"
    "from tgkz.cones import placing_triangulation\n"
    "from tgkz.poly import parse_polynomial\n"
    "for call in (lambda: parse_polynomial('d1*d2', 2).drop_last_vars(1),\n"
    "             lambda: placing_triangulation([(1, 0), (0, 0)]),\n"
    "             lambda: PartialCharacter.on_rows([(1, 0)], [0], 2),\n"
    "             lambda: PartialCharacter.on_rows([(1, 0)], [1, 1], 2)):\n"
    "    try:\n        print(call())\n"
    "    except ValueError as exc:\n        print(exc)\n")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_public_api_checks_raise_value_error(flags):
    res = subprocess.run([sys.executable, *flags, "-c", PUBLIC_VALUE_ERRORS],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "cannot drop variables that occur in d1*d2",
        "zero vector has no ray",
        "1 rows need as many nonzero values, got 1",
        "1 rows need as many nonzero values, got 2"]
