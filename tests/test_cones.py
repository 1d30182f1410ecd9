import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import cone_oracle
from conftest import make_config, random_battery, square_prism
from fieldlin_oracle import in_span, rank as field_rank
from tgkz import cones, lattice
from tgkz.cones import (
    Arrangement,
    AffinePiece,
    PointConfig,
    check_hypotheses,
    cone_triangulation,
    epsilon_vector,
    face_by_columns,
    face_lattice,
    facets,
    homogenizing_functional,
    is_pointed,
    membership_in_arrangement,
    normalized_volume,
    placing_triangulation,
    positive_grading,
)
from tgkz.cyclotomic import Cyclotomic
from tgkz.errors import HypothesisError, NotPointedError
from tgkz.lattice import Functional, det
from tgkz.problem import parse_spec


def test_facets_of_plane_segment(plane_segment):
    taus = facets(plane_segment)
    assert sorted(t.free_part for t in taus) == [(0, 1), (2, -1)]


def test_facets_of_line(split_line):
    taus = facets(split_line)
    assert [t.free_part for t in taus] == [(1,)]


def test_volume_examples(split_line, mod4_line, plane_segment):
    assert normalized_volume(split_line) == 1
    assert normalized_volume(mod4_line) == 2
    assert normalized_volume(plane_segment) == 2


def test_volume_translation_of_column_multiset_invariance():
    # repeated columns do not change the underlying polytope
    a = make_config([], [((), (1, 0)), ((), (1, 2))])
    b = make_config([], [((), (1, 0)), ((), (1, 0)), ((), (1, 2))])
    assert normalized_volume(a) == normalized_volume(b) == 2


def test_volume_unimodular_invariance():
    rng = random.Random(5)
    base = [(1, 0), (1, 1), (1, 3)]
    vol = normalized_volume(make_config([], [((), v) for v in base]))
    for _ in range(20):
        # random unimodular map: shear compositions
        m = [[1, 0], [0, 1]]
        for _ in range(4):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
            else:
                m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
        mapped = [tuple(m[i][0] * v[0] + m[i][1] * v[1] for i in range(2))
                  for v in base]
        cfg = make_config([], [((), v) for v in mapped])
        if is_pointed(cfg):
            assert normalized_volume(cfg) == vol


def test_volume_determinant_oracle_simplices():
    # conv(0, c1..cd) is a simplex of normalized volume |det(c1..cd)|
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        d = rng.randint(1, 3)
        cols = [tuple(rng.randint(0, 3) for _ in range(d))
                for _ in range(d)]
        vol = abs(det(cols))
        if not vol:
            continue
        cfg = make_config([], [((), c) for c in cols])
        assert normalized_volume(cfg) == vol
        checked += 1


def _brute_force_facets(cfg):
    """All primitive tau with entries in [-12, 12], tau >= 0 on the columns,
    vanishing on a rank d-1 subset, nonvanishing somewhere."""
    d = cfg.d
    found = set()
    cols = [c.free for c in cfg.columns]
    for tau in itertools.product(range(-12, 13), repeat=d):
        if all(x == 0 for x in tau):
            continue
        g = 0
        for x in tau:
            g = gcd(g, x)
        if g != 1:
            continue
        vals = [sum(t * c for t, c in zip(tau, col)) for col in cols]
        if any(v < 0 for v in vals):
            continue
        zero = [cols[j] for j, v in enumerate(vals) if v == 0]
        rows = [[Fraction(x) for x in z] for z in zero]
        if field_rank(rows) == d - 1:
            found.add(tau)
    return found


def test_facets_brute_force_low_dim():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 2)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        if all(all(x == 0 for x in c) for c in cols):
            continue
        cfg = make_config([], [((), c) for c in cols])
        if not is_pointed(cfg):
            continue
        hyp = check_hypotheses(cfg)
        if not hyp.spans:
            continue
        mine = {t.free_part for t in facets(cfg)}
        mine_int = {tuple(int(x) for x in t) for t in mine}
        assert mine_int == _brute_force_facets(cfg)
        checked += 1


def test_is_pointed():
    assert is_pointed(make_config([], [((), (1, 0)), ((), (0, 1))]))
    assert not is_pointed(make_config([], [((), (1,)), ((), (-1,))]))
    assert not is_pointed(make_config([], [((), (1, 0)), ((), (-1, 0)),
                                           ((), (0, 1))]))


def test_is_pointed_runs_once_per_config(monkeypatch, battery):
    calls = []
    real = cones._facet_normals
    monkeypatch.setattr(cones, "_facet_normals",
                        lambda vectors, d: calls.append(vectors) or real(vectors, d))
    is_pointed.cache_clear()
    cones.facet_rows.cache_clear()
    for config in battery:
        assert is_pointed(config)
        first = len(calls)
        assert first > 0
        # an equal config built anew, and every caller, hit the same entry
        again = make_config(config.group.torsion_orders,
                            [(c.torsion, c.free) for c in config.columns])
        assert is_pointed(again)
        check_hypotheses(again)
        positive_grading(again)
        face_lattice(again)
        assert len(calls) == first
        calls.clear()
    assert is_pointed.cache_parameters()["maxsize"] == 16
    for k in range(1, 40):  # more configs than the cache holds
        is_pointed(make_config([], [((), (1, 0)), ((), (1, k))]))
    assert is_pointed.cache_info().currsize == 16


def test_integer_cone_kernel_matches_fraction_oracle():
    rng = random.Random(31)
    seen = {"non_spanning": 0, "not_pointed": 0}
    for _ in range(300):
        d = rng.randint(1, 3)
        cols = [tuple(rng.randint(-1, 3) for _ in range(d))
                for _ in range(rng.randint(1, d + 3))]
        if d > 1 and rng.random() < 0.3:  # drop a coordinate: the columns cannot span
            cols = [c[:-1] + (0,) for c in cols]
        cfg = make_config([], [((), c) for c in cols])
        vecs = cfg.nonzero_free_columns()
        assert is_pointed(cfg) == cone_oracle.is_pointed(cfg), cols
        assert normalized_volume(cfg) == cone_oracle.normalized_volume(cfg), cols
        for order in (vecs, rng.sample(vecs, len(vecs)), [(1,) + v for v in vecs]):
            assert placing_triangulation(order) == \
                cone_oracle.placing_triangulation(order), order
        seen["non_spanning"] += not check_hypotheses(cfg).spans
        seen["not_pointed"] += not is_pointed(cfg)
    assert min(seen.values()) > 30


def test_facet_minors_match_rank_kernel_oracle(battery):
    """Signed maximal minors give the facet set of the rank + Smith kernel
    construction: on the battery, random_battery, the square prisms, the
    prism and hex4 specs, and random vectors in Z^1..Z^4 with rank-deficient
    subsets (repeated, parallel and opposite vectors) and non-pointed cones."""
    specs = Path(__file__).resolve().parent.parent / "bench" / "specs"
    configs = (battery + random_battery(4099, 25) + [square_prism([]), square_prism([2])]
               + [parse_spec((specs / f"{name}.json").read_text(encoding="utf-8")).config
                  for name in ("prism6_int", "prism8_int", "prism8_t2", "hex4")])
    vector_sets = [(cfg.nonzero_free_columns(), cfg.d) for cfg in configs]
    rng = random.Random(6007)
    for _ in range(150):
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 3))]
        vecs += [tuple(k * x for x in rng.choice(vecs)) for k in rng.sample([2, -1, 1], 2)]
        vector_sets.append(([v for v in vecs if any(v)], d))
    for vecs, d in vector_sets:
        assert cones._facet_normals(vecs, d) == cone_oracle.facet_normals(vecs, d), vecs
    assert {len(cone_oracle.facet_normals(v, d)) for v, d in vector_sets} >= {0, 1, 2, 4}


def test_facet_normals_use_no_hermite_or_smith_form(monkeypatch, battery):
    cases = [(cfg.nonzero_free_columns(), cfg.d) for cfg in battery]
    expect = [cone_oracle.facet_normals(vecs, d) for vecs, d in cases]
    for name in ("hnf_rows", "rank"):
        monkeypatch.setattr(cones, name, None)
    for name in ("hnf_with_transform", "smith_normal_form"):
        monkeypatch.setattr(lattice, name, None)
    assert [cones._facet_normals(vecs, d) for vecs, d in cases] == expect


def test_cone_triangulation_covers(plane_segment):
    simplices = cone_triangulation(plane_segment)
    assert all(len(s) == 2 for s in simplices)  # each spans the plane
    assert cone_triangulation(plane_segment) is simplices  # once per config
    assert sorted(tuple(v) for s in simplices for v in s) == \
        [(1, 0), (1, 1), (1, 1), (1, 2)]


def test_one_triangulation_matches_cone_placing_oracle(battery):
    """The simplices through the origin of the volume's triangulation are
    the placing triangulation of the columns alone, simplex for simplex and
    in order, and the volume is the Fraction oracle's: on the battery,
    random_battery and seeded random configs in Z^1..Z^3 with negative
    entries, non-pointed and non-spanning ones among them."""
    rng = random.Random(7919)
    configs = battery + random_battery(20240, 150) + random_battery(77, 150)
    for _ in range(500):
        d = rng.randint(1, 3)
        cols = [tuple(rng.randint(-2, 3) for _ in range(d))
                for _ in range(rng.randint(1, d + 3))]
        configs.append(make_config([], [((), c) for c in cols]))
    seen = {"not_pointed": 0, "non_spanning": 0}
    for cfg in configs:
        assert normalized_volume(cfg) == cone_oracle.normalized_volume(cfg), cfg
        if not cfg.nonzero_free_columns():
            continue
        rk = cones._triangulation(cfg)[2]
        if rk == cfg.d + 1:
            assert cone_triangulation(cfg) == cone_oracle.cone_triangulation(cfg), cfg
        else:
            with pytest.raises(HypothesisError) as err:
                cone_triangulation(cfg)
            assert err.value.context["rank"] == rk - 1 == \
                cone_oracle.placing_triangulation(cfg.nonzero_free_columns())[1]
            seen["non_spanning"] += 1
        seen["not_pointed"] += not is_pointed(cfg)
    assert min(seen.values()) > 30


def _random_piece(rng, d):
    """An affine piece in Q^d: zero to d integer span vectors (repeated and
    parallel ones among them) and an integer or rational shift."""
    span = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d))]
    if span and rng.random() < 0.3:
        span.append(tuple(-2 * x for x in rng.choice(span)))
    shift = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(d))
    return AffinePiece(shift, tuple(span), ())


def _random_scalar(rng, e):
    """A random element of Q(zeta_e): a rational combination of powers."""
    return sum((Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * Cyclotomic.zeta(e, k)
                for k in range(rng.randint(1, 3))), Cyclotomic.zero())


def test_membership_matches_in_span_oracle():
    """Integer normals decide membership as the Q(zeta) rank comparison of
    the former implementation does, on random pieces in Q^1..Q^3 with empty
    and rank-deficient spans and beta in Q(zeta_e): beta off the piece, and
    beta = shift + a Q(zeta_e) combination of the span vectors on it."""
    rng = random.Random(2005)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        d = rng.randint(1, 3)
        e = rng.choice([1, 3, 4, 5, 6, 12])
        piece = _random_piece(rng, d)
        if rng.random() < 0.5:
            beta = [_random_scalar(rng, e) for _ in range(d)]
        else:
            beta = list(piece.shift)
            for v in piece.span_vectors:
                c = _random_scalar(rng, e)
                beta = [b + c * x for b, x in zip(beta, v)]
            if rng.random() < 0.3:  # nudge one coordinate off the piece, sometimes
                i = rng.randrange(d)
                beta[i] = beta[i] + _random_scalar(rng, e)
        target = [Cyclotomic.coerce(b) - s for b, s in zip(beta, piece.shift)]
        expect = in_span([[Cyclotomic.rational(x) for x in v] for v in piece.span_vectors],
                         target)
        assert membership_in_arrangement(beta, Arrangement(d, (piece,))) == expect, \
            (beta, piece)
        outcomes[expect] += 1
    assert min(outcomes.values()) > 150


def test_face_lattice_of_plane_segment(plane_segment):
    faces = face_lattice(plane_segment)
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 2]
    vertex = [f for f in faces if f.dim == 0][0]
    assert vertex.column_indices == ()
    rays = [f for f in faces if f.dim == 1]
    assert sorted(f.column_indices for f in rays) == [(0,), (2,)]
    assert face_by_columns(plane_segment, (0,)) is not None
    assert face_by_columns(plane_segment, (1,)) is None


def test_face_lattice_requires_pointed():
    cfg = make_config([], [((), (1,)), ((), (-1,))])
    with pytest.raises(NotPointedError):
        face_lattice(cfg)


def test_hypotheses_on_battery(battery):
    for cfg in battery:
        rep = check_hypotheses(cfg)
        assert rep.ok, cfg
    assert check_hypotheses(battery[1]).delta == 1
    assert check_hypotheses(battery[1]).ell == 4


def test_hypotheses_failure_modes():
    not_spanning = make_config([], [((), (2,))])
    rep = check_hypotheses(not_spanning)
    assert not rep.spans and not rep.ok

    not_pointed = make_config([], [((), (1,)), ((), (-1,))])
    assert not check_hypotheses(not_pointed).pointed


def test_positive_grading_and_epsilon(plane_segment, split_line):
    h = positive_grading(plane_segment)
    assert all(h(c) >= 1 for c in plane_segment.columns)
    assert epsilon_vector(plane_segment) == (3, 3)
    assert epsilon_vector(split_line) == (1,)


def test_homogenizing_functional(plane_segment, split_line, mod4_line):
    h = homogenizing_functional(plane_segment)
    assert h is not None
    assert all(h(c) == 1 for c in plane_segment.columns)
    assert homogenizing_functional(split_line).free_part == (Fraction(1),)
    assert homogenizing_functional(mod4_line) is None


def test_membership_in_arrangement():
    arr = Arrangement(2, (AffinePiece((Fraction(0), Fraction(0)),
                                      ((1, 2),), (0,)),))
    one = Fraction(1)
    assert membership_in_arrangement((one, 2 * one), arr)
    assert not membership_in_arrangement((one, one), arr)


def test_face_lattice_closed_under_intersection(battery):
    for config in battery:
        faces = face_lattice(config)
        colsets = {f.column_indices for f in faces}
        dims = sorted(f.dim for f in faces)
        assert dims[0] == 0 and dims[-1] == config.group.free_rank
        for f, g in itertools.combinations_with_replacement(faces, 2):
            meet = tuple(sorted(set(f.column_indices) & set(g.column_indices)))
            assert meet in colsets


def test_face_lattice_matches_subset_oracle(battery):
    # a lattice decagon with two interior points: ten facets, 2^10 subsets
    decagon = [(0, 0), (1, 0), (3, 1), (4, 3), (4, 4), (3, 5), (1, 5), (0, 4),
               (-1, 2), (-1, 1), (1, 2), (2, 3)]
    pyramid = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    configs = battery + random_battery(20240, 40) + [
        make_config([], [((), (1,) + p) for p in decagon]),
        make_config([2], [((i % 2,), (1,) + p) for i, p in enumerate(pyramid)])]
    assert len(facets(configs[-2])) == 10
    for config in configs:
        assert face_lattice(config) == cone_oracle.face_lattice(config), config
