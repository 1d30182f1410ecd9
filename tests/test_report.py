import hashlib
import importlib
import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import zp_spec
from tgkz import binomials, cones, semigroups, systems
from tgkz.errors import HypothesisError, SpecError
from tgkz.problem import parse_spec
from tgkz.report import COMMANDS, render, run_command

MOD4 = ('{"torsion_orders": [4], "columns": [{"torsion": [1], "free": [1]},'
        ' {"torsion": [1], "free": [2]}], "beta": [0]}')
INTERIOR = ('{"columns": [{"torsion": [], "free": [1, 0]},'
            ' {"torsion": [], "free": [1, 1]}, {"torsion": [], "free": [1, 2]}],'
            ' "beta": [0, 0], "module": "K_interior"}')
NOT_SPANNING = '{"columns": [{"torsion": [], "free": [2]}], "beta": [0]}'

BENCH = Path(__file__).resolve().parent.parent / "bench"
IDEALS_SPECS = ("mod4_line3", "z6_plane", "z2z2_line", "mod8_line", "mod6_line")
SAMPLES = BENCH.parent / "sample_specs"
PRESENTATION_JOBS = (
    (SAMPLES, "mod4_line", "report"), (SAMPLES, "plane_segment", "report"),
    (SAMPLES, "split_line", "report"), (BENCH / "specs", "mod6_line", "system"),
    (BENCH / "specs", "z3_plane", "system"), (BENCH / "specs", "z3_plane", "dual"),
    (BENCH / "specs", "cube3", "dual"), (BENCH / "specs", "mod2_plane", "system"),
    (BENCH / "specs", "mod3_line", "dual"),
)
GEOMETRY_SPECS = ("prism6_int", "prism8_int", "prism8_t2", "hex4")


def test_unknown_command_rejected():
    spec = parse_spec(MOD4)
    with pytest.raises(SpecError):
        run_command(spec, "frobnicate")


def test_commands_compute_each_per_configuration_object_once(monkeypatch):
    calls = []
    for module, name in ((cones, "lattice_index"), (binomials, "twisted_ideal")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    scans = []
    real_scan = semigroups._primitive_degrees
    monkeypatch.setattr(semigroups, "_primitive_degrees", lambda module, scales:
                        scans.extend((module.kind, s) for s in scales)
                        or real_scan(module, scales))
    runs = []
    real_groebner = systems.module_groebner
    monkeypatch.setattr(systems, "module_groebner", lambda *args, **kwargs:
                        runs.append(args) or real_groebner(*args, **kwargs))
    cones.check_hypotheses.cache_clear()
    binomials._minimal_primes.cache_clear()
    semigroups.module_generators.cache_clear()
    systems._relation_module.cache_clear()
    spec = parse_spec(MOD4)
    for command in ("report", "ideals", "primes", "dual"):
        run_command(spec, command)
    # one hypotheses check, and four characters twisted once each
    assert sorted(calls) == ["lattice_index"] + ["twisted_ideal"] * 4
    # one primitive set per module: its base scan and its doubled-scale rescan
    assert sorted(scans) == [("K", 1), ("K", 2), ("K_INTERIOR", 2), ("K_INTERIOR", 4)]
    assert binomials.minimal_primes(spec.config) is not binomials.minimal_primes(spec.config)
    # one relation module per module: the closure module of the system
    # block and the interior module of the two dual blocks
    assert len(runs) == 2
    # on an interior spec the system and dual blocks share one module
    runs.clear()
    interior = parse_spec(INTERIOR)
    for command in ("report", "system", "dual"):
        run_command(interior, command)
    assert len(runs) == 1


def test_check_block_reports_infinite_delta():
    spec = parse_spec('{"torsion_orders": [2], "columns":'
                      ' [{"torsion": [1], "free": [0, 1]}], "beta": [0, 0]}')
    out = run_command(spec, "check")
    assert out["hypotheses"]["delta"] == "INFINITE"
    assert out["hypotheses"]["ok"] is False


def test_refusal_hypotheses_in_context():
    spec = parse_spec(NOT_SPANNING)
    with pytest.raises(HypothesisError) as exc:
        run_command(spec, "module")
    assert exc.value.context["hypotheses"]["spans"] is False


def test_interior_module_report_blocks():
    spec = parse_spec(INTERIOR)
    out = run_command(spec, "report")
    assert out["module"]["module"] == "K_interior"
    assert out["analysis"]["vanishing"] == "NONVANISHING"
    assert out["analysis"]["rank"] == 2
    qdeg = out["analysis"]["quasi_degrees"]
    assert qdeg["pieces"][0]["shift"] == ["0", "0"]
    assert out["system"]["module"] == "K_INTERIOR"


def test_render_is_stable_and_sorted():
    spec = parse_spec(MOD4)
    one = render(run_command(spec, "report"))
    two = render(run_command(spec, "report", workers=4))
    assert one == two
    payload = json.loads(one)
    assert list(payload.keys()) == sorted(payload.keys())


def test_primes_block_character_payload():
    spec = parse_spec(MOD4)
    out = run_command(spec, "primes")
    primes = out["primes"]["primes"]
    assert out["primes"]["count"] == 4
    values = sorted(p["character"]["values"][0] for p in primes)
    assert values == ["-1", "-zeta(4)", "1", "zeta(4)"]
    for p in primes:
        assert p["character"]["basis"] == [[2, -1]]


def test_settings_echo_budget_and_bounds(monkeypatch):
    monkeypatch.setenv("TGKZ_PAIR_BUDGET", "7777")
    spec = parse_spec(MOD4)
    out = run_command(spec, "check")
    assert out["settings"]["pair_budget"] == 7777
    assert out["settings"]["bounds"]["truncation"] == 10


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("command", ["ideals", "primes"])
@pytest.mark.parametrize("name", IDEALS_SPECS)
def test_ideal_reports_match_benchmark_references(name, command, workers):
    """The ideals and primes reports of the benchmark's lattice specs hash to
    the references stored with the benchmark (read, never written)."""
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    spec = parse_spec((BENCH / "specs" / f"{name}.json").read_text(encoding="utf-8"))
    text = render(run_command(spec, command, workers=workers))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == references[f"{name}:{command}"]


@pytest.mark.parametrize("p,digest", [
    (31, "e48ad6d58fc97003dab9849ec2148a32f8fd1f1e8fa901ff32afb5db01908f7e"),
    (97, "1201c200c9db6c40c973e99a2293b2ba69eef6f96b18ba133e17f08a3f9523c2"),
])
def test_zp_ideals_take_no_norm_and_no_demotion_solve(monkeypatch, p, digest):
    """Every character value of Z/p is a root of unity, so its inverse and
    its printed form need no Galois norm (_conjugate_product) and no linear
    solve (fieldlin.solve); the report hashes as it did when both ran."""
    from tgkz import cyclotomic, fieldlin
    calls = []
    for module, name in ((cyclotomic, "_conjugate_product"), (fieldlin, "solve")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for cached in (binomials._minimal_primes, binomials.toric_ideal_free,
                   binomials.toric_ideal_full, cyclotomic._demote, cyclotomic._signed_root):
        cached.cache_clear()
    text = render(run_command(parse_spec(zp_spec(p)), "ideals"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert calls == []


@pytest.mark.parametrize("beta,module,command,digest", [
    ("[0, 0]", "K", "dual",
     "3316594d1d050a5e9403694583894365d183604c43c2c35a99e23775c168bd1f"),
    ("[0, 0]", "K", "report",
     "80b84929b610907e8e4b54af6415e3693611ad79ad0c0b942d9139eb3a4ba75b"),
    ('["2*zeta(13)^5", "-1/3"]', "K_interior", "dual",
     "22ea565c2e3f9e78a468c7b57be5052cf4ea651c422015e536a4155d519f3703"),
    ('["2*zeta(13)^5", "-1/3"]', "K_interior", "report",
     "83cbbfa95ba2c800c739d7efb222043f0ba387cf76c6932946193f8c1fe0a599"),
])
def test_z13_cyclotomic_reports_keep_their_bytes(beta, module, command, digest):
    """Z/13 reports print what no benchmark reference covers: a dense
    character-table determinant (4826809 + 9653618*zeta(13)^2 + ...),
    cyclotomic beta and dual beta, and Euler operators with non-rational
    constants.  The digests were taken with the character-loop text format
    kept in tests/text_oracle.py."""
    text = render(run_command(parse_spec(zp_spec(13, beta, module)), command))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# Z/4 + Z with the unit column (1, 0), and Z/6 + Z^2 with the unit (2, (0, 0))
UNIT_LINE = ('{"torsion_orders": [4], "columns": [{"torsion": [1], "free": [1]},'
             ' {"torsion": [1], "free": [2]}, {"torsion": [1], "free": [0]}],'
             ' "beta": ["1/2"], "module": "K"}')
UNIT_PLANE = ('{"torsion_orders": [6], "columns": [{"torsion": [1], "free": [1, 0]},'
              ' {"torsion": [2], "free": [0, 0]}, {"torsion": [3], "free": [1, 1]},'
              ' {"torsion": [0], "free": [1, 2]}], "beta": ["1/2", "zeta(3)"],'
              ' "module": "K_interior"}')


@pytest.mark.parametrize("spec,command,digest", [
    (UNIT_LINE, "ideals", "7206bb413c23933f537b25aab4319131184523910b6bc7aff94f58900fdddfe1"),
    (UNIT_LINE, "primes", "d67ec2851ea96fdae61a174eb5844c3972733126267315f52b26bff31a231f9c"),
    (UNIT_LINE, "system", "c5269c6929524b23224e6ae8b4dc81c1a81da933dc63d42cc2bc9088e75342af"),
    (UNIT_LINE, "dual", "b864a48df59aedbe9ac511e63eeba7467925aa0f63d6201d299ea1c1d3a95768"),
    (UNIT_LINE, "report", "f95a2cee5e2ee349707d6b59791a9e234b47f4c448f123cb24ef4581efdf399f"),
    (UNIT_PLANE, "ideals", "e504b4225ed00b11d34477e2e2bb37e15339e6bda1a907c0f4e0c3a73caaaf94"),
    (UNIT_PLANE, "primes", "3effaf9f8692088f8810eb2c08c4d16ef36e229b72b788a9e49d20bea191b44a"),
    (UNIT_PLANE, "system", "d910aff82a479b5a55a99cbdf766101be781985dadc22e3f6434392ee6d5db69"),
    (UNIT_PLANE, "dual", "c180a7fa054bc5b23d333f2109b520f75b84116f83aabe7330285b3d20cf7d6a"),
    (UNIT_PLANE, "report", "ce2d7b650a2fc3eacfc9d2b6bac6817cd680f16a9359fa99405bc8ccf33f0e10"),
])
def test_unit_column_reports_keep_their_bytes(spec, command, digest):
    """No benchmark or sample spec has a unit column, whose lattice ideals
    join the unit binomial x_j^o_j - chi(o_j e_j).  The digests were taken
    when unit columns were saturated by elimination."""
    text = render(run_command(parse_spec(spec), command))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("folder,name,command", PRESENTATION_JOBS)
def test_presentation_reports_match_benchmark_references(folder, name, command):
    """The reports of the benchmark's presentation jobs hash to the
    references stored with the benchmark (read, never written)."""
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    spec = parse_spec((folder / f"{name}.json").read_text(encoding="utf-8"))
    text = render(run_command(spec, command))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == references[f"{name}:{command}"]


@pytest.mark.parametrize("command", ["check", "module", "rank"])
@pytest.mark.parametrize("name", GEOMETRY_SPECS)
def test_geometry_reports_match_benchmark_references(name, command):
    """The reports of the benchmark's geometry jobs hash to the references
    stored with the benchmark (read, never written)."""
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    spec = parse_spec((BENCH / "specs" / f"{name}.json").read_text(encoding="utf-8"))
    text = render(run_command(spec, command))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == references[f"{name}:{command}"]


def test_every_benchmark_reference_is_checked():
    """The three reference tests above hash every job stored in
    bench/references.json (read, never written): all 31, so a byte change
    in any benchmark report fails here before the benchmark runs."""
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    checked = {f"{name}:{command}" for name in IDEALS_SPECS for command in ("ideals", "primes")}
    checked |= {f"{name}:{command}" for _, name, command in PRESENTATION_JOBS}
    checked |= {f"{name}:{command}" for name in GEOMETRY_SPECS
                for command in ("check", "module", "rank")}
    assert set(references) == checked
    assert len(checked) == 31


# ---------------------------------------------------------------------------
# the report writer against json.dumps, kept as its oracle


def _oracle_render(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


DIFFERENTIAL_JOBS = (
    PRESENTATION_JOBS
    + tuple((BENCH / "specs", name, command) for name in IDEALS_SPECS
            for command in ("ideals", "primes"))
    + tuple((BENCH / "specs", name, command) for name in GEOMETRY_SPECS
            for command in ("check", "module", "rank"))
    + tuple((SAMPLES, path.stem, command) for path in sorted(SAMPLES.glob("*.json"))
            for command in COMMANDS))


@pytest.mark.parametrize("folder,name,command", DIFFERENTIAL_JOBS)
def test_render_matches_json_dumps_on_every_job(folder, name, command):
    spec = parse_spec((folder / f"{name}.json").read_text(encoding="utf-8"))
    payload = run_command(spec, command)
    assert render(payload) == _oracle_render(payload)


ADVERSARIAL = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[], [[]], [{}], {}],
    {"quote\"key": "a \"quoted\" \\backslash\\ value", "\\": "\\\\"},
    {"ctl": "\x00\x01\x1f\x7f\t\n\r\b\f", "tab\tkey": ["\n", "\r\n"]},
    {"non-ascii": "zeta(4) · ζ₆ — é ü   \U0001f600", "ключ": ["é", "ß"]},
    {"bool": [True, False], "int": [1, 0], "mixed": [True, 1, False, 0, None]},
    {"neg": [-1, -0, -(10 ** 40)], "big": 2 ** 200, "small": -(2 ** 63)},
    [None, "null", "true", 1, "1", [None], {"": ""}],
    {"z": 1, "a": 2, "m": {"y": [3, "x"], "b": (4, 5)}, "": [(), ("t",)]},
    ("tuple", ("nested", [1, (2, 3)]), ()),
    "a bare string",
    -17,
    None,
    True,
]


@pytest.mark.parametrize("payload", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
def test_render_matches_json_dumps_on_adversarial_payloads(payload):
    assert render(payload) == _oracle_render(payload)


@pytest.mark.parametrize("payload", [
    {1: "int key"}, {None: 1}, {("t",): 1}, {"ok": {2: "nested int key"}},
    {"float": 1.5}, [float("nan")], {"set": {1, 2}}, [b"bytes"],
    {"fraction": Fraction(1, 2)}, [object()],
])
def test_render_refuses_what_it_does_not_write(payload):
    with pytest.raises(TypeError):
        render(payload)


def _load_tracing():
    """bench/tracing.py as a module of its own, read only: nothing here
    calls its install()."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


def _per_layer_problem(name):
    """Why `bench/run.py --trace 1` could not read the per-layer metric
    `name` off a trace of tgkz, or None when it can."""
    if name == "trace.overhead_s":
        return None
    *path, stat = name.removeprefix("setup.").split(".")
    if len(path) == 1:
        return None if path[0] in TRACING.LAYERS and stat in ("calls", "self_s") \
            else f"{name} is no layer statistic"
    function = TRACING.ALIASES.get(".".join(path), ".".join(path))
    layer, *attrs = function.split(".")
    if layer not in TRACING.LAYERS:
        return f"{layer} is no traced layer"
    module = importlib.import_module(f"tgkz.{layer}")
    if len(attrs) == 1:
        obj = vars(module).get(attrs[0])
        traced = (not attrs[0].startswith("_")
                  and getattr(obj, "__module__", None) == module.__name__
                  and (inspect.isfunction(obj) or hasattr(obj, "cache_info")))
    else:
        cls = vars(module).get(attrs[0])
        traced = (len(attrs) == 2 and isinstance(cls, type) and attrs[1] in vars(cls)
                  and attrs[1] in TRACING.METHODS.get(layer, {}).get(attrs[0], ()))
    if not traced:
        return f"{function} is not traced"
    work = {n: stat for n, (stat, _) in {**TRACING.BEFORE, **TRACING.AFTER}.items()}
    stats = {"calls"} if function in TRACING.COUNT_ONLY else \
        {"calls", "time_s", "self_s", work.get(function)}
    if work.get(function) == "rational":
        stats.add("rational_share")
    return None if stat in stats else f"{function} has no statistic {stat}"


def test_every_per_layer_benchmark_name_resolves():
    names = [m["name"] for m in
             json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert names
    assert [(n, _per_layer_problem(n)) for n in names
            if _per_layer_problem(n) is not None] == []


@pytest.mark.parametrize("name", [
    "weyl.no_such_function.calls", "poly._reduce.calls", "poly.GREVLEX.calls",
    "poly.Polynomial.__add__.calls", "poly.Polynomial.leading.time_s",
    "cyclotomic.no_such.calls", "nolayer.self_s", "poly.buchberger.points",
])
def test_per_layer_resolver_rejects_names_the_trace_lacks(name):
    assert _per_layer_problem(name) is not None
