import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tgkz import errors
from tgkz.problem import parse_spec
from tgkz.report import render, run_command

SAMPLES = Path(__file__).resolve().parent.parent / "sample_specs"
BENCH_SPECS = SAMPLES.parent / "bench" / "specs"

SPLIT_LINE = """{
  "torsion_orders": [2],
  "columns": [{"torsion": [1], "free": [1]}],
  "beta": ["1/2"]
}"""

MOD4_LINE = """{
  "torsion_orders": [4],
  "columns": [{"torsion": [1], "free": [1]}, {"torsion": [1], "free": [2]}],
  "beta": [0]
}"""

NOT_POINTED = """{
  "columns": [{"torsion": [], "free": [1]}, {"torsion": [], "free": [-1]}],
  "beta": [0]
}"""

# height-1 points of the unit square and the corners of [0,2]^2, torsion Z/2
SMALL_PRISM = json.dumps({
    "torsion_orders": [2],
    "columns": [{"torsion": [i % 2], "free": [1, *p]} for i, p in
                enumerate([(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (2, 2)])],
    "beta": ["1/2", 0, 0],
    "module": "K_interior",
})

# the CLI with a box scan that loses its smallest point at unit scale
LOSSY_BOX_CLI = """
import sys
from tgkz import semigroups
from tgkz.cli import main
original = semigroups._box_points
def lossy(simplex, scales, *rest):
    found = sorted(original(simplex, scales, *rest))  # by point at unit scale
    return found[1:] if max(scales) == 1 else found
semigroups._box_points = lossy
sys.exit(main(sys.argv[1:]))
"""

# the CLI with minimal primes that do not intersect to the full-group ideal
WRONG_PRIMES_CLI = """
import sys
from tgkz import binomials
from tgkz.cli import main
binomials.twisted_ideal = lambda config, rho, moves: binomials.toric_ideal_free(config)
sys.exit(main(sys.argv[1:]))
"""

# the CLI with the first minimal prime widened by the variable d1: the ideal
# still contains the full-group ideal and differs from the other primes
WIDENED_PRIME_CLI = """
import sys
from tgkz import binomials
from tgkz.cli import main
from tgkz.poly import Polynomial, groebner_ideal
twisted = binomials.twisted_ideal
def widened(config, rho, moves):
    prime = twisted(config, rho, moves)
    if not all(v.is_one() for v in rho.values):
        return prime
    d1 = Polynomial.variable(0, config.n)
    return groebner_ideal(list(prime.generators) + [d1], config.n)
binomials.twisted_ideal = widened
sys.exit(main(sys.argv[1:]))
"""

# the CLI with a free toric basis element that has two terms but is not x^a - x^b
SCALED_BINOMIAL_CLI = """
import sys
from tgkz import binomials
from tgkz.cli import main
from tgkz.poly import IdealBasis, parse_polynomial
basis = IdealBasis(2, (parse_polynomial("d1^2 - 2*d2", 2),))
binomials.toric_ideal_free = lambda config: basis
sys.exit(main(sys.argv[1:]))
"""

# the CLI with a module Groebner basis whose relation mixes two degrees
INHOMOGENEOUS_CLI = """
import sys
from fractions import Fraction
from tgkz import systems
from tgkz.cli import main
def basis(config, generators):
    unit = (1,) + (0,) * (config.n - 1)
    return [{(0, (0,) * config.n): Fraction(1), (0, unit): Fraction(-1)}]
systems._relation_module = basis
sys.exit(main(sys.argv[1:]))
"""

# the CLI with an interior rank one above the closure rank
RANK_MISMATCH_CLI = """
import sys
from tgkz import duality
from tgkz.cli import main
rank = duality.rank_formula
duality.rank_formula = lambda config, kind: rank(config, kind) + (kind == duality.K_INTERIOR)
sys.exit(main(sys.argv[1:]))
"""

# the CLI with a character split whose determinant comes out zero
SINGULAR_SPLIT_CLI = """
import sys
from tgkz import cli, duality
from tgkz.cyclotomic import Cyclotomic
duality.character_table_determinant = lambda orders: Cyclotomic.zero()
sys.exit(cli.main(sys.argv[1:]))
"""

# the CLI with every cyclotomic inverse seeing norm 0: the product of the
# other Galois conjugates comes out zero.  A tagged root of unity inverts by
# its exponent without the norm, so the roots are built untagged here.
NOT_INVERTIBLE_CLI = """
import sys
from tgkz import cyclotomic
from tgkz.cli import main
signed_root = cyclotomic._signed_root
cyclotomic._signed_root = lambda e, s, k: cyclotomic._raw(e, signed_root(e, s, k).num, 1)
cyclotomic._conjugate_product = lambda num, e: cyclotomic.Cyclotomic.zero(e)
sys.exit(main(sys.argv[1:]))
"""

def run_cli(*args, env_extra=None, python_flags=()):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *python_flags, "-m", "tgkz.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="spec.json"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_check_reports_hypotheses(spec_file):
    res = run_cli("check", "--spec", spec_file(MOD4_LINE))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "check"
    assert payload["hypotheses"]["ok"] is True
    assert payload["hypotheses"]["delta"] == 1
    assert payload["hypotheses"]["ell"] == 4
    assert payload["settings"]["volume_convention"] == "unit_simplex=1"
    assert len(payload["spec_sha256"]) == 64


def test_check_succeeds_on_failing_hypotheses(spec_file):
    res = run_cli("check", "--spec", spec_file(NOT_POINTED))
    assert res.returncode == 0
    assert json.loads(res.stdout)["hypotheses"]["pointed"] is False


@pytest.mark.parametrize("free, pointed", [([[1, 0], [2, 0]], True),
                                           ([[1, 0], [-1, 0]], False)])
def test_check_reports_pointedness_of_non_spanning_columns(spec_file, free, pointed):
    path = spec_file(json.dumps({"columns": [{"torsion": [], "free": v} for v in free],
                                 "beta": [0, 0]}))
    res = run_cli("check", "--spec", path)
    assert res.returncode == 0, res.stderr
    hypotheses = json.loads(res.stdout)["hypotheses"]
    assert (hypotheses["pointed"], hypotheses["spans"]) == (pointed, False)
    assert run_cli("check", "--spec", path, python_flags=("-O",)).stdout == res.stdout


def test_check_parses_a_huge_power_in_beta(spec_file):
    # zeta(4)^(10^12) = 1 by square and multiply; k products never finish
    spec = json.loads(MOD4_LINE)
    spec["beta"] = ["(zeta(4))^1000000000000"]
    res = subprocess.run([sys.executable, "-m", "tgkz.cli", "check", "--spec",
                          spec_file(json.dumps(spec))],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["hypotheses"]["ok"] is True


def test_check_parses_a_scaled_root_of_large_order_in_beta(spec_file):
    # untagged 2 * zeta(4620)^4000: unit_rational_form steps by zeta, one
    # sparse product per step, where one fresh zeta^-k per k took minutes
    spec = json.loads(MOD4_LINE)
    spec["beta"] = ["2*zeta(4620)^4000"]
    res = subprocess.run([sys.executable, "-m", "tgkz.cli", "check", "--spec",
                          spec_file(json.dumps(spec))],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["hypotheses"]["ok"] is True


def test_check_refuses_a_huge_power_of_a_non_root_of_unity(spec_file):
    # (3/2)^(10^12) would need a 10^12-bit integer: refused up front
    spec = json.loads(MOD4_LINE)
    spec["beta"] = ["(3/2)^1000000000000"]
    res = subprocess.run([sys.executable, "-m", "tgkz.cli", "check", "--spec",
                          spec_file(json.dumps(spec))],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
    assert "UNSUPPORTED_CHARACTER_VALUE" in res.stderr and "power too large" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("beta", ["²", "zeta(4)^²", "①", "½"])
def test_check_refuses_numeric_characters_that_are_not_decimal_digits(spec_file, beta):
    # the text format reads them as letters of a name, which fails to parse
    spec = json.loads(MOD4_LINE)
    spec["beta"] = [beta]
    res = run_cli("check", "--spec", spec_file(json.dumps(spec)))
    assert res.returncode == 3, res.stderr
    assert "UNSUPPORTED_CHARACTER_VALUE" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_refusal_exit_code(spec_file):
    path = spec_file(NOT_POINTED)
    for cmd in ("ideals", "primes", "module", "system", "rank", "dual",
                "report"):
        res = run_cli(cmd, "--spec", path)
        assert res.returncode == 2, (cmd, res.stderr)
        assert res.stdout == ""


def test_parse_error_exit_code(spec_file):
    res = run_cli("rank", "--spec", spec_file("no json here"))
    assert res.returncode == 3
    res = run_cli("rank", "--spec", "/nonexistent/path.json")
    assert res.returncode == 3


@pytest.mark.parametrize("args", [
    ("system", "--spec", str(SAMPLES / "mod4_line.json"), "--bound", "abc"),
    # the spec's bounds.binomial_degree rejects a negative bound as well
    ("system", "--spec", str(SAMPLES / "mod4_line.json"), "--bound", "-1"),
    ("frobnicate", "--spec", str(SAMPLES / "mod4_line.json")),
    ("rank", "--spec"),
    ("rank", "--spec", str(SAMPLES / "mod4_line.json"), "--no-such-flag"),
])
def test_usage_errors_exit_3(args):
    res = run_cli(*args)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("usage: tgkz")


@pytest.mark.parametrize("args", [(), ("rank",)])
def test_missing_arguments_exit_3_and_help_exits_0(args):
    assert run_cli(*args).returncode == 3
    res = run_cli(*args, "-h")
    assert res.returncode == 0
    assert res.stdout.startswith("usage: tgkz")


# the largest Groebner run of z6_plane `ideals` reduces exactly 5 S-pairs
# after the pair criteria (10 without them), which pins the pair order and
# the criteria; mod4_line `ideals` reduces none, its `system` some
@pytest.mark.parametrize("spec,command,budget,rc", [
    ("mod4_line", "system", "1", 4),
    ("z6_plane", "ideals", "4", 4),
    ("z6_plane", "ideals", "5", 0),
    ("mod4_line", "ideals", "abc", 3),
    ("mod4_line", "ideals", "-1", 3),
])
def test_budget_exit_code(spec, command, budget, rc):
    res = run_cli(command, "--spec", str(SAMPLES / f"{spec}.json"),
                  env_extra={"TGKZ_PAIR_BUDGET": budget})
    assert res.returncode == rc, res.stderr
    if rc == 3:
        assert "INVALID_ENVIRONMENT" in res.stderr


def test_unstabilized_bound_exits_2_without_asserts():
    # under -O an assert would vanish and the short relation list would pass
    res = run_cli("system", "--spec", str(SAMPLES / "mod4_line.json"),
                  "--bound", "0", python_flags=("-O",))
    assert res.returncode == 2
    assert "NOT_STABILIZED" in res.stderr
    assert res.stdout == ""


def test_lost_box_point_exits_2_without_asserts():
    res = subprocess.run([sys.executable, "-O", "-c", LOSSY_BOX_CLI, "module",
                          "--spec", str(SAMPLES / "split_line.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "BOX_SCAN_INCOMPLETE" in res.stderr
    assert '"scale": 1' in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["ideals", "primes"])
def test_wrong_primes_exit_2_without_asserts(command):
    res = subprocess.run([sys.executable, "-O", "-c", WRONG_PRIMES_CLI, command,
                          "--spec", str(SAMPLES / "mod4_line.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "PRIMES_DO_NOT_INTERSECT" in res.stderr
    assert '"primes": 4' in res.stderr and '"torsion_orders": [4]' in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("script,command,code,context", [
    (INHOMOGENEOUS_CLI, "system", "NOT_HOMOGENEOUS", '"degrees": 2'),
    (RANK_MISMATCH_CLI, "dual", "RANK_MISMATCH", '"rank_dual": 3, "rank_primal": 2'),
    (SINGULAR_SPLIT_CLI, "dual", "SPLIT_SINGULAR", '"torsion_orders": [2]'),
])
def test_broken_invariant_exits_2_without_asserts(script, command, code, context):
    res = subprocess.run([sys.executable, "-O", "-c", script, command,
                          "--spec", str(SAMPLES / "split_line.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert code in res.stderr and context in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["ideals", "primes"])
def test_widened_prime_exits_2_without_asserts(command):
    # only the leading-term check of the prime certificate rejects this
    res = subprocess.run([sys.executable, "-O", "-c", WIDENED_PRIME_CLI, command,
                          "--spec", str(SAMPLES / "mod4_line.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "PRIMES_DO_NOT_INTERSECT" in res.stderr
    assert '"primes": 4' in res.stderr and '"torsion_orders": [4]' in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["ideals", "primes"])
def test_scaled_markov_binomial_exits_2_without_asserts(command):
    # twisting the free basis is sound only for elements x^a - x^b
    res = subprocess.run([sys.executable, "-O", "-c", SCALED_BINOMIAL_CLI, command,
                          "--spec", str(SAMPLES / "mod4_line.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "NOT_BINOMIAL" in res.stderr and '"coefficient": "-2"' in res.stderr
    assert res.stdout == ""


def test_non_invertible_element_exits_2_without_asserts():
    # on mod4_line3 the character values take negative powers of zeta(4),
    # and each, built untagged, is an inverse of an order-4 element
    res = subprocess.run([sys.executable, "-O", "-c", NOT_INVERTIBLE_CLI, "ideals",
                          "--spec", str(BENCH_SPECS / "mod4_line3.json")],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "NOT_INVERTIBLE" in res.stderr
    assert '"order": 4' in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["module", "rank"])
def test_geometry_reports_identical_under_optimize(spec_file, command):
    path = spec_file(SMALL_PRISM)
    plain = run_cli(command, "--spec", path)
    optimized = run_cli(command, "--spec", path, python_flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert plain.stdout == render(run_command(parse_spec(SMALL_PRISM), command))


@pytest.mark.parametrize("command", ["ideals", "primes"])
@pytest.mark.parametrize("text", [MOD4_LINE,
                                  (SAMPLES / "z6_plane.json").read_text(encoding="utf-8")],
                         ids=["mod4_line", "z6_plane"])
def test_ideal_reports_identical_under_optimize(spec_file, text, command):
    # the twisted primes rely on raised checks only, so -O prints the same
    path = spec_file(text)
    plain = run_cli(command, "--spec", path)
    optimized = run_cli(command, "--spec", path, python_flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert plain.stdout == render(run_command(parse_spec(text), command))


def test_rank_command_payload(spec_file):
    res = run_cli("rank", "--spec", spec_file(MOD4_LINE))
    assert res.returncode == 0
    assert json.loads(res.stdout)["rank"] == 8


def test_ideals_payload_and_note(spec_file):
    res = run_cli("ideals", "--spec", spec_file(MOD4_LINE))
    payload = json.loads(res.stdout)
    assert payload["ideals"]["free_toric"] == ["d1^2 - d2"]
    assert payload["ideals"]["full_toric"] == ["d1^8 - d2^4"]
    assert payload["ideals"]["power"] == ["d1^8 - d2^4"]
    assert len(payload["ideals"]["minimal_primes"]) == 4
    assert any("d1^4 - d2^2" in note for note in payload["notes"])


def test_out_flag_writes_file(spec_file, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("rank", "--spec", spec_file(SPLIT_LINE),
                  "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    assert json.loads(out.read_text())["rank"] == 2


def test_bound_flag_echoed(spec_file):
    res = run_cli("system", "--spec", spec_file(SPLIT_LINE), "--bound", "9")
    payload = json.loads(res.stdout)
    assert payload["settings"]["bounds"]["binomial_degree"] == 9
    assert payload["system"]["bounds"]["binomial_degree_bound"] == 9


def test_report_byte_identical_across_runs_and_workers(spec_file):
    path = spec_file(MOD4_LINE)
    outputs = [run_cli("report", "--spec", path).stdout for _ in range(3)]
    outputs.append(run_cli("report", "--spec", path, "--workers", "4").stdout)
    assert len(set(outputs)) == 1
    payload = json.loads(outputs[0])
    assert payload["analysis"]["rank"] == 8
    assert payload["analysis"]["duality"]["report"]["rank_dual"] == 8


def test_z6_plane_presentations_finish_and_report_is_deterministic():
    path = str(SAMPLES / "z6_plane.json")
    for command in ("system", "dual"):
        res = run_cli(command, "--spec", path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["settings"]["pair_budget"] == 5000
    outputs = [run_cli("report", "--spec", path, *extra)
               for extra in ([], [], ["--workers", "4"])]
    assert [res.returncode for res in outputs] == [0, 0, 0]
    assert len({res.stdout for res in outputs}) == 1


def test_dual_command_payload(spec_file):
    res = run_cli("dual", "--spec", spec_file(SPLIT_LINE))
    payload = json.loads(res.stdout)
    d = payload["dual"]
    assert d["report"]["dual_beta"] == ["-3/2"]
    assert d["character_split"]["determinant"] == "-2"
    assert d["character_split"]["matrix"] == [["1", "1"], ["1", "-1"]]


def test_explicit_module_commands(spec_file):
    text = json.dumps({
        "torsion_orders": [2],
        "columns": [{"torsion": [1], "free": [1]}],
        "beta": [0],
        "module": [{"torsion": [0], "free": [0]},
                   {"torsion": [0], "free": [2]}],
    })
    path = spec_file(text)
    res = run_cli("module", "--spec", path)
    payload = json.loads(res.stdout)
    assert payload["module"]["module"] == "explicit"
    assert payload["module"]["primitive_generators"] == \
        [{"torsion": [0], "free": [0]}]
    res = run_cli("rank", "--spec", path)
    assert res.returncode == 3
    assert "UNSUPPORTED_MODULE" in res.stderr
    res = run_cli("report", "--spec", path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["analysis"]["rank"] is None
    assert any("explicit" in note for note in payload["notes"])


def test_every_error_code_is_documented_with_its_exit_code():
    root = Path(__file__).resolve().parent.parent
    documented = dict(re.findall(r"^\| `([A-Z_]+)` \| (\d) \|",
                                 (root / "README.md").read_text(encoding="utf-8"), re.M))
    expected = {}
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.TgkzError) \
                and cls.code != errors.TgkzError.code:
            expected[cls.code] = "4" if issubclass(cls, errors.BudgetExceededError) else "2"
    # code="..." is SpecError's argument (or a helper raising SpecError): exit 3
    for path in sorted((root / "src" / "tgkz").glob("*.py")):
        for code in re.findall(r'code="([A-Z_]+)"', path.read_text(encoding="utf-8")):
            expected[code] = "3"
    assert {"BUDGET_EXCEEDED", "MALFORMED", "INVALID_ENVIRONMENT",
            "HYPOTHESIS_FAILED"} <= set(expected)
    assert {code: documented.get(code) for code in expected} == expected
