"""Tests of the benchmark's own code.  Run from the checkout root:

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from worker import SpeedSampler, check_report  # noqa: E402


def _job(text, oracle, sha256="same"):
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"sha256": digest if sha256 == "same" else sha256,
            "oracle": oracle}


def _dual_text(rank, dual_beta):
    return json.dumps({"command": "dual", "dual": {"report": {
        "rank_primal": rank, "rank_dual": rank, "dual_beta": dual_beta}}})


# --- reference and oracle checks -------------------------------------------

def test_check_passes_matching_hash_and_oracle():
    text = json.dumps({"command": "rank", "rank": 8})
    assert check_report(text, _job(text, {"rank": 8})) is None


def test_check_reports_hash_mismatch():
    text = json.dumps({"command": "rank", "rank": 8})
    failure = check_report(text, _job(text, {"rank": 8}, sha256="0" * 64))
    assert failure.startswith("sha256")


def test_check_reports_missing_reference():
    text = json.dumps({"command": "check"})
    assert check_report(text, _job(text, {}, sha256=None)) == \
        "no stored reference"


def test_check_reports_oracle_mismatch_even_when_hash_matches():
    text = _dual_text(4, ["-9/2", "-2", "-2"])
    assert check_report(text, _job(text, {"rank": 4, "dual_beta":
                                          ["-9/2", "-2", "-2"]})) is None
    failure = check_report(text, _job(text, {"rank": 6, "dual_beta":
                                             ["-9/2", "-2", "-1"]}))
    assert "rank 4 != 6" in failure and "dual_beta" in failure


def test_check_reports_missing_oracle_field():
    text = json.dumps({"command": "report", "analysis": {
        "rank": None, "duality": None}})
    failure = check_report(text, _job(text, {"rank": 2, "dual_beta": ["0"]}))
    assert "no rank" in failure and "no dual_beta" in failure


def test_oracles_are_hand_values():
    assert workloads.oracle("mod4_line", "rank", ROOT) == {"rank": 8}
    assert workloads.oracle("hex4", "rank", ROOT) == {"rank": 64}
    assert workloads.oracle("prism8_t2", "rank", ROOT) == {"rank": 256}
    assert workloads.oracle("split_line", "report", ROOT) == {
        "rank": 2, "dual_beta": ["-3/2"]}
    assert workloads.oracle("cube3", "dual", ROOT)["dual_beta"] == \
        ["-9/2", "-2", "-2"]
    assert workloads.oracle("plane_segment", "report", ROOT) == {
        "rank": 2, "dual_beta": ["-3", "-3"]}
    assert workloads.oracle("z6_plane", "primes", ROOT) == {}


def test_every_job_has_a_reference():
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        references = json.load(fh)
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, 0, ROOT, references):
            assert job["sha256"] is not None, job["name"]


# --- seed permutation --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_permutes_job_order_only(name):
    base = workloads.job_order(name)
    assert base == workloads.job_order(name, workloads.DEFAULT_SEED)
    assert base == workloads.job_order(name, workloads.DEFAULT_SEED)
    orders = [workloads.job_order(name, seed) for seed in range(1, 6)]
    assert any(order != base for order in orders)
    for order in orders:
        assert sorted(order, key=repr) == sorted(workloads.WORKLOADS[name],
                                                 key=repr)


def test_make_jobs_follows_the_seeded_order():
    jobs = workloads.make_jobs("geometry", 7, ROOT, {})
    assert [(j["name"], j["command"]) for j in jobs] == [
        (workloads.reference_key(spec, command), command)
        for spec, command, _ in workloads.job_order("geometry", 7)]


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 6.0, 0), (2.0, 3.0, 1)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # two worker-thread children overlap inside [2, 8]
    spans = [(0.0, 10.0, None), (2.0, 6.0, 0), (4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_self_time_clips_children_to_the_parent():
    spans = [(0.0, 5.0, None), (3.0, 7.0, 0)]
    assert tracing.self_times(spans) == [3.0, 4.0]


def test_outermost_counts_recursion_once():
    names = ["f", "g", "f", "f", "g"]
    parents = [None, 0, 1, 2, None]
    assert tracing.outermost(names, parents) == [True, True, False, False,
                                                 True]


# --- per-layer metric names -------------------------------------------------

def test_layer_value_resolves_names():
    traced = {"trace": {
        "jobs": {"functions": {
            "cyclotomic.Cyclotomic.inverse": {"calls": 4, "rational": 3,
                                              "time_s": 0.5, "self_s": 0.5},
            "poly.Polynomial.leading": {"calls": 9}},
            "layers": {"poly": {"calls": 9, "self_s": 0.0}}},
        "setup": {"functions": {
            "problem.parse_spec": {"calls": 2, "time_s": 0.25,
                                   "self_s": 0.25}},
            "layers": {}}}}
    assert run.layer_value("cyclotomic.inverse.rational_share", traced, 0) \
        == 0.75
    assert run.layer_value("cyclotomic.inverse.time_s", traced, 0) == 0.5
    assert run.layer_value("poly.Polynomial.leading.calls", traced, 0) == 9
    assert run.layer_value("poly.calls", traced, 0) == 9
    assert run.layer_value("setup.problem.parse_spec.time_s", traced, 0) \
        == 0.25
    assert run.layer_value("trace.overhead_s", traced, 1.5) == 1.5


def test_benchmark_metrics_resolve():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        list(run.end_to_end([{"wall_s": 1, "peak_rss_mb": 1,
                              "jobs": [{"seconds": 1}]}], [1]))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# --- traced worker -----------------------------------------------------------

def _worker(jobs, spans=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--t0",
           repr(time.monotonic())]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TGKZ_PAIR_BUDGET", None)
    proc = subprocess.run(cmd, input=json.dumps(jobs), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_worker_keeps_reports_and_sees_rebound_names(tmp_path):
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        references = json.load(fh)
    jobs = [j for j in workloads.make_jobs("presentation", 0, ROOT, references)
            if j["name"] in ("split_line:report", "mod3_line:dual")]
    plain = _worker(jobs)
    traced = _worker(jobs, tmp_path / "spans.jsonl")
    assert [j["failure"] for j in plain["jobs"] + traced["jobs"]] == [None] * 4
    assert [j["sha256"] for j in plain["jobs"]] == \
        [j["sha256"] for j in traced["jobs"]]
    functions = traced["trace"]["jobs"]["functions"]
    # only systems calls it, through `from .poly import module_normal_form`
    assert functions["poly.module_normal_form"]["calls"] > 0
    assert functions["systems.bbgkz_primitive_presentation"]["calls"] == 3
    assert traced["trace"]["setup"]["functions"]["problem.parse_spec"][
        "calls"] == 2
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["job"] for s in spans} == {"setup", "split_line:report",
                                         "mod3_line:dual"}
    assert all(s["parent"] is None or s["parent"] < i
               for i, s in enumerate(spans))


# --- speed scaling ------------------------------------------------------------

def test_scaled_time_drops_sampling_time_and_uses_nearby_speed():
    n = worker.NOMINAL_CAL_S
    sampler = object.__new__(SpeedSampler)
    sampler.samples = [(1.0, n), (3.0, 2 * n), (5.0, 2 * n), (9.0, n)]
    # two samples inside at half speed, the last one before at full speed
    assert sampler.scaled(2.0, 6.0) == pytest.approx((4.0 - 4 * n) * 3 / 5)
    # no sample inside: the last one before sets the speed
    assert sampler.scaled(5.5, 6.0) == pytest.approx(0.25)
