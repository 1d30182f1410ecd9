"""Workload job lists and the oracle values the benchmark checks reports with.

A job is one ``(spec, command)`` pair run through ``parse_spec`` ->
``run_command`` -> ``render``, the path ``tgkz.cli.main`` takes.  Spec paths
are relative to the checkout root; ``sample_specs/`` is read, never written.
"""

import json
import random
from fractions import Fraction
from math import prod

# Normalized volume (unit simplex = 1) of each spec's cone, worked out by
# hand from the column free parts, so `rank` = torsion order x volume is an
# oracle independent of the library's triangulation code.
SPECS = {
    "mod4_line": ("sample_specs/mod4_line.json", 2),
    "plane_segment": ("sample_specs/plane_segment.json", 2),
    "split_line": ("sample_specs/split_line.json", 1),
    "mod6_line": ("bench/specs/mod6_line.json", 2),
    "z3_plane": ("bench/specs/z3_plane.json", 2),
    "cube3": ("bench/specs/cube3.json", 2),          # unit square
    "mod2_plane": ("bench/specs/mod2_plane.json", 2),
    "mod3_line": ("bench/specs/mod3_line.json", 2),
    "mod4_line3": ("bench/specs/mod4_line3.json", 3),
    "z6_plane": ("bench/specs/z6_plane.json", 3),
    "z2z2_line": ("bench/specs/z2z2_line.json", 2),
    "mod8_line": ("bench/specs/mod8_line.json", 2),
    "prism6_int": ("bench/specs/prism6_int.json", 2 * 6 * 6),  # 6x6 square
    "prism8_int": ("bench/specs/prism8_int.json", 2 * 8 * 8),
    "prism8_t2": ("bench/specs/prism8_t2.json", 2 * 8 * 8),
    "hex4": ("bench/specs/hex4.json", 4 ** 3),                 # 4 x unit 3-simplex
}

# (spec, command, workers).  Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "presentation": [
        ("mod4_line", "report", None),
        ("plane_segment", "report", None),
        ("split_line", "report", None),
        ("mod6_line", "system", None),
        ("z3_plane", "system", None),
        ("z3_plane", "dual", None),
        ("cube3", "dual", None),
        ("mod2_plane", "system", None),
        ("mod3_line", "dual", None),
    ],
    "ideals": [
        (spec, command, 2)
        for spec in ("mod4_line3", "z6_plane", "z2z2_line", "mod8_line",
                     "mod6_line")
        for command in ("ideals", "primes")
    ],
    "geometry": [
        (spec, command, None)
        for spec in ("prism6_int", "prism8_int", "prism8_t2", "hex4")
        for command in ("check", "module", "rank")
    ],
}

DEFAULT_SEED = 0


def job_order(workload, seed=DEFAULT_SEED):
    """The workload's jobs in the order the seed fixes."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def reference_key(spec, command):
    return f"{spec}:{command}"


def oracle(spec, command, root):
    """Values a correct report must carry, computed without the library:
    rank = torsion order x normalized volume, and the dual parameter
    -beta - (sum of the column free parts)."""
    path, volume = SPECS[spec]
    with open(f"{root}/{path}", encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    if command in ("rank", "dual", "report"):
        out["rank"] = prod(raw.get("torsion_orders", [])) * volume
    standard = raw.get("module", "K") in ("K", "K_interior")
    if command == "dual" or (command == "report" and standard):
        sums = [sum(col["free"][i] for col in raw["columns"])
                for i in range(len(raw["beta"]))]
        out["dual_beta"] = [str(-Fraction(b) - s)
                            for b, s in zip(raw["beta"], sums)]
    return out


def make_jobs(workload, seed, root, references):
    """The job list a run hands to its worker processes: spec path, command,
    worker count and what the report must match."""
    jobs = []
    for spec, command, workers in job_order(workload, seed):
        key = reference_key(spec, command)
        jobs.append({
            "name": key,
            "spec": SPECS[spec][0],
            "command": command,
            "workers": workers,
            "sha256": references.get(key),
            "oracle": oracle(spec, command, root),
        })
    return jobs
