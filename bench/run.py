"""Benchmark of tgkz: time to a correct report, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workloads, metrics and bounds are in
BENCHMARK.json; the job lists are in bench/workloads.py.

Each round is one fresh Python process (bench/worker.py) that imports tgkz
from ``src/``, parses the specs, then runs the job list one job at a time
(closed loop, one client), so the library's caches start cold as in a CLI
run and are shared only between jobs of that round.  After each round,
SETUP_PROBES more workers only set up, so set-up time has more samples.
Rounds repeat until the next one would end after ``--seconds`` (at least
MIN_ROUNDS), and each end-to-end metric is the median over rounds.  Times
are scaled to a nominal machine speed measured while they ran (see
worker.SpeedSampler); the raw times are printed and kept beside them.  The
seed permutes the job order; workers receive only the resulting job list.
Workers run with the default Groebner pair budget (TGKZ_PAIR_BUDGET unset)
and PYTHONHASHSEED=0.

Every report is checked against the hash stored in bench/references.json
and against oracle values (rank, dual parameter) computed here.  A failed
check counts in ``failed`` and never stops the other jobs.

With ``--trace 1`` untraced and traced rounds alternate.  Traced rounds
wrap the library's public functions from outside (bench/tracing.py) and
give the per-layer metrics: counts, which must repeat exactly, and the
median of each time.  ``trace.overhead_s`` is the traced minus the untraced
median ``wall_s``, and traced reports must be byte-identical to untraced
ones.  Spans and per-round details are written under bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3
# Set-up-only workers started after each round, so that set-up time is a
# median over several times as many samples as there are rounds.
SETUP_PROBES = 3
# No round starts that could end after this many seconds of the run, and a
# worker still running at RUN_LIMIT_S is killed: a run must end within 180 s.
HARD_CAP_S = 140
RUN_LIMIT_S = 170


class RoundError(Exception):
    pass


def run_worker(jobs, deadline, *flags):
    """Run the job list in a fresh worker process; returns its result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    env.pop("TGKZ_PAIR_BUDGET", None)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(t0),
           *flags]
    try:
        proc = subprocess.run(cmd, input=json.dumps(jobs), capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RoundError("a round did not finish within the run's time limit")
    if proc.returncode != 0:
        raise RoundError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(jobs, seconds, traced, prefix):
    """Repeat one step until the next would end after `seconds`: an untraced
    round, then a traced round when traced, else SETUP_PROBES set-up-only
    workers.  Returns the untraced rounds, the traced rounds and every
    set-up time."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, marked, setups, steps = [], [], [], []
    minimum = 1 if traced else MIN_ROUNDS
    while True:
        elapsed = time.monotonic() - start
        if steps:
            step = statistics.median(steps)
            if elapsed + step > HARD_CAP_S or (
                    len(plain) >= minimum and elapsed + step > seconds):
                break
        step_start = time.monotonic()
        plain.append(run_worker(jobs, deadline))
        setups.append(plain[-1]["setup_s"])
        if traced:
            spans = os.path.join(OUT, f"{prefix}-spans{len(marked)}.jsonl")
            marked.append(run_worker(jobs, deadline, "--spans", spans))
        else:
            for _ in range(SETUP_PROBES):
                setups.append(
                    run_worker(jobs, deadline, "--setup-only")["setup_s"])
        steps.append(time.monotonic() - step_start)
    return plain, marked, setups


def end_to_end(rounds, setups):
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "slowest_job_s": statistics.median(
            max(j["seconds"] for j in r["jobs"]) for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def layer_value(name, traced_round, overhead):
    """One per-layer metric from one traced round.

    Names are ``trace.overhead_s``, ``<layer>.<stat>`` for a whole layer or
    ``<layer>.<function>.<stat>``; they cover the jobs, or set-up when
    prefixed with ``setup.``."""
    if name == "trace.overhead_s":
        return overhead
    phase = "jobs"
    if name.startswith("setup."):
        phase, name = "setup", name[len("setup."):]
    stats = traced_round["trace"][phase]
    parts = name.split(".")
    if len(parts) == 2:
        return stats["layers"][parts[0]][parts[1]]
    function, stat = ".".join(parts[:-1]), parts[-1]
    entry = stats["functions"][tracing.ALIASES.get(function, function)]
    if stat == "rational_share":
        return entry["rational"] / entry["calls"] if entry["calls"] else 0.0
    return entry[stat]


def per_layer(names, plain, marked, notes):
    """Counts must repeat exactly between traced rounds; times are medians."""
    overhead = (statistics.median(r["wall_s"] for r in marked)
                - statistics.median(r["wall_s"] for r in plain))
    out = {}
    for name in names:
        values = [layer_value(name, r, overhead) for r in marked]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                notes.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
    return out


def preflight():
    missing = [p for p in ["src/tgkz/__init__.py", "BENCHMARK.json"]
               + [path for path, _ in workloads.SPECS.values()]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"error: run from the root of a tgkz checkout; missing "
                 f"{', '.join(missing)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    # Compile once, untimed, so set-up time measures imports, not bytecode.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = preflight()
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed, ROOT, references)

    try:
        plain, marked, setups = run_rounds(
            jobs, args.seconds, bool(args.trace),
            f"{args.workload}-seed{args.seed}")
    except RoundError as exc:
        sys.exit(f"error: {exc}")

    notes = []
    attempted = failed = 0
    for r in plain + marked:
        for job in r["jobs"]:
            attempted += 1
            if job["failure"]:
                failed += 1
                notes.append(f"{job['name']}: {job['failure']}")
    for p, t in zip(plain, marked):
        for pj, tj in zip(p["jobs"], t["jobs"]):
            if pj["sha256"] != tj["sha256"]:
                failed += 1
                notes.append(f"{tj['name']}: traced report differs from "
                             "untraced")

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer([m["name"] for m in bench[kind]], plain, marked,
                           notes)
    else:
        values = end_to_end(plain, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kind]}

    first = plain[0]
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(marked)} traced rounds of "
          f"{len(jobs)} jobs; python {first['python']}, effective "
          f"TGKZ_PAIR_BUDGET {first['pair_budget']} (default), "
          "PYTHONHASHSEED 0")
    for r in plain:
        print(f"# round: wall_s {r['wall_s']:.4f} (raw {r['raw_wall_s']:.4f}) "
              f"setup_s {r['setup_s']:.4f} (raw {r['raw_setup_s']:.4f}) "
              f"peak_rss_mb {r['peak_rss_mb']:.1f}")
    for note in notes:
        print(f"# {note}")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "jobs": jobs, "untraced": plain,
                   "traced": marked, "notes": notes, "metrics": metrics},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
