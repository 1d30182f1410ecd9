"""One benchmark round: a fresh Python process that runs a job list.

Reads the job list (JSON) on stdin, imports tgkz from the checkout's
``src/``, parses every spec, then runs the jobs one at a time through
``parse_spec`` -> ``run_command`` -> ``render`` and checks each report.
Prints one JSON object with the timings, the check results and, when
traced, the per-function statistics.

    python3 bench/worker.py --t0 <monotonic start> [--spans FILE]
                            [--setup-only] < jobs.json

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start.  ``--spans`` turns on
tracing and names the file the spans are written to at the end.
``--setup-only`` stops after set-up and prints only its time.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
import traceback
from fractions import Fraction


def check_report(text, job):
    """Why the report fails the job's checks, or None if it passes.

    The stored reference hash catches any byte change; the oracle values
    catch a wrong reference or a change in the fields they cover."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    problems = []
    if job["sha256"] is None:
        problems.append("no stored reference")
    elif digest != job["sha256"]:
        problems.append(f"sha256 {digest[:12]} != reference {job['sha256'][:12]}")
    want = job["oracle"]
    if want:
        payload = json.loads(text)
        command = payload["command"]
        ranks, betas = [], []
        if command == "rank":
            ranks = [payload["rank"]]
        elif command == "dual":
            rep = payload["dual"]["report"]
            ranks = [rep["rank_primal"], rep["rank_dual"]]
            betas = [rep["dual_beta"]]
        elif command == "report":
            analysis = payload["analysis"]
            ranks = [analysis["rank"]] if analysis["rank"] is not None else []
            if analysis["duality"] is not None:
                betas = [analysis["duality"]["report"]["dual_beta"]]
        if "rank" in want and not ranks:
            problems.append("report carries no rank")
        problems += [f"rank {r} != {want['rank']}" for r in ranks
                     if r != want["rank"]]
        if "dual_beta" in want and not betas:
            problems.append("report carries no dual_beta")
        problems += [f"dual_beta {b} != {want['dual_beta']}" for b in betas
                     if b != want["dual_beta"]]
    return "; ".join(problems) or None


# Seconds calibrate() takes on a quiet machine of the kind this benchmark
# was written on (2 vCPUs, Python 3.11).  A shared host can run the same
# code at half speed for seconds or minutes at a time, so every time is
# scaled by NOMINAL_CAL_S over the calibrations measured while it ran, and
# reads as seconds at that quiet speed.  Raw times are kept beside them.
NOMINAL_CAL_S = 0.0025
SAMPLE_EVERY_S = 0.1
SETTLE_SAMPLES = 9


def calibrate():
    """Seconds for one pass of a fixed loop of the Fraction and dict work
    tgkz does: the machine's current speed, independent of the library."""
    t = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 7, i % 11 + 1)
        table[(i, i % 13)] = acc
    return time.perf_counter() - t


class SpeedSampler:
    """Runs calibrate() SETTLE_SAMPLES times at once, then every
    SAMPLE_EVERY_S of wall time from a SIGALRM handler on the main thread, so
    slow spells inside a long job are seen.  No sample is taken while other
    threads run: they would compete with the calibration for the
    interpreter lock."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, seconds)
        for _ in range(SETTLE_SAMPLES):
            self.sample()
        self.start_speed = statistics.median(s for _, s in self.samples)
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def sample(self):
        if threading.active_count() == 1:
            seconds = calibrate()
            self.samples.append((time.perf_counter(), seconds))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start, end):
        """Seconds from start to end, less the time spent sampling, at the
        nominal speed: scaled by the samples taken meanwhile and the last
        one before."""
        inside = [s for t, s in self.samples if start <= t <= end]
        before = [s for t, s in self.samples if t < start][-1:]
        speed = statistics.mean(inside + before)
        return (end - start - sum(inside)) * NOMINAL_CAL_S / speed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    jobs = json.load(sys.stdin)
    root = os.getcwd()

    tracer = None
    if args.spans:
        import tracing
        import tgkz
        tracer = tracing.install(tgkz)
    from tgkz import poly, problem, report
    src = os.path.join(root, "src", "tgkz")
    if os.path.dirname(os.path.abspath(problem.__file__)) != src:
        sys.exit(f"tgkz was imported from {problem.__file__}, not {src}")

    specs = {}
    for job in jobs:
        if job["spec"] not in specs:
            with open(job["spec"], encoding="utf-8") as fh:
                specs[job["spec"]] = problem.parse_spec(fh.read())
    setup_s = time.monotonic() - args.t0

    sampler = SpeedSampler()
    setup = {"setup_s": setup_s * NOMINAL_CAL_S / sampler.start_speed,
             "raw_setup_s": setup_s}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(setup))
        return
    results = []
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        start = time.perf_counter()
        digest = None
        try:
            payload = report.run_command(specs[job["spec"]], job["command"],
                                         workers=job["workers"])
            text = report.render(payload)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            failure = check_report(text, job)
        except Exception as exc:  # one failing job must not stop the others
            failure = "".join(traceback.format_exception_only(exc)).strip()
        end = time.perf_counter()
        results.append({"name": job["name"],
                        "seconds": sampler.scaled(start, end),
                        "raw_seconds": end - start, "sha256": digest,
                        "failure": failure})
    sampler.stop()
    if tracer:
        stats = tracer.summary()
        tracer.write_spans(args.spans, [job["name"] for job in jobs])

    out = {
        **setup,
        "wall_s": sum(job["seconds"] for job in results),
        "raw_wall_s": sum(job["raw_seconds"] for job in results),
        "calibration_s": [s for _, s in sampler.samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pair_budget": poly.default_pair_budget(),
        "python": sys.version.split()[0],
        "jobs": results,
    }
    if tracer:
        out["trace"] = stats
    print(json.dumps(out))


if __name__ == "__main__":
    main()
