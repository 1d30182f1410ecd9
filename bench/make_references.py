"""Write bench/references.json: the sha256 of every workload job's report.

    python3 bench/make_references.py

Run from the root of a checkout of the commit whose reports are the
reference.  Refuses to write if any job raises or fails an oracle check.
"""

import json
import os
import sys
import time

import run
import workloads


def main():
    run.preflight()
    references, problems = {}, []
    for name in sorted(workloads.WORKLOADS):
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED, run.ROOT, {})
        result = run.run_worker(jobs, time.monotonic() + 600)
        for job in result["jobs"]:
            references[job["name"]] = job["sha256"]
            rest = job["failure"].replace("no stored reference", "").strip("; ")
            if rest:
                problems.append(f"{job['name']}: {rest}")
    if problems:
        sys.exit("not written:\n" + "\n".join(problems))
    with open(os.path.join(run.HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
