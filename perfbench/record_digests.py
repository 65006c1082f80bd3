"""Record the output digests that run.py compares against.

    python3 perfbench/record_digests.py [FIRST LAST]

Runs every job of every workload once, for each seed from FIRST to LAST
(default 0 to 20), and writes perfbench/digests.json.  A job's digest
covers its exit code and its stdout bytes.  Record only at a commit
whose outputs are known good: later runs treat any difference as a
failed job.  Refuses to record when a job fails its own output check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS, make_jobs


def record(seeds: range) -> dict:
    digests: dict[str, dict[str, list[str]]] = {w: {} for w in WORKLOADS}
    for seed in seeds:
        outdir = run.HERE / "out" / f"record-seed{seed}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        server = run.Server(run.child_env(seed))
        try:
            for workload in WORKLOADS:
                jobs = make_jobs(workload, seed, outdir / workload)
                replies = [server.run(job, outdir, trace=False) for job in jobs]
                bad = [(job.name, r["error"]) for job, r in zip(jobs, replies) if r["error"]]
                if bad:
                    raise SystemExit(f"record_digests.py: seed {seed}: failed jobs {bad}")
                digests[workload][str(seed)] = [r["digest"] for r in replies]
                print(f"seed {seed} {workload}: {len(jobs)} jobs", file=sys.stderr)
        finally:
            server.close()
    return digests


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 20)
    digests = record(range(first, last + 1))
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
