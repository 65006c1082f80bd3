"""The treealg benchmark: seeded batches of CLI jobs, one job at a time.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The script writes one workload's
inputs from the seed (see workloads.py), starts the job server
(jobserver.py), and sends it the whole job list again and again until
--seconds have passed, at least once.  Each job runs in its own forked
child.  Outside the timed region every job's output is checked: its
exit code or content against what its family fixes, its bytes against
the first pass, and, for seeds 0-20, against the digests recorded in
digests.json (see record_digests.py).  A job that fails any check
counts as failed.

--trace 0 prints the end-to-end metrics:

  setup_s      median over several fresh interpreters of the time from
               interpreter start until `treealg.cli` is imported
  wall_s       sum of the job times of one pass (median over passes)
  job_p50_ms   median job time (each job's median over passes)
  job_p90_ms   90th percentile of the same; every workload has over 100
               jobs, so more than 10 lie beyond it
  job_max_s    time of the workload's top rung, its largest job
  cpu_s        user plus system time of the job processes of one pass
  peak_rss_mb  largest RSS of any job process
  ok_frac      jobs that passed over jobs attempted, that is 1 - fail_frac;
               the result's failed and attempted give fail_frac itself

--trace 1 runs untraced and traced passes in turn and prints the
per-layer metrics from spans.py: self time and calls per span and per
layer, counters, and the tracing overhead.

The last line of stdout is the JSON result.  Per-job records (sizes,
times, layer self times) and a header go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

SETUP_RUNS = 9
DIGESTS = HERE / "digests.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(seed: int) -> dict:
    """Environment of every interpreter the benchmark starts.

    BLAS thread pools are capped at the core count before numpy loads.
    String hashing is seeded from the benchmark seed, so a rerun visits
    sets of vertex names in the same order.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from interpreter start until treealg.cli is imported."""
    code = "import treealg.cli, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT)
        ready = proc.stdout.read(2)
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or ready != b"ok":
            raise RuntimeError("treealg.cli does not import from src/")
    return times


class Server:
    """The job server process; one request in flight at a time."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "jobserver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("the job server did not start")
        self.hello = json.loads(line)
        if Path(self.hello["treealg"]).resolve() != (SRC / "treealg").resolve():
            self.close()
            raise RuntimeError(f"treealg was imported from {self.hello['treealg']}, not src/")

    def run(self, job: Job, outdir: Path, trace: bool) -> dict:
        stem = outdir / job.name
        req = {
            "argv": job.argv, "out": f"{stem}.out", "err": f"{stem}.err",
            "trace": trace, "spans": f"{stem}.spans.json",
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job server stopped")
        reply = json.loads(line)
        out = Path(req["out"]).read_bytes()
        reply["digest"] = hashlib.sha256(f"{reply['rc']}\n".encode() + out).hexdigest()[:16]
        reply["out_bytes"] = len(out)
        reply["error"] = check_output(job, reply, out)
        return reply

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check_output(job: Job, reply: dict, out: bytes) -> str | None:
    """Why the job's result is wrong, or None when it passes its check."""
    rc = reply["rc"]
    if rc is None or "signal" in reply or "child_exit" in reply:
        return f"crashed (exit {rc}, signal {reply.get('signal')})"
    check = job.check
    if "exit" in check and rc not in check["exit"]:
        return f"exit {rc}, expected one of {check['exit']}"
    if "vertices" in check or "ckt_ok" in check:
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if "vertices" in check and len(doc.get("vertices", ())) != check["vertices"]:
            return f"{len(doc.get('vertices', ()))} vertices, expected {check['vertices']}"
        if "ckt_ok" in check and doc.get("ok") is not True:
            return "verify-ckt report is not ok"
    return None


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_passes(server: Server, jobs: list[Job], outdir: Path, seconds: float, modes: list[bool]) -> list[list[dict]]:
    """Passes over the job list, cycling through modes (False untraced,
    True traced), until the time is up and every mode ran once."""
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        trace = modes[len(passes) % len(modes)]
        began = time.perf_counter()
        passes.append([dict(server.run(job, outdir, trace), traced=trace) for job in jobs])
        last = time.perf_counter() - began
        ran_all = len(passes) >= len(modes)
        if ran_all and time.perf_counter() - start + last > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(jobs: list[Job], passes: list[list[dict]], setup: list[float], failed: int, attempted: int) -> dict:
    """The end_to_end metrics BENCHMARK.json names, by name."""
    per_job = [statistics.median(p[k]["ns"] for p in passes) / 1e9 for k in range(len(jobs))]
    top = next(k for k, job in enumerate(jobs) if job.top)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["ns"] for r in p) / 1e9 for p in passes),
        "job_p50_ms": statistics.median(per_job) * 1e3,
        "job_p90_ms": percentile(per_job, 90) * 1e3,
        "job_max_s": per_job[top],
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "peak_rss_mb": max(r["maxrss_kb"] for p in passes for r in p) / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(jobs: list[Job], passes: list[list[dict]]) -> dict:
    """The per_layer metrics BENCHMARK.json names, by name.

    <span>.self_s and <layer>.self_s are medians over the traced passes.
    Calls and counters come from the last traced pass; they repeat
    exactly from pass to pass.
    """
    traced = [p for p in passes if p[0]["traced"]]
    plain = [p for p in passes if not p[0]["traced"]]
    last = [r["trace"] for r in traced[-1]]

    def self_s(p: list[dict], name: str) -> float:
        return sum(v for r in p for n, v in r["trace"]["self_s"].items() if name in (n, n.split(".")[0]))

    def count(kind: str, name: str) -> int:
        return sum(t[kind].get(name, 0) for t in last)

    def total(p: list[dict]) -> float:
        return sum(r["ns"] for r in p)

    candidates = count("counters", "classify.candidates")
    special = {
        "tower.max_units": max(t["counters"]["tower.max_units"] for t in last),
        "classify.hit_ratio": count("counters", "classify.equivalent") / candidates if candidates else 0.0,
        "formats.in_bytes": sum(job.size["in_bytes"] for job in jobs),
        "formats.out_bytes": sum(r["out_bytes"] for r in traced[-1]),
        "trace.overhead_frac": statistics.median(map(total, traced)) / statistics.median(map(total, plain)) - 1,
        "trace.spans": sum(t["spans"] for t in last),
    }
    metrics = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = statistics.median(self_s(p, name.removesuffix(".self_s")) for p in traced)
        elif name.endswith(".calls"):
            metrics[name] = count("calls", name.removesuffix(".calls"))
        else:
            metrics[name] = count("counters", name)
    return metrics


def job_records(jobs: list[Job], passes: list[list[dict]]) -> list[dict]:
    out = []
    for k, job in enumerate(jobs):
        runs = [p[k] for p in passes]
        rec = {
            "name": job.name, "family": job.family, "argv": job.argv, "top": job.top,
            "size": job.size, "time_s": [r["ns"] / 1e9 for r in runs],
            "traced": [r["traced"] for r in runs], "cpu_s": [r["cpu_s"] for r in runs],
            "rss_mb": max(r["maxrss_kb"] for r in runs) / 1024, "exit": runs[0]["rc"],
            "digests": [r["digest"] for r in runs], "errors": [r["error"] for r in runs if r["error"]],
        }
        layers = [r["trace"] for r in runs if r["traced"]]
        if layers:
            rec["layer_self_s"] = {
                layer: sum(v for n, v in layers[-1]["self_s"].items() if n.split(".")[0] == layer)
                for layer in LAYERS
            }
        out.append(rec)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload, write its records, and return the result object."""
    outdir = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = child_env(seed)

    setup = [] if trace else measure_setup(env)
    jobs = make_jobs(workload, seed, outdir / "inputs", tiny)
    for job in jobs:
        job.size["in_bytes"] = sum(os.path.getsize(a) for a in job.argv if a.endswith(".json"))

    server = Server(env)
    try:
        passes = run_passes(server, jobs, outdir, seconds, [False, True] if trace else [False])
    finally:
        server.close()

    # Every pass must reproduce the first (untraced) pass byte for byte,
    # and the recorded outputs where the seed has them.
    expected = None if tiny else recorded_digests(workload, seed)
    for p in passes:
        for k, r in enumerate(p):
            if r["error"] is None and r["digest"] != passes[0][k]["digest"]:
                r["error"] = "output differs from the first pass"
            if r["error"] is None and expected is not None and r["digest"] != expected[k]:
                r["error"] = "output differs from the recorded digest"
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["error"])
    if trace:
        values, declared = per_layer(jobs, passes), SPEC["per_layer"]
    else:
        values, declared = end_to_end(jobs, passes, setup, failed, attempted), SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    header = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "seconds": seconds, "commit": commit_of(ROOT), "python": server.hello["python"],
        "numpy": server.hello["numpy"], "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(jobs), "passes": len(passes), "digests_checked": expected is not None,
        "setup_s": setup, "metrics": {k: m["value"] for k, m in metrics.items()},
    }
    records = {"header": header, "jobs": job_records(jobs, passes)}
    (outdir / "records.json").write_text(json.dumps(records, indent=1) + "\n")
    for p in passes:
        for job, r in zip(jobs, p):
            if r["error"]:
                print(f"run.py: {job.name} ({job.family}) failed: {r['error']}", file=sys.stderr)
    print(
        f"run.py: {len(jobs)} jobs x {len(passes)} passes, {failed} failed; digests "
        f"{'checked' if expected is not None else 'not recorded for this seed'}; "
        f"records in {outdir.relative_to(ROOT)}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treealg" / "cli.py").is_file():
        print(f"run.py: no treealg sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
