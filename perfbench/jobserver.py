"""Job server: runs each requested CLI job in a child forked from a
process that has imported treealg.cli and run nothing else.

Every job therefore starts from what a fresh `treealg` process sees
after its imports: no process-global cache carries results from one job
to the next, and the parent holds no job data, so a child's peak RSS is
its own.  Requests and replies are JSON lines on stdin and stdout.  The
job time is measured inside the child around `main(argv)`; CPU time and
peak RSS come from wait4.

Run by run.py with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import treealg
import treealg.cli

from spans import Tracer

# A job running longer than this is killed and counted as failed.
JOB_LIMIT_S = 100


def _child(req: dict, wfd: int) -> None:
    signal.alarm(JOB_LIMIT_S)
    out = open(req["out"], "w", encoding="utf-8")
    err = open(req["err"], "w", encoding="utf-8")
    os.dup2(out.fileno(), 1)
    os.dup2(err.fileno(), 2)
    sys.stdout, sys.stderr = out, err
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
    main = treealg.cli.main
    start = time.perf_counter_ns()
    try:
        rc = main(req["argv"])
    except Exception:
        traceback.print_exc()
        rc = None
    out.flush()
    elapsed = time.perf_counter_ns() - start
    reply = {"rc": rc, "ns": elapsed}
    if tracer is not None:
        reply["trace"] = tracer.summary()
        tracer.dump(req["spans"])
    out.close()
    err.close()
    with os.fdopen(wfd, "wb") as pipe:
        pipe.write(json.dumps(reply).encode())


def serve() -> None:
    numpy = sys.modules.get("numpy")
    hello = {
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "treealg": os.path.dirname(treealg.__file__),
    }
    sys.stdout.write(json.dumps(hello) + "\n")
    sys.stdout.flush()
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        req = json.loads(line)
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                os.close(rfd)
                _child(req, wfd)
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as pipe:
            data = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        reply = json.loads(data) if data else {"rc": None, "ns": None}
        reply["cpu_s"] = usage.ru_utime + usage.ru_stime
        reply["maxrss_kb"] = usage.ru_maxrss
        if os.WIFSIGNALED(status):
            reply["signal"] = os.WTERMSIG(status)
        elif os.WEXITSTATUS(status) != 0:
            reply["child_exit"] = os.WEXITSTATUS(status)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
