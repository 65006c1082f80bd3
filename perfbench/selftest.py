"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that each workload's jobs all pass their output checks, that the
result objects carry exactly the metrics BENCHMARK.json names with the
units it gives, and that the traced passes reproduce the untraced
outputs byte for byte.  Takes well under a minute.
"""

from __future__ import annotations

import json
import numbers
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert isinstance(metric["value"], numbers.Real), (name, metric)
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])


def test_declared_names() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    # A declared span time or call count must name a traced span or a layer.
    known = {name for name, _, _ in spans.TARGETS} | set(spans.LAYERS)
    for m in SPEC["per_layer"]:
        base, _, kind = m["name"].rpartition(".")
        if kind in ("self_s", "calls"):
            assert base in known, m["name"]


def test_untraced_runs() -> None:
    for workload in WORKLOADS:
        result = run.run_workload(workload, 0, 0.0, trace=False, tiny=True)
        _check_result(result, SPEC["end_to_end"])
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_runs_match_untraced_outputs() -> None:
    for workload in WORKLOADS:
        result = run.run_workload(workload, 0, 0.0, trace=True, tiny=True)
        _check_result(result, SPEC["per_layer"])
        records = json.loads(
            (HERE / "out" / f"{workload}-seed0-trace1-tiny" / "records.json").read_text()
        )
        assert records["header"]["passes"] == 2
        for job in records["jobs"]:
            assert job["traced"] == [False, True], job["name"]
            untraced, traced = job["digests"]
            assert traced == untraced, job["name"]
            assert not job["errors"], (job["name"], job["errors"])
        layer_time = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in run.LAYERS)
        assert layer_time > 0


if __name__ == "__main__":
    for test in (test_declared_names, test_untraced_runs, test_traced_runs_match_untraced_outputs):
        test()
        print(f"{test.__name__}: ok")
