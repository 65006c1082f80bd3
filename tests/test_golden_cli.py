"""Every command's bytes and exit code, pinned byte for byte.

tests/golden/cli.jsonl holds one line per case: the case name, the
sha256 of what `main(argv)` wrote to stdout and to stderr, and its exit
code.  The cases run every command in every `--format` on catalog
inputs, `--help` of treealg and of each command, one usage error per
command (exit 64) and the data errors of bad inputs (exit 65).  Inputs
are written under fixed relative names into a scratch directory that is
the working directory while the cases run, so messages that quote a
path do not depend on where the directory is.  Help is wrapped at 80
columns.  The file was recorded before the parser was rebuilt around
one namespace per call.

Help and usage errors are text that argparse composes, and its wording
can differ between Python versions.  Those lines are marked "argparse";
their bytes are compared on the Python version that recorded the file
(the "python" field of each line), their exit code on every version.

To record the file again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from treealg.ampliation import TreeRefinementSpec, ampliate, build_tree_refinement_tower
from treealg.cli import main
from treealg.formats import graph_to_json

from catalog import (
    branching_graph,
    chain_graph,
    lambda_graph,
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from reference_kernel import spec_to_json, tower_to_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
PYTHON = "%d.%d" % sys.version_info[:2]
COMMANDS = (
    "check-tensor", "ampliate", "classify", "reduce", "iso",
    "supernatural", "verify-ckt", "norm", "emit-dot",
)


def inputs() -> dict[str, object]:
    """File name -> JSON document (or raw text) of every case input."""
    vee = {"vertices": ["p", "q", "s"], "edges": [["p", "s"], ["q", "s"]]}
    lam_spec = TreeRefinementSpec(lambda_tree(), (), 2)
    return {
        "yes.json": tower_to_json(triple_copy_tower(3)),
        "no.json": tower_to_json(refinement_tower(2, 2)),
        "inconclusive.json": tower_to_json(mixed_tower(2)),
        "standard.json": tower_to_json(standard_tower(2, 2)),
        "image.json": tower_to_json(standard_image_tower(2, 2)),
        "tree-rule.json": tower_to_json(build_tree_refinement_tower(lam_spec, 2)),
        "nest.json": {"levels": [{"blocks": [2]}], "maps": [], "rule": {"kind": "nest"}},
        "lambda.json": graph_to_json(lambda_graph()),
        "branching.json": graph_to_json(branching_graph()),
        "chain.json": graph_to_json(chain_graph(4)),
        "dag.json": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
        "two-parents.json": {"vertices": ["a", "b", "c"], "edges": [["a", "c"], ["b", "c"]]},
        "cycle.json": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
        "forest.json": {"vertices": ["a", "b"], "edges": []},
        "bad.json": "{nope",
        "spec-a.json": spec_to_json(lam_spec),
        "spec-b.json": spec_to_json(TreeRefinementSpec(ampliate(lambda_tree(), 2), (), 2)),
        "spec-chain.json": {"base": graph_to_json(chain_graph(3)), "stationary": 2},
        "spec-mult.json": spec_to_json(TreeRefinementSpec(lambda_tree(), (3,), 2)),
        "spec-sn.json": {"base": graph_to_json(lambda_graph()), "multiplicities": [6, 2], "stationary": 3},
        "vector.json": {"graph": vee, "amplitudes": [["p", "s", 3], ["q", "s", 4]]},
    }


def _formats(*names: str | None) -> list[list[str]]:
    return [[] if f is None else ["--format", f] for f in names]


def cases() -> list[tuple[str, list[str], bool]]:
    """(name, argv, argparse) for every pinned call."""
    out: list[tuple[str, list[str], bool]] = []

    def add(argv: list[str], argparse: bool = False) -> None:
        out.append((" ".join(argv), argv, argparse))

    text_json = _formats(None, "text", "json")
    graph_fmts = _formats(None, "text", "json", "dot")
    towers = ("yes", "no", "inconclusive", "standard", "image", "tree-rule", "nest")
    for tower in towers:
        for fmt in text_json:
            add(["check-tensor", f"{tower}.json", "--depth", "3", *fmt])
    add(["check-tensor", "standard.json"])
    add(["check-tensor", "standard.json", "--depth", "1"])
    add(["check-tensor", "image.json", "--depth", "2", "--format", "json"])
    for graph in ("lambda", "branching", "chain"):
        for fmt in graph_fmts:
            add(["ampliate", f"{graph}.json", "-l", "2", *fmt])
            add(["reduce", f"{graph}.json", *fmt])
    add(["ampliate", "lambda.json", "--multiplicity", "3", "--steps", "2"])
    add(["ampliate", "lambda.json", "-l", "5", "--steps", "0"])
    for a, b, bound in (
        ("a", "b", ["--bound", "2"]),
        ("a", "b", ["--bound", "0"]),
        ("a", "a", []),
        ("a", "chain", []),
        ("a", "mult", []),
    ):
        for fmt in text_json:
            add(["classify", f"spec-{a}.json", f"spec-{b}.json", *bound, *fmt])
    for a, b in (("lambda", "lambda"), ("lambda", "chain"), ("chain", "chain")):
        for fmt in text_json:
            add(["iso", f"{a}.json", f"{b}.json", *fmt])
    for spec in ("spec-a", "spec-mult", "spec-sn"):
        for fmt in text_json:
            add(["supernatural", f"{spec}.json", *fmt])
    for graph, cutoff in (("lambda", []), ("dag", ["--cutoff", "2"]), ("cycle", ["--cutoff", "3"])):
        for fmt in text_json:
            add(["verify-ckt", f"{graph}.json", *cutoff, *fmt])
    for fmt in text_json:
        add(["norm", "vector.json", *fmt])
    for graph in ("lambda", "chain", "dag", "cycle"):
        for fmt in _formats(None, "dot"):
            add(["emit-dot", f"{graph}.json", *fmt])

    add(["--help"], True)
    add([], True)
    add(["no-such-command"], True)
    for command in COMMANDS:
        add([command, "--help"], True)
    for argv in (
        ["check-tensor", "yes.json", "--depth", "0"],
        ["check-tensor", "yes.json", "--format", "dot"],
        ["ampliate", "lambda.json"],
        ["ampliate", "lambda.json", "-l", "0"],
        ["ampliate", "lambda.json", "-l", "2", "--steps", "-1"],
        ["classify", "spec-a.json", "spec-b.json", "--bound", "x"],
        ["reduce"],
        ["iso", "lambda.json"],
        ["supernatural", "spec-a.json", "--format", "dot"],
        ["verify-ckt", "lambda.json", "--cutoff", "0"],
        ["norm", "vector.json", "--bogus"],
        ["emit-dot", "lambda.json", "--format", "json"],
    ):
        add(argv, True)

    for argv in (
        ["ampliate", "two-parents.json", "-l", "2"],
        ["reduce", "two-parents.json"],
        ["ampliate", "cycle.json", "-l", "2"],
        ["iso", "lambda.json", "cycle.json"],
        ["ampliate", "forest.json", "-l", "2"],
        ["emit-dot", "bad.json"],
        ["check-tensor", "bad.json"],
        ["emit-dot", "absent.json"],
        ["check-tensor", "lambda.json"],
        ["classify", "spec-a.json", "lambda.json"],
        ["norm", "lambda.json"],
        ["ampliate", "lambda.json", "-l", "1000000", "--steps", "3"],
    ):
        add(argv)
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_inputs(directory: Path) -> None:
    for name, doc in inputs().items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")


def lines() -> list[dict]:
    """Run every case in the working directory, which holds the inputs."""
    got = []
    for name, argv, from_argparse in cases():
        code, out, err = run(argv)
        line = {"case": name, "stdout": _sha256(out), "stderr": _sha256(err), "exit": code}
        if from_argparse:
            line["argparse"] = True
            line["python"] = PYTHON
        got.append(line)
    return got


def _in_inputs_dir(tmp_path, monkeypatch) -> None:
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")


def test_cli_matches_golden_file(tmp_path, monkeypatch):
    _in_inputs_dir(tmp_path, monkeypatch)
    want = [json.loads(w) for w in GOLDEN.read_text(encoding="utf-8").splitlines()]
    got = lines()
    assert [g["case"] for g in got] == [w["case"] for w in want]
    for g, w in zip(got, want):
        if w.get("argparse") and w["python"] != PYTHON:
            assert g["exit"] == w["exit"], w["case"]
        else:
            assert g == w, w["case"]


def test_parser_reuse_gives_identical_results(tmp_path, monkeypatch):
    _in_inputs_dir(tmp_path, monkeypatch)
    valid = ["classify", "spec-a.json", "spec-b.json", "--bound", "2", "--format", "json"]
    assert run(["classify", "spec-a.json", "--bound", "x"])[0] == 64
    first = run(valid)
    assert first[0] == 0
    assert run(valid) == first
    # A default must not keep the value an earlier call gave its option.
    one_step = run(["ampliate", "lambda.json", "-l", "2"])
    assert run(["ampliate", "lambda.json", "-l", "2", "--steps", "2"]) != one_step
    assert run(["ampliate", "lambda.json", "-l", "2"]) == one_step


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        _write_inputs(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            recorded = lines()
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(g) + "\n" for g in recorded), encoding="utf-8")
