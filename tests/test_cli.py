"""Exit codes, output formats, and error reporting of the front end."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg import cli
from treealg.ampliation import TreeRefinementSpec, ampliate, build_tree_refinement_tower
from treealg.cli import _json_text, main
from treealg.embeddings import standard_embedding
from treealg.formats import graph_to_json
from treealg.graphs import DirectedGraph, OutForest
from treealg.tower import Tower

from catalog import (
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_tower,
    triple_copy_tower,
)
from conftest import random_out_tree
from reference_kernel import spec_to_json, tower_to_json
from test_golden_cli import cases

LAMBDA_DOC = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["1", "3"]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lam(tmp_path):
    return write(tmp_path, "lambda.json", LAMBDA_DOC)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ampliate_matches_published_figure(capsys, lam):
    code, out, _ = run(capsys, "ampliate", lam, "-l", "2")
    doc = json.loads(out)
    assert code == 0
    assert set(doc["vertices"]) == {
        "(1,1)", "(1,2)", "(2,1)", "(2,2)", "(3,1)", "(3,2)",
    }
    assert [tuple(e) for e in doc["edges"]] == [
        ("(1,1)", "(1,2)"),
        ("(1,2)", "(2,1)"),
        ("(1,2)", "(3,1)"),
        ("(2,1)", "(2,2)"),
        ("(3,1)", "(3,2)"),
    ]


def test_ampliate_zero_steps_echoes(capsys, lam):
    code, out, _ = run(capsys, "ampliate", lam, "-l", "5", "--steps", "0")
    assert code == 0
    assert json.loads(out) == graph_to_json(lambda_tree()) or json.loads(out) == LAMBDA_DOC


def test_ampliate_zero_steps_echoes_a_forest(capsys, tmp_path):
    doc = {"vertices": ["a", "b", "c"], "edges": [["b", "c"]]}
    path = write(tmp_path, "forest.json", doc)
    code, out, _ = run(capsys, "ampliate", path, "-l", "2", "--steps", "0")
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"


def test_ampliate_an_empty_forest_fails_before_counting_steps(capsys, tmp_path):
    path = write(tmp_path, "empty.json", {"vertices": [], "edges": []})
    start = time.perf_counter()
    code, out, err = run(capsys, "ampliate", path, "-l", "2", "--steps", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 65 and out == ""
    assert err == "treealg: error: ampliation is defined for single-rooted trees\n"


def test_ampliate_chain_growth(capsys, tmp_path):
    path = write(tmp_path, "dot.json", {"vertices": ["1"], "edges": []})
    code, out, _ = run(capsys, "ampliate", path, "-l", "3", "--steps", "2")
    doc = json.loads(out)
    assert code == 0 and len(doc["vertices"]) == 9
    assert len(doc["edges"]) == 8


def test_ampliate_dot_output(capsys, lam):
    code, out, _ = run(capsys, "ampliate", lam, "-l", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    assert '"(1,2)" -> "(2,1)";' in out


def test_check_tensor_exit_codes(capsys, tmp_path):
    yes = write(tmp_path, "yes.json", tower_to_json(triple_copy_tower(3)))
    code, out, _ = run(capsys, "check-tensor", yes, "--depth", "3")
    assert code == 0 and "verdict: yes" in out

    no = write(tmp_path, "no.json", tower_to_json(refinement_tower(2, 2)))
    code, out, _ = run(capsys, "check-tensor", no, "--depth", "3")
    assert code == 1 and "verdict: no" in out

    inc = write(tmp_path, "inc.json", tower_to_json(mixed_tower(2)))
    code, out, _ = run(capsys, "check-tensor", inc, "--depth", "2")
    assert code == 2 and "verdict: inconclusive" in out


def test_check_tensor_json_report(capsys, tmp_path):
    no = write(tmp_path, "no.json", tower_to_json(refinement_tower(2, 2)))
    code, out, _ = run(capsys, "check-tensor", no, "--format", "json")
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "no"
    assert doc["certificate"]["kind"] == "grade-growth"
    grades = doc["certificate"]["chain"]["grades"]
    assert grades[0] == 1 and grades[1] >= 2


def test_classify_exit_codes(capsys, tmp_path):
    a = write(tmp_path, "a.json", spec_to_json(TreeRefinementSpec(lambda_tree(), (), 2)))
    b = write(
        tmp_path,
        "b.json",
        spec_to_json(TreeRefinementSpec(ampliate(lambda_tree(), 2), (), 2)),
    )
    code, out, _ = run(capsys, "classify", a, b, "--bound", "2")
    assert code == 0 and "verdict: equivalent" in out

    chain = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
    c = write(tmp_path, "c.json", {"base": chain, "stationary": 2})
    code, out, _ = run(capsys, "classify", a, c)
    assert code == 1 and "verdict: distinct" in out

    code, out, _ = run(capsys, "classify", a, b, "--bound", "0")
    assert code == 2 and "verdict: undetermined" in out

    d = write(tmp_path, "d.json", spec_to_json(TreeRefinementSpec(lambda_tree(), (3,), 2)))
    code, out, _ = run(capsys, "classify", a, d)
    assert code == 1 and "supernatural" in out


def test_classify_identical_specs(capsys, tmp_path):
    a = write(tmp_path, "a.json", spec_to_json(TreeRefinementSpec(lambda_tree(), (), 2)))
    code, _, _ = run(capsys, "classify", a, a, "--bound", "0")
    assert code == 0


def test_classify_json_witness(capsys, tmp_path):
    a = write(tmp_path, "a.json", spec_to_json(TreeRefinementSpec(lambda_tree(), (), 2)))
    code, out, _ = run(capsys, "classify", a, a, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["witness"]["ampliations"] == [[], []]
    assert ["r", "r"] in doc["witness"]["vertex-bijection"]


def exhaust_pair(tmp_path):
    # The same skeleton, but A's root stays branching and B's root a chain
    # under every ampliation, so no pair of ampliations makes the codes
    # agree, and every bound ends Undetermined.
    a = {"vertices": ["r", "a", "b", "m"], "edges": [["r", "a"], ["r", "m"], ["m", "b"]]}
    b = {"vertices": ["p", "r", "a", "b"], "edges": [["p", "r"], ["r", "a"], ["r", "b"]]}
    return (write(tmp_path, "a.json", {"base": a, "stationary": 6}),
            write(tmp_path, "b.json", {"base": b, "stationary": 6}))


CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from treealg.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_classify_exhausts_any_bound_in_under_one_second(tmp_path):
    # The nondecreasing sequences of 2s and 3s number 2145 a side at bound
    # 64, 8385 at 128 and 525,825 at 1024, which once took gigabytes to
    # list.  The search tries at most two candidates whatever the bound;
    # each bound runs in a child whose address space is capped at 1 GB.
    fa, fb = exhaust_pair(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for bound in (64, 128, 1024, 10**6):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, "classify", fa, fb, "--bound", str(bound)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stderr == ""
        assert done.stdout == f"verdict: undetermined\nsearch bound: {bound}\n"


@pytest.mark.parametrize("stationary", [999983, 4294967291])
def test_classify_a_large_prime_stationary_multiplicity_in_under_one_second(capsys, tmp_path, stationary):
    # One prime, the second just under MAX_MULTIPLICITY: divisibility is
    # counted, never found by trial division up to the prime.
    a = {"vertices": ["r", "a", "b", "c"], "edges": [["r", "a"], ["r", "b"], ["b", "c"]]}
    b = {"vertices": ["r", "a", "b", "c"], "edges": [["r", "a"], ["a", "b"], ["a", "c"]]}
    fa = write(tmp_path, "a.json", {"base": a, "stationary": stationary})
    fb = write(tmp_path, "b.json", {"base": b, "stationary": stationary})
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", fa, fb)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "verdict: undetermined\nsearch bound: 3\n"


def test_classify_finite_supernatural_search_stops_at_its_exponents(capsys, tmp_path):
    # Both sides have supernatural number 2, so only () and (2,) can
    # divide it; a bound of thousands must not enumerate longer sequences.
    a = {"vertices": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]]}
    b = {"vertices": ["r", "a", "b", "c"], "edges": [["r", "a"], ["a", "c"], ["r", "b"]]}
    fa = write(tmp_path, "a.json", {"base": a, "multiplicities": [2]})
    fb = write(tmp_path, "b.json", {"base": b, "multiplicities": [2]})
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", fa, fb, "--bound", "3000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "verdict: undetermined\nsearch bound: 3000\n"


def caterpillar(spine: int, moved: bool = False) -> OutForest:
    """A chain of spine vertices, each but the last with one leaf; moved
    hangs the first leaf under the second spine vertex instead."""
    vs = [f"s{i}" for i in range(spine)] + [f"l{i}" for i in range(spine - 1)]
    edges = [(f"s{i}", f"s{i + 1}") for i in range(spine - 1)]
    edges += [(f"s{i + (moved and i == 0)}", f"l{i}") for i in range(spine - 1)]
    return OutForest(DirectedGraph(vs, edges))


def test_iso_and_classify_answer_on_a_deep_caterpillar(capsys, tmp_path):
    # 2,999 vertices, 1,500 deep: codes are tuples of (depth, weight)
    # pairs, since comparing nested ones recursed past Python's limit at a
    # spine of 520.
    cat = caterpillar(1500)
    one, moved = (write(tmp_path, f"{name}.json", graph_to_json(t))
                  for name, t in (("cat", cat), ("moved", caterpillar(1500, moved=True))))
    assert run(capsys, "iso", one, one)[:2] == (0, "isomorphic: true\n")
    assert run(capsys, "iso", one, moved)[:2] == (1, "isomorphic: false\n")
    a, b = (write(tmp_path, f"{name}.json", {"base": graph_to_json(t), "stationary": 2})
            for name, t in (("a", cat), ("b", ampliate(cat, 2))))
    code, out, _ = run(capsys, "classify", a, a)
    assert code == 0 and out.startswith("verdict: equivalent\nampliations: [] and []\n")
    code, out, _ = run(capsys, "classify", a, b)
    assert code == 0 and out.startswith("verdict: equivalent\nampliations: [2] and []\n")


def test_reduce_contracts_chain(capsys, tmp_path):
    chain = write(
        tmp_path,
        "chain.json",
        {"vertices": ["1", "2", "3", "4"], "edges": [["1", "2"], ["2", "3"], ["3", "4"]]},
    )
    code, out, _ = run(capsys, "reduce", chain)
    doc = json.loads(out)
    assert code == 0
    assert doc["edges"] == [["1", "4"]]
    assert {"id": "4", "weight": 2} in doc["vertices"]


def test_reduce_text_shows_weights_as_dot_labels_them(capsys, tmp_path):
    tree = write(
        tmp_path,
        "tree.json",
        {"vertices": ["a", "b", "c", "d", "e"],
         "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["c", "e"]]},
    )
    code, out, _ = run(capsys, "reduce", tree, "--format", "text")
    assert code == 0
    assert out == "vertices: a, c (1), d, e\n  a -> c\n  c -> d\n  c -> e\n"
    assert '  "c" [label="c (1)"];\n' in run(capsys, "reduce", tree, "--format", "dot")[1]


def test_iso_exit_codes(capsys, lam, tmp_path):
    relabeled = write(
        tmp_path,
        "relabeled.json",
        {"vertices": ["x", "z", "y"], "edges": [["x", "y"], ["x", "z"]]},
    )
    code, out, _ = run(capsys, "iso", lam, relabeled)
    assert code == 0 and "true" in out
    chain = write(
        tmp_path,
        "chain.json",
        {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]},
    )
    code, out, _ = run(capsys, "iso", lam, chain)
    assert code == 1 and "false" in out


def test_supernatural_renderings(capsys, tmp_path):
    spec = write(
        tmp_path,
        "s.json",
        {"base": LAMBDA_DOC, "multiplicities": [6, 2], "stationary": 3},
    )
    code, out, _ = run(capsys, "supernatural", spec)
    assert code == 0 and out.strip() == "2^2 * 3^inf"
    code, out, _ = run(capsys, "supernatural", spec, "--format", "json")
    assert json.loads(out) == {"finite": [[2, 2]], "infinite": [3]}


def test_verify_ckt_exit_zero(capsys, lam, tmp_path):
    code, out, _ = run(capsys, "verify-ckt", lam)
    assert code == 0 and "ok: true" in out

    empty = write(tmp_path, "empty.json", {"vertices": [], "edges": []})
    assert run(capsys, "verify-ckt", empty)[0] == 0

    rng = random.Random(3)
    g = random_out_tree(rng, 8).graph
    tree = write(tmp_path, "tree.json", graph_to_json(g))
    code, out, _ = run(capsys, "verify-ckt", tree, "--cutoff", "9", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["exact"]


def test_verify_ckt_huge_cutoff_on_a_dag_stops_at_the_longest_path(capsys, tmp_path):
    doc = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    dag = write(tmp_path, "dag.json", doc)
    start = time.perf_counter()
    huge = run(capsys, "verify-ckt", dag, "--cutoff", "1000000000", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert huge[0] == 0
    assert huge == run(capsys, "verify-ckt", dag, "--cutoff", "3", "--format", "json")


def test_oversized_outputs_exit_65_before_any_work(capsys, lam, tmp_path):
    vs = [str(i) for i in range(6)]
    doc = {"vertices": vs, "edges": [[u, v] for u in vs for v in vs if u != v]}
    complete = write(tmp_path, "complete.json", doc)
    for argv in (
        ["verify-ckt", complete, "--cutoff", "1000"],
        ["ampliate", lam, "-l", "1000000", "--steps", "3"],
        ["ampliate", lam, "-l", "1", "--steps", "1000000000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 65 and out == ""
        assert err.startswith("treealg: error: ") and err.count("\n") == 1
        assert "more than" in err


def test_rule_levels_over_the_cap_exit_65_before_any_work(capsys, tmp_path):
    spec = TreeRefinementSpec(lambda_tree(), (), 2)
    for name, tower, depth in (
        ("standard.json", standard_tower(2, 2), "40"),
        ("tree.json", build_tree_refinement_tower(spec, 2), "1000000000"),
    ):
        path = write(tmp_path, name, tower_to_json(tower))
        start = time.perf_counter()
        code, out, err = run(capsys, "check-tensor", path, "--depth", depth)
        assert time.perf_counter() - start < 1.0
        assert code == 65 and out == ""
        assert err.startswith("treealg: error: ") and err.count("\n") == 1
        assert "units, more than 512" in err


def test_factor_one_rules_exit_65_before_any_work(capsys, tmp_path):
    # A factor of 1 never grows a level, so only the sum of the levels
    # bounds the work: 3 units a level, 1024 units in all.
    three = {"levels": [{"blocks": [3]}], "maps": []}
    spec = TreeRefinementSpec(lambda_tree(), (), 1)
    for name, doc in (
        ("standard.json", {**three, "rule": {"kind": "standard", "m": 1}}),
        ("refinement.json", {**three, "rule": {"kind": "refinement", "l": 1}}),
        ("tree.json", tower_to_json(build_tree_refinement_tower(spec, 2))),
    ):
        path = write(tmp_path, name, doc)
        start = time.perf_counter()
        code, out, err = run(capsys, "check-tensor", path, "--depth", "100000")
        assert time.perf_counter() - start < 1.0
        assert code == 65 and out == ""
        assert err.startswith("treealg: error: ") and err.count("\n") == 1
        assert "units together, more than 1024" in err
        assert run(capsys, "check-tensor", path, "--depth", "300")[0] in (0, 1, 2)


def test_norm_command(capsys, lam, tmp_path):
    vee = {"vertices": ["p", "q", "s"], "edges": [["p", "s"], ["q", "s"]]}
    vec = write(
        tmp_path,
        "vec.json",
        {"graph": vee, "amplitudes": [["p", "s", 3], ["q", "s", 4]]},
    )
    code, out, _ = run(capsys, "norm", vec)
    assert code == 0 and float(out) == 5.0
    code, out, _ = run(capsys, "norm", vec, "--format", "json")
    assert json.loads(out) == {"norm": 5.0}


def test_norm_rejects_non_finite_amplitudes(capsys, tmp_path):
    # json reads NaN and Infinity; a NaN once printed norm 0.0 with exit 0.
    graph = '{"vertices": ["p", "s"], "edges": [["p", "s"]]}'
    for value in ("NaN", "Infinity", "-Infinity", "9" * 400):
        path = tmp_path / "vec.json"
        path.write_text(f'{{"graph": {graph}, "amplitudes": [["p", "s", 1, {value}]]}}')
        code, out, err = run(capsys, "norm", str(path), "--format", "json")
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and "amplitudes[0][3]: expected a finite number" in err


def test_emit_dot(capsys, lam):
    code, out, _ = run(capsys, "emit-dot", lam)
    assert code == 0
    assert out.startswith("digraph") and '"1" -> "2";' in out


def test_out_flag_writes_file(capsys, lam, tmp_path):
    target = tmp_path / "figure.dot"
    code, out, _ = run(capsys, "emit-dot", lam, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph")


@pytest.mark.parametrize("command, options", [("emit-dot", []), ("ampliate", ["-l", "2"])])
def test_empty_out_path_exits_65(capsys, lam, command, options):
    # An empty --out names no file; it must not fall back to stdout.
    code, out, err = run(capsys, command, lam, *options, "--out", "")
    assert code == 65 and out == ""
    assert err.startswith("treealg: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["", "no-such-dir/out.txt", "no-such-dir/sub/out.txt", "notes.txt/out.txt", "notes.txt/sub/out.txt"])
def test_an_unopenable_out_path_is_refused_before_any_input_is_read(capsys, tmp_path, monkeypatch, where):
    tower = write(tmp_path, "tower.json", tower_to_json(triple_copy_tower(4)))
    (tmp_path / "notes.txt").write_text("kept")

    def decode(*args):
        raise AssertionError("the decoder ran")

    monkeypatch.setattr(cli.formats, "tower_from_json", decode)
    path = str(tmp_path / where) if where else ""
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run(capsys, "check-tensor", tower, "--out", path)
    assert code == 65 and out == ""
    # The message is the one open gives for the same path.
    assert err == f"treealg: error: {opened.value}\n"
    assert (tmp_path / "notes.txt").read_text() == "kept"


def test_bad_input_creates_or_truncates_no_out_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("old")
    for out in (kept, fresh):
        assert run(capsys, "check-tensor", str(bad), "--out", str(out))[0] == 65
    assert kept.read_text() == "old" and not fresh.exists()


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "check-tensor")[0] == 64
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys, "ampliate", "x.json", "-l", "0")[0] == 64
    assert run(capsys, "check-tensor", "x.json", "--depth", "0")[0] == 64
    assert run(capsys, "check-tensor", "x.json", "--format", "dot")[0] == 64


def test_data_errors_exit_65(capsys, tmp_path, lam):
    missing = str(tmp_path / "absent.json")
    assert run(capsys, "emit-dot", missing)[0] == 65

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "emit-dot", str(bad))
    assert code == 65 and "bad.json:1" in err

    shape = write(tmp_path, "shape.json", {"vertices": 3, "edges": []})
    code, _, err = run(capsys, "emit-dot", shape)
    assert code == 65 and "vertices" in err

    cyclic = write(
        tmp_path, "cyc.json", {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}
    )
    assert run(capsys, "ampliate", cyclic, "-l", "2")[0] == 65

    forest = write(
        tmp_path, "forest.json", {"vertices": ["a", "b"], "edges": []}
    )
    assert run(capsys, "ampliate", forest, "-l", "2")[0] == 65


@pytest.mark.parametrize(
    "name, data",
    [
        ("latin1.json", b'{"vertices": ["\xff"], "edges": []}'),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000),
        ("long.json", b'{"vertices": [' + b"7" * 5000 + b'], "edges": []}'),
    ],
)
def test_undecodable_inputs_exit_65_naming_the_file(capsys, tmp_path, name, data):
    # Not UTF-8, nested past the decoder's recursion limit, and an integer
    # literal longer than the interpreter converts.
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, "emit-dot", str(path))
    assert code == 65 and out == ""
    assert err.startswith(f"treealg: error: {path}: ") and err.count("\n") == 1


def test_crlf_inputs_report_text_mode_positions(capsys, tmp_path):
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{"vertices": ["a"],\r\n\r "edges": [}')
    code, _, err = run(capsys, "emit-dot", str(path))
    assert code == 65 and err == f"treealg: error: {path}:3:12: Expecting value\n"


def test_norm_of_huge_amplitudes_is_json(capsys, tmp_path):
    vec = write(tmp_path, "v.json", {"graph": LAMBDA_DOC, "amplitudes": [["1", "2", 1e200, 1e200]]})
    code, out, _ = run(capsys, "norm", vec, "--format", "json")
    assert code == 0 and out == '{\n  "norm": 1.414213562373095e+200\n}\n'


PARSER = cli.build_parser()
_SUB = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
COMMANDS = sorted(_SUB.choices)
OWN_OPTIONS = {c: sorted(s for a in p._actions for s in a.option_strings) for c, p in _SUB.choices.items()}
OPTIONS = sorted({s for own in OWN_OPTIONS.values() for s in own})
PREFIXES = sorted({o[:k] for o in OPTIONS if o.startswith("--") for k in range(3, len(o))})
VALUES = ["0", "1", "3", "-1", "x", " 4", "", "-", "json", "text", "dot", "a.json", "b.json"]
TOKENS = COMMANDS + OPTIONS + PREFIXES + VALUES + ["--depth=3", "-l5", "--", "-", "-h", "--help"]
POSITIONALS = {c: sum(not a.option_strings for a in p._actions) for c, p in _SUB.choices.items()}
FITTING_PAIRS = {
    c: [(s, v) for a in p._actions for s in a.option_strings for v in [*(a.choices or ["1", "o.json"]), "-x"]]
    for c, p in _SUB.choices.items()
}


@st.composite
def command_lines(draw):
    """Any string of tokens, or a command with positionals and option
    pairs drawn near the form of a real call, at times a pair in front."""
    some = st.sampled_from(TOKENS)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(some, max_size=8))
    command = draw(st.sampled_from(COMMANDS))
    fitting = st.sampled_from(FITTING_PAIRS[command])
    own = st.sampled_from(OWN_OPTIONS[command])
    pair = st.one_of(fitting, fitting, fitting, st.tuples(own | some, st.sampled_from(VALUES) | some))
    front = draw(st.lists(pair, max_size=1)) if draw(st.integers(0, 3)) == 0 else []
    count = draw(st.sampled_from([POSITIONALS[command]] * 3 + [0, 1, 2, 3]))
    path = st.sampled_from(["a.json", "b.json"])
    positionals = draw(st.lists(st.one_of(path, path, path, some), min_size=count, max_size=count))
    back = draw(st.lists(pair, max_size=4))
    return [command, *(t for p in front for t in p), *positionals, *(t for p in back for t in p)]


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_direct_parse_builds_the_namespace_argparse_builds(argv):
    ns = cli._direct(argv)
    if ns is not None:
        assert vars(PARSER.parse_args(argv)) == vars(ns)


def test_direct_parse_serves_every_real_call_and_no_other():
    # Real calls are the golden cases argparse does not word; a profile
    # hook sees every Python call, so none may land in argparse.
    hits = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == argparse.__file__:
            hits.append(frame.f_code.co_name)

    for name, argv, from_argparse in cases():
        sys.setprofile(profile)
        try:
            ns = cli._direct(argv)
        finally:
            sys.setprofile(None)
        assert (ns is None) == from_argparse, name
    assert hits == []


def test_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and all(command in out for command in cli._COMMANDS)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_exits_zero(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: treealg {command} ")


def test_outputs_deterministic(capsys, tmp_path):
    yes = write(tmp_path, "yes.json", tower_to_json(triple_copy_tower(3)))
    first = run(capsys, "check-tensor", yes, "--depth", "3", "--format", "json")
    second = run(capsys, "check-tensor", yes, "--depth", "3", "--format", "json")
    assert first == second


def test_lower_triangular_tower_gets_a_verdict(capsys, tmp_path):
    # The order with the single pair (2, 1) has as many pairs as the full
    # upper-triangular one; it must be continued by translated copies of
    # itself, not by the standard embedding of the upper-triangular order.
    doc = {
        "levels": [{"blocks": [2], "units": [[[0, 2], [0, 1]]]}],
        "maps": [],
        "rule": {"kind": "standard", "m": 2},
    }
    path = write(tmp_path, "lower.json", doc)
    code, out, _ = run(capsys, "check-tensor", path, "--depth", "3")
    assert code == 0 and "verdict: yes" in out


def test_explicit_map_repeats_exit_65(capsys, tmp_path):
    e = standard_embedding(2, 2)
    for where in ("image[3]", "image[1]"):
        doc = tower_to_json(Tower([e.source, e.target], [e]))
        image = doc["maps"][0]["image"]
        if where == "image[3]":
            image.append(image[1])
        else:
            image[1][1].append(image[1][1][0])
        code, out, err = run(capsys, "check-tensor", write(tmp_path, "t.json", doc))
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and f"t.json.maps[0].{where}: " in err


def test_nonpositive_rule_parameters_exit_65(capsys, tmp_path):
    docs = [
        {"levels": [{"blocks": [2], "units": []}], "maps": [], "rule": rule}
        for rule in ({"kind": "standard", "m": 0}, {"kind": "refinement", "l": -1})
    ]
    levels = [{"blocks": [2]}, {"blocks": [4]}]
    docs += [
        {"levels": levels, "maps": [emb]}
        for emb in (
            {"kind": "standard", "n": 0, "m": 2},
            {"kind": "standard", "n": 2, "m": 0},
            {"kind": "refinement", "n": -1, "l": 2},
            {"kind": "refinement", "n": 2, "l": 0},
        )
    ]
    for doc in docs:
        code, out, err = run(capsys, "check-tensor", write(tmp_path, "t.json", doc))
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and "positive" in err


def test_tree_rule_off_the_last_level_exits_65(capsys, tmp_path):
    # The rule's tree gives the order (2, 1), (3, 1); the stored level is
    # the order (2, 3), (3, 1), so no level can be generated from it.
    tree = {"vertices": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]]}
    doc = {
        "levels": [{"blocks": [3], "units": [[[0, 2], [0, 3]], [[0, 3], [0, 1]]]}],
        "maps": [],
        "rule": {"kind": "tree-refinement", "tree": tree, "l": 2},
    }
    path = write(tmp_path, "t.json", doc)
    code, out, err = run(capsys, "check-tensor", path, "--depth", "3")
    assert code == 65 and out == ""
    assert "tree-refinement rule" in err
    doc["levels"][0]["units"] = [[[0, 2], [0, 1]], [[0, 3], [0, 1]]]
    code, out, _ = run(capsys, "check-tensor", write(tmp_path, "t.json", doc), "--depth", "3")
    assert code == 1 and "verdict: no" in out


def test_forest_rule_tree_exits_65_at_the_first_generated_step(capsys, tmp_path):
    # The rule's tree r -> a, s has two roots.  It gives the stored level,
    # so depth 1 reads it, but depth 2 would ampliate a forest.
    tree = {"vertices": ["r", "a", "s"], "edges": [["r", "a"]]}
    doc = {
        "levels": [{"blocks": [3], "units": [[[0, 2], [0, 1]]]}],
        "maps": [],
        "rule": {"kind": "tree-refinement", "tree": tree, "l": 2},
    }
    path = write(tmp_path, "t.json", doc)
    code, out, _ = run(capsys, "check-tensor", path, "--depth", "1")
    assert code == 2 and "verdict: inconclusive" in out
    code, out, err = run(capsys, "check-tensor", path, "--depth", "2")
    assert code == 65 and out == ""
    assert err == "treealg: error: ampliation is defined for single-rooted trees\n"


def test_multiplicities_over_the_cap_exit_65_at_once(capsys, tmp_path):
    # 10**18 + 3 is prime: factoring it by trial division would take
    # minutes.  The largest prime under the cap factors at once.
    start = time.perf_counter()
    for key, value in (("stationary", 10**18 + 3), ("multiplicities", [2, 2**32 + 1])):
        spec = write(tmp_path, "s.json", {"base": LAMBDA_DOC, key: value})
        for argv in (("supernatural", spec), ("classify", spec, spec)):
            code, out, err = run(capsys, *argv)
            assert code == 65 and out == ""
            assert err.count("\n") == 1 and "must be at most 4294967296" in err
    spec = write(tmp_path, "s.json", {"base": LAMBDA_DOC, "stationary": 2**32 - 5})
    code, out, _ = run(capsys, "supernatural", spec)
    assert code == 0 and out == "4294967291^inf\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "emb, name, size",
    [
        ({"kind": "standard", "n": 2500, "m": 2}, "source", 2500),
        ({"kind": "refinement", "n": 2500, "l": 2}, "source", 2500),
        ({"kind": "standard", "n": 1, "m": 3}, "target", 3),
        ({"kind": "refinement", "n": 1, "l": 3}, "target", 3),
    ],
    ids=["standard-source", "refinement-source", "standard-target", "refinement-target"],
)
def test_translation_maps_off_the_level_sizes_exit_65_before_building(
    capsys, monkeypatch, tmp_path, emb, name, size
):
    # n = 2500 would build triangular algebras of 2500 and 5000 units
    # before the tower found that they are not its levels.
    def never(*args):
        raise AssertionError("the map was built")

    monkeypatch.setattr("treealg.formats.standard_embedding", never)
    monkeypatch.setattr("treealg.formats.refinement_embedding", never)
    levels = [{"blocks": [1]}, {"blocks": [2]}]
    path = write(tmp_path, "t.json", {"levels": levels, "maps": [emb], "rule": None})
    code, out, err = run(capsys, "check-tensor", path)
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and f"needs a {name} level with blocks [{size}]" in err


def test_a_level_of_many_units_without_pairs_decides_at_once(capsys, tmp_path):
    # No unit has a strict source, so the transitive closure has nothing
    # to add; one scan of every row per unit took seconds at 6000 units.
    path = write(tmp_path, "t.json", {"levels": [{"blocks": [6000]}], "maps": [], "rule": None})
    start = time.perf_counter()
    code, out, _ = run(capsys, "check-tensor", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "too short without a rule" in out


def test_a_stored_chain_of_8000_units_decides_in_under_one_second(capsys, tmp_path):
    # The level lists only the 7,999 covers of a chain, which closes to the
    # full order.  Warshall's closure, N^2 row steps, took 11 s on it (2-core
    # x86 VM, Python 3.11).
    units = [[[0, i], [0, i + 1]] for i in range(1, 8000)]
    doc = {"levels": [{"blocks": [8000], "units": units}], "maps": [], "rule": None}
    path = write(tmp_path, "t.json", doc)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check-tensor", path, "--depth", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "too short without a rule" in out


def test_unexpected_exception_exits_70(capsys, monkeypatch, tmp_path):
    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr("treealg.cli.decide_tensor", crash)
    path = write(tmp_path, "t.json", tower_to_json(triple_copy_tower(2)))
    code, out, err = run(capsys, "check-tensor", path)
    assert code == 70 and out == ""
    assert err == "treealg: internal error: KeyError: 'boom'\n"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)

JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.dictionaries(st.text(), kids)
    | st.lists(st.text(), min_size=2, max_size=2),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
def test_json_writer_matches_the_indenting_encoder(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)
