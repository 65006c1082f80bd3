"""`treealg ampliate` writes its output chain by chain from the closed
form; these tests hold it to the text of the whole ampliation, built
step by step and written whole (reference_kernel.ampliate_output), and
bound the memory it takes."""

import contextlib
import io
import json
import os
import random
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.cli import main
from treealg.formats import graph_to_json
from treealg.graphs import DirectedGraph, OutForest

from reference_kernel import ampliate_output

# Quotes, backslashes, commas, parentheses, digits and non-ASCII.
NAME_CHARS = 'a"\\,()1é中 '


@st.composite
def weighted_trees(draw):
    """Trees on 1 to 30 vertices in a random declaration order, with
    names drawn from NAME_CHARS and weights that only --steps 0 keeps."""
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=4), min_size=1,
                          max_size=30, unique=True))
    n = len(names)
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    weights = {v: draw(st.integers(0, 3)) for v in names}
    return OutForest(DirectedGraph(draw(st.permutations(names)), edges, weights))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(tree: OutForest, l: int, steps: int, fmt: str) -> None:
    """stdout and the --out file are the reference text."""
    want = ampliate_output(tree, l, steps, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "tree.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph_to_json(tree), fh)
        argv = ["ampliate", path, "-l", str(l), "--steps", str(steps), "--format", fmt]
        assert _run(argv) == (0, want, "")
        assert _run(argv + ["--out", out]) == (0, "", "")
        with open(out, "rb") as fh:
            assert fh.read() == want.encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(weighted_trees(), st.integers(1, 4), st.integers(0, 3),
       st.sampled_from(["json", "dot", "text"]))
def test_stdout_and_out_file_match_the_whole_ampliation(tree, l, steps, fmt):
    _check(tree, l, steps, fmt)


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_texts_of_many_pieces_match_the_whole_ampliation(fmt):
    # More vertices and edges than one piece holds: 3·3^5 = 729 after five
    # steps, and a weighted 600-vertex chain echoed by zero steps.
    fan = OutForest(DirectedGraph(['r"', "a\\", "b,é"], [('r"', "a\\"), ('r"', "b,é")]))
    _check(fan, 3, 5, fmt)
    vs = [f"v{k}" for k in range(600)]
    chain = DirectedGraph(vs, list(zip(vs, vs[1:])), {v: k % 3 for k, v in enumerate(vs)})
    _check(OutForest(chain), 2, 0, fmt)


def test_refused_inputs_keep_their_message_and_write_no_file(tmp_path):
    inputs = {
        "forest.json": {"vertices": ["a", "b"], "edges": []},
        "empty.json": {"vertices": [], "edges": []},
        "lambda.json": {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["1", "3"]]},
    }
    for name, doc in inputs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    single = "treealg: error: ampliation is defined for single-rooted trees\n"
    cases = [
        (["forest.json", "-l", "2"], single),
        (["empty.json", "-l", "2", "--steps", "1000000000"], single),
        # The count comes first: a forest over the cap is refused for its size.
        (["forest.json", "-l", "1000000"],
         "treealg: error: 1 ampliation steps by 1000000 build more than 250000 vertices\n"),
        (["lambda.json", "-l", "2", "--steps", "17"],
         "treealg: error: 17 ampliation steps by 2 build more than 250000 vertices\n"),
    ]
    for args, message in cases:
        for fmt in ("json", "dot", "text"):
            out = tmp_path / "out"
            argv = ["ampliate", str(tmp_path / args[0]), *args[1:], "--format", fmt]
            assert _run(argv) == (65, "", message)
            assert _run(argv + ["--out", str(out)]) == (65, "", message)
            assert not out.exists()


def test_a_large_ampliation_is_written_in_little_memory(tmp_path):
    # The seeded 40-vertex tree of the CI timing step: each vertex picks
    # an earlier parent.  By 4 in 5 steps it has 40,960 vertices and
    # 4.3 MB of JSON; the forest and one string of the text peak at 27.6 MB.
    rng = random.Random(0)
    vs = [str(i) for i in range(1, 41)]
    random40 = DirectedGraph(vs, [(vs[rng.randrange(i)], vs[i]) for i in range(1, 40)])
    tree, out = tmp_path / "random40.json", tmp_path / "out.json"
    tree.write_text(json.dumps(graph_to_json(random40)))
    tracemalloc.start()
    try:
        code = main(["ampliate", str(tree), "-l", "4", "--steps", "5",
                     "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10 * 2**20
    assert len(json.loads(out.read_text())["vertices"]) == 40 * 4**5


def test_many_steps_by_one_take_linear_time(tmp_path):
    # By 1 every vertex keeps one name, "(" * K + v + ",1)" * K after K
    # steps, whose tail was once rebuilt at every step: 240,000 steps of
    # one vertex, and 120,000 of a two-vertex chain, count as many
    # vertices as the cap allows and write about 1 MB in under a second.
    one = OutForest(DirectedGraph(["a"], []))
    pair = OutForest(DirectedGraph(["a", "b"], [("a", "b")]))
    for fmt in ("json", "dot", "text"):
        _check(one, 1, 50, fmt)
        _check(pair, 1, 50, fmt)
    for tree, steps in ((one, 240_000), (pair, 120_000)):
        names = ["(" * steps + v + ",1)" * steps for v in tree.vertices]
        want = {"vertices": names, "edges": [names] if len(names) == 2 else []}
        path, out = tmp_path / "tree.json", tmp_path / "out.json"
        path.write_text(json.dumps(graph_to_json(tree)))
        start = time.perf_counter()
        code = main(["ampliate", str(path), "-l", "1", "--steps", str(steps), "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.read_text() == json.dumps(want, indent=2) + "\n"
