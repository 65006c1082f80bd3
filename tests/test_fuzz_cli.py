"""Mutated input documents never crash the command line.

Every document kind of the README's "File formats" section has one
example below, filled in from the documented shape.  Hypothesis mutates
an example (deletes, replaces or inserts fields and items, down to any
depth) and runs the command that reads that kind.  Whatever the input,
main must return, and with a contract status: 0, 1 or 2 for a verdict,
64 for a usage error, 65 for an ill-formed input.  Exit 70, an internal
error, means a parser let a bad document through.

The fixed command-line knobs keep every run small: the integers a
mutation can write stay below 9, and towers are decided at depth 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.cli import main

GRAPH = {"vertices": ["r", {"id": "a", "weight": 1}, "b"], "edges": [["r", "a"], ["r", "b"]]}
ALGEBRA = {"blocks": [2, 1], "units": [[[0, 1], [0, 2]]]}
UT1 = {"blocks": [1]}
UT2 = {"blocks": [2], "units": [[[0, 1], [0, 2]]]}
TOWERS = [
    {"levels": [ALGEBRA], "maps": [], "rule": None},
    {
        "levels": [UT1, UT2],
        "maps": [{"kind": "standard", "n": 1, "m": 2}],
        "rule": {"kind": "standard", "m": 2},
    },
    {
        "levels": [UT1, UT2],
        "maps": [{"kind": "refinement", "n": 1, "l": 2}],
        "rule": {"kind": "refinement", "l": 2},
    },
    {
        "levels": [UT2, UT2],
        "maps": [{"kind": "explicit", "image": [[[[0, 1], [0, 2]], [[[0, 1], [0, 2]]]]]}],
        "rule": {"kind": "nest"},
    },
    {
        "levels": [{"blocks": [3], "units": [[[0, 2], [0, 1]], [[0, 3], [0, 1]]]}],
        "maps": [],
        "rule": {"kind": "tree-refinement", "tree": GRAPH, "l": 2},
    },
]
SPEC = {"base": GRAPH, "multiplicities": [2], "stationary": 2}
VECTOR = {"graph": GRAPH, "amplitudes": [["r", "a", 1.0, 0.5], ["r", "b", 2]]}

# (argv before the input files, example documents, number of inputs)
CASES = [
    (["check-tensor", "--depth", "3"], TOWERS, 1),
    (["ampliate", "-l", "2"], [GRAPH], 1),
    (["reduce"], [GRAPH], 1),
    (["iso"], [GRAPH], 2),
    (["emit-dot", "--format", "dot"], [GRAPH], 1),
    (["verify-ckt", "--cutoff", "2"], [GRAPH], 1),
    (["supernatural"], [SPEC], 1),
    (["classify", "--bound", "2"], [SPEC], 2),
    (["norm"], [VECTOR], 1),
]

KEYS = ["vertices", "edges", "id", "weight", "blocks", "units", "levels", "maps", "rule",
        "kind", "n", "m", "l", "image", "tree", "base", "multiplicities", "stationary",
        "graph", "amplitudes"]
WORDS = ["r", "a", "b", "standard", "refinement", "explicit", "tree-standard", "nest",
         "tree-refinement", ""]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=3)
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, here=()):
    """Every position inside doc, the root first."""
    yield here
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, here + (key,))


def _edit(data, node):
    """The replacement of one node: an integer moves by a few steps, a
    string becomes another word, a container loses or gains an entry,
    and any node may become an arbitrary value."""
    if isinstance(node, int) and not isinstance(node, bool):
        op = data.draw(st.sampled_from(["nudge", "nudge", "replace"]))
        if op == "nudge":
            return node + data.draw(st.integers(min_value=-3, max_value=3))
    elif isinstance(node, str):
        op = data.draw(st.sampled_from(["word", "replace"]))
        if op == "word":
            return data.draw(st.sampled_from(WORDS))
    elif isinstance(node, (dict, list)) and node:
        op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        if isinstance(node, dict):
            out = dict(node)
            if op == "delete":
                del out[data.draw(st.sampled_from(sorted(node)))]
            elif op == "insert":
                out[data.draw(st.sampled_from(KEYS))] = data.draw(values)
            if op != "replace":
                return out
        else:
            out = list(node)
            k = data.draw(st.integers(min_value=0, max_value=len(node) - 1))
            if op == "delete":
                del out[k]
            elif op == "insert":
                out.insert(k, data.draw(values))
            if op != "replace":
                return out
    return data.draw(values)


def mutate(data, doc):
    """doc with one node below the root edited."""
    path = data.draw(st.sampled_from(list(_paths(doc))[1:] or [()]))

    def rebuild(node, rest):
        if not rest:
            return _edit(data, node)
        key = rest[0]
        out = dict(node) if isinstance(node, dict) else list(node)
        out[key] = rebuild(node[key], rest[1:])
        return out

    return rebuild(doc, path)


@pytest.mark.parametrize("argv, examples, inputs", CASES, ids=[c[0][0] for c in CASES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_contract_status(argv, examples, inputs, data):
    docs = []
    for _ in range(inputs):
        doc = data.draw(st.sampled_from(examples))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            doc = mutate(data, doc)
        docs.append(doc)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            path = Path(tmp) / f"in{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + paths)
    assert code in {0, 1, 2, 64, 65}, (argv, docs, err.getvalue())


def test_unmutated_examples_are_accepted():
    for argv, examples, inputs in CASES:
        for doc in examples:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "in.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv + [str(path)] * inputs)
            assert code in {0, 1, 2}, (argv, doc, err.getvalue())
