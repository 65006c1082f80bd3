"""Classification of tree-refinement specs, pinned byte for byte.

tests/golden/classify.jsonl has two kinds of lines.

* Corpus lines, one per (stationary value, search bound, first tree):
  every rooted tree with up to 6 vertices (one per isomorphism class,
  37 trees) is classified against each of the 37 trees as the second
  spec, with stationary values 2, 3 and 6, no explicit multiplicities,
  and bounds 0 to 4.  A line holds the sha256 of the 37 JSON outputs,
  each written as `treealg classify --format json` writes it, and the
  37 exit codes as a string of digits.
* CLI lines, one per call of `main(argv)`: the sha256 of its stdout and
  its exit code.  They cover, in text, every corpus pair with one
  branching skeleton at stationary value 6 and bound 4 (the pairs that
  reach the search; their JSON is in the corpus lines), and, in text and
  in JSON, random bases against their iterated
  ampliations by (2,3), (3,2) and (2,2,3), bases carrying file weights,
  the one-vertex base, explicit multiplicities, and vertex names that
  sort below "," (such as "a)"), so that every tie-break of the vertex
  bijection shows.

The file was recorded before the search stopped building ampliations.
To record it again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_classify.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from treealg.ampliation import TreeRefinementSpec, ampliate
from treealg.classify import branching_skeleton, classify_tree_refinement
from treealg.cli import main
from treealg.formats import classification_to_json, spec_to_json
from treealg.graphs import DirectedGraph, OutForest

from conftest import all_parent_arrays, random_out_tree, tree_from_parents

GOLDEN = Path(__file__).resolve().parent / "golden" / "classify.jsonl"
STATIONARY = (2, 3, 6)
BOUNDS = (0, 1, 2, 3, 4)
EXIT = {"equivalent": 0, "distinct": 1, "undetermined": 2}


def _shape(t: OutForest, v: str) -> str:
    return "(" + "".join(sorted(_shape(t, c) for c in t.children(v))) + ")"


def small_trees() -> list[OutForest]:
    """One rooted tree per isomorphism class on 1 to 6 vertices, the
    first parent array of each class, vertices named "1".."n"."""
    out, seen = [], set()
    for n in range(1, 7):
        for parents in all_parent_arrays(n):
            t = tree_from_parents(parents)
            key = _shape(t, "1")
            if key not in seen:
                seen.add(key)
                out.append(t)
    return out


def _tree(vertices, edges, weights=None) -> OutForest:
    return OutForest(DirectedGraph(vertices, edges, weights))


def _ampliated(t: OutForest, factors) -> OutForest:
    for f in factors:
        t = ampliate(t, f)
    return t


def cli_inputs() -> dict[str, dict]:
    """File name -> spec document of every CLI case that is not a corpus pair."""
    docs: dict[str, dict] = {}

    def spec(name: str, base: OutForest, stationary: int = 6, mults=()) -> None:
        docs[f"{name}.json"] = spec_to_json(TreeRefinementSpec(base, tuple(mults), stationary))

    rng = random.Random(6)
    for k in range(6):
        base = random_out_tree(rng, 3 + k)
        factors = ((2, 3), (3, 2), (2, 2, 3))[k % 3]
        spec(f"rand{k}", base)
        spec(f"rand{k}-amp", _ampliated(base, factors))
    odd = _tree(["r", "a", "a)", "a!", "b"], [("r", "a"), ("r", "a)"), ("r", "a!"), ("a!", "b")])
    spec("odd", odd)
    spec("odd-amp", _ampliated(odd, (3, 2)))
    twins = _tree(["r", "a", "a)"], [("r", "a"), ("r", "a)")])
    spec("twins", twins, 2)
    spec("twins-amp", _ampliated(twins, (2, 2)), 2)
    spec("point", _tree(["p"], []))
    spec("point-w", _tree(["p"], [], {"p": 4}))
    for n in (2, 3, 4, 6, 12):
        spec(f"chain{n}", tree_from_parents(tuple(range(n - 1))))
    spec("chain2-w", _tree(["1", "2"], [("1", "2")], {"2": 1}))
    spec("chain2-w2", _tree(["1", "2"], [("1", "2")], {"1": 2}))
    lam = _tree(["r", "a", "b"], [("r", "a"), ("r", "b")])
    spec("lam", lam)
    spec("lam-w", _tree(["r", "a", "b"], [("r", "a"), ("r", "b")], {"r": 1, "a": 2}))
    spec("lam-amp", _ampliated(lam, (2,)))
    spec("lam-amp-w", _tree(["r", "a", "b"], [("r", "a"), ("r", "b")], {"a": 1, "b": 1}))
    spec("lam-m2", lam, 3, (2,))
    spec("lam-m2-amp", _ampliated(lam, (2, 3)), 3, (2,))
    spec("lam-m2-amp4", _ampliated(lam, (2, 2)), 3, (2,))
    stem = _tree(["s", "r", "a", "b"], [("s", "r"), ("r", "a"), ("r", "b")])
    spec("stem", stem)
    spec("stem-amp", _ampliated(stem, (3,)))
    return docs


def cli_pairs() -> list[tuple[str, str, int]]:
    """(first, second, bound) of every CLI case that is not a corpus pair."""
    pairs = []
    for k in range(6):
        bound = (2, 2, 3)[k % 3] + k // 3
        pairs += [(f"rand{k}", f"rand{k}-amp", bound), (f"rand{k}-amp", f"rand{k}", bound)]
    pairs += [
        ("odd", "odd-amp", 2), ("odd-amp", "odd", 3), ("odd", "odd", 0),
        ("twins", "twins-amp", 2), ("twins-amp", "twins", 2), ("twins", "twins", 1),
        ("point", "chain2", 1), ("chain2", "point", 2), ("point", "chain6", 2),
        ("point", "chain12", 4), ("chain3", "point", 3), ("point-w", "chain4", 2),
        ("point-w", "point", 2), ("point", "point-w", 0), ("chain4", "chain2", 4),
        ("chain2-w", "chain3", 0), ("chain2-w", "chain2", 2), ("chain2-w2", "chain4", 3),
        ("lam", "lam-w", 3), ("lam-w", "lam-amp", 2), ("lam-amp-w", "lam-amp", 0),
        ("lam", "lam-amp-w", 2), ("lam", "lam-amp", 1), ("lam-amp", "lam", 4),
        ("lam-m2", "lam-m2-amp", 3), ("lam-m2", "lam-m2-amp4", 4), ("lam-m2-amp", "lam-m2", 2),
        ("stem", "stem-amp", 2), ("stem-amp", "stem", 1),
    ]
    return pairs


def _corpus_docs(trees) -> dict[str, dict]:
    return {
        f"t{i:02d}.json": spec_to_json(TreeRefinementSpec(t, (), 6))
        for i, t in enumerate(trees)
    }


def cli_cases(trees) -> list[list[str]]:
    skeletons = [branching_skeleton(t) for t in trees]
    corpus = [
        ["classify", f"t{i:02d}.json", f"t{j:02d}.json", "--bound", "4"]
        for i in range(len(trees))
        for j in range(len(trees))
        if skeletons[i] == skeletons[j]
    ]
    return corpus + [
        ["classify", f"{a}.json", f"{b}.json", "--bound", str(bound), *fmt]
        for a, b, bound in cli_pairs()
        for fmt in ([], ["--format", "json"])
    ]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_lines(trees) -> list[dict]:
    out = []
    for stationary in STATIONARY:
        specs = [TreeRefinementSpec(t, (), stationary) for t in trees]
        for bound in BOUNDS:
            for i, a in enumerate(specs):
                results = [classify_tree_refinement(a, b, bound) for b in specs]
                stdout = "".join(
                    json.dumps(classification_to_json(r), indent=2) + "\n" for r in results
                )
                out.append({
                    "case": f"stationary {stationary} bound {bound} first t{i:02d}",
                    "json": _sha256(stdout),
                    "exit": "".join(str(EXIT[r.verdict]) for r in results),
                })
    return out


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def cli_lines(trees) -> list[dict]:
    """Run every CLI case in the working directory, which holds the inputs."""
    got = []
    for argv in cli_cases(trees):
        code, out = run(argv)
        got.append({"case": " ".join(argv), "stdout": _sha256(out), "exit": code})
    return got


def _write_inputs(directory: Path, trees) -> None:
    for name, doc in {**_corpus_docs(trees), **cli_inputs()}.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def lines() -> list[dict]:
    trees = small_trees()
    with tempfile.TemporaryDirectory() as scratch:
        _write_inputs(Path(scratch), trees)
        here = os.getcwd()
        os.chdir(scratch)
        try:
            return corpus_lines(trees) + cli_lines(trees)
        finally:
            os.chdir(here)


def test_small_trees_are_the_37_classes():
    assert len(small_trees()) == 37


def test_classify_matches_golden_file():
    want = [json.loads(w) for w in GOLDEN.read_text(encoding="utf-8").splitlines()]
    got = lines()
    assert [g["case"] for g in got] == [w["case"] for w in want]
    for g, w in zip(got, want):
        assert g == w, w["case"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_classify.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(g) + "\n" for g in lines()), encoding="utf-8")
