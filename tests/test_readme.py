"""The README's quick tour runs, its rule example gets the verdicts it
states, and the package exports exactly its names."""

import contextlib
import io
import json
import pathlib
import re

import treealg
from treealg.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = [
    "DirectedGraph",
    "OutForest",
    "ampliate",
    "decide_tensor",
    "Verdict",
    "TreeRefinementSpec",
    "build_tree_refinement_tower",
    "classify_tree_refinement",
    "verify_ckt",
    "module_norm",
    "check_neat_inequality",
]


def test_quick_tour_prints_equivalent():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, str(README), "exec"), {})
    assert out.getvalue() == "equivalent\n"


def test_package_exports_the_documented_names():
    assert treealg.__all__ == DOCUMENTED
    for name in DOCUMENTED:
        assert getattr(treealg, name).__name__ == name
        assert f"`{name}`" in README.read_text(encoding="utf-8")


def test_rule_example_says_yes_backwards_and_no_forwards(tmp_path):
    # "File formats": a rule continues a full upper-triangular level into
    # the full order one size up, and any other level into its image.
    readme = README.read_text(encoding="utf-8")
    (text,) = re.findall(r'`(\{"levels":\[\{"blocks":\[2\].*?)`', readme)
    backwards = json.loads(text)
    forwards = json.loads(text)
    forwards["levels"][0]["units"] = [[[0, 1], [0, 2]]]
    for doc, code in ((backwards, 0), (forwards, 1)):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check-tensor", str(path), "--depth", "3"]) == code
