"""The README's quick tour runs, and the package exports exactly its names."""

import contextlib
import io
import pathlib
import re

import treealg

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
    "build_ckt_family",
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
