"""Decisions and materialized towers on catalog towers, pinned byte for byte.

tests/golden/decisions.jsonl holds one line per (tower, depth) case: the
compact JSON of {"tower", "depth", "decision"}, where decision is
decision_to_json of decide_tensor at that depth.  The file was recorded
before the relation kernel moved to row bitmasks, so any change in a
verdict, witness or certificate shows up here.

tests/golden/maps.jsonl holds one line per case too: the sha256 of the
compact JSON of algebra_to_json for every level and of embedding_to_json
for every map that materialize(tower, depth) returns.  It pins every
embedding the constructors and rule steps build, including the
tree-refinement maps that no decision prints.  It was recorded before
the row-translation constructors were merged into one helper.

To record both files again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_decisions.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from treealg.algebra import DigraphAlgebra
from treealg.ampliation import TreeRefinementSpec, build_tree_refinement_tower
from treealg.catalog import (
    branching_tree,
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from treealg.formats import algebra_to_json, decision_to_json, embedding_to_json
from treealg.tower import RefinementRule, StandardRule, Tower, decide_tensor, materialize

GOLDEN = Path(__file__).resolve().parent / "golden" / "decisions.jsonl"
GOLDEN_MAPS = Path(__file__).resolve().parent / "golden" / "maps.jsonl"
DEPTHS = (1, 2, 3, 4)


def _diamond() -> DigraphAlgebra:
    return DigraphAlgebra(
        [4],
        [((0, 1), (0, 2)), ((0, 1), (0, 3)), ((0, 2), (0, 4)), ((0, 3), (0, 4)), ((0, 1), (0, 4))],
    )


def towers():
    """(name, tower) for every catalog constructor, plus towers whose
    levels fail the tree condition or come from ampliated trees."""
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        yield f"standard_tower({n},{m})", standard_tower(n, m)
    for n, l in ((2, 2), (3, 2), (2, 3)):
        yield f"refinement_tower({n},{l})", refinement_tower(n, l)
    for n, m in ((2, 2), (3, 2), (2, 3)):
        yield f"standard_image_tower({n},{m})", standard_image_tower(n, m)
    for depth in (1, 2, 3, 4):
        yield f"mixed_tower({depth})", mixed_tower(depth)
    for depth in (1, 2, 3, 4):
        yield f"triple_copy_tower({depth})", triple_copy_tower(depth)
    yield "diamond", Tower([_diamond()], [])
    yield "diamond+standard(2)", Tower([_diamond()], [], StandardRule(2))
    yield "diamond+refinement(2)", Tower([_diamond()], [], RefinementRule(2))
    for name, tree in (("lambda", lambda_tree()), ("branching", branching_tree())):
        for stationary in (1, 2):
            spec = TreeRefinementSpec(tree, (), stationary=stationary)
            yield f"{name}-refinement({stationary})", build_tree_refinement_tower(spec, 2)


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _sha256(doc) -> str:
    return hashlib.sha256(_compact(doc).encode("utf-8")).hexdigest()


def lines() -> list[str]:
    out = []
    for name, tower in towers():
        for depth in DEPTHS:
            doc = {
                "tower": name,
                "depth": depth,
                "decision": decision_to_json(decide_tensor(tower, depth)),
            }
            out.append(_compact(doc))
    return out


def map_lines() -> list[str]:
    out = []
    for name, tower in towers():
        for depth in DEPTHS:
            levels, maps = materialize(tower, depth)
            doc = {
                "tower": name,
                "depth": depth,
                "levels": [_sha256(algebra_to_json(a)) for a in levels],
                "maps": [_sha256(embedding_to_json(e)) for e in maps],
            }
            out.append(_compact(doc))
    return out


def _assert_matches(path: Path, got: list[str]) -> None:
    want = path.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        w_doc = json.loads(w)
        assert g == w, (w_doc["tower"], w_doc["depth"])


def test_decisions_match_golden_file():
    _assert_matches(GOLDEN, lines())


def test_materialized_towers_match_golden_file():
    _assert_matches(GOLDEN_MAPS, map_lines())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_decisions.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines()) + "\n", encoding="utf-8")
    GOLDEN_MAPS.write_text("\n".join(map_lines()) + "\n", encoding="utf-8")
