"""Ampliation of out-trees and the towers it generates.

Ampliating a tree by a multiplicity l replaces every vertex i by a chain
(i,1) -> (i,2) -> ... -> (i,l) and reroutes every tree edge j -> i to the
single edge (j,l) -> (i,1).  Row (i-1)l + s of the next matrix level
corresponds to the vertex (i,s), so the refinement embedding carries the
order algebra of a tree into the order algebra of its ampliation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DigraphAlgebra
from .embeddings import RegularEmbedding, refinement_rows, translation_embedding
from .errors import NotATree
from .graphs import DirectedGraph, OutForest
from .tower import Tower, TreeRefinementRule


def pair_name(base: str, s: int) -> str:
    return f"({base},{s})"


def ampliate(tree: OutForest, l: int) -> OutForest:
    """The multiplicity-l ampliation of a single out-tree.

    Vertices are named "(v,s)" with v the base vertex and 1 <= s <= l, in
    base declaration order; weights are not carried over.
    """
    if not tree.is_tree():
        raise NotATree("ampliation is defined for single-rooted trees")
    if l < 1:
        raise ValueError("multiplicity must be at least 1")
    vertices = [pair_name(v, s) for v in tree.vertices for s in range(1, l + 1)]
    edges = []
    for v in tree.vertices:
        for s in range(1, l):
            edges.append((pair_name(v, s), pair_name(v, s + 1)))
    for j, i in tree.edges:
        edges.append((pair_name(j, l), pair_name(i, 1)))
    return OutForest(DirectedGraph(vertices, edges))


@dataclass(frozen=True)
class TreeRefinementSpec:
    """An out-tree plus the multiplicity schedule of its tower.

    multiplicities lists the first steps explicitly; stationary, if given,
    repeats forever after they run out.
    """

    base: OutForest
    multiplicities: tuple[int, ...] = ()
    stationary: int | None = None

    def __post_init__(self) -> None:
        if not self.base.is_tree():
            raise NotATree("the base of a tree-refinement tower must be a tree")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if self.stationary is not None and self.stationary < 1:
            raise ValueError("the stationary multiplicity must be positive")

    def multiplicity(self, step: int) -> int:
        """Multiplicity applied at step (0-based), or raise when exhausted."""
        if step < len(self.multiplicities):
            return self.multiplicities[step]
        if self.stationary is not None:
            return self.stationary
        raise ValueError(
            f"the multiplicity schedule ends after {len(self.multiplicities)} steps"
        )


def level_algebra(tree: OutForest) -> DigraphAlgebra:
    """The order algebra of a tree, rows following declaration order."""
    return DigraphAlgebra.from_graph(tree.graph)[0]


def refinement_between(
    tree: OutForest, l: int, source: DigraphAlgebra
) -> tuple[OutForest, RegularEmbedding]:
    """The ampliation of tree by l, and the refinement embedding from
    source, the order algebra of tree, onto the order algebra of the
    ampliation."""
    nxt = ampliate(tree, l)
    e = translation_embedding(source, refinement_rows(l), level_algebra(nxt))
    return nxt, e


def build_tree_refinement_tower(spec: TreeRefinementSpec, depth: int) -> Tower:
    """Materialize the first depth levels of the tower of a spec.

    Levels are order algebras of the iterated ampliations; maps are the
    refinement embeddings.  A stationary schedule is recorded as a rule so
    deeper levels can be generated on demand.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tree = spec.base
    levels = [level_algebra(tree)]
    maps = []
    for step in range(depth - 1):
        tree, e = refinement_between(tree, spec.multiplicity(step), levels[-1])
        levels.append(e.target)
        maps.append(e)
    rule = None
    if spec.stationary is not None and len(spec.multiplicities) <= depth - 1:
        rule = TreeRefinementRule(tree, spec.stationary)
    return Tower(levels, maps, rule)
