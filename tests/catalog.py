"""Named example graphs and towers for the tests and the CI timing steps.

No module of the package imports them; put tests/ on the path to use
them, as the test suite does.

The triple-copy tower is the interesting one: every level is a full
upper-triangular algebra and every map places three copies of the
previous level along the pattern fixed by three index injections.  A
pair picked up fresh at some level may jump in grade at its first
embedding step, after which its whole orbit freezes, so the tower
decides yes on stabilized evidence alone.
"""

from __future__ import annotations

from treealg.algebra import DigraphAlgebra
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    standard_embedding,
    standard_rows,
    translation_embedding,
)
from treealg.graphs import DirectedGraph, OutForest
from treealg.tower import RefinementRule, StandardRule, Tower


def lambda_graph() -> DirectedGraph:
    """A root with two leaf children."""
    return DirectedGraph(["r", "a", "b"], [("r", "a"), ("r", "b")])


def lambda_tree() -> OutForest:
    return OutForest(lambda_graph())


def branching_graph() -> DirectedGraph:
    """Four vertices: the root feeds a leaf and a two-vertex branch."""
    return DirectedGraph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("3", "4")])


def branching_tree() -> OutForest:
    return OutForest(branching_graph())


def chain_graph(n: int) -> DirectedGraph:
    if n < 1:
        raise ValueError("a chain needs at least one vertex")
    return DirectedGraph(
        [str(i) for i in range(1, n + 1)],
        [(str(i), str(i + 1)) for i in range(1, n)],
    )


def chain_forest(n: int) -> OutForest:
    return OutForest(chain_graph(n))


def standard_tower(n: int, m: int) -> Tower:
    """One stored full level, continued by standard multiplicity-m steps."""
    return Tower([DigraphAlgebra.upper_triangular(n)], [], StandardRule(m))


def refinement_tower(n: int, l: int) -> Tower:
    """One stored full level, continued by refinement steps of size l."""
    return Tower([DigraphAlgebra.upper_triangular(n)], [], RefinementRule(l))


def standard_image_tower(n: int, m: int) -> Tower:
    """Two stored levels where the second is the embedded image algebra.

    The image of a full triangular level under a standard step is m
    disjoint translated copies, not the full algebra one size up.  With
    the standard rule attached, the grade-1 units at level 2 are exactly
    the m translated chains.
    """
    src = DigraphAlgebra.upper_triangular(n)
    emb = translation_embedding(src, standard_rows(n, m))
    return Tower([src, emb.target], [emb], StandardRule(m))


def mixed_tower(depth: int = 2) -> Tower:
    """Alternating refinement and standard steps of size 2, no rule."""
    levels = [DigraphAlgebra.upper_triangular(2)]
    maps = []
    for k in range(depth - 1):
        n = levels[-1].blocks[0]
        e = refinement_embedding(n, 2) if k % 2 == 0 else standard_embedding(n, 2)
        maps.append(e)
        levels.append(e.target)
    return Tower(levels, maps, rule=None)


# Index injections of the triple-copy pattern: copy c sends the three
# grid rows of one level into the next along _TRIPLE_COPIES[c].
_TRIPLE_COPIES = ((1, 2, 5), (3, 4, 6), (7, 8, 9))


def _triple_lift(i: int, scale: int, copy: tuple[int, int, int]) -> int:
    block, inner = divmod(i - 1, scale)
    return (copy[block] - 1) * scale + inner + 1


def triple_copy_tower(depth: int) -> Tower:
    """Full triangular levels of size 3, 9, 27, ... with triple-copy maps.

    The map one level down sends each matrix unit to the sum of its
    three lifted copies; lifting treats indices as grid row plus offset
    at the previous level's scale.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = [DigraphAlgebra.upper_triangular(3)]
    maps: list[RegularEmbedding] = []
    for k in range(1, depth):
        scale = 3 ** (k - 1)
        e = translation_embedding(
            levels[-1],
            lambda i: [_triple_lift(i, scale, c) for c in _TRIPLE_COPIES],
            DigraphAlgebra.upper_triangular(3 ** (k + 1)),
        )
        maps.append(e)
        levels.append(e.target)
    return Tower(levels, maps, rule=None)
