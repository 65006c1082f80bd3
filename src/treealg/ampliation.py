"""Ampliation of out-trees and the towers it generates.

Ampliating a tree by a multiplicity l replaces every vertex i by a chain
(i,1) -> (i,2) -> ... -> (i,l) and reroutes every tree edge j -> i to the
single edge (j,l) -> (i,1).  Row (i-1)l + s of the next matrix level
corresponds to the vertex (i,s), so the refinement embedding carries the
order algebra of a tree into the order algebra of its ampliation.

K steps by l have a closed form.  Each step turns a chain
x_1 -> ... -> x_m into the chain (x_1,1) -> ... -> (x_1,l) -> (x_2,1)
-> ... -> (x_m,l), so by induction vertex i becomes one chain of the l^K
nested names (...((i,s_1),s_2)...,s_K), in lexicographic order of
(s_1, ..., s_K), and tree edge j -> i becomes the single edge from the
last name of j, all s = l, to the first name of i, all s = 1.

ampliation_chains gives that graph one base vertex at a time: its
chain of names and its edges.  ampliate builds the forest from it and
states there why it is an out-tree, so the result is not checked again;
`treealg ampliate` writes its output from it chain by chain, with no
forest.  check_ampliation holds the checks of both.  Towers read each
order off the one before (tree_refinement_embedding) and ampliate only
the tree a stationary rule holds.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterator

from .algebra import DigraphAlgebra
from .embeddings import tree_refinement_embedding
from .errors import NotATree, OutputTooLarge
from .graphs import Edge, OutForest, unchecked_forest
from .records import Record
from .tower import Tower, TreeRefinementRule


MAX_MULTIPLICITY = 2**32
# classify factors each multiplicity by trial division: milliseconds at
# this cap, minutes for a prime near 10**18.

MAX_AMPLIATED_VERTICES = 250_000
# The most vertices `ampliate` may count over all its steps, n·l + ... +
# n·l^K for K steps of an n-vertex tree by l, though only the last n·l^K
# are built.  Near it, `treealg ampliate` of a 40-vertex tree by 5 in 5
# steps (125,000 vertices, 156,200 counted) writes 13 MB of JSON in
# 0.05 s at a peak RSS of 18 MB, of which the import takes 17-18 MB; the
# library ampliate builds that forest in 0.26 s at 67 MB (Python 3.11,
# 2-core x86 VM).  A higher cap changes which inputs exit 65.


def pair_name(base: str, s: int) -> str:
    return f"({base},{s})"


def check_ampliation(tree: OutForest, l: int, steps: int) -> None:
    """Raise what ampliate(tree, l, steps) raises, in its order.

    OutputTooLarge comes before any other check when the steps count
    more than MAX_AMPLIATED_VERTICES vertices; then a forest is refused
    unless steps is 0, then l < 1, then negative steps.
    """
    built, size = 0, len(tree.vertices)
    # An empty forest builds nothing and is no tree; l < 1 is refused below.
    for _ in range(steps if size and l >= 1 else 0):
        size *= l
        built += size
        if built > MAX_AMPLIATED_VERTICES:
            raise OutputTooLarge(
                f"{steps} ampliation steps by {l} build more than"
                f" {MAX_AMPLIATED_VERTICES} vertices"
            )
    if steps > 0 and not tree.is_tree():
        raise NotATree("ampliation is defined for single-rooted trees")
    if l < 1:
        raise ValueError("multiplicity must be at least 1")
    if steps < 0:
        raise ValueError("the number of steps must not be negative")


def ampliation_chains(
    tree: OutForest, l: int, steps: int, quote: Callable[[str], str] = str
) -> Iterator[tuple[list[str], Iterator[Edge]]]:
    """The closed form of the module docstring, for a tree that passed
    check_ampliation with steps >= 1.

    For each base vertex in declaration order: the chain of its l**steps
    names, in vertex order, and its edges in the order of their sources
    and then targets: the chain edges, then the edges from the chain's
    last name to the first names of the base vertex's children, in
    declaration order.  The names are "(v,s)" after one step,
    "((v,s),t)" after two, and so on.

    quote writes every name as an output format does: a delimiter, the
    name escaped one character at a time, and the same delimiter.  No
    format escapes "(", ",", ")" or a digit, so each base name is quoted
    once and the rest of its names are built around it.
    """
    empty = quote("")
    mark = empty[: len(empty) // 2]
    pieces = [f",{s})" for s in range(1, l + 1)]
    tails = ["".join(seq) + mark for seq in product(pieces, repeat=steps)]
    prefix = {}
    for v in tree.vertices:
        q = quote(v)
        prefix[v] = mark + "(" * steps + q[len(mark) : len(q) - len(mark)]
    first = tails[0]
    for v in tree.vertices:
        names = [prefix[v] + tail for tail in tails]
        last = names[-1]
        out = [(last, prefix[c] + first) for c in tree.children(v)]
        yield names, chain(zip(names, names[1:]), out)


def ampliate(tree: OutForest, l: int, steps: int = 1) -> OutForest:
    """The ampliation of a single out-tree by multiplicity l, applied
    steps times.

    Built from ampliation_chains, with the names and the vertex order
    that steps single ampliations give: "(v,s)" after one step,
    "((v,s),t)" after two, in base declaration order and then
    lexicographically.  Weights are not carried over.  Zero steps return
    the input itself, which may then be a forest.  check_ampliation
    gives the errors.

    The forest laws hold by construction, so the result is built by
    unchecked_forest.  Names are injective: the text after the last
    comma of "(x,s)" is "s)", so the name gives x and s, and by
    induction on the steps the base vertex and every s.  Every vertex
    but the root's first copy has one parent: the previous name of its
    chain, or, first in a chain, the last name of the base parent's
    chain.  Following chains and tree edges from the root's first copy
    reaches every vertex, so there is no cycle and that copy is the
    only root.  parent lists each vertex's children in vertex order: a
    name inside a chain has one child, and the children of a chain's
    last name come in the declaration order of the base children, which
    is the order of their chains.
    """
    check_ampliation(tree, l, steps)
    if steps == 0:
        return tree
    vertices: list[str] = []
    parent = {}
    for names, edges in ampliation_chains(tree, l, steps):
        vertices += names
        for s, t in edges:
            parent[t] = s
    return unchecked_forest(vertices, parent)


class TreeRefinementSpec(Record):
    """An out-tree plus the multiplicity schedule of its tower.

    multiplicities lists the first steps explicitly; stationary, if given,
    repeats forever after they run out.
    """

    __slots__ = ("base", "multiplicities", "stationary")

    def __init__(
        self, base: OutForest, multiplicities: tuple[int, ...] = (), stationary: int | None = None
    ) -> None:
        if not base.is_tree():
            raise NotATree("the base of a tree-refinement tower must be a tree")
        if any(m < 1 for m in multiplicities):
            raise ValueError("multiplicities must be positive")
        if stationary is not None and stationary < 1:
            raise ValueError("the stationary multiplicity must be positive")
        if max((*multiplicities, stationary or 1)) > MAX_MULTIPLICITY:
            raise ValueError(f"multiplicities must be at most {MAX_MULTIPLICITY}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "stationary", stationary)

    def multiplicity(self, step: int) -> int:
        """Multiplicity applied at step (0-based), or raise when exhausted."""
        if step < len(self.multiplicities):
            return self.multiplicities[step]
        if self.stationary is not None:
            return self.stationary
        raise ValueError(
            f"the multiplicity schedule ends after {len(self.multiplicities)} steps"
        )


def build_tree_refinement_tower(spec: TreeRefinementSpec, depth: int) -> Tower:
    """Materialize the first depth levels of the tower of a spec.

    Levels and maps come from the steps a TreeRefinementRule generates.
    A stationary schedule is recorded as a rule, holding the tree of the
    last level, so deeper levels can be generated on demand.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = [DigraphAlgebra.from_graph(spec.base)[0]]
    maps = []
    for step in range(depth - 1):
        e = tree_refinement_embedding(levels[-1], spec.multiplicity(step))
        levels.append(e.target)
        maps.append(e)
    rule = None
    if spec.stationary is not None and len(spec.multiplicities) <= depth - 1:
        tree = spec.base
        for step in range(depth - 1):
            tree = ampliate(tree, spec.multiplicity(step))
        rule = TreeRefinementRule(tree, spec.stationary)
    return Tower(levels, maps, rule)
