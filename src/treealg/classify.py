"""Classification of tree-refinement data: reduced weighted trees,
canonical codes, supernatural numbers, and the bounded equivalence search.

Reduction contracts every chain of pass-through vertices to a single
edge and records how many vertices each contraction swallowed as a
weight on the deeper endpoint.  Two trees are isomorphic exactly when
their reductions match weight for weight, which canonical codes test in
one comparison.  The equivalence search for refinement towers first
compares supernatural numbers, then the ampliation-invariant branching
skeleton, and only then hunts for a witnessing pair of ampliations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ampliation import TreeRefinementSpec, ampliate
from .errors import NotATree
from .graphs import DirectedGraph, OutForest


class WeightedTree:
    """A reduced out-tree with nonnegative integer vertex weights.

    Reduced means no pass-through vertices: every vertex except the root
    and the sinks emits at least two edges.  The root may emit a single
    edge; a contracted chain hanging off the root keeps it that way.
    """

    __slots__ = ("_tree", "_weight")

    def __init__(self, tree: OutForest, weight: Mapping[str, int] | None = None) -> None:
        if not tree.is_tree():
            raise NotATree("a weighted tree needs a single root")
        w = {v: 0 for v in tree.vertices}
        for v, value in (weight or {}).items():
            if v not in w:
                raise ValueError(f"weight given for unknown vertex {v!r}")
            if value < 0:
                raise ValueError(f"negative weight on {v!r}")
            w[v] = value
        root = tree.single_root()
        for v in tree.vertices:
            if v != root and tree.graph.out_degree(v) == 1:
                raise ValueError(f"vertex {v!r} passes through; the tree is not reduced")
        self._tree = tree
        self._weight = w

    @property
    def tree(self) -> OutForest:
        return self._tree

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._tree.vertices

    def weight(self, v: str) -> int:
        return self._weight[v]

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._weight)

    def total_weight(self) -> int:
        return sum(self._weight.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self._tree == other._tree and self._weight == other._weight

    def __hash__(self) -> int:
        return hash((self._tree, tuple(sorted(self._weight.items()))))

    def __repr__(self) -> str:
        return f"WeightedTree({len(self.vertices)} vertices, total weight {self.total_weight()})"


def reduce(g: OutForest) -> WeightedTree:
    """Contract pass-through chains of an out-tree into weighted edges.

    Kept vertices are the root, the sinks, and every vertex emitting at
    least two edges.  A contracted chain adds its vertex count plus any
    weights it carried to the chain's deeper endpoint.
    """
    if not g.is_tree():
        raise NotATree("reduction is defined for single-rooted trees")
    root = g.single_root()
    base = {v: g.graph.weight(v) for v in g.vertices}
    keep = [
        v
        for v in g.vertices
        if v == root or g.graph.out_degree(v) != 1
    ]
    kept = set(keep)
    edges = []
    extra = {v: 0 for v in keep}
    for v in keep:
        if v == root:
            continue
        absorbed = 0
        a = g.parent(v)
        while a not in kept:
            absorbed += 1 + base[a]
            a = g.parent(a)
        edges.append((a, v))
        extra[v] = absorbed
    tree = OutForest(DirectedGraph(keep, edges))
    weights = {v: base[v] + extra[v] for v in keep}
    return WeightedTree(tree, weights)


def heights(t: WeightedTree) -> dict[str, int]:
    """Sinks at 0; every other vertex one above its tallest child."""
    out: dict[str, int] = {}

    def height(v: str) -> int:
        if v not in out:
            kids = t.tree.children(v)
            out[v] = 1 + max(height(c) for c in kids) if kids else 0
        return out[v]

    for v in t.vertices:
        height(v)
    return out


def _subtree(t: WeightedTree, root: str) -> WeightedTree:
    vs = [v for v in t.vertices if v in t.tree.subtree_vertices(root)]
    es = [(u, v) for u, v in t.tree.edges if u in set(vs)]
    sub = OutForest(DirectedGraph(vs, es))
    return WeightedTree(sub, {v: t.weight(v) for v in vs})


def level_lists(t: WeightedTree) -> list[list[WeightedTree]]:
    """Weighted subtrees collected by height.

    Entry k holds the maximal subtrees whose roots have height at most
    k; entry 0 is the sinks with their weights and the last entry is the
    whole tree.
    """
    h = heights(t)
    root = t.tree.single_root()
    out = []
    for k in range(h[root] + 1):
        tops = [
            v
            for v in t.vertices
            if h[v] <= k and (v == root or h[t.tree.parent(v)] > k)
        ]
        out.append([_subtree(t, v) for v in tops])
    return out


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Total-order-comparable encoding deciding weighted isomorphism."""

    data: tuple

    def __repr__(self) -> str:
        return f"CanonicalCode({self.data!r})"


def _code(t: WeightedTree, v: str) -> tuple:
    kids = tuple(sorted(_code(t, c) for c in t.tree.children(v)))
    return (t.weight(v), kids)


def canonical_code(t: WeightedTree) -> CanonicalCode:
    """Bottom-up code: (weight, sorted children codes) from the root."""
    return CanonicalCode(_code(t, t.tree.single_root()))


def trees_isomorphic(g: OutForest, h: OutForest) -> bool:
    """Weight-preserving isomorphism of the reductions, decided by codes."""
    return canonical_code(reduce(g)) == canonical_code(reduce(h))


def _shape(t: WeightedTree, v: str) -> tuple:
    return tuple(sorted(_shape(t, c) for c in t.tree.children(v)))


def branching_skeleton(g: OutForest) -> tuple:
    """The reduced shape with the root chain stripped and weights dropped.

    Ampliating a tree stretches every vertex into a chain but never adds
    or removes branch points, so this shape is invariant under any
    sequence of ampliations.
    """
    red = reduce(g)
    root = red.tree.single_root()
    if red.tree.graph.out_degree(root) == 1:
        (root,) = red.tree.children(root)
    return _shape(red, root)


@dataclass(frozen=True)
class SupernaturalNumber:
    """Prime exponents of a multiplicity product, some possibly infinite."""

    finite: tuple[tuple[int, int], ...]
    infinite: frozenset[int]

    @property
    def finite_part(self) -> dict[int, int]:
        return dict(self.finite)

    def exponent(self, p: int) -> float:
        if p in self.infinite:
            return math.inf
        return dict(self.finite).get(p, 0)

    def divisible_by(self, n: int) -> bool:
        if n < 1:
            return False
        for p, e in _factor(n).items():
            if self.exponent(p) < e:
                return False
        return True

    def primes(self) -> frozenset[int]:
        return self.infinite | {p for p, _ in self.finite}

    def __repr__(self) -> str:
        parts = [f"{p}^inf" for p in sorted(self.infinite)]
        parts += [f"{p}^{e}" for p, e in self.finite]
        return "SupernaturalNumber(" + (" * ".join(parts) or "1") + ")"


def _factor(n: int) -> dict[int, int]:
    out: Counter[int] = Counter()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return dict(out)


def supernatural(
    mults: Iterable[int], tail: int | None = None
) -> SupernaturalNumber:
    """Prime content of a multiplicity schedule.

    The listed multiplicities contribute finite exponents; a stationary
    tail repeats forever, so its primes go unbounded.
    """
    acc: Counter[int] = Counter()
    for m in mults:
        if m < 1:
            raise ValueError("multiplicities must be positive")
        acc.update(_factor(m))
    inf: frozenset[int] = frozenset()
    if tail is not None:
        if tail < 1:
            raise ValueError("the stationary multiplicity must be positive")
        inf = frozenset(_factor(tail))
    finite = tuple(sorted((p, e) for p, e in acc.items() if p not in inf))
    return SupernaturalNumber(finite, inf)


def spec_supernatural(spec: TreeRefinementSpec) -> SupernaturalNumber:
    return supernatural(spec.multiplicities, spec.stationary)


@dataclass(frozen=True)
class Equivalent:
    verdict = "equivalent"
    ampliations: tuple[tuple[int, ...], tuple[int, ...]]
    bijection: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Distinct:
    verdict = "distinct"
    reason: str


@dataclass(frozen=True)
class Undetermined:
    verdict = "undetermined"
    bound: int


ClassificationResult = Equivalent | Distinct | Undetermined


def _match_vertices(
    a: WeightedTree, va: str, b: WeightedTree, vb: str, out: list[tuple[str, str]]
) -> None:
    out.append((va, vb))
    ka = sorted(a.tree.children(va), key=lambda c: (_code(a, c), c))
    kb = sorted(b.tree.children(vb), key=lambda c: (_code(b, c), c))
    for ca, cb in zip(ka, kb):
        _match_vertices(a, ca, b, cb, out)


def _iterated_ampliation(base: OutForest, factors: Sequence[int]) -> OutForest:
    g = base
    for f in factors:
        g = ampliate(g, f)
    return g


def _factor_sequences(
    primes: Sequence[int], max_steps: int, sn: SupernaturalNumber
) -> list[tuple[int, ...]]:
    """Nondecreasing prime tuples of bounded length whose product divides sn."""
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_steps):
        nxt = []
        for seq in frontier:
            start = primes.index(seq[-1]) if seq else 0
            for p in primes[start:]:
                cand = seq + (p,)
                if sn.divisible_by(math.prod(cand)):
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def classify_tree_refinement(
    a: TreeRefinementSpec, b: TreeRefinementSpec, ampliation_bound: int = 3
) -> ClassificationResult:
    """Decide equivalence of two tree-refinement specs up to ampliation.

    Distinct requires a certificate that survives every ampliation:
    different supernatural numbers or different branching skeletons.
    Equivalent reports the ampliation pair and a vertex bijection of the
    reductions.  Otherwise the bounded search is exhausted and the
    verdict stays Undetermined.
    """
    if ampliation_bound < 0:
        raise ValueError("the ampliation bound must be nonnegative")
    sa, sb = spec_supernatural(a), spec_supernatural(b)
    if sa != sb:
        return Distinct("supernatural numbers differ")
    if branching_skeleton(a.base) != branching_skeleton(b.base):
        return Distinct("branching skeletons differ")
    primes = sorted(sa.primes())
    seqs_a = _factor_sequences(primes, ampliation_bound, sa)
    seqs_b = _factor_sequences(primes, ampliation_bound, sa)
    na, nb = len(a.base.vertices), len(b.base.vertices)
    candidates = [
        (len(pa) + len(pb), pa, pb)
        for pa in seqs_a
        for pb in seqs_b
        if na * math.prod(pa) == nb * math.prod(pb)
    ]
    for _, pa, pb in sorted(candidates):
        ga = _iterated_ampliation(a.base, pa)
        gb = _iterated_ampliation(b.base, pb)
        if trees_isomorphic(ga, gb):
            ra, rb = reduce(ga), reduce(gb)
            pairs: list[tuple[str, str]] = []
            _match_vertices(ra, ra.tree.single_root(), rb, rb.tree.single_root(), pairs)
            return Equivalent((pa, pb), tuple(pairs))
    return Undetermined(ampliation_bound)
