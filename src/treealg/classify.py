"""Classification of tree-refinement data: reduced weighted trees,
canonical codes, supernatural numbers, and the bounded equivalence search.

Reduction contracts every chain of pass-through vertices to a single
edge and records how many vertices each contraction swallowed as a
weight on the deeper endpoint.  Two trees are isomorphic exactly when
their reductions match weight for weight, which canonical codes test in
one comparison.  The equivalence search for refinement towers first
compares supernatural numbers, then the ampliation-invariant branching
skeleton, and only then hunts for a witnessing pair of ampliations.

The search never builds an ampliation.  By induction on k, ampliating T
by f1, ..., fk in turn replaces each vertex v by a chain of L = f1...fk
copies from ((v,1),...,1) to ((v,f1),...,fk), and each edge u -> v by
the edge from u's last copy to v's first: ampliating by f stretches a
chain c1 -> ... -> cL into (c1,1) -> ... -> (cL,f) and turns an edge
x -> y into (x,f) -> (y,1).  Ampliation drops weights, so reduce keeps
the root's first copy, of weight 0, and the last copy of each vertex of
out-degree other than 1.  A vertex v of weight w in R = reduce(T,
weights=False) gets weight L*w + L - 1 (all copies of the w contracted
vertices above it and v's own earlier copies), plus L - 1 more for the
root's later copies when its parent is a root with one child.  Any
other root keeps its last copy, of weight L - 2.  So each side's code
depends on L alone and is computed once per product in O(|R| log |R|);
a candidate then costs one comparison of codes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Iterable, Sequence

from .ampliation import MAX_MULTIPLICITY, TreeRefinementSpec, pair_name
from .errors import NotATree
from .graphs import OutForest, unchecked_forest
from .records import Record


def reduce(g: OutForest, weights: bool = True) -> OutForest:
    """Contract pass-through chains of an out-tree into weighted edges.

    Kept vertices are the root, the sinks, and every vertex emitting at
    least two edges, so no vertex of the result but the root emits a
    single edge.  A contracted chain adds its vertex count plus any
    weights it carried to the chain's deeper endpoint; the weights ride
    on the result's graph.  With weights False the weights g carries are
    read as 0, as ampliation reads them.

    The result is a tree by construction, so it is built by
    unchecked_forest: each kept vertex but the root gets its nearest
    kept proper ancestor as parent, so parent chains follow those of g
    up to the root, and parents are listed in g's vertex order.
    """
    if not g.is_tree():
        raise NotATree("reduction is defined for single-rooted trees")
    root = g.single_root()
    base = {v: g.graph.weight(v) if weights else 0 for v in g.vertices}
    keep = [
        v
        for v in g.vertices
        if v == root or g.graph.out_degree(v) != 1
    ]
    kept = set(keep)
    parent = {}
    weight = {v: base[v] for v in keep}
    for v in keep:
        if v == root:
            continue
        a = g.parent(v)
        while a not in kept:
            weight[v] += 1 + base[a]
            a = g.parent(a)
        parent[v] = a
    return unchecked_forest(keep, parent, weight)


class CanonicalCode(Record):
    """Total-order-comparable encoding deciding weighted isomorphism."""

    # Codes compare as the 1-tuples of their data, and only with codes.
    # The classification search compares one code per candidate, so these
    # read data directly rather than through Record's field tuple.
    __slots__ = ("data",)

    def __init__(self, data: tuple) -> None:
        object.__setattr__(self, "data", data)

    def __repr__(self) -> str:
        return f"CanonicalCode({self.data!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.data,) == (other.data,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.data,))

    def __lt__(self, other: CanonicalCode) -> bool:
        if other.__class__ is self.__class__:
            return (self.data,) < (other.data,)
        return NotImplemented

    def __le__(self, other: CanonicalCode) -> bool:
        if other.__class__ is self.__class__:
            return (self.data,) <= (other.data,)
        return NotImplemented

    def __gt__(self, other: CanonicalCode) -> bool:
        if other.__class__ is self.__class__:
            return (self.data,) > (other.data,)
        return NotImplemented

    def __ge__(self, other: CanonicalCode) -> bool:
        if other.__class__ is self.__class__:
            return (self.data,) >= (other.data,)
        return NotImplemented


def _codes(t: OutForest) -> dict[str, tuple]:
    """The code of every vertex, each computed once, children first."""
    order = [t.single_root()]
    for v in order:
        order.extend(t.children(v))
    codes: dict[str, tuple] = {}
    for v in reversed(order):
        codes[v] = (t.graph.weight(v), tuple(sorted(codes[c] for c in t.children(v))))
    return codes


def canonical_code(t: OutForest) -> CanonicalCode:
    """Bottom-up code: (weight, sorted children codes) from the root."""
    return CanonicalCode(_codes(t)[t.single_root()])


def trees_isomorphic(g: OutForest, h: OutForest) -> bool:
    """Weight-preserving isomorphism of the reductions, decided by codes."""
    return canonical_code(reduce(g)) == canonical_code(reduce(h))


def _shape(t: OutForest, v: str) -> tuple:
    return tuple(sorted(_shape(t, c) for c in t.children(v)))


def branching_skeleton(g: OutForest) -> tuple:
    """The reduced shape with the root chain stripped and weights dropped.

    Ampliating a tree stretches every vertex into a chain but never adds
    or removes branch points, so this shape is invariant under any
    sequence of ampliations.
    """
    return _skeleton(reduce(g))


def _skeleton(red: OutForest) -> tuple:
    root = red.single_root()
    if red.graph.out_degree(root) == 1:
        (root,) = red.children(root)
    return _shape(red, root)


class SupernaturalNumber(Record):
    """Prime exponents of a multiplicity product, some possibly infinite."""

    __slots__ = ("finite", "infinite")

    def __init__(self, finite: tuple[tuple[int, int], ...], infinite: frozenset[int]) -> None:
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "infinite", infinite)

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
    tail repeats forever, so its primes go unbounded.  Trial division
    factors each, so none may exceed MAX_MULTIPLICITY.
    """
    acc: Counter[int] = Counter()
    for m in mults:
        if m < 1:
            raise ValueError("multiplicities must be positive")
        if m > MAX_MULTIPLICITY:
            raise ValueError(f"multiplicities must be at most {MAX_MULTIPLICITY}")
        acc.update(_factor(m))
    inf: frozenset[int] = frozenset()
    if tail is not None:
        if tail < 1:
            raise ValueError("the stationary multiplicity must be positive")
        if tail > MAX_MULTIPLICITY:
            raise ValueError(f"multiplicities must be at most {MAX_MULTIPLICITY}")
        inf = frozenset(_factor(tail))
    finite = tuple(sorted((p, e) for p, e in acc.items() if p not in inf))
    return SupernaturalNumber(finite, inf)


def spec_supernatural(spec: TreeRefinementSpec) -> SupernaturalNumber:
    return supernatural(spec.multiplicities, spec.stationary)


class Equivalent(Record):
    verdict = "equivalent"
    __slots__ = ("ampliations", "bijection")

    def __init__(
        self,
        ampliations: tuple[tuple[int, ...], tuple[int, ...]],
        bijection: tuple[tuple[str, str], ...],
    ) -> None:
        object.__setattr__(self, "ampliations", ampliations)
        object.__setattr__(self, "bijection", bijection)


class Distinct(Record):
    verdict = "distinct"
    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        object.__setattr__(self, "reason", reason)


class Undetermined(Record):
    verdict = "undetermined"
    __slots__ = ("bound",)

    def __init__(self, bound: int) -> None:
        object.__setattr__(self, "bound", bound)


ClassificationResult = Equivalent | Distinct | Undetermined


def ampliated_reduction(red: OutForest, factors: Sequence[int]) -> OutForest:
    """reduce of a tree g ampliated by each factor in turn, from
    red = reduce(g, weights=False) alone, without the ampliation.

    Vertex names, weights and vertex order are those reduce gives (see
    the module docstring for the proof); the cost is O(|red|) however
    large the product of the factors.  Like ampliation, this reads the
    weights of g as 0, so with no factor it returns red itself.

    The result is built by unchecked_forest.  Its names are distinct:
    nested pair names are injective, and the root's first and last
    copies are both present only when L > 1, where they differ.  Every
    vertex but the root's first copy gets one parent, a copy of its
    parent in red or, for the root's last copy, the first, and parents
    are listed in vertex order.
    """
    root = red.single_root()
    l = math.prod(factors)
    last = {v: functools.reduce(pair_name, factors, v) for v in red.vertices}
    top = functools.reduce(pair_name, [1] * len(factors), root)
    stem = l == 1 or red.graph.out_degree(root) == 1
    weights: dict[str, int] = {}  # in the order of the ampliation's vertices
    parent = {}
    for v in red.vertices:
        if v == root:
            weights[top] = 0
            if not stem:
                weights[last[v]] = l - 2
                parent[last[v]] = top
            continue
        u = red.parent(v)
        up = top if u == root and stem else last[u]
        parent[last[v]] = up
        weights[last[v]] = l * red.graph.weight(v) + l - 1 + (l - 1 if up == top else 0)
    return unchecked_forest(weights, parent, weights)


def _match_vertices(a: OutForest, b: OutForest) -> tuple[tuple[str, str], ...]:
    """Pair the vertices of two reductions with equal codes: depth-first
    from the roots, siblings matched in (code, name) order."""
    code_a, code_b = _codes(a), _codes(b)
    out = []
    stack = [(a.single_root(), b.single_root())]
    while stack:
        va, vb = stack.pop()
        out.append((va, vb))
        ka = sorted(a.children(va), key=lambda c: (code_a[c], c))
        kb = sorted(b.children(vb), key=lambda c: (code_b[c], c))
        stack.extend(reversed(list(zip(ka, kb))))
    return tuple(out)


def _factor_sequences(
    primes: Sequence[int], max_steps: int, sn: SupernaturalNumber
) -> list[tuple[int, ...]]:
    """Nondecreasing prime tuples of bounded length whose product divides sn."""
    if not sn.infinite:
        # A product of k primes divides a finite number only when k is at
        # most the sum of its exponents.
        max_steps = min(max_steps, sum(e for _, e in sn.finite))
    return [
        seq
        for k in range(max_steps + 1)
        for seq in itertools.combinations_with_replacement(primes, k)
        if sn.divisible_by(math.prod(seq))
    ]


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
    specs = (a, b)
    plain = [reduce(spec.base, weights=False) for spec in specs]
    if _skeleton(plain[0]) != _skeleton(plain[1]):
        return Distinct("branching skeletons differ")
    # A nondecreasing prime sequence is fixed by its product, and a product
    # L_a has at most one partner L_b = na * L_a / nb, so one pass pairs the
    # sequences and each side's code is computed at most once.
    seqs = {math.prod(s): s for s in _factor_sequences(sorted(sa.primes()), ampliation_bound, sa)}
    na, nb = len(a.base.vertices), len(b.base.vertices)
    candidates = sorted(
        (len(pa) + len(pb), pa, pb)
        for la, pa in seqs.items()
        for pb in [seqs.get(na * la // nb)]
        if na * la % nb == 0 and pb is not None
    )

    def reduction(k: int, seq: tuple[int, ...]) -> OutForest:
        return ampliated_reduction(plain[k], seq) if seq else reduce(specs[k].base)

    for _, pa, pb in candidates:
        ra, rb = reduction(0, pa), reduction(1, pb)
        if canonical_code(ra) == canonical_code(rb):
            return Equivalent((pa, pb), _match_vertices(ra, rb))
    return Undetermined(ampliation_bound)
