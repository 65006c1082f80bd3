"""Classification of tree-refinement data: reduced weighted trees,
canonical codes, supernatural numbers, and the equivalence search.

Reduction contracts every chain of pass-through vertices to a single
edge and records how many vertices each contraction swallowed as a
weight on the deeper endpoint.  Two trees are isomorphic exactly when
their reductions match weight for weight, which canonical codes test in
one comparison.  The equivalence search for refinement towers first
compares supernatural numbers, then the ampliation-invariant branching
skeleton, and only then looks for a witnessing pair of ampliations.

A vertex's code is its weight and the sorted codes of its children, and
codes compare as tuples: weights first, then the children's codes one
by one, then their number.  No code is built as a nested tuple, whose
comparison would recurse as deep as the tree.  Instead the codes of
each depth are ranked, from the deepest depth up: a vertex's key is its
weight and the sorted ranks of its children, which share a depth, so
keys compare as codes do.  A code is written as the tuple of its
vertices in preorder, siblings in rank order, each as the pair of its
depth and weight, and comparing it goes one level deep.  It compares
as the code does.  Up to the first difference the two preorders walk
one shape.  There, at equal depths, two matched vertices differ in
weight; at unequal depths, the side that goes less deep, or ends, has
run out of children first at the depth above the other's vertex, and
a prefix of children is the smaller.  The same ranks with every weight
0 give the skeleton.

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
other root keeps its last copy, of weight L - 2.

So for L >= 2 the reduction is one template read at L: each vertex
carries a pair (a, b) and weighs a*L + b.  The root's first copy has
(0, 0), the last copy of a root with other than one child (1, -2), and
the last copy of any other vertex v of weight w in R has (w + 1 + s,
-1 - s), where s is 1 when v's parent is a root with one child and 0
otherwise.  Then b is 0 at depth 0, -2 at depth 1 and -1 below, so
siblings share b, and for L >= 1 a*L + b is strictly increasing in a
at fixed b.  Codes compare weights first and each step compares
vertices of one depth, so by induction from the leaves two codes of
one depth compare at every L as their codes over the pairs (a, b)
compare.  Sibling order, and with it the code's preorder, does not
depend on L: the code at L is a fixed shape, the child counts of its
vertices in preorder, with the weight a*L + b at each.  A nested code
and its preorder of child counts and weights determine each other, so
the codes of two sides at L_a, L_b >= 2 are equal exactly when their
shapes are equal and so are their lists of weights.  code_template
gives each side's shape and pairs once, and a candidate costs one
comparison of two integer lists.  A side with no factor (L = 1) keeps
the file weights, so it goes through reduce and canonical_code, and
only the candidate that wins has its vertices named, by
ampliated_reduction, for the bijection.

Nor does the search list prime sequences.  A candidate is a pair of
nondecreasing prime tuples whose products L_a, L_b divide the
supernatural number, of at most the bound primes each, and make
ampliations of one size: na*L_a = nb*L_b for bases of na and nb
vertices.  They are ordered by their total length, then the tuple of
A, then that of B, and the first whose reductions match wins.
Call n feasible when some such tuple has product n; a divisor of a
feasible number is feasible.  With g = gcd(na, nb), alpha = nb/g and
beta = na/g, the pairs of products are (alpha*t, beta*t) for t >= 1.
A side has product 1 only at t = 1, and only when alpha or beta is 1,
so at most one candidate keeps file weights.  The others have both
products at least 2.  Their codes need equal shapes, and then the b of
the two templates agree, since b is fixed by depth; so with pairs
(a, b) on A and (c, b) on B the weights agree at (alpha*t, beta*t)
exactly when a*alpha = c*beta at every vertex: for every t or for
none.  If they agree for every t, the first such candidate has the
fewest primes, those of alpha and beta and twice those of t.  That is
t = 1 when alpha, beta >= 2.  Otherwise t is a prime p, the least for
which alpha*p and beta*p are feasible: every t >= 2 has a prime factor
p with alpha*p and beta*p feasible when alpha*t and beta*t are, and
for primes p < q the sorted tuples of alpha*p and alpha*q agree until
p stands where the other holds q or a prime above p.  Hence t = 1 and
that p, in this order (t = 1 has fewer primes), are the only
candidates to try, whatever the bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Sequence

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


class CanonicalCode(Record, order=True):
    """Total-order-comparable encoding deciding weighted isomorphism."""

    __slots__ = ("data",)

    def __repr__(self) -> str:
        return f"CanonicalCode({self.data!r})"


def _preorder(t: OutForest, weight: Callable[[str], object] | None = None) -> list[tuple[str, int]]:
    """The vertices in preorder with siblings in (code, name) order, each
    with its depth; codes carry the weights t carries or those weight
    gives.

    Codes are ranked one depth at a time from the deepest, each key the
    weight and the ranks of the children in that order (see the module
    docstring).
    """
    weight = weight or t.graph.weight
    levels = [[t.single_root()]]
    kids = {}
    while levels[-1]:
        below = []
        for v in levels[-1]:
            kids[v] = t.children(v)
            below += kids[v]
        levels.append(below)
    rank: dict[str, int] = {}
    ranked = rank.__getitem__
    for level in reversed(levels):
        keys = []
        for v in level:
            if kids[v]:
                kids[v] = sorted(sorted(kids[v]), key=ranked)
            keys.append((weight(v), tuple(map(ranked, kids[v]))))
        order = dict(zip(sorted(set(keys)), itertools.count()))
        rank.update(zip(level, map(order.__getitem__, keys)))
    out = []
    stack = [(levels[0][0], 0)]
    while stack:
        v, depth = stack.pop()
        out.append((v, depth))
        stack += [(c, depth + 1) for c in reversed(kids[v])]
    return out


def canonical_code(t: OutForest) -> CanonicalCode:
    """The code of t's root, as the tuple of its vertices' (depth,
    weight) pairs in preorder, which compares as the code does."""
    weight = t.graph.weight
    return CanonicalCode(tuple([(depth, weight(v)) for v, depth in _preorder(t)]))


def trees_isomorphic(g: OutForest, h: OutForest) -> bool:
    """Weight-preserving isomorphism of the reductions, decided by codes."""
    return canonical_code(reduce(g)) == canonical_code(reduce(h))


def branching_skeleton(g: OutForest) -> tuple:
    """The reduced shape with the root chain stripped and weights dropped.

    Ampliating a tree stretches every vertex into a chain but never adds
    or removes branch points, so this shape is invariant under any
    sequence of ampliations.
    """
    return _skeleton(reduce(g))


def _skeleton(red: OutForest) -> tuple:
    """The depths of the canonical preorder with every weight 0, from
    the root's child down when the root has one child."""
    depths = [depth for _, depth in _preorder(red, lambda v: 0)]
    if red.graph.out_degree(red.single_root()) == 1:
        return tuple(depth - 1 for depth in depths[1:])
    return tuple(depths)


class SupernaturalNumber(Record):
    """Prime exponents of a multiplicity product, some possibly infinite."""

    __slots__ = ("finite", "infinite")

    def exponent(self, p: int) -> float:
        if p in self.infinite:
            return math.inf
        return dict(self.finite).get(p, 0)

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


class Distinct(Record):
    verdict = "distinct"
    __slots__ = ("reason",)


class Undetermined(Record):
    """No pair of ampliations of at most bound primes a side makes the
    reductions match; the limits may still be equivalent through longer
    ones."""

    verdict = "undetermined"
    __slots__ = ("bound",)


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


def code_template(red: OutForest) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The code of ampliated_reduction(red, factors) for every product
    L >= 2 of the factors: the child counts of its vertices in preorder,
    and in the same order the pairs (a, b) of their weights a*L + b (see
    the module docstring for the proof).

    Siblings are ordered by their codes over the pairs, which order them
    as their codes at any L do.
    """
    root = red.single_root()
    stem = red.graph.out_degree(root) == 1

    def pair(v: str) -> tuple[int, int]:
        s = 1 if stem and red.parent(v) == root else 0
        return red.graph.weight(v) + 1 + s, -1 - s

    order = [v for v, _ in _preorder(red, pair)]
    shape = [red.graph.out_degree(v) for v in order]
    pairs = [(0, 0)] + [pair(v) for v in order[1:]]
    if not stem:
        shape, pairs = [1, *shape], [(0, 0), (1, -2), *pairs[1:]]
    return tuple(shape), tuple(pairs)


def _match_vertices(a: OutForest, b: OutForest) -> tuple[tuple[str, str], ...]:
    """Pair the vertices of two reductions with equal codes: depth-first
    from the roots, siblings matched in (code, name) order."""
    return tuple((va, vb) for (va, _), (vb, _) in zip(_preorder(a), _preorder(b)))


def _prime_tuple(n: int, sn: SupernaturalNumber, bound: int) -> tuple[int, ...] | None:
    """The nondecreasing primes whose product is n, when n divides sn and
    they number at most bound; None otherwise.  Only sn's primes divide n."""
    seq: list[int] = []
    for p in sorted(sn.primes()):
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e > sn.exponent(p):
            return None
        seq += [p] * e
    return tuple(seq) if n == 1 and len(seq) <= bound else None


def classify_tree_refinement(
    a: TreeRefinementSpec, b: TreeRefinementSpec, ampliation_bound: int = 3
) -> ClassificationResult:
    """Decide equivalence of two tree-refinement specs up to ampliation.

    Distinct requires a certificate that survives every ampliation:
    different supernatural numbers or different branching skeletons.
    Equivalent reports the first ampliation pair, of at most
    ampliation_bound primes a side, in the order of the module
    docstring, and a vertex bijection of the reductions.  Otherwise no
    such pair exists and the verdict stays Undetermined.  At most two
    candidates are tried, whatever the bound.
    """
    if ampliation_bound < 0:
        raise ValueError("the ampliation bound must be nonnegative")
    sa, sb = spec_supernatural(a), spec_supernatural(b)
    if sa != sb:
        return Distinct("supernatural numbers differ")
    specs = (a, b)
    plain = [reduce(spec.base, weights=False) for spec in specs]
    (shape_a, pairs_a), (shape_b, pairs_b) = map(code_template, plain)
    same_shape = shape_a == shape_b
    # A shape is a 1 and then the skeleton's tree in some preorder, so
    # equal shapes have equal skeletons.
    if not same_shape and _skeleton(plain[0]) != _skeleton(plain[1]):
        return Distinct("branching skeletons differ")
    na, nb = len(a.base.vertices), len(b.base.vertices)
    alpha, beta = nb // math.gcd(na, nb), na // math.gcd(na, nb)

    def primes_of(n: int) -> tuple[int, ...] | None:
        return _prime_tuple(n, sa, ampliation_bound)

    def reduction(k: int, seq: tuple[int, ...]) -> OutForest:
        return ampliated_reduction(plain[k], seq) if seq else reduce(specs[k].base)

    # The products (alpha*t, beta*t) at t = 1 and at the least prime t that
    # both admit are the only candidates to try (see the module docstring).
    fits = [p for p in sorted(sa.primes()) if primes_of(alpha * p) and primes_of(beta * p)]
    for t in [1, *fits[:1]]:
        la, lb = alpha * t, beta * t
        pa, pb = primes_of(la), primes_of(lb)
        if pa is None or pb is None:
            continue
        templated = pa and pb
        if templated and not (
            same_shape and [x * la + y for x, y in pairs_a] == [x * lb + y for x, y in pairs_b]
        ):
            continue
        ra, rb = reduction(0, pa), reduction(1, pb)
        if templated or canonical_code(ra) == canonical_code(rb):
            return Equivalent((pa, pb), _match_vertices(ra, rb))
    return Undetermined(ampliation_bound)
