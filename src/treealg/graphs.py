"""Finite directed graphs and out-forests.

Vertices are opaque strings and keep their declaration order; every
deterministic ordering in the package derives from that order.  Graphs are
irreflexive (self-loops are rejected) and immutable after construction.
Reflexivity and transitive closure, where they matter, are handled at the
algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import NotATree

Edge = tuple[str, str]


class DirectedGraph:
    """A finite digraph with ordered vertices and optional integer weights.

    Edges are (source, target) pairs.  Parallel edges collapse; self-loops
    are rejected.  Weights default to 0 and ride along unchanged through
    the graph operations that do not explicitly produce them.
    """

    __slots__ = ("_vertices", "_edges", "_weights", "_succ", "_pred")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge] = (),
        weights: Mapping[str, int] | None = None,
    ) -> None:
        vs = tuple(vertices)
        if any(not isinstance(v, str) for v in vs):
            raise ValueError("vertex identifiers must be strings")
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex identifiers")
        index = {v: k for k, v in enumerate(vs)}
        es = []
        seen = set()
        for s, t in edges:
            if s not in index or t not in index:
                raise ValueError(f"edge ({s!r}, {t!r}) uses an undeclared vertex")
            if s == t:
                raise ValueError(f"self-loop at {s!r} is not allowed")
            if (s, t) not in seen:
                seen.add((s, t))
                es.append((s, t))
        ws = dict(weights or {})
        for v, w in ws.items():
            if v not in index:
                raise ValueError(f"weight given for undeclared vertex {v!r}")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weight of {v!r} must be a nonnegative integer")
        self._vertices = vs
        self._edges = frozenset(es)
        self._weights = {v: ws.get(v, 0) for v in vs}
        succ: dict[str, list[str]] = {v: [] for v in vs}
        pred: dict[str, list[str]] = {v: [] for v in vs}
        # Adjacency kept in declaration order so traversals are deterministic.
        for s, t in sorted(es, key=lambda e: (index[e[0]], index[e[1]])):
            succ[s].append(t)
            pred[t].append(s)
        self._succ = succ
        self._pred = pred

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._weights)

    def weight(self, v: str) -> int:
        return self._weights[v]

    def successors(self, v: str) -> tuple[str, ...]:
        return tuple(self._succ[v])

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(self._pred[v])

    def out_degree(self, v: str) -> int:
        return len(self._succ[v])

    def in_degree(self, v: str) -> int:
        return len(self._pred[v])

    def has_edge(self, s: str, t: str) -> bool:
        return (s, t) in self._edges

    def with_weights(self, weights: Mapping[str, int]) -> "DirectedGraph":
        return DirectedGraph(self._vertices, self._edges, weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges, tuple(sorted(self._weights.items()))))

    def __repr__(self) -> str:
        return (
            f"DirectedGraph({len(self._vertices)} vertices, "
            f"{len(self._edges)} edges)"
        )


def find_cycle(g: DirectedGraph) -> list[str] | None:
    """Return the vertices of some directed cycle in g, or None.

    Iterative coloring DFS; the cycle comes back in traversal order.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}
    parent: dict[str, str | None] = {}
    for start in g.vertices:
        if color[start] != WHITE:
            continue
        parent[start] = None
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            v, i = stack[-1]
            succ = g.successors(v)
            if i < len(succ):
                stack[-1] = (v, i + 1)
                w = succ[i]
                if color[w] == GRAY:
                    cycle = [w, v]
                    u = parent[v]
                    while u is not None and cycle[-1] != w:
                        cycle.append(u)
                        u = parent[u]
                    if cycle[-1] == w:
                        cycle.pop()
                    cycle.reverse()
                    return cycle
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, 0))
            else:
                color[v] = BLACK
                stack.pop()
    return None


@dataclass(frozen=True)
class ForestRejection:
    """Why a graph is not an out-forest.

    kind is "multiple-parents" with the offending vertex and its parents,
    or "directed-cycle" with the cycle vertices.  Falsy, so the result of
    recognize_out_forest can be tested directly.
    """

    kind: str
    vertex: str | None = None
    parents: tuple[str, ...] = ()
    cycle: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return False


class OutForest:
    """A digraph in which every vertex has at most one incoming edge.

    Equivalently a disjoint union of rooted trees with edges pointing away
    from the roots.  Roots are the in-degree-0 vertices, in declaration
    order.
    """

    __slots__ = ("_graph", "_roots")

    def __init__(self, graph: DirectedGraph) -> None:
        bad = next((v for v in graph.vertices if graph.in_degree(v) > 1), None)
        if bad is not None:
            raise ValueError(
                f"vertex {bad!r} has several parents: {graph.predecessors(bad)}"
            )
        cyc = find_cycle(graph)
        if cyc is not None:
            raise ValueError(f"directed cycle: {' -> '.join(cyc)}")
        self._graph = graph
        self._roots = tuple(v for v in graph.vertices if graph.in_degree(v) == 0)

    @property
    def graph(self) -> DirectedGraph:
        return self._graph

    @property
    def roots(self) -> tuple[str, ...]:
        return self._roots

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._graph.vertices

    @property
    def edges(self) -> frozenset[Edge]:
        return self._graph.edges

    def children(self, v: str) -> tuple[str, ...]:
        return self._graph.successors(v)

    def parent(self, v: str) -> str | None:
        pred = self._graph.predecessors(v)
        return pred[0] if pred else None

    def is_tree(self) -> bool:
        return len(self._roots) == 1

    def single_root(self) -> str:
        if len(self._roots) != 1:
            raise NotATree(f"forest has {len(self._roots)} roots, expected one")
        return self._roots[0]

    def subtree_vertices(self, v: str) -> tuple[str, ...]:
        """All vertices below and including v, in declaration order."""
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.children(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return tuple(u for u in self.vertices if u in seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutForest):
            return NotImplemented
        return self._graph == other._graph

    def __hash__(self) -> int:
        return hash(self._graph)

    def __repr__(self) -> str:
        return f"OutForest({len(self.vertices)} vertices, roots={list(self._roots)})"


def recognize_out_forest(g: DirectedGraph) -> OutForest | ForestRejection:
    """View g as an out-forest, or explain why that fails.

    The rejection carries either a vertex with two or more parents or a
    directed cycle.  (With in-degrees at most 1 an undirected cycle forces
    a directed one, so those two witnesses cover everything.)  The
    graph is scanned once when it is an out-forest; the witness is looked
    for only after OutForest rejected it.
    """
    try:
        return OutForest(g)
    except ValueError:
        pass
    for v in g.vertices:
        if g.in_degree(v) > 1:
            return ForestRejection(
                "multiple-parents", vertex=v, parents=g.predecessors(v)
            )
    return ForestRejection("directed-cycle", cycle=tuple(find_cycle(g)))
