"""Finite directed graphs and out-forests.

Vertices are opaque strings and keep their declaration order; every
deterministic ordering in the package derives from that order.  Graphs are
irreflexive (self-loops are rejected) and immutable after construction.
Reflexivity and transitive closure, where they matter, are handled at the
algebra layer.

The constructors check every graph and forest given to them, such as one
read from a file.  The library's own constructions (ampliations,
reductions, forest presentations) are forests by construction, proved
where they are built, and go through unchecked_forest instead.
"""

from __future__ import annotations

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
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"weight of {v!r} must be a nonnegative integer")
        succ: dict[str, list[str]] = {v: [] for v in vs}
        pred: dict[str, list[str]] = {v: [] for v in vs}
        for s, t in es:
            succ[s].append(t)
            pred[t].append(s)
        # Adjacency kept in declaration order so traversals are deterministic.
        for adjacent in (*succ.values(), *pred.values()):
            if len(adjacent) > 1:
                adjacent.sort(key=index.__getitem__)
        self._set(vs, succ, pred, {v: ws.get(v, 0) for v in vs})

    def _set(
        self,
        vertices: tuple[str, ...],
        succ: dict[str, list[str]],
        pred: dict[str, list[str]],
        weights: dict[str, int],
    ) -> "DirectedGraph":
        """Store the fields as given and return self, checking nothing.

        The constructor ends here after its checks, and unchecked_forest
        calls it on graphs that pass them by construction.  Adjacency
        lists are in declaration order, and every vertex has a weight.
        """
        self._vertices = vertices
        self._succ = succ
        self._pred = pred
        self._weights = weights
        self._edges = None
        return self

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[Edge]:
        # Built from the successors on first use.
        if self._edges is None:
            self._edges = frozenset((s, t) for s, ts in self._succ.items() for t in ts)
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

    def has_edge(self, s: str, t: str) -> bool:
        return (s, t) in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._succ == other._succ
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self.edges, tuple(sorted(self._weights.items()))))

    def __repr__(self) -> str:
        return (
            f"DirectedGraph({len(self._vertices)} vertices, "
            f"{len(self.edges)} edges)"
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


class OutForest:
    """A digraph in which every vertex has at most one incoming edge.

    Equivalently a disjoint union of rooted trees with edges pointing away
    from the roots.  Roots are the in-degree-0 vertices, in declaration
    order.
    """

    __slots__ = ("_graph", "_roots")

    def __init__(self, graph: DirectedGraph) -> None:
        pred = graph._pred
        bad = next((v for v in graph.vertices if len(pred[v]) > 1), None)
        if bad is not None:
            raise ValueError(
                f"vertex {bad!r} has several parents: {graph.predecessors(bad)}"
            )
        roots = tuple(v for v in graph.vertices if not pred[v])
        # With every in-degree at most 1, the graph is acyclic exactly when
        # every vertex is reached from a root, and no vertex is reached twice.
        reached, stack = 0, list(roots)
        while stack:
            reached += 1
            stack.extend(graph._succ[stack.pop()])
        if reached != len(graph.vertices):
            raise ValueError(f"directed cycle: {' -> '.join(find_cycle(graph))}")
        self._set(graph, roots)

    def _set(self, graph: DirectedGraph, roots: tuple[str, ...]) -> "OutForest":
        """Store the fields as given and return self, checking nothing.

        The constructor ends here after its checks, and unchecked_forest
        calls it on forests that pass them by construction.
        """
        self._graph = graph
        self._roots = roots
        return self

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutForest):
            return NotImplemented
        return self._graph == other._graph

    def __hash__(self) -> int:
        return hash(self._graph)

    def __repr__(self) -> str:
        return f"OutForest({len(self.vertices)} vertices, roots={list(self._roots)})"


def unchecked_forest(
    vertices: Iterable[str],
    parent: Mapping[str, str],
    weights: dict[str, int] | None = None,
) -> OutForest:
    """The out-forest on vertices, in that order, with the given parents,
    built without the checks of DirectedGraph and OutForest.

    For a forest that is one by construction.  The caller guarantees
    what the checks would: distinct vertices, every parent a vertex
    other than its child, no cycle, and a nonnegative weight for every
    vertex when weights is given.  parent must list the children of each
    vertex in vertex order, so that every adjacency list comes out in
    declaration order.
    The roots are the vertices without a parent.
    """
    vs = tuple(vertices)
    succ: dict[str, list[str]] = {v: [] for v in vs}
    for v, u in parent.items():
        succ[u].append(v)
    roots = tuple(v for v in vs if v not in parent)
    pred = {v: [u] for v, u in parent.items()} | {r: [] for r in roots}
    ws = dict.fromkeys(vs, 0) if weights is None else weights
    graph = DirectedGraph.__new__(DirectedGraph)._set(vs, succ, pred, ws)
    return OutForest.__new__(OutForest)._set(graph, roots)
