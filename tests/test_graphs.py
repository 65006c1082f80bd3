"""Graph layer: construction rules, forest recognition, and the graph-level
closure kept in reference_kernel.py."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_out_forest
from reference_kernel import (
    covering_edges,
    is_transitive_completion_of_out_forest,
    transitive_completion,
)
from treealg.errors import CyclicGraph
from treealg.graphs import DirectedGraph, OutForest, find_cycle


def g(vertices, edges, weights=None):
    return DirectedGraph(vertices.split(), edges, weights)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_adjacency_follows_declaration_order(data):
    vs = data.draw(st.permutations([str(k) for k in range(6)]))
    pairs = st.tuples(st.sampled_from(vs), st.sampled_from(vs)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pairs, max_size=20))
    graph = DirectedGraph(vs, edges)
    for v in vs:
        assert graph.successors(v) == tuple(t for t in vs if (v, t) in edges)
        assert graph.predecessors(v) == tuple(s for s in vs if (s, v) in edges)


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        g("a b", [("a", "a")])


def test_rejects_undeclared_endpoint():
    with pytest.raises(ValueError):
        g("a b", [("a", "c")])


def test_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        DirectedGraph(["a", "a"], [])


def test_rejects_negative_weight():
    with pytest.raises(ValueError):
        g("a", [], {"a": -1})


def test_declaration_order_is_kept():
    gr = g("c a b", [("c", "a"), ("a", "b")])
    assert gr.vertices == ("c", "a", "b")


def test_parallel_edges_collapse():
    gr = DirectedGraph(["a", "b"], [("a", "b"), ("a", "b")])
    assert len(gr.edges) == 1


def test_completion_of_path():
    # a -> b -> c completes with the long edge a -> c.
    got = transitive_completion(g("a b c", [("a", "b"), ("b", "c")]))
    assert got.edges == {("a", "b"), ("b", "c"), ("a", "c")}


def test_completion_keeps_weights():
    gr = g("a b", [("a", "b")], {"b": 2})
    assert transitive_completion(gr).weight("b") == 2


def test_completion_rejects_cycle():
    with pytest.raises(CyclicGraph):
        transitive_completion(g("a b", [("a", "b"), ("b", "a")]))


def test_find_cycle_reports_cycle_vertices():
    cyc = find_cycle(g("a b c", [("a", "b"), ("b", "c"), ("c", "a")]))
    assert cyc is not None
    assert set(cyc) == {"a", "b", "c"}


def test_recognize_accepts_two_component_forest():
    got = OutForest(g("r1 x r2 y", [("r1", "x"), ("r2", "y")]))
    assert got.roots == ("r1", "r2")


def test_out_forest_words_a_cycle_with_trees_around_it_as_before():
    # A separate tree r -> s, a cycle a -> b -> c -> a, and a branch
    # c -> d -> e hanging off the cycle: only r is a root.
    cyclic = g(
        "r s a b c d e",
        [("r", "s"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")],
    )
    with pytest.raises(ValueError) as exc:
        OutForest(cyclic)
    assert str(exc.value) == "directed cycle: b -> c -> a"
    # Several parents are still reported ahead of a cycle.
    both = g("a b c x", [("a", "b"), ("b", "c"), ("c", "a"), ("x", "a")])
    with pytest.raises(ValueError) as exc:
        OutForest(both)
    assert str(exc.value) == "vertex 'a' has several parents: ('c', 'x')"


def test_completion_of_tree_is_forest_completion():
    # 1 -> 2, 1 -> 3, 3 -> 4; the closure adds the single long pair 1 -> 4.
    tree = g("1 2 3 4", [("1", "2"), ("1", "3"), ("3", "4")])
    comp = transitive_completion(tree)
    ok, forest = is_transitive_completion_of_out_forest(comp)
    assert ok
    assert forest is not None
    assert forest.edges == tree.edges


def test_branchy_order_recognized():
    # Completion of 1 -> 2, 1 -> 3, 3 -> 4 given directly as an order.
    order = g("1 2 3 4", [("1", "2"), ("1", "3"), ("1", "4"), ("3", "4")])
    ok, forest = is_transitive_completion_of_out_forest(order)
    assert ok
    assert forest.edges == {("1", "2"), ("1", "3"), ("3", "4")}


def test_diamond_is_not_forest_completion():
    diamond = g(
        "1 2 3 4",
        [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("1", "4")],
    )
    ok, forest = is_transitive_completion_of_out_forest(diamond)
    assert not ok
    assert forest is None


def test_cyclic_graph_is_not_forest_completion():
    ok, _ = is_transitive_completion_of_out_forest(
        g("a b", [("a", "b"), ("b", "a")])
    )
    assert not ok


def test_forest_navigation():
    f = OutForest(g("r a b c", [("r", "a"), ("a", "b"), ("a", "c")]))
    assert f.single_root() == "r"
    assert f.children("a") == ("b", "c")
    assert f.parent("b") == "a"
    assert f.parent("r") is None


def test_covering_edges_of_total_order():
    order = transitive_completion(g("a b c d", [("a", "b"), ("b", "c"), ("c", "d")]))
    assert covering_edges(order) == {("a", "b"), ("b", "c"), ("c", "d")}


def test_random_forest_roundtrips_through_completion():
    rng = random.Random(7)
    for _ in range(120):
        f = random_out_forest(rng, rng.randint(1, 10))
        comp = transitive_completion(f.graph)
        assert covering_edges(comp) == f.edges
        ok, back = is_transitive_completion_of_out_forest(comp)
        assert ok
        assert back.edges == f.edges
        # OutForest agrees with the completion route on the forest itself
        assert OutForest(f.graph) == f


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_completion_is_idempotent_and_transitive(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    vs = [str(i) for i in range(n)]
    pool = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()))
    gr = DirectedGraph(vs, edges)
    comp = transitive_completion(gr)
    assert transitive_completion(comp).edges == comp.edges
    for a, b in comp.edges:
        for c, d in comp.edges:
            if b == c:
                assert (a, d) in comp.edges
