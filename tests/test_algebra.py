"""Algebra core: relation validation, tree condition, grading solver.

The expected grades in here were first computed with the brute-force
enumerator below (all assignments checked against additivity and
coherence) and then frozen into the assertions.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import random_dag, random_out_forest
from reference_kernel import is_transitive_completion_of_out_forest, transitive_completion
from treealg.algebra import (
    DigraphAlgebra,
    Grading,
    NonTreeTriple,
    covering_pairs,
    is_tree_semigroupoid,
    solve_grading,
    unit_name,
)
from treealg.errors import CyclicGraph
from treealg.graphs import DirectedGraph


def u(r):
    return (0, r)


def pairs(*rc):
    return [(u(i), u(j)) for i, j in rc]


def brute_force_gradings(a: DigraphAlgebra) -> list[dict]:
    """Every additive coherent grading of a, by exhaustive enumeration."""
    off = a.irreflexive_pairs()
    top = max(a.blocks)
    found = []
    for values in itertools.product(range(1, top + 1), repeat=len(off)):
        g = {p: v for p, v in zip(off, values)}
        for i, j in a.relation:
            if i == j:
                g[(i, j)] = 0
        ok = all(
            g[(i, l)] == g[(i, j)] + g[(k, l)]
            for i, j in a.relation
            for k, l in a.relation
            if j == k
        )
        if ok:
            for (i, j), v in g.items():
                if v >= 2 and not any(
                    g.get((i, m)) == 1 and g.get((m, j)) == v - 1
                    for m in a.units()
                ):
                    ok = False
                    break
        if ok:
            found.append(dict(g))
    return found


def branching_algebra():
    # Order generated by the tree 1 -> 2, 1 -> 3, 3 -> 4.
    tree = DirectedGraph("1 2 3 4".split(), [("1", "2"), ("1", "3"), ("3", "4")])
    return DigraphAlgebra.from_graph(tree)


def diamond_algebra():
    dia = DirectedGraph(
        "1 2 3 4".split(),
        [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")],
    )
    return DigraphAlgebra.from_graph(dia)[0]


def test_constructor_rejects_two_cycle():
    with pytest.raises(ValueError, match="antisymmetry"):
        DigraphAlgebra([2], pairs((1, 2), (2, 1)))


def test_constructor_rejects_missing_composite():
    with pytest.raises(ValueError, match="composite"):
        DigraphAlgebra([3], pairs((1, 2), (2, 3)))


def test_constructor_rejects_cross_block_pair():
    with pytest.raises(ValueError, match="crosses"):
        DigraphAlgebra([2, 2], [((0, 1), (1, 1))])


def test_constructor_rejects_out_of_range_unit():
    with pytest.raises(ValueError, match="out of range"):
        DigraphAlgebra([2], pairs((1, 3)))


def test_from_generators_closes_transitively():
    a = DigraphAlgebra.from_generators([3], pairs((1, 2), (2, 3)))
    assert a.has_pair(u(1), u(3))


def test_upper_triangular_relation_size():
    a = DigraphAlgebra.upper_triangular(3)
    assert len(a.relation) == 6
    assert a.is_full_upper_triangular()
    # same number of pairs, opposite order
    assert not DigraphAlgebra([2], pairs((2, 1))).is_full_upper_triangular()
    assert not DigraphAlgebra([3], pairs((1, 2), (1, 3), (3, 2))).is_full_upper_triangular()


def test_from_graph_unit_assignment():
    a, to_unit = branching_algebra()
    assert to_unit == {"1": u(1), "2": u(2), "3": u(3), "4": u(4)}
    # edge 1 -> 3 gives the unit with range 3 and source 1
    assert a.has_pair(u(3), u(1))
    assert a.has_pair(u(4), u(1))
    assert not a.has_pair(u(2), u(3))


def test_from_graph_rejects_cycle():
    with pytest.raises(CyclicGraph):
        DigraphAlgebra.from_graph(DirectedGraph(["a", "b"], [("a", "b"), ("b", "a")]))


def test_from_graph_matches_graph_level_completion():
    # Closing at the algebra layer gives the same pairs as closing the graph.
    rng = random.Random(5)
    for _ in range(40):
        dag = random_dag(rng, rng.randint(1, 8), p=0.35)
        # declaration order need not be topological
        dag = DirectedGraph(rng.sample(dag.vertices, len(dag.vertices)), dag.edges)
        a, to_unit = DigraphAlgebra.from_graph(dag)
        comp = transitive_completion(dag)
        assert set(a.irreflexive_pairs()) == {(to_unit[t], to_unit[s]) for s, t in comp.edges}


def test_unit_name_format():
    assert unit_name((1, 4)) == "1:4"


def test_tree_condition_holds_for_triangular():
    assert is_tree_semigroupoid(DigraphAlgebra.upper_triangular(4)) is True


def test_tree_condition_two_incomparable_sources():
    a = DigraphAlgebra([3], pairs((1, 2), (1, 3)))
    got = is_tree_semigroupoid(a)
    assert isinstance(got, NonTreeTriple)
    assert not got
    assert got.x == u(1)
    assert {got.y, got.z} == {u(2), u(3)}


def test_tree_condition_fails_on_diamond():
    got = is_tree_semigroupoid(diamond_algebra())
    assert isinstance(got, NonTreeTriple)
    assert got.x == u(4)
    assert {got.y, got.z} == {u(2), u(3)}


def test_covering_pairs_of_chain():
    a = DigraphAlgebra.upper_triangular(4)
    assert covering_pairs(a) == set(pairs((1, 2), (2, 3), (3, 4)))


def test_grading_of_branching_example():
    a, _ = branching_algebra()
    g = solve_grading(a)
    assert isinstance(g, Grading)
    assert g.of((u(2), u(1))) == 1
    assert g.of((u(3), u(1))) == 1
    assert g.of((u(4), u(3))) == 1
    assert g.of((u(4), u(1))) == 2
    assert {q for q, k in g.grade.items() if k == 1} == set(pairs((2, 1), (3, 1), (4, 3)))


def test_grading_matches_brute_force_and_is_unique():
    for a in (
        branching_algebra()[0],
        DigraphAlgebra.upper_triangular(4),
        DigraphAlgebra.from_graph(
            DirectedGraph("a b c d e".split(), [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e")])
        )[0],
    ):
        all_gradings = brute_force_gradings(a)
        assert len(all_gradings) == 1
        solved = solve_grading(a)
        assert isinstance(solved, Grading)
        assert solved.grade == all_gradings[0]


def test_diamond_grading_is_infeasible():
    # The diamond does carry an additive coherent grade map (covers at 1,
    # long pair at 2), but in every such map unit 4 receives two grade-1
    # pairs, so no grading exhibits forest structure.  The solver reports
    # the matching witness: the incomparable source pair at unit 4.
    a = diamond_algebra()
    candidates = brute_force_gradings(a)
    assert candidates
    for g in candidates:
        receivers = [i for (i, j), v in g.items() if v == 1]
        assert any(receivers.count(x) > 1 for x in receivers)
    got = solve_grading(a)
    assert isinstance(got, NonTreeTriple)


def test_grading_constructor_rejects_wrong_grades():
    a = DigraphAlgebra.upper_triangular(3)
    good = solve_grading(a)
    bad = dict(good.grade)
    bad[(u(1), u(3))] = 1
    with pytest.raises(ValueError):
        Grading(a, bad)


def test_grading_constructor_rejects_nonzero_diagonal():
    a = DigraphAlgebra([2])
    with pytest.raises(ValueError):
        Grading(a, {((0, 1), (0, 1)): 1, ((0, 2), (0, 2)): 0})


def test_grade_zero_iff_diagonal():
    a = DigraphAlgebra.upper_triangular(5)
    g = solve_grading(a)
    for (i, j), v in g.grade.items():
        assert (v == 0) == (i == j)


def test_grade_1_forest_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        f = random_out_forest(rng, rng.randint(1, 9))
        a, to_unit = DigraphAlgebra.from_graph(f.graph)
        g = solve_grading(a)
        assert isinstance(g, Grading)
        # grades equal depth differences in the source forest
        for s, t in f.graph.edges:
            assert g.of((to_unit[t], to_unit[s])) == 1
        # and the grade-1 pairs are exactly the forest edges
        assert {q for q, k in g.grade.items() if k == 1} == {
            (to_unit[t], to_unit[s]) for s, t in f.edges
        }


def test_solver_agrees_with_forest_completion_test():
    # Finite characterization: a grading exists iff the semigroupoid graph
    # is the order of an out-forest.  Checked over random DAG closures.
    rng = random.Random(23)
    for _ in range(80):
        dag = random_dag(rng, rng.randint(1, 7), p=0.35)
        a, _ = DigraphAlgebra.from_graph(dag)
        solved = solve_grading(a)
        # the semigroupoid graph: a pair (i, j) becomes the edge j -> i
        semigroupoid = DirectedGraph(
            [unit_name(v) for v in a.units()],
            [(unit_name(j), unit_name(i)) for i, j in a.irreflexive_pairs()],
        )
        ok, _forest = is_transitive_completion_of_out_forest(semigroupoid)
        assert bool(solved) == ok
        if not solved:
            assert isinstance(solved, NonTreeTriple)


def test_multi_block_tree_condition():
    a = DigraphAlgebra([2, 3], [((0, 1), (0, 2)), ((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 1), (1, 3))])
    g = solve_grading(a)
    assert isinstance(g, Grading)
    assert g.of(((1, 1), (1, 3))) == 2
    assert g.of(((0, 1), (0, 2))) == 1
