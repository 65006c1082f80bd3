"""Ampliation of trees and the refinement towers built from them."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.algebra import DigraphAlgebra
from treealg.ampliation import (
    TreeRefinementSpec,
    ampliate,
    build_tree_refinement_tower,
)
from treealg.embeddings import tree_refinement_embedding
from treealg.errors import NotATree, OutputTooLarge
from treealg.graphs import DirectedGraph, OutForest
from treealg.tower import Tower, TreeRefinementRule, Verdict, decide_tensor, materialize

from catalog import branching_tree, lambda_tree
from reference_kernel import iterated_ampliation


def test_lambda_ampliation_by_two_exact_lists():
    amp = ampliate(lambda_tree(), 2)
    assert amp.vertices == ("(r,1)", "(r,2)", "(a,1)", "(a,2)", "(b,1)", "(b,2)")
    assert set(amp.edges) == {
        ("(r,1)", "(r,2)"),
        ("(r,2)", "(a,1)"),
        ("(r,2)", "(b,1)"),
        ("(a,1)", "(a,2)"),
        ("(b,1)", "(b,2)"),
    }
    assert amp.is_tree()
    assert amp.single_root() == "(r,1)"


def test_multiplicity_one_keeps_shape():
    base = branching_tree()
    amp = ampliate(base, 1)
    assert amp.vertices == tuple(f"({v},1)" for v in base.vertices)
    assert set(amp.edges) == {(f"({u},1)", f"({v},1)") for u, v in base.edges}


def test_ampliation_depth_stretches_by_factor():
    base = branching_tree()
    amp = ampliate(base, 3)

    def depth(f, v):
        return 0 if f.parent(v) is None else 1 + depth(f, f.parent(v))

    # deepest base vertex sits at depth 2; its last copy at 3*2 + 2
    assert depth(base, "4") == 2
    assert depth(amp, "(4,3)") == 3 * 2 + 2


def test_rejects_forests_and_bad_multiplicity():
    two = OutForest(DirectedGraph(["1", "2"], []))
    with pytest.raises(NotATree):
        ampliate(two, 2)
    with pytest.raises(ValueError):
        ampliate(lambda_tree(), 0)


@st.composite
def trees(draw):
    """Trees on 1 to 8 vertices in a random declaration order, with names
    holding the "(", "," and ")" of ampliated names."""
    n = draw(st.integers(1, 8))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = draw(st.lists(st.sampled_from(["a", "a)", "(a", ",1", "b"]), min_size=n, max_size=n))
    vs = [f"{x}{k}" for k, x in enumerate(names)]
    edges = [(vs[p], vs[i]) for i, p in enumerate(parents, start=1)]
    return OutForest(DirectedGraph(draw(st.permutations(vs)), edges))


@settings(max_examples=150, deadline=None)
@given(trees(), st.integers(1, 4), st.integers(0, 3))
def test_steps_match_the_iterated_single_step(tree, l, k):
    # Same names, same vertex order, same edges as k single steps.
    assert ampliate(tree, l, k) == iterated_ampliation(tree, [l] * k)


def test_zero_steps_return_the_input_and_negative_steps_fail():
    two = OutForest(DirectedGraph(["1", "2"], []))
    assert ampliate(two, 3, 0) is two
    with pytest.raises(NotATree):
        ampliate(two, 3, 2)
    with pytest.raises(ValueError):
        ampliate(lambda_tree(), 2, -1)


def test_ampliation_step_images_are_the_copy_translates():
    tree = lambda_tree()
    source = DigraphAlgebra.from_graph(tree)[0]
    emb = tree_refinement_embedding(source, 2)
    assert emb.source is source
    assert emb.target == DigraphAlgebra.from_graph(ampliate(tree, 2))[0]
    # root row 1, child a row 2: base pair has range row 2, source row 1
    assert emb.of(((0, 2), (0, 1))) == frozenset(
        {((0, 3), (0, 1)), ((0, 4), (0, 2))}
    )
    assert len(emb.of(((0, 1), (0, 1)))) == 2


def test_tower_structure_and_rule():
    spec = TreeRefinementSpec(lambda_tree(), (2, 3), stationary=2)
    t = build_tree_refinement_tower(spec, 3)
    assert len(t.levels) == 3
    assert [a.blocks[0] for a in t.levels] == [3, 6, 18]
    assert isinstance(t.rule, TreeRefinementRule)
    assert t.rule.l == 2
    # the rule tracks the tree of the last stored level
    assert len(t.rule.tree.vertices) == 18


def test_schedule_exhaustion_leaves_no_rule():
    spec = TreeRefinementSpec(lambda_tree(), (2,))
    t = build_tree_refinement_tower(spec, 2)
    assert t.rule is None
    with pytest.raises(ValueError):
        build_tree_refinement_tower(spec, 3)


def test_tree_order_rows_follow_declaration_order():
    alg = DigraphAlgebra.from_graph(branching_tree())[0]
    # edges 1->2, 1->3, 3->4 become range/source pairs on rows
    assert ((0, 2), (0, 1)) in alg.relation
    assert ((0, 4), (0, 3)) in alg.relation
    assert ((0, 4), (0, 1)) in alg.relation  # transitive completion
    assert ((0, 2), (0, 3)) not in alg.relation


def test_a_forest_rule_tree_fails_at_the_first_generated_step():
    # Two roots: r -> a, and s.  The stored level is the forest's order,
    # so the rule matches it, but no step can ampliate a forest.
    forest = OutForest(DirectedGraph(["r", "a", "s"], [("r", "a")]))
    level = DigraphAlgebra.from_graph(forest)[0]
    t = Tower([level], [], TreeRefinementRule(forest, 2))
    assert materialize(t, 1) == ([level], [])
    assert decide_tensor(t, 1).verdict is Verdict.INCONCLUSIVE
    with pytest.raises(NotATree, match="ampliation is defined for single-rooted trees"):
        materialize(t, 2)


def test_multiplicities_are_capped():
    cap = 2**32
    TreeRefinementSpec(lambda_tree(), (cap,), cap)
    big = cap + 1
    with pytest.raises(ValueError, match="multiplicities must be at most"):
        TreeRefinementSpec(lambda_tree(), (2, big))
    with pytest.raises(ValueError, match="multiplicities must be at most"):
        TreeRefinementSpec(lambda_tree(), (), big)


def test_ampliate_refuses_to_count_past_its_cap():
    # The cap is checked before anything is built, and before the tree
    # check, so even a forest is refused for its size.
    start = time.perf_counter()
    two = OutForest(DirectedGraph(["a", "b"], []))
    for tree, l, steps, message in [
        (lambda_tree(), 1, 10**6, "1000000 ampliation steps by 1 build more than 250000 vertices"),
        (lambda_tree(), 10**9, 1, "1 ampliation steps by 1000000000 build more than"),
        (lambda_tree(), 2, 10**9, "1000000000 ampliation steps by 2 build more than"),
        (two, 10**6, 1, "1 ampliation steps by 1000000 build more than"),
    ]:
        with pytest.raises(OutputTooLarge, match=message):
            ampliate(tree, l, steps)
    # An empty forest builds nothing at any step: no count, but no tree.
    with pytest.raises(NotATree):
        ampliate(OutForest(DirectedGraph([], [])), 10**9, 10**9)
    assert time.perf_counter() - start < 1
