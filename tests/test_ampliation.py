"""Ampliation of trees and the refinement towers built from them."""

import pytest

from treealg.ampliation import (
    TreeRefinementSpec,
    ampliate,
    build_tree_refinement_tower,
    level_algebra,
    refinement_between,
)
from treealg.catalog import branching_tree, lambda_tree
from treealg.errors import NotATree
from treealg.graphs import DirectedGraph, OutForest, recognize_out_forest
from treealg.tower import TreeRefinementRule


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
    two = recognize_out_forest(DirectedGraph(["1", "2"], []))
    assert isinstance(two, OutForest)
    with pytest.raises(NotATree):
        ampliate(two, 2)
    with pytest.raises(ValueError):
        ampliate(lambda_tree(), 0)


def test_refinement_between_images_are_the_copy_translates():
    tree = lambda_tree()
    source = level_algebra(tree)
    nxt, emb = refinement_between(tree, 2, source)
    assert nxt == ampliate(tree, 2)
    assert emb.source is source
    assert emb.target == level_algebra(nxt)
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


def test_level_algebra_rows_follow_declaration_order():
    alg = level_algebra(branching_tree())
    # edges 1->2, 1->3, 3->4 become range/source pairs on rows
    assert ((0, 2), (0, 1)) in alg.relation
    assert ((0, 4), (0, 3)) in alg.relation
    assert ((0, 4), (0, 1)) in alg.relation  # transitive completion
    assert ((0, 2), (0, 3)) not in alg.relation
