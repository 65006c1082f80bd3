"""Embedding layer: validation, classic constructors, composition."""

from __future__ import annotations

import pytest

from treealg.algebra import DigraphAlgebra, solve_grading
from treealg.embeddings import (
    RegularEmbedding,
    compose,
    refinement_embedding,
    refinement_rows,
    standard_embedding,
    standard_rows,
    translation_embedding,
    tree_standard_embedding,
)
from treealg.errors import IllFormedAttachment, MismatchedLevels, MultiBlockUnsupported
from treealg.graphs import DirectedGraph, OutForest


def p(i, j, b=0):
    return ((b, i), (b, j))


def test_standard_embedding_images():
    e = standard_embedding(2, 2)
    assert e.of(p(1, 2)) == {p(1, 2), p(3, 4)}
    assert e.of(p(1, 1)) == {p(1, 1), p(3, 3)}
    assert e.of(p(2, 2)) == {p(2, 2), p(4, 4)}


def test_refinement_embedding_images():
    e = refinement_embedding(2, 2)
    assert e.of(p(1, 2)) == {p(1, 3), p(2, 4)}
    assert e.of(p(1, 1)) == {p(1, 1), p(2, 2)}
    assert e.of(p(2, 2)) == {p(3, 3), p(4, 4)}


def test_identity_embedding_is_neutral_under_composition():
    e = refinement_embedding(3, 2)

    def identity(a):
        return RegularEmbedding(a, a, {q: {q} for q in a.relation})

    assert compose(identity(e.source), e) == e
    assert compose(e, identity(e.target)) == e


def test_composition_of_refinements():
    # Two refinement steps of 2 compose to one of step 4.
    e = compose(refinement_embedding(2, 2), refinement_embedding(4, 2))
    assert e.source.blocks == (2,)
    assert e.target.blocks == (8,)
    assert e == compose(refinement_embedding(2, 2), refinement_embedding(4, 2))
    assert e.of(p(1, 2)) == refinement_embedding(2, 4).of(p(1, 2))


def test_composition_requires_matching_levels():
    with pytest.raises(MismatchedLevels):
        compose(refinement_embedding(2, 2), refinement_embedding(3, 2))


def test_validation_rejects_overlapping_diagonal_images():
    src = DigraphAlgebra([2])
    tgt = DigraphAlgebra([2])
    image = {
        p(1, 1): {p(1, 1)},
        p(2, 2): {p(1, 1), p(2, 2)},
    }
    with pytest.raises(ValueError, match="both contain"):
        RegularEmbedding(src, tgt, image)


def test_validation_rejects_broken_bijection():
    src = DigraphAlgebra.upper_triangular(2)
    tgt = DigraphAlgebra.upper_triangular(4)
    image = {
        p(1, 1): {p(1, 1), p(3, 3)},
        p(2, 2): {p(2, 2), p(4, 4)},
        # ranges repeat row 1 instead of enumerating {1, 3}
        p(1, 2): {p(1, 2), p(1, 4)},
    }
    with pytest.raises(ValueError):
        RegularEmbedding(src, tgt, image)


def test_validation_rejects_non_multiplicative_images():
    src = DigraphAlgebra.upper_triangular(3)
    tgt = DigraphAlgebra.upper_triangular(3)
    image = {q: {q} for q in src.relation}
    # break composition: send e_13 somewhere consistent with bijections
    # but not with the product of e_12 and e_23
    image[p(1, 3)] = {p(1, 3)}
    image[p(1, 2)] = {p(1, 2)}
    image[p(2, 3)] = {p(2, 3)}
    ok = RegularEmbedding(src, tgt, image)  # sanity: identity passes
    assert ok.of(p(1, 3)) == {p(1, 3)}
    bad = dict(image)
    bad[p(1, 2)] = {p(1, 3)}
    bad[p(2, 2)] = {p(3, 3)}
    with pytest.raises(ValueError):
        RegularEmbedding(src, tgt, bad)


def test_validation_requires_nonempty_images():
    src = DigraphAlgebra([1])
    tgt = DigraphAlgebra([1])
    with pytest.raises(ValueError, match="empty"):
        RegularEmbedding(src, tgt, {p(1, 1): set()})


def test_multiplicity_data_of_standard():
    e = standard_embedding(2, 3)
    assert [len(e.of((d, d))) for d in e.source.units()] == [3, 3]


def test_multiplicity_data_multi_block():
    # Two diagonal blocks into one target block, sizes 1 and 2.
    src = DigraphAlgebra([1, 2])
    tgt = DigraphAlgebra([5])
    image = {
        ((0, 1), (0, 1)): {p(1, 1)},
        ((1, 1), (1, 1)): {p(2, 2), p(4, 4)},
        ((1, 2), (1, 2)): {p(3, 3), p(5, 5)},
    }
    e = RegularEmbedding(src, tgt, image)
    assert [len(e.of((d, d))) for d in src.units()] == [1, 2, 2]


def test_translation_embedding_image_target():
    # Without a target the image algebra is the target: m disjoint copies.
    src = DigraphAlgebra.upper_triangular(2)
    e = translation_embedding(src, standard_rows(2, 3))
    assert e.target == DigraphAlgebra([6], [p(1, 2), p(3, 4), p(5, 6)])
    assert e.of(p(1, 2)) == {p(1, 2), p(3, 4), p(5, 6)}
    # With a target, the same pairs land in the given algebra.
    full = translation_embedding(src, standard_rows(2, 3), DigraphAlgebra.upper_triangular(6))
    assert full.image == e.image
    assert full == standard_embedding(2, 3)
    assert translation_embedding(src, refinement_rows(2)).target == DigraphAlgebra(
        [4], [p(1, 3), p(2, 4)]
    )


def test_translation_embedding_needs_single_block():
    with pytest.raises(MultiBlockUnsupported):
        translation_embedding(DigraphAlgebra([1, 1]), standard_rows(1, 2))


def test_translation_embedding_rejects_non_embedding_rows():
    # Rows that reverse a pair leave the target relation.
    src = DigraphAlgebra.upper_triangular(2)
    with pytest.raises(ValueError):
        translation_embedding(src, lambda i: [3 - i], DigraphAlgebra.upper_triangular(2))


def test_pushforward_structure_of_refinement():
    # The image of the source relation decomposes into copies: each image
    # set has one pair per copy index s, and the pairs for fixed s form a
    # relation isomorphic to the source one.
    e = refinement_embedding(3, 2)
    for (i, j) in e.source.irreflexive_pairs():
        v = e.of((i, j))
        assert len(v) == 2
        offsets = sorted((a[1] - 1) % 2 for a, _ in v)
        assert offsets == [0, 1]


def test_grade_shift_under_refinement():
    # Refinement stretches grades: the long pair of T_2 lands on grade-2
    # pairs of T_4.
    e = refinement_embedding(2, 2)
    g = solve_grading(e.target)
    assert {g.of(q) for q in e.of(p(1, 2))} == {2}


def chain(*names):
    vs = list(names)
    return OutForest(DirectedGraph(vs, list(zip(vs, vs[1:]))))


def test_tree_standard_identity_copy():
    t = chain("a", "b")
    e = tree_standard_embedding([t], t, [{"a": "a", "b": "b"}])
    assert e.of(p(2, 1)) == {p(2, 1)}


def test_tree_standard_two_components_onto_disjoint_edges():
    # Two 1-edge trees onto the two disjoint edges of a 4-vertex path.
    # Each edge generator goes to a single target generator.
    t1, t2 = chain("r", "s"), chain("u", "v")
    path = chain("a", "b", "c", "d")
    e = tree_standard_embedding([t1, t2], path, [{"r": "a", "s": "b", "u": "c", "v": "d"}])
    assert e.of(((0, 2), (0, 1))) == {p(2, 1)}
    assert e.of(((1, 2), (1, 1))) == {p(4, 3)}
    tg = solve_grading(e.target)
    for b in (0, 1):
        for q in e.of(((b, 2), (b, 1))):
            assert tg.of(q) == 1


def test_tree_standard_two_copies_disjoint():
    # One edge embedded twice into a 4-chain, multiplicity 2.
    t = chain("x", "y")
    path = chain("a", "b", "c", "d")
    e = tree_standard_embedding(
        [t], path, [{"x": "a", "y": "b"}, {"x": "c", "y": "d"}]
    )
    assert e.of(p(2, 1)) == {p(2, 1), p(4, 3)}
    assert e.of(p(1, 1)) == {p(1, 1), p(3, 3)}


def test_tree_standard_root_only_shorthand():
    # Root-only attachment descends along the target branch.
    t = chain("x", "y")
    path = chain("a", "b", "c")
    e = tree_standard_embedding([t], path, [{"x": "b"}])
    assert e.of(p(2, 1)) == {p(3, 2)}


def test_tree_standard_new_root_attachment():
    t = chain("x", "y")
    target = OutForest(
        DirectedGraph("a b r2 c".split(), [("a", "b"), ("r2", "c")])
    )
    e = tree_standard_embedding([t], target, [{"x": "new-root"}])
    # first unused root in declaration order is "a"
    assert e.of(p(2, 1)) == {p(2, 1)}


def test_tree_standard_rejects_overlapping_copies():
    t = chain("x", "y")
    path = chain("a", "b", "c")
    with pytest.raises(IllFormedAttachment):
        tree_standard_embedding(
            [t], path, [{"x": "a", "y": "b"}, {"x": "b", "y": "c"}]
        )


def test_tree_standard_rejects_edge_stretching():
    # "b" -> "d" is a length-2 path, not an edge, so this map does not
    # describe a branch embedding.
    t = chain("x", "y")
    path = chain("a", "b", "c", "d")
    with pytest.raises(IllFormedAttachment):
        tree_standard_embedding([t], path, [{"x": "b", "y": "d"}])


def test_tree_standard_rejects_too_wide_tree():
    # A 2-branch root cannot sit on a straight chain.
    lam = OutForest(DirectedGraph("1 2 3".split(), [("1", "2"), ("1", "3")]))
    path = chain("a", "b", "c")
    with pytest.raises(IllFormedAttachment):
        tree_standard_embedding([lam], path, [{"1": "a"}])


def test_tree_standard_preserves_grades():
    # Edge generators map to sums of grade-1 generators by construction.
    lam = OutForest(DirectedGraph("1 2 3".split(), [("1", "2"), ("1", "3")]))
    big = OutForest(
        DirectedGraph(
            "r a b p q".split(),
            [("r", "a"), ("a", "b"), ("r", "p"), ("p", "q")],
        )
    )
    e = tree_standard_embedding([lam], big, [{"1": "r", "2": "a", "3": "p"}])
    sg = solve_grading(e.source)
    tg = solve_grading(e.target)
    for q in e.source.irreflexive_pairs():
        grades = {tg.of(w) for w in e.of(q)}
        assert grades == {sg.of(q)}


def test_semigroupoid_graph_pushforward_bijection():
    # The target semigroupoid restricted to the image relation splits into
    # blown-up copies of the source semigroupoid.
    e = standard_embedding(3, 2)
    copies = {k: {} for k in range(2)}
    for (i, j) in e.source.irreflexive_pairs():
        for (a, b) in e.of((i, j)):
            k = (a[1] - 1) // 3
            copies[k][(a, b)] = (i, j)
    for k, mapping in copies.items():
        assert len(mapping) == len(e.source.irreflexive_pairs())
