"""Embedding layer: validation and classic constructors."""

from __future__ import annotations

import tracemalloc

import pytest

from treealg.algebra import DigraphAlgebra, solve_grading
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    refinement_rows,
    standard_embedding,
    standard_rows,
    translation_embedding,
)
from treealg.errors import MultiBlockUnsupported


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


def test_validation_rejects_overlapping_diagonal_images():
    src = DigraphAlgebra([2])
    tgt = DigraphAlgebra([2])
    image = {
        p(1, 1): {p(1, 1)},
        p(2, 2): {p(1, 1), p(2, 2)},
    }
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, tgt, image)
    assert str(info.value) == "diagonal images of (0, 1) and (0, 2) both contain (0, 1)"


def _broken_bijection(image12) -> str:
    src = DigraphAlgebra.upper_triangular(2)
    tgt = DigraphAlgebra.upper_triangular(4)
    image = {p(1, 1): {p(1, 1), p(3, 3)}, p(2, 2): {p(2, 2), p(4, 4)}, p(1, 2): image12}
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, tgt, image)
    return str(info.value)


def test_validation_rejects_broken_bijection():
    # The ranges repeat row 1 instead of enumerating {1, 3}.
    assert _broken_bijection({p(1, 2), p(1, 4)}) == (
        "ranges of the image of ((0, 1), (0, 2)) must enumerate the "
        "diagonal image of (0, 1) exactly once each"
    )


def test_validation_rejects_repeated_sources():
    # The sources repeat row 4 instead of enumerating {2, 4}.
    assert _broken_bijection({p(1, 4), p(3, 4)}) == (
        "sources of the image of ((0, 1), (0, 2)) must enumerate the "
        "diagonal image of (0, 2) exactly once each"
    )


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
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, tgt, {p(1, 1): set()})
    assert str(info.value) == "pair ((0, 1), (0, 1)) has an empty image"


# The remaining messages of the RegularEmbedding constructor, word for word.
def _diagonal(n):
    return {p(i, i): {p(i, i)} for i in range(1, n + 1)}


COVER = "image must cover the source relation exactly "


@pytest.mark.parametrize(
    "extra_keys, missing, extra",
    [
        ([], 1, 0),
        ([p(1, 1, b=1)], 1, 1),
        ([p(3, 3)], 1, 1),
        ([p(2, 1)], 1, 1),
        ([p(1, 2), p(1, 1, b=1), p(3, 3), p(1, 3)], 0, 3),
    ],
    ids=["missing", "another-block", "past-the-end", "reversed", "extra-only"],
)
def test_validation_counts_missing_and_extra_keys(extra_keys, missing, extra):
    src = DigraphAlgebra.upper_triangular(2)
    image = {**_diagonal(2), **{q: {q} for q in extra_keys}}
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, src, image)
    assert str(info.value) == COVER + f"(missing {missing}, extra {extra})"


@pytest.mark.parametrize(
    "pair, image_pair",
    [(p(1, 2), p(2, 1)), (p(1, 1), p(3, 3)), (p(2, 2), p(1, 1, b=1))],
    ids=["reversed", "past-the-end", "another-block"],
)
def test_validation_names_an_image_pair_outside_the_target(pair, image_pair):
    src = DigraphAlgebra.upper_triangular(2)
    image = {**_diagonal(2), p(1, 2): {p(1, 2)}, pair: {image_pair}}
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, src, image)
    assert str(info.value) == f"image pair {image_pair} of {pair} is not in the target relation"


def test_validation_names_a_diagonal_unit_sent_off_the_diagonal():
    tgt = DigraphAlgebra.upper_triangular(2)
    with pytest.raises(ValueError) as info:
        RegularEmbedding(DigraphAlgebra([1]), tgt, {p(1, 1): {p(1, 2)}})
    assert str(info.value) == "diagonal unit (0, 1) maps to off-diagonal pairs"


def test_validation_names_images_that_do_not_compose():
    # Two copies of the chain 1 < 2 < 3 where (1, 3) crosses the copies.
    src = DigraphAlgebra.upper_triangular(3)
    gens = [p(1, 2), p(2, 3), p(4, 5), p(5, 6), p(1, 6), p(4, 3)]
    tgt = DigraphAlgebra.from_generators([6], gens)
    image = {
        p(1, 1): {p(1, 1), p(4, 4)},
        p(2, 2): {p(2, 2), p(5, 5)},
        p(3, 3): {p(3, 3), p(6, 6)},
        p(1, 2): {p(1, 2), p(4, 5)},
        p(2, 3): {p(2, 3), p(5, 6)},
        p(1, 3): {p(1, 6), p(4, 3)},
    }
    with pytest.raises(ValueError) as info:
        RegularEmbedding(src, tgt, image)
    assert str(info.value) == (
        "images of ((0, 1),(0, 2)) and ((0, 2),(0, 3)) compose to "
        "[((0, 1), (0, 3)), ((0, 4), (0, 6))] but ((0, 1),(0, 3)) maps to "
        "[((0, 1), (0, 6)), ((0, 4), (0, 3))]"
    )


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


@pytest.mark.parametrize(
    "rows, message",
    [
        # Two copies on one row would merge in the image set.
        (lambda i: [i, i], r"unit \(0, 1\) lists row 1 twice"),
        (lambda i: [i, i + 1], r"row 2 of unit \(0, 2\) is a row of unit \(0, 1\) too"),
        (lambda i: [1, 2, 3][: i + 1], r"unit \(0, 2\) has 3 rows where unit \(0, 1\) has 2"),
        (lambda i: [], r"unit \(0, 1\) has no rows"),
    ],
    ids=["repeated-row", "shared-row", "unequal-lengths", "no-rows"],
)
def test_translation_embedding_rejects_rows_that_do_not_place_copies(rows, message):
    src = DigraphAlgebra.upper_triangular(2)
    for target in (None, DigraphAlgebra.upper_triangular(4)):
        with pytest.raises(ValueError, match=message):
            translation_embedding(src, rows, target)


def test_translation_embedding_names_the_image_pair_outside_the_target():
    # The second copy of (1, 2) lands on (3, 4), the one pair the target lacks.
    tgt = DigraphAlgebra([4], [p(1, 2)])
    with pytest.raises(ValueError) as info:
        translation_embedding(DigraphAlgebra.upper_triangular(2), standard_rows(2, 2), tgt)
    assert str(info.value) == (
        "image pair ((0, 3), (0, 4)) of ((0, 1), (0, 2)) is not in the target relation"
    )


@pytest.mark.parametrize("blocks", [[3], [5], [2, 2], [4, 1]])
def test_translation_embedding_target_is_the_image_block(blocks):
    src = DigraphAlgebra.upper_triangular(2)
    with pytest.raises(ValueError) as info:
        translation_embedding(src, standard_rows(2, 2), DigraphAlgebra(blocks))
    assert str(info.value) == f"the target has blocks {blocks} where the image has [4]"


def test_image_rows_must_lie_in_the_image_block():
    src = DigraphAlgebra.upper_triangular(2)
    for rows, unit in ((lambda i: [i + 5], 6), (lambda i: [i - 1], 0)):
        with pytest.raises(ValueError, match=rf"unit \(0, {unit}\) is out of range for blocks \[2\]"):
            translation_embedding(src, rows)


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


def test_a_standard_step_holds_no_object_per_pair():
    # Levels are rows only: the 256 -> 512 step keeps O(N) ints of N bits
    # (about 0.4 MB at peak), where one Python object per pair of its
    # 131,328 target pairs takes several MB.
    standard_embedding(4, 2)
    tracemalloc.start()
    try:
        standard_embedding(256, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
