"""The row-bitmask relation kernel against the quadratic reference.

Random small relations on one to three blocks go through both the
kernel in treealg.algebra and the set-based loops in reference_kernel,
which must agree on acceptance, closure, covering pairs, grades, the
first non-tree triple, and which caller-supplied gradings are valid.
Mutated translation embeddings must be accepted by RegularEmbedding
exactly when the all-pairs reference accepts them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from treealg.algebra import (
    DigraphAlgebra,
    Grading,
    NonTreeTriple,
    covering_pairs,
    is_tree_semigroupoid,
    solve_grading,
)
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    refinement_rows,
    standard_rows,
    translation_embedding,
)


@st.composite
def generators(draw):
    """Block sizes plus a list of same-block pairs (i, j), i != j; half
    of the lists use only pairs with i before j, so that their closure
    is acyclic."""
    blocks = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    units = ref.units_of(blocks)
    forward = draw(st.booleans())
    candidates = [
        (i, j) for i in units for j in units
        if i[0] == j[0] and i != j and (i < j or not forward)
    ]
    if not candidates:
        return blocks, []
    return blocks, draw(st.lists(st.sampled_from(candidates), max_size=12))


@st.composite
def trees(draw):
    """One block of up to six units, each but the last paired with one
    later unit: the closure is the order of a tree, which has a grading
    and, unlike most relations drawn by generators, long chains."""
    n = draw(st.integers(1, 6))
    return [n], [((0, i), (0, draw(st.integers(i + 1, n)))) for i in range(1, n)]


def _outcome(build):
    """The relation built, or the kind of error raised."""
    try:
        return build()
    except ValueError as exc:
        return next(k for k in ("antisymmetry", "composite") if k in str(exc))


@settings(max_examples=300, deadline=None)
@given(generators())
def test_constructor_accepts_what_the_reference_accepts(gen):
    blocks, pairs = gen
    want = _outcome(lambda: ref.relation(blocks, pairs))
    got = _outcome(lambda: DigraphAlgebra(blocks, pairs).relation)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(generators())
def test_closure_matches_reference(gen):
    blocks, pairs = gen
    want = _outcome(lambda: ref.relation(blocks, ref.closure(pairs)))
    got = _outcome(lambda: DigraphAlgebra.from_generators(blocks, pairs).relation)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(generators())
def test_covers_tree_condition_and_grades_match_reference(gen):
    blocks, pairs = gen
    try:
        a = DigraphAlgebra.from_generators(blocks, pairs)
    except ValueError:
        return
    rel, units = a.relation, ref.units_of(blocks)
    assert covering_pairs(a) == ref.covering_pairs(rel, units)
    triple = ref.non_tree_triple(rel)
    tree = is_tree_semigroupoid(a)
    solved = solve_grading(a)
    if triple is None:
        assert tree is True
        assert isinstance(solved, Grading)
        assert solved.grade == ref.chain_grades(rel, units)
    else:
        assert tree == NonTreeTriple(*triple)
        assert solved == tree


@settings(max_examples=300, deadline=None)
@given(st.one_of(generators(), trees()), st.data())
def test_grading_validation_matches_reference(gen, data):
    blocks, pairs = gen
    try:
        a = DigraphAlgebra.from_generators(blocks, pairs)
    except ValueError:
        return
    solved = solve_grading(a)
    if not solved:
        return
    grade = dict(solved.grade)
    strict = sorted(p for p in grade if p[0] != p[1])
    mutation = data.draw(st.sampled_from(["set", "shift", "bump"]))
    if mutation == "set":
        for _ in range(data.draw(st.integers(0, 2))):
            pair = data.draw(st.sampled_from(sorted(grade)))
            grade[pair] = data.draw(st.integers(-1, 4))
    elif strict:
        # A shift adds c to every grade whose source is one unit u, which
        # breaks additivity on the pairs composed through u.  A bump adds
        # c to one grade, of a pair that is not a cover where there is
        # one, so that the break lies away from the covering pairs.
        c = data.draw(st.integers(1, 3))
        if mutation == "shift":
            u = data.draw(st.sampled_from(sorted({j for _, j in strict})))
            for i, j in strict:
                if j == u:
                    grade[(i, j)] += c
        else:
            far = sorted(set(strict) - covering_pairs(a)) or strict
            grade[data.draw(st.sampled_from(far))] += c
    ok = ref.grading_ok(a.relation, ref.units_of(blocks), grade)
    if ok:
        Grading(a, grade)
    else:
        with pytest.raises(ValueError):
            Grading(a, grade)


@st.composite
def translation_images(draw):
    """An acyclic single-block source on at most six units, the full
    triangular target on n * m units, and the image map that places m
    copies of the source along the standard or the refinement rows."""
    n = draw(st.integers(1, 6))
    units = ref.units_of([n])
    forward = [(i, j) for i in units for j in units if i < j]
    if draw(st.booleans()):
        gens = forward
    else:
        gens = draw(st.lists(st.sampled_from(forward), max_size=8)) if forward else []
    source = DigraphAlgebra.from_generators([n], gens)
    m = draw(st.integers(1, 3))
    rows = standard_rows(n, m) if draw(st.booleans()) else refinement_rows(m)
    target = DigraphAlgebra.upper_triangular(n * m)
    return source, target, translation_embedding(source, rows, target).image


def _accepts(source, target, image) -> bool:
    try:
        RegularEmbedding(source, target, image)
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(translation_images(), st.data())
def test_embedding_validation_matches_reference(emb, data):
    source, target, image = emb
    image = {p: set(v) for p, v in image.items()}
    # Half of the mutations hit a pair that is not a cover, if there is
    # one, so that the break lies away from the covering pairs.
    far = sorted(source.relation - covering_pairs(source) - {(u, u) for u in source.units()})
    pair = data.draw(st.sampled_from(far if far and data.draw(st.booleans()) else sorted(image)))
    copies = sorted(image[pair])
    mutation = data.draw(st.sampled_from(["swap", "retarget", "drop"]))
    if mutation == "swap" and len(copies) >= 2:
        # Swap the sources of two copies in the image of one pair.
        (a, b), (c, d) = data.draw(st.permutations(copies))[:2]
        image[pair] -= {(a, b), (c, d)}
        image[pair] |= {(a, d), (c, b)}
    elif mutation == "retarget":
        a, b = data.draw(st.sampled_from(copies))
        t = data.draw(st.sampled_from(target.units()))
        new = data.draw(st.sampled_from([(t, b), (a, t), (t, t)]))
        image[pair] = (image[pair] - {(a, b)}) | {new}
    elif mutation == "drop":
        if data.draw(st.booleans()):
            del image[pair]
        else:
            image[pair].discard(data.draw(st.sampled_from(copies)))
    assert _accepts(source, target, image) == ref.embedding_ok(
        source.relation, target.relation, image
    )


def test_composition_is_checked_beyond_the_first_source_of_each_cover():
    # On the chain 1 < 2 < 3 < 4 the covers are (1,2), (2,3), (3,4).  The
    # image of (1,4) meets a cover only through (1,2) * (2,4), and 4 is
    # not the first source of 2.
    e = refinement_embedding(4, 2)
    image = {p: set(v) for p, v in e.image.items()}
    p = ((0, 1), (0, 4))
    assert image[p] == {((0, 1), (0, 7)), ((0, 2), (0, 8))}
    image[p] = {((0, 1), (0, 8)), ((0, 2), (0, 7))}
    assert not ref.embedding_ok(e.source.relation, e.target.relation, image)
    with pytest.raises(ValueError, match=r"compose to"):
        RegularEmbedding(e.source, e.target, image)
    grade = dict(solve_grading(e.source).grade)
    grade[p] += 1
    assert not ref.grading_ok(e.source.relation, e.source.units(), grade)
    with pytest.raises(ValueError, match="fail to add"):
        Grading(e.source, grade)
