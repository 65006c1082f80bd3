"""The row-bitmask relation kernel against the quadratic reference.

Random small relations on one to three blocks go through both the
kernel in treealg.algebra and the set-based loops in reference_kernel,
which must agree on acceptance, closure, covering pairs, grades, the
first non-tree triple, and which caller-supplied gradings are valid.
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
@given(generators(), st.data())
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
    for _ in range(data.draw(st.integers(0, 2))):
        pair = data.draw(st.sampled_from(sorted(grade)))
        grade[pair] = data.draw(st.integers(-1, 4))
    ok = ref.grading_ok(a.relation, ref.units_of(blocks), grade)
    if ok:
        Grading(a, grade)
    else:
        with pytest.raises(ValueError):
            Grading(a, grade)
