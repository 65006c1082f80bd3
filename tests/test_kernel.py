"""The row-bitmask relation kernel against the quadratic reference.

Random small relations on one to three blocks go through both the
kernel in treealg.algebra and the set-based loops in reference_kernel,
which must agree on acceptance, closure, covering pairs, grades and the
first non-tree triple; every solved grading must pass the reference.
So must the levels that rule steps build in closed form, which skip
the order check.  Mutated translation embeddings must be accepted by
RegularEmbedding exactly when the all-pairs reference accepts them, and
rejected with exactly the message of the constructor's set-based loop.

The library builds ampliations, reductions, forest presentations,
translation embeddings, full triangular, image and ampliated orders
without the checks of the public constructors.  Rebuilt through
DirectedGraph, OutForest, RegularEmbedding and DigraphAlgebra, each must
come out equal, with the same adjacency, roots and irreflexive pairs,
and every grading solve_grading returns must pass the reference.  Every
tree-refinement step a tower generates must equal the step built through
the ampliated tree, reference_kernel.refinement_between.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from reference_kernel import rule_to_json
from test_ampliation import trees as named_trees
from test_golden_classify import cli_inputs, small_trees
from test_golden_decisions import DEPTHS, towers as golden_towers
from test_tower import translation_towers
from treealg import algebra
from treealg.algebra import (
    DigraphAlgebra,
    Grading,
    NonTreeTriple,
    covering_pairs,
    is_tree_semigroupoid,
    solve_grading,
)
from treealg.ampliation import TreeRefinementSpec, ampliate, build_tree_refinement_tower
from treealg.classify import ampliated_reduction, reduce
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    refinement_rows,
    standard_rows,
    translation_embedding,
)
from treealg.formats import spec_from_json
from treealg.graphs import DirectedGraph, OutForest
from treealg.tower import (
    ForestPresentation,
    Tower,
    TreeRefinementRule,
    decide_tensor,
    materialize,
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
def test_closure_fails_with_the_constructors_message(gen):
    # Closed rows are transitive, so from_generators checks only
    # antisymmetry; the constructor, checking everything on the closed
    # pairs, must name the same two-cycle.
    blocks, pairs = gen

    def message(build):
        try:
            return build()
        except ValueError as exc:
            return str(exc)

    closed = message(lambda: DigraphAlgebra(blocks, ref.closure(pairs)))
    assert message(lambda: DigraphAlgebra.from_generators(blocks, pairs)) == closed


@st.composite
def sparse_generators(draw):
    """One block of up to 40 units and at most eight pairs, so that most
    units have no strict source."""
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    return [n], [((0, i), (0, j)) for i, j in draw(st.lists(pair, max_size=8))]


@settings(max_examples=200, deadline=None)
@given(sparse_generators())
def test_sparse_closure_matches_reference(gen):
    blocks, pairs = gen
    want = ref.relation(blocks, ref.closure(pairs))
    assert DigraphAlgebra.from_generators(blocks, pairs).relation == want


@st.composite
def numbered_orders(draw, sizes=st.integers(1, 9)):
    """One block and generators drawn along a hidden order of its units:
    all pairs of it, its chain of covers, a tree's parent pairs or a
    random part of them, listed in any order.  The units are numbered
    along the hidden order, against it, or shuffled; a cyclic set adds
    one pair against the hidden order."""
    n = draw(sizes)
    numbering = draw(st.sampled_from(["forward", "backward", "shuffled"]))
    at = list(range(1, n + 1))
    if numbering == "backward":
        at.reverse()
    elif numbering == "shuffled":
        at = draw(st.permutations(at))
    kind = draw(st.sampled_from(["full", "chain", "tree", "part"]))
    if kind == "full":
        hidden = [(a, b) for a in range(n) for b in range(a + 1, n)]
    elif kind == "chain":
        hidden = [(a, a + 1) for a in range(n - 1)]
    elif kind == "tree":
        hidden = [(b, draw(st.integers(0, b - 1))) for b in range(1, n)]
    else:
        full = [(a, b) for a in range(n) for b in range(a + 1, n)]
        hidden = draw(st.lists(st.sampled_from(full), max_size=2 * n)) if full else []
    if n > 1 and draw(st.booleans()):
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        hidden.append((b, a) if kind != "tree" else (a, b))
    pairs = [((0, at[a]), (0, at[b])) for a, b in draw(st.permutations(hidden))]
    return [n], pairs


def _cyclic(closed) -> bool:
    return any((j, i) in closed for i, j in closed if i != j)


def _closure_outcome(build):
    """The relation built, or the message raised, and whether Warshall's
    closure ran."""
    with mock.patch.object(algebra, "_warshall", wraps=algebra._warshall) as warshall:
        try:
            got = build().relation
        except ValueError as exc:
            got = str(exc)
    return got, warshall.called


@settings(max_examples=400, deadline=None)
@given(numbered_orders())
def test_closure_of_numbered_orders_matches_reference(gen):
    # Whatever the numbering and listing, the search gives the reference
    # closure, or the constructor's message on it, and runs Warshall's
    # closure exactly when the generators hold a cycle.
    blocks, pairs = gen
    closed = ref.closure(pairs)
    want, _ = _closure_outcome(lambda: DigraphAlgebra(blocks, closed))
    if not _cyclic(closed):
        assert want == ref.relation(blocks, closed)
    assert _closure_outcome(lambda: DigraphAlgebra.from_generators(blocks, pairs)) == (
        want, _cyclic(closed)
    )


def _search_closure(pairs) -> set:
    """The transitive closure by one search from each range: the oracle
    where ref.closure, |R|^2 per round, would take too long."""
    sources: dict = {}
    for i, j in pairs:
        sources.setdefault(i, []).append(j)
    out = set()
    for i, todo in sources.items():
        seen, todo = set(), list(todo)
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo += sources.get(j, [])
        out.update((i, j) for j in seen)
    return out


@settings(max_examples=60, deadline=None)
@given(numbered_orders(sizes=st.integers(40, 300)))
def test_closure_of_long_numbered_orders_matches_a_search(gen):
    # Long chains and full orders numbered every way, where every open
    # unit of the search may wait on hundreds of others.
    blocks, pairs = gen
    closed = _search_closure(pairs)
    want, _ = _closure_outcome(lambda: DigraphAlgebra(blocks, closed))
    assert _closure_outcome(lambda: DigraphAlgebra.from_generators(blocks, pairs)) == (
        want, _cyclic(closed)
    )


@settings(max_examples=300, deadline=None)
@given(generators())
def test_pairs_list_the_relation_in_sorted_order(gen):
    blocks, pairs = gen
    try:
        a = DigraphAlgebra.from_generators(blocks, pairs)
    except ValueError:
        return
    rel = a.relation
    assert a.pairs() == sorted(rel)
    assert len(a) == len(rel)
    units = ref.units_of(blocks) + [(len(blocks), 1), (0, blocks[0] + 1)]
    assert all(a.has_pair(i, j) == ((i, j) in rel) for i in units for j in units)


@settings(max_examples=300, deadline=None)
@given(st.one_of(generators(), trees()))
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
        grade = {p: solved.of(p) for p in rel}
        assert grade == ref.chain_grades(rel, units)
        assert ref.grading_ok(rel, units, grade)
    else:
        assert tree == NonTreeTriple(*triple)
        assert solved == tree


@settings(max_examples=200, deadline=None)
@given(st.one_of(generators(), trees(), numbered_orders()), st.sampled_from([2, 3, 5]))
def test_rows_sharing_keys_give_the_same_answers(gen, key):
    # With a modulus this small, rows share keys: the order check and the
    # parents list must then fall back on the rows themselves.
    blocks, pairs = gen

    def answers():
        try:
            a = DigraphAlgebra.from_generators(blocks, pairs)
        except ValueError as exc:
            return str(exc)
        checked = _outcome(lambda: DigraphAlgebra(blocks, a.pairs()).relation)
        return algebra._parents(a), covering_pairs(a), is_tree_semigroupoid(a), checked

    want = answers()
    with mock.patch.object(algebra, "_KEY", key):
        assert answers() == want


@st.composite
def closed_form_levels(draw):
    """A level whose rows are built in closed form, as rule steps build
    them, without the order check: a full triangular order, the
    ampliated order of a drawn order, or the image algebra of m copies of
    a single-block order placed along standard, refinement or shuffled
    rows."""
    kind = draw(st.sampled_from(["upper_triangular", "ampliated", "placed"]))
    if kind == "upper_triangular":
        return DigraphAlgebra.upper_triangular(draw(st.integers(1, 12)))
    blocks, pairs = draw(st.one_of(generators(), trees()))
    if kind == "placed":
        blocks, pairs = blocks[:1], [(i, j) for i, j in pairs if i[0] == j[0] == 0]
    try:
        a = DigraphAlgebra.from_generators(blocks, pairs)
    except ValueError:
        a = DigraphAlgebra(blocks)
    if kind == "ampliated":
        return a.ampliated(draw(st.integers(1, 3)))
    n, m = blocks[0], draw(st.integers(1, 3))
    rows = draw(st.sampled_from(["standard", "refinement", "shuffled"]))
    if rows == "standard":
        at = standard_rows(n, m)
    elif rows == "refinement":
        at = refinement_rows(m)
    else:
        perm = draw(st.permutations(range(1, n * m + 1)))
        at = lambda i: list(perm[(i - 1) * m : i * m])  # noqa: E731
    return translation_embedding(a, at, None).target


@settings(max_examples=300, deadline=None)
@given(closed_form_levels())
def test_closed_form_levels_match_reference(a):
    rel, units = a.relation, ref.units_of(a.blocks)
    assert covering_pairs(a) == ref.covering_pairs(rel, units)
    triple = ref.non_tree_triple(rel)
    tree = is_tree_semigroupoid(a)
    solved = solve_grading(a)
    if triple is None:
        assert tree is True
        assert {p: solved.of(p) for p in rel} == ref.chain_grades(rel, units)
    else:
        assert tree == NonTreeTriple(*triple)
        assert solved == tree


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


def _mutate(data, source, target, image, kinds=("swap", "retarget", "drop")) -> None:
    """Apply one drawn mutation to image in place.  Half of the mutations
    hit a pair that is not a cover, if there is one, so that the break
    lies away from the covering pairs; "overlap" adds a unit of another
    diagonal image to the image of a diagonal unit."""
    far = sorted(
        p for p in source.relation - covering_pairs(source) if p[0] != p[1] and p in image
    )
    pair = data.draw(st.sampled_from(far if far and data.draw(st.booleans()) else sorted(image)))
    copies = sorted(image[pair])
    mutation = data.draw(st.sampled_from(kinds))
    if mutation == "swap" and len(copies) >= 2:
        # Swap the sources of two copies in the image of one pair.
        (a, b), (c, d) = data.draw(st.permutations(copies))[:2]
        image[pair] -= {(a, b), (c, d)}
        image[pair] |= {(a, d), (c, b)}
    elif mutation == "retarget" and copies:
        a, b = data.draw(st.sampled_from(copies))
        t = data.draw(st.sampled_from(target.units()))
        new = data.draw(st.sampled_from([(t, b), (a, t), (t, t)]))
        image[pair] = (image[pair] - {(a, b)}) | {new}
    elif mutation == "drop":
        if data.draw(st.booleans()) or not copies:
            del image[pair]
        else:
            image[pair].discard(data.draw(st.sampled_from(copies)))
    elif mutation == "overlap":
        d = data.draw(st.sampled_from(source.units()))
        others = sorted(
            q for u in source.units() if u != d for q in image.get((u, u), ()) if q[0] == q[1]
        )
        if (d, d) in image and others:
            image[(d, d)].add(data.draw(st.sampled_from(others)))


@settings(max_examples=500, deadline=None)
@given(translation_images(), st.data())
def test_embedding_validation_matches_reference(emb, data):
    source, target, image = emb
    image = {p: set(v) for p, v in image.items()}
    _mutate(data, source, target, image)
    assert _accepts(source, target, image) == ref.embedding_ok(
        source.relation, target.relation, image
    )


@settings(max_examples=500, deadline=None)
@given(translation_images(), st.integers(1, 3), st.data())
def test_embedding_messages_match_the_reference_loop(emb, count, data):
    # One to three stacked mutations, diagonal overlaps among them and
    # swaps, which break only composition, drawn twice as often: the
    # constructor raises exactly the message of the reference loop, and
    # accepts exactly when that loop finds nothing.
    source, target, image = emb
    image = {p: set(v) for p, v in image.items()}
    for _ in range(count):
        if image:
            _mutate(data, source, target, image, ("swap", "swap", "retarget", "drop", "overlap"))
    want = ref.embedding_error(source, target, image)
    if want is None:
        RegularEmbedding(source, target, image)
    else:
        with pytest.raises(ValueError) as info:
            RegularEmbedding(source, target, image)
        assert str(info.value) == want


@pytest.mark.parametrize("n, l", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_every_swap_of_a_refinement_image_gets_the_reference_message(n, l):
    # Swapping the sources of two copies keeps every image pair in the
    # target and the ranges and sources enumerated, so most of these
    # break composition alone.
    e = refinement_embedding(n, l)
    for pair in e.source.irreflexive_pairs():
        copies = sorted(e.of(pair))
        for x in range(len(copies)):
            for y in range(x + 1, len(copies)):
                (a, b), (c, d) = copies[x], copies[y]
                image = {p: set(v) for p, v in e.image.items()}
                image[pair] = (image[pair] - {(a, b), (c, d)}) | {(a, d), (c, b)}
                want = ref.embedding_error(e.source, e.target, image)
                assert want is not None
                with pytest.raises(ValueError) as info:
                    RegularEmbedding(e.source, e.target, image)
                assert str(info.value) == want


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


def _assert_rebuilds(f: OutForest) -> None:
    """The checked constructors give f back, adjacency and roots alike."""
    g = f.graph
    again = OutForest(DirectedGraph(g.vertices, g.edges, g.weights))
    assert again == f
    assert again.roots == f.roots
    for v in g.vertices:
        assert again.graph.successors(v) == g.successors(v)
        assert again.graph.predecessors(v) == g.predecessors(v)


def _assert_algebra_rebuilds(a: DigraphAlgebra) -> None:
    """The checked constructor gives a back, with the same irreflexive
    pairs in the same order."""
    again = DigraphAlgebra(a.blocks, a.irreflexive_pairs())
    assert again == a
    assert again.irreflexive_pairs() == a.irreflexive_pairs()
    assert again.relation == a.relation


def _assert_tower_rebuilds(levels, maps) -> None:
    """Every level rebuilds through DigraphAlgebra and every map through
    RegularEmbedding, and every grading of a level passes the reference."""
    for e in maps:
        assert RegularEmbedding(e.source, e.target, e.image) == e
    for a in levels:
        _assert_algebra_rebuilds(a)
        solved = solve_grading(a)
        if solved:
            assert ref.grading_ok(a.relation, a.units(), ref.grade_table(a))


@settings(max_examples=150, deadline=None)
@given(named_trees(), st.integers(1, 4), st.integers(0, 3))
def test_ampliations_rebuild_alike(tree, l, steps):
    _assert_rebuilds(ampliate(tree, l, steps))


def _classify_corpus() -> list[OutForest]:
    bases = [spec_from_json(doc).base for doc in cli_inputs().values()]
    return small_trees() + bases


@pytest.mark.parametrize("factors", [(), (1,), (2,), (3,), (1, 2), (2, 3), (2, 2, 3)])
def test_reductions_rebuild_alike(factors):
    for t in _classify_corpus():
        _assert_rebuilds(reduce(t))
        plain = reduce(t, weights=False)
        _assert_rebuilds(plain)
        _assert_rebuilds(ampliated_reduction(plain, factors))


@settings(max_examples=150, deadline=None)
@given(translation_towers())
def test_translation_towers_rebuild_alike(case):
    t, depth = case
    _assert_tower_rebuilds(*materialize(t, depth))


def test_golden_presentations_rebuild_alike():
    for _, tower in golden_towers():
        for depth in DEPTHS:
            _assert_tower_rebuilds(*materialize(tower, depth))
            cert = decide_tensor(tower, depth).certificate
            if isinstance(cert, ForestPresentation):
                for lv in cert.levels:
                    _assert_rebuilds(lv.forest)
                    if lv.embedding is not None:
                        _assert_tower_rebuilds([lv.algebra], [lv.embedding])


def test_upper_triangular_rebuilds_alike():
    for n in range(1, 41):
        _assert_algebra_rebuilds(DigraphAlgebra.upper_triangular(n))


@st.composite
def shuffled_translations(draw):
    """m copies of a single-block order on at most five units, placed
    along rows in random order, so that the copies of a unit's strict
    sources need not keep their order."""
    n = draw(st.integers(1, 5))
    units = ref.units_of([n])
    strict = [(i, j) for i in units for j in units if i != j]
    pairs = draw(st.lists(st.sampled_from(strict), max_size=8)) if strict else []
    try:
        source = DigraphAlgebra.from_generators([n], pairs)
    except ValueError:
        source = DigraphAlgebra([n])
    m = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(1, n * m + 1)))
    return translation_embedding(source, lambda i: list(perm[(i - 1) * m : i * m]))


@settings(max_examples=200, deadline=None)
@given(shuffled_translations())
def test_image_algebras_rebuild_alike(e):
    _assert_tower_rebuilds([e.source, e.target], [e])


def _tree_rule_tower(tree: OutForest, l: int) -> Tower:
    return Tower([DigraphAlgebra.from_graph(tree)[0]], [], TreeRefinementRule(tree, l))


@settings(max_examples=150, deadline=None)
@given(named_trees(), st.integers(1, 4), st.integers(1, 3))
def test_ampliated_orders_rebuild_alike(tree, l, depth):
    levels, maps = materialize(_tree_rule_tower(tree, l), depth)
    assert len(levels) == depth
    for a in levels:
        _assert_algebra_rebuilds(a)
    for e in maps:
        assert RegularEmbedding(e.source, e.target, e.image) == e


@settings(max_examples=200, deadline=None)
@given(generators(), st.integers(1, 3))
def test_ampliated_orders_of_any_order_rebuild_alike(gen, l):
    # The lexicographic order is an order for any order on any blocks,
    # not only for the order of a tree.
    try:
        a = DigraphAlgebra.from_generators(*gen)
    except ValueError:
        return
    _assert_algebra_rebuilds(a.ampliated(l))


@settings(max_examples=150, deadline=None)
@given(named_trees(), st.integers(1, 4), st.integers(1, 3))
def test_tree_rule_steps_match_the_ampliation_oracle(tree, l, depth):
    levels, maps = materialize(_tree_rule_tower(tree, l), depth)
    for k, e in enumerate(maps):
        tree, want = ref.refinement_between(tree, l, levels[k])
        assert e == want
        assert levels[k + 1] == want.target
        assert levels[k + 1].irreflexive_pairs() == want.target.irreflexive_pairs()


@settings(max_examples=100, deadline=None)
@given(
    named_trees(),
    st.lists(st.integers(1, 3), max_size=2),
    st.one_of(st.none(), st.integers(1, 3)),
)
def test_built_tree_towers_match_the_ampliation_oracle(tree, mults, stationary):
    spec = TreeRefinementSpec(tree, tuple(mults), stationary)
    depth = len(mults) + 1 + (stationary is not None)
    t = build_tree_refinement_tower(spec, depth)
    assert t.levels[0] == DigraphAlgebra.from_graph(tree)[0]
    for k, e in enumerate(t.maps):
        tree, want = ref.refinement_between(tree, spec.multiplicity(k), t.levels[k])
        assert e == want
        assert t.levels[k + 1].irreflexive_pairs() == want.target.irreflexive_pairs()
    want_rule = None if stationary is None else TreeRefinementRule(tree, stationary)
    assert rule_to_json(t.rule) == rule_to_json(want_rule)
