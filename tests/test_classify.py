"""Reduction, canonical codes, supernatural numbers, classification."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.ampliation import TreeRefinementSpec, ampliate
from treealg.classify import (
    CanonicalCode,
    Distinct,
    Equivalent,
    SupernaturalNumber,
    Undetermined,
    ampliated_reduction,
    branching_skeleton,
    canonical_code,
    classify_tree_refinement,
    code_template,
    reduce,
    supernatural,
    trees_isomorphic,
)
from treealg.errors import NotATree
from treealg.graphs import DirectedGraph, OutForest

from catalog import branching_tree, chain_forest, lambda_tree
from conftest import random_out_tree
from reference_kernel import classify_by_codes, divisible_by, iterated_ampliation


def shape_isomorphic(g: OutForest, h: OutForest) -> bool:
    """Oracle: exhaustive vertex-bijection search, edges only."""
    va, vb = g.vertices, h.vertices
    if len(va) != len(vb):
        return False
    ea, eb = set(g.edges), set(h.edges)
    for perm in itertools.permutations(vb):
        m = dict(zip(va, perm))
        if {(m[u], m[v]) for u, v in ea} == eb:
            return True
    return False


def weighted_isomorphic(a: OutForest, b: OutForest) -> bool:
    """Oracle: bijection search preserving edges and weights."""
    va, vb = a.vertices, b.vertices
    if len(va) != len(vb):
        return False
    eb = set(b.edges)
    for perm in itertools.permutations(vb):
        m = dict(zip(va, perm))
        if all(a.graph.weight(v) == b.graph.weight(m[v]) for v in va) and {
            (m[u], m[v]) for u, v in a.edges
        } == eb:
            return True
    return False


def relabel(g: OutForest, rng: random.Random) -> OutForest:
    names = [f"x{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    m = dict(zip(g.vertices, names))
    order = list(names)
    rng.shuffle(order)
    return OutForest(DirectedGraph(order, [(m[u], m[v]) for u, v in g.edges]))


def random_reduced_weighted(rng: random.Random, n: int) -> OutForest:
    red = reduce(random_out_tree(rng, n))
    weights = {v: rng.randrange(4) for v in red.vertices}
    return OutForest(DirectedGraph(red.vertices, red.edges, weights))


def test_reduce_contracts_the_four_chain():
    r = reduce(chain_forest(4))
    assert set(r.edges) == {("1", "4")}
    assert r.graph.weight("4") == 2 and r.graph.weight("1") == 0


def test_reduce_four_vertex_example():
    r = reduce(branching_tree())
    assert set(r.edges) == {("1", "2"), ("1", "4")}
    assert r.graph.weights == {"1": 0, "2": 0, "4": 1}


def test_reduce_keeps_lambda_unchanged():
    r = reduce(lambda_tree())
    assert set(r.edges) == {("r", "a"), ("r", "b")}
    assert sum(r.graph.weights.values()) == 0


def test_reduce_rejects_forests():
    two = OutForest(DirectedGraph(["1", "2"], []))
    with pytest.raises(NotATree):
        reduce(two)


def test_reduce_idempotent_and_conserves_count_plus_weight():
    rng = random.Random(11)
    for _ in range(40):
        g = random_out_tree(rng, rng.randrange(1, 12))
        r = reduce(g)
        assert len(g.vertices) == len(r.vertices) + sum(r.graph.weights.values())
        assert reduce(r) == r


def test_reduce_leaves_no_pass_through_vertex():
    rng = random.Random(17)
    for _ in range(40):
        r = reduce(random_out_tree(rng, rng.randrange(1, 12)))
        root = r.single_root()
        assert all(r.graph.out_degree(v) != 1 for v in r.vertices if v != root)
    # a 2-chain has no interior vertex, so it is already reduced
    assert reduce(chain_forest(2)).vertices == chain_forest(2).vertices


def test_codes_distinguish_shape_and_weights():
    chain2 = reduce(chain_forest(2))
    star = reduce(lambda_tree())
    assert canonical_code(chain2) != canonical_code(star)
    a = OutForest(DirectedGraph(star.vertices, star.edges, {"r": 0, "a": 0, "b": 0}))
    b = OutForest(DirectedGraph(star.vertices, star.edges, {"r": 0, "a": 0, "b": 1}))
    assert canonical_code(a) != canonical_code(b)
    assert isinstance(canonical_code(a), CanonicalCode)


def test_codes_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(25):
        g = random_out_tree(rng, rng.randrange(1, 10))
        assert trees_isomorphic(g, relabel(g, rng))


def test_trees_isomorphic_matches_shape_oracle():
    rng = random.Random(7)
    for _ in range(60):
        g = random_out_tree(rng, rng.randrange(1, 8))
        h = random_out_tree(rng, rng.randrange(1, 8))
        assert trees_isomorphic(g, h) == shape_isomorphic(g, h)


def test_codes_match_weighted_oracle():
    rng = random.Random(13)
    for _ in range(40):
        a = random_reduced_weighted(rng, rng.randrange(1, 8))
        b = random_reduced_weighted(rng, rng.randrange(1, 8))
        same = canonical_code(a) == canonical_code(b)
        assert same == weighted_isomorphic(a, b)


def test_lambda_vs_chain_not_isomorphic():
    assert not trees_isomorphic(lambda_tree(), chain_forest(3))


def test_ampliation_changes_weighted_class_even_for_chains():
    # same shape after reduction but different accumulated weights
    g = chain_forest(2)
    assert not trees_isomorphic(ampliate(g, 2), g)
    assert branching_skeleton(ampliate(g, 2)) == branching_skeleton(g)


def test_skeleton_invariant_under_ampliation():
    rng = random.Random(3)
    for _ in range(20):
        g = random_out_tree(rng, rng.randrange(1, 8))
        l = rng.randrange(2, 4)
        assert branching_skeleton(ampliate(g, l)) == branching_skeleton(g)


@st.composite
def weighted_trees(draw):
    """Trees on 1 to 9 vertices, half of them carrying file weights, with
    names that sort around the "(", "," and ")" of ampliated names."""
    n = draw(st.integers(1, 9))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = draw(
        st.lists(st.sampled_from(["a", "a)", "a,", "(a", "b", "1", "!"]), min_size=n, max_size=n)
    )
    vs = [f"{x}{k}" for k, x in enumerate(names)]
    order = draw(st.permutations(vs))
    weights = {v: draw(st.integers(0, 3)) for v in vs} if draw(st.booleans()) else {}
    edges = [(vs[p], vs[i]) for i, p in enumerate(parents, start=1)]
    return OutForest(DirectedGraph(order, edges, weights))


@settings(max_examples=300, deadline=None)
@given(weighted_trees(), st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3))
def test_ampliated_reduction_matches_the_iterated_ampliation(g, factors):
    red = ampliated_reduction(reduce(g, weights=False), factors)
    # Names, weights and vertex order all agree with the built ampliation.
    assert red == reduce(iterated_ampliation(g, factors))
    # An iterated ampliation reduces like one ampliation by the product.
    product = ampliate(g, math.prod(factors))
    assert canonical_code(red) == canonical_code(reduce(product))


def preorder(code: CanonicalCode) -> tuple[tuple[int, ...], list[int]]:
    """The child counts and the weights of a code's vertices in preorder,
    read off its (depth, weight) pairs: a vertex's children are the later
    vertices one deeper before the next vertex no deeper than it."""
    depths, weights = [d for d, _ in code.data], [w for _, w in code.data]
    shape = []
    for i, d in enumerate(depths):
        below = itertools.takewhile(lambda e: e > d, depths[i + 1 :])
        shape.append(sum(e == d + 1 for e in below))
    return tuple(shape), weights


@settings(max_examples=300, deadline=None)
@given(
    weighted_trees(),
    weighted_trees(),
    st.sampled_from(["independent", "same", "ampliated"]),
    st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3),
    st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3),
    st.sampled_from([2, 3]),
)
def test_code_templates_compare_as_the_codes_of_the_ampliated_reductions(g, h, kind, fa, fb, p):
    # "same" and "ampliated" pairs have equal codes whenever the products
    # agree, so the property sees both answers often.
    if kind == "same":
        h = g
    elif kind == "ampliated":
        h = ampliate(g, p)
        fa = [p, *fb]
    sides = []
    for tree, factors in ((g, fa), (h, fb)):
        red = reduce(tree, weights=False)
        code = canonical_code(ampliated_reduction(red, factors))
        shape, pairs = code_template(red)
        l = math.prod(factors)
        # The template read at the product is the code's own preorder.
        assert (shape, [a * l + b for a, b in pairs]) == preorder(code)
        sides.append((code, shape, [a * l + b for a, b in pairs]))
    (code_a, *read_a), (code_b, *read_b) = sides
    assert (read_a == read_b) == (code_a == code_b)


@st.composite
def spec_pairs(draw):
    """Two specs whose bases are independent, equal, or one ampliated from
    the other, with schedules mostly equal."""
    schedule = st.tuples(
        st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2).map(tuple),
        st.sampled_from([None, 2, 3, 6]),
    )
    g = draw(weighted_trees())
    kind = draw(st.sampled_from(["independent", "same", "ampliated"]))
    if kind == "independent":
        h = draw(weighted_trees())
    elif kind == "same":
        h = g
    else:
        h = ampliate(g, draw(st.sampled_from([2, 3, 4])))
    mults, stationary = draw(schedule)
    other = draw(schedule) if draw(st.integers(0, 4)) == 0 else (mults, stationary)
    return TreeRefinementSpec(g, mults, stationary), TreeRefinementSpec(h, *other)


@settings(max_examples=200, deadline=None)
@given(spec_pairs(), st.integers(0, 4))
def test_classification_matches_the_search_by_codes(specs, bound):
    a, b = specs
    assert classify_tree_refinement(a, b, bound) == classify_by_codes(a, b, bound)


@st.composite
def same_skeleton_pairs(draw):
    """Two specs over one skeleton of 1 to 5 vertices whose edges each side
    subdivides by 0 to 3 vertices, half the time as the other side does;
    either side may hang under a new root and carry file weights, and
    one side may be ampliated."""
    n = draw(st.integers(1, 5))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    cuts = st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1)
    first = draw(cuts)
    sides = []
    for counts in (first, first if draw(st.booleans()) else draw(cuts)):
        vs, edges = ["s0"], []
        for i, (p, count) in enumerate(zip(parents, counts), start=1):
            path = [f"s{p}", *(f"s{i}.{k}" for k in range(count)), f"s{i}"]
            vs += path[1:]
            edges += zip(path, path[1:])
        if draw(st.booleans()):
            vs.append("top")
            edges.append(("top", "s0"))
        weights = {v: draw(st.integers(0, 2)) for v in vs} if draw(st.integers(0, 3)) == 0 else {}
        sides.append(OutForest(DirectedGraph(draw(st.permutations(vs)), edges, weights)))
    l = draw(st.sampled_from([1, 1, 2, 3, 4]))
    if l > 1:
        k = draw(st.integers(0, 1))
        sides[k] = ampliate(sides[k], l)
    schedule = st.tuples(
        st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2).map(tuple),
        st.sampled_from([None, 2, 3, 6]),
    )
    mults, stationary = draw(schedule)
    other = draw(schedule) if draw(st.integers(0, 9)) == 0 else (mults, stationary)
    return TreeRefinementSpec(sides[0], mults, stationary), TreeRefinementSpec(sides[1], *other)


@settings(max_examples=300, deadline=None)
@given(same_skeleton_pairs(), st.integers(0, 9))
def test_same_skeleton_classification_matches_the_search_by_codes(specs, bound):
    a, b = specs
    assert classify_tree_refinement(a, b, bound) == classify_by_codes(a, b, bound)


@settings(max_examples=200, deadline=None)
@given(same_skeleton_pairs())
def test_template_offsets_are_fixed_by_the_shape(specs):
    # b is 0 at depth 0, -2 at depth 1 and -1 below, so templates of one
    # shape differ only in a: their weights agree at (alpha*t, beta*t)
    # for every t or for none, and never at exactly one product.
    shapes, offsets = [], []
    for spec in specs:
        shape, pairs = code_template(reduce(spec.base, weights=False))
        shapes.append(shape)
        offsets.append([b for _, b in pairs])
    if shapes[0] == shapes[1]:
        assert offsets[0] == offsets[1]


def test_the_first_templated_candidate_is_the_least_admitted_prime():
    # The file weight on "a" keeps the unampliated pair apart; every
    # ampliation drops it, so each pair of equal products matches, and
    # the least prime that the supernatural number admits comes first.
    lam = lambda_tree()
    weighted = OutForest(DirectedGraph(lam.vertices, lam.edges, {"a": 1}))
    for mults, tail, want in [((3,), 5, (3,)), ((), 5, (5,)), ((2,), 6, (2,))]:
        a, b = TreeRefinementSpec(weighted, mults, tail), TreeRefinementSpec(lam, mults, tail)
        assert isinstance(classify_tree_refinement(a, b, 0), Undetermined)
        for bound in (1, 9, 10**6):
            res = classify_tree_refinement(a, b, bound)
            assert res.ampliations == (want, want)
            assert res == classify_by_codes(a, b, min(bound, 9))
    # Sizes 6 and 3 pair the products (t, 2t): (1, 2) keeps the file
    # weights and fails, so t = 2 wins if B may take two primes, and
    # without 2 in the supernatural number no candidate is left.
    doubled = ampliate(lam, 2)
    weighted = OutForest(DirectedGraph(doubled.vertices, doubled.edges, {doubled.vertices[1]: 1}))
    a, b = TreeRefinementSpec(weighted, (), 6), TreeRefinementSpec(lam, (), 6)
    assert classify_tree_refinement(a, b, 3).ampliations == ((2,), (2, 2))
    assert classify_tree_refinement(a, b, 3) == classify_by_codes(a, b, 3)
    assert classify_tree_refinement(a, b, 1) == classify_by_codes(a, b, 1) == Undetermined(1)
    a, b = TreeRefinementSpec(weighted, (), 3), TreeRefinementSpec(lam, (), 3)
    assert classify_tree_refinement(a, b, 10**6) == Undetermined(10**6)


def test_template_weights_that_never_agree_leave_any_bound_undetermined():
    # One skeleton, but A's root keeps branching and B's root sits on a
    # chain: the templates share their shape, and the a of the two sides
    # differ in proportion, so no product pair matches.
    a = OutForest(DirectedGraph(["r", "a", "b", "m"], [("r", "a"), ("r", "m"), ("m", "b")]))
    b = OutForest(DirectedGraph(["p", "r", "a", "b"], [("p", "r"), ("r", "a"), ("r", "b")]))
    (shape_a, pairs_a), (shape_b, pairs_b) = (code_template(reduce(t, weights=False)) for t in (a, b))
    assert shape_a == shape_b
    assert [x for x, _ in pairs_a] != [x for x, _ in pairs_b]
    sa, sb = TreeRefinementSpec(a, (), 6), TreeRefinementSpec(b, (), 6)
    assert classify_tree_refinement(sa, sb, 9) == classify_by_codes(sa, sb, 9) == Undetermined(9)
    assert classify_tree_refinement(sa, sb, 10**6) == Undetermined(10**6)


def test_supernatural_examples():
    assert supernatural((2, 2), 2) == SupernaturalNumber((), frozenset({2}))
    assert supernatural((6, 2)).finite == ((2, 2), (3, 1))
    s = supernatural((2,), 3)
    assert s.finite == ((2, 1),) and s.infinite == frozenset({3})
    assert supernatural((2, 4), 2) == supernatural((), 2)
    assert supernatural((2,), None) != supernatural((2,), 2)


def test_supernatural_caps_what_it_factors():
    # Trial division of a prime near the cap takes milliseconds; past it,
    # nothing is factored.
    cap = "multiplicities must be at most 4294967296"
    assert supernatural((2**32,), 2**32) == SupernaturalNumber((), frozenset({2}))
    for mults, tail in [((), 10**12 + 39), ((2**32 + 1,), None), ((2, 10**18 + 9), 3)]:
        with pytest.raises(ValueError, match=cap):
            supernatural(mults, tail)


def test_supernatural_divisibility():
    s = supernatural((2,), 3)  # 2 * 3^inf
    assert divisible_by(s, 2) and divisible_by(s, 27) and divisible_by(s, 6)
    assert not divisible_by(s, 4)
    assert not divisible_by(s, 5)


def test_classify_equivalent_after_one_ampliation():
    lam = lambda_tree()
    a = TreeRefinementSpec(lam, (), stationary=2)
    b = TreeRefinementSpec(ampliate(lam, 2), (), stationary=2)
    res = classify_tree_refinement(a, b, 2)
    assert isinstance(res, Equivalent)
    assert res.ampliations == ((2,), ())
    # the bijection really maps one reduction onto the other
    ra = reduce(ampliate(lam, 2))
    rb = reduce(b.base)
    m = dict(res.bijection)
    assert {(m[u], m[v]) for u, v in ra.edges} == set(rb.edges)
    assert all(ra.graph.weight(v) == rb.graph.weight(m[v]) for v in ra.vertices)


def test_classify_reflexive_and_symmetric():
    rng = random.Random(23)
    g = random_out_tree(rng, 5)
    a = TreeRefinementSpec(g, (), stationary=2)
    b = TreeRefinementSpec(relabel(g, rng), (), stationary=2)
    assert isinstance(classify_tree_refinement(a, b, 0), Equivalent)
    lam = TreeRefinementSpec(lambda_tree(), (), stationary=2)
    ch = TreeRefinementSpec(chain_forest(3), (), stationary=2)
    assert isinstance(classify_tree_refinement(lam, ch, 2), Distinct)
    assert isinstance(classify_tree_refinement(ch, lam, 2), Distinct)


def test_classify_distinct_cases_are_final():
    lam = TreeRefinementSpec(lambda_tree(), (), stationary=2)
    other = TreeRefinementSpec(lambda_tree(), (3,), stationary=2)
    for bound in (0, 1, 4):
        res = classify_tree_refinement(lam, other, bound)
        assert isinstance(res, Distinct)
        assert res.reason == "supernatural numbers differ"


def test_classify_undetermined_on_tiny_bound():
    lam = lambda_tree()
    a = TreeRefinementSpec(lam, (), stationary=2)
    b = TreeRefinementSpec(ampliate(lam, 2), (), stationary=2)
    res = classify_tree_refinement(a, b, 0)
    assert isinstance(res, Undetermined)
    assert res.bound == 0


def test_classify_respects_finite_exponents():
    # 3 divides the supernatural only once; the needed double step is barred
    lam = lambda_tree()
    a = TreeRefinementSpec(lam, (3,), stationary=2)
    b = TreeRefinementSpec(ampliate(lam, 9), (3,), stationary=2)
    res = classify_tree_refinement(a, b, 3)
    assert not isinstance(res, Equivalent)
