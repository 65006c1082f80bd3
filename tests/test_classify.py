"""Reduction, canonical codes, supernatural numbers, classification."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.ampliation import TreeRefinementSpec, ampliate
from treealg.classify import (
    MAX_SEQUENCE_ENTRIES,
    CanonicalCode,
    Distinct,
    Equivalent,
    SupernaturalNumber,
    Undetermined,
    _factor_sequences,
    _sequence_entries,
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
    """The child counts and the weights of a code's vertices in preorder."""
    shape, weights, stack = [], [], [code.data]
    while stack:
        weight, kids = stack.pop()
        shape.append(len(kids))
        weights.append(weight)
        stack.extend(reversed(kids))
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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 30]), max_size=4),
    st.sampled_from([None, 2, 6, 7, 30]),
    st.integers(0, 8),
)
def test_factor_sequences_are_the_dividing_prime_tuples_and_are_counted(mults, tail, bound):
    sn = supernatural(mults, tail)
    primes = sorted(sn.primes())
    steps = bound if sn.infinite else min(bound, sum(e for _, e in sn.finite))
    want = {
        math.prod(seq): seq
        for k in range(steps + 1)
        for seq in itertools.combinations_with_replacement(primes, k)
        if all(seq.count(p) <= sn.exponent(p) for p in primes)
    }
    assert _factor_sequences(primes, bound, sn) == want
    entries = len(want) + sum(map(len, want.values()))
    assert _sequence_entries([sn.exponent(p) for p in primes], steps) == entries


def test_sequence_entries_match_closed_forms_up_to_the_cap():
    # k steps over r primes of unbounded exponent give C(k + r - 1, r - 1)
    # tuples of length k; over n primes of exponent 1, C(n, k).  A tuple
    # of length k holds k + 1 entries.
    above = MAX_SEQUENCE_ENTRIES + 1

    def capped(counts) -> int:
        total = 0
        for k, count in enumerate(counts):
            total += (k + 1) * count
            if total >= above:
                return above
        return total

    for r in (1, 2, 3):
        for steps in (0, 1, 10, 61, 62, 180, 181, 1998, 1999, 10**5, 10**9):
            want = capped(math.comb(k + r - 1, r - 1) for k in range(steps + 1))
            assert min(_sequence_entries([math.inf] * r, steps), above) == want
    for n in (3, 17, 18, 40):
        for steps in range(n + 1):
            want = capped(math.comb(n, k) for k in range(steps + 1))
            assert min(_sequence_entries([1] * n, steps), above) == want


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
