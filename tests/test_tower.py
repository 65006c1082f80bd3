"""Decision procedure on towers: verdicts, witnesses, certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from catalog import (
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from test_golden_decisions import DEPTHS, _diamond, towers as golden_towers
from treealg.algebra import DigraphAlgebra, solve_grading, unit_name
from treealg.ampliation import TreeRefinementSpec, build_tree_refinement_tower
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    standard_embedding,
    standard_rows,
    translation_embedding,
)
import treealg.tower
from treealg.errors import MismatchedLevels, OutputTooLarge
from treealg.tower import (
    Decision,
    ForestPresentation,
    GradeGrowthWitness,
    InconclusiveReport,
    LevelStructureWitness,
    NestRule,
    NestRuleWitness,
    RefinementRule,
    StandardRule,
    Tower,
    Verdict,
    decide_tensor,
    materialize,
)

T2 = DigraphAlgebra.upper_triangular(2)
T4 = DigraphAlgebra.upper_triangular(4)


def diamond_algebra():
    # two incomparable middles between top and bottom, upper orientation
    return DigraphAlgebra(
        [4],
        [((0, 1), (0, 2)), ((0, 1), (0, 3)), ((0, 2), (0, 4)), ((0, 3), (0, 4)), ((0, 1), (0, 4))],
    )


def test_tower_validates_level_map_consistency():
    with pytest.raises(MismatchedLevels):
        Tower([], [])
    with pytest.raises(MismatchedLevels):
        Tower([T2, T4], [])
    e = refinement_embedding(2, 2)
    with pytest.raises(MismatchedLevels):
        Tower([T4, T4], [e])


def test_materialize_generates_full_levels_under_standard_rule():
    t = standard_tower(2, 2)
    levels, maps = materialize(t, 4)
    assert [a.blocks[0] for a in levels] == [2, 4, 8, 16]
    assert len(maps) == 3
    assert all(m.source == levels[k] and m.target == levels[k + 1] for k, m in enumerate(maps))


def test_materialize_caps_without_rule():
    t = triple_copy_tower(2)
    levels, _ = materialize(t, 5)
    assert len(levels) == 2


def test_standard_tower_yes_with_full_forest():
    dec = decide_tensor(standard_tower(2, 3), 3)
    assert dec.verdict is Verdict.YES
    cert = dec.certificate
    assert isinstance(cert, ForestPresentation)
    # every level of a standard tower keeps all covering pairs at grade 1
    for lv, n in zip(cert.levels, [2, 6, 18]):
        assert len(lv.forest.graph.edges) == n - 1
        assert lv.algebra.relation == DigraphAlgebra.upper_triangular(n).relation
    assert cert.levels[-1].embedding is None
    assert all(lv.embedding is not None for lv in cert.levels[:-1])


def test_stationary_rule_upgrades_depth_two():
    dec = decide_tensor(standard_tower(4, 2), 2)
    assert dec.verdict is Verdict.YES


def test_stationary_depth_one_is_inconclusive():
    dec = decide_tensor(standard_tower(2, 2), 1)
    assert dec.verdict is Verdict.INCONCLUSIVE


def test_refinement_tower_no_with_grade_growth():
    for depth in (2, 3, 4):
        dec = decide_tensor(refinement_tower(2, 2), depth)
        assert dec.verdict is Verdict.NO
        w = dec.certificate
        assert isinstance(w, GradeGrowthWitness)
        i = w.level - w.chain.start_level
        assert w.chain.grades[i + 1] > w.chain.grades[i]


def eager_chains(t: Tower, level: int, pair, depth: int):
    """The reference kernel's summand chains of one pair down to depth."""
    levels, maps = materialize(t, depth)
    grades = [ref.grade_table(a) for a in levels]
    return ref.pair_chain_grades(maps, grades, level, pair)


def test_refinement_growth_doubles_each_step():
    cgs = eager_chains(refinement_tower(2, 2), 1, ((0, 1), (0, 2)), 3)
    assert len(cgs) == 4
    assert {c.grades for c in cgs} == {(1, 2, 4)}


def test_triple_copy_yes_at_depth_three_without_rule():
    t = triple_copy_tower(3)
    assert t.rule is None
    dec = decide_tensor(t, 3)
    assert dec.verdict is Verdict.YES


def test_triple_copy_depth_two_lacks_evidence():
    dec = decide_tensor(triple_copy_tower(2), 2)
    assert dec.verdict is Verdict.INCONCLUSIVE


def test_triple_copy_forest_levels_exact():
    dec = decide_tensor(triple_copy_tower(3), 3)
    assert dec.verdict is Verdict.YES
    lv1, lv2, lv3 = dec.certificate.levels
    assert sorted(lv1.forest.graph.edges) == [("0:2", "0:1")]
    # level 2 keeps every covering chain edge except the one fresh jump
    want = {(f"0:{i + 1}", f"0:{i}") for i in range(1, 9)} - {("0:7", "0:6")}
    assert set(lv2.forest.graph.edges) == want
    assert len(lv3.forest.graph.edges) == 26
    # restricted maps send forest edges to sums of forest edges
    e12 = ((0, 1), (0, 2))
    assert lv1.embedding.of(e12) == frozenset(
        {((0, 1), (0, 2)), ((0, 3), (0, 4)), ((0, 7), (0, 8))}
    )


def test_triple_copy_chain_freeze_after_first_step():
    t = triple_copy_tower(4)
    for level in (1, 2):
        alg = t.levels[level - 1]
        for pair in alg.irreflexive_pairs():
            for cg in eager_chains(t, level, pair, 4):
                tail = cg.grades[1:]
                assert all(g == tail[0] for g in tail)


def test_materialize_refuses_levels_over_the_cap(monkeypatch):
    monkeypatch.setattr(treealg.tower, "MAX_LEVEL_UNITS", 8)
    levels, _ = materialize(standard_tower(2, 2), 3)
    assert [sum(a.blocks) for a in levels] == [2, 4, 8]
    with pytest.raises(OutputTooLarge, match="level 4 of 16 units, more than 8"):
        materialize(standard_tower(2, 2), 10**9)
    # A factor of 1 never grows a level.
    assert len(materialize(Tower([T4], [], StandardRule(1)), 5)[0]) == 5


def test_look_ahead_over_the_cap_counts_as_unavailable(monkeypatch):
    fork = DigraphAlgebra([3], [((0, 1), (0, 2)), ((0, 1), (0, 3))])
    t = Tower([fork], [], StandardRule(2))
    dec = decide_tensor(t, 1)
    assert dec.verdict is Verdict.NO
    assert isinstance(dec.certificate, LevelStructureWitness)
    # With the 6-unit level 2 over the cap, depth 1 sees no next level,
    # as under a tower without a rule.
    monkeypatch.setattr(treealg.tower, "MAX_LEVEL_UNITS", 5)
    assert decide_tensor(t, 1).verdict is Verdict.INCONCLUSIVE
    assert decide_tensor(Tower([fork], []), 1).verdict is Verdict.INCONCLUSIVE


def test_mixed_tower_inconclusive_at_depth_two():
    dec = decide_tensor(mixed_tower(2), 2)
    assert dec.verdict is Verdict.INCONCLUSIVE
    assert isinstance(dec.certificate, InconclusiveReport)


def test_unsettled_chains_reported_without_rule():
    levels = [T2]
    maps = []
    for _ in range(2):
        e = refinement_embedding(levels[-1].blocks[0], 2)
        maps.append(e)
        levels.append(e.target)
    dec = decide_tensor(Tower(levels, maps, rule=None), 3)
    assert dec.verdict is Verdict.INCONCLUSIVE
    rep = dec.certificate
    assert isinstance(rep, InconclusiveReport)
    assert rep.unsettled
    assert any(cg.grades == (1, 2, 4) for cg in rep.unsettled)


def test_nest_rule_is_always_no():
    dec = decide_tensor(Tower([T2], [], NestRule()), 5)
    assert dec.verdict is Verdict.NO
    assert isinstance(dec.certificate, NestRuleWitness)


def test_tree_failure_needs_persistence():
    d = diamond_algebra()
    # no rule, nothing to confirm against: stays inconclusive
    dec = decide_tensor(Tower([d], []), 1)
    assert dec.verdict is Verdict.INCONCLUSIVE
    # the standard rule copies the diamond, so the failure persists
    dec2 = decide_tensor(Tower([d], [], StandardRule(2)), 1)
    assert dec2.verdict is Verdict.NO
    w = dec2.certificate
    assert isinstance(w, LevelStructureWitness)
    assert w.level == 1


def test_tree_failure_healed_by_inclusion_is_inconclusive():
    d = diamond_algebra()
    inclusion = RegularEmbedding(d, T4, {p: frozenset({p}) for p in d.relation})
    dec = decide_tensor(Tower([d, T4], [inclusion]), 2)
    assert dec.verdict is Verdict.INCONCLUSIVE


def test_tree_refinement_stationary_two_is_no():
    spec = TreeRefinementSpec(lambda_tree(), (), stationary=2)
    t = build_tree_refinement_tower(spec, 2)
    dec = decide_tensor(t, 3)
    assert dec.verdict is Verdict.NO
    assert isinstance(dec.certificate, GradeGrowthWitness)


def test_tree_refinement_multiplicity_one_is_yes():
    spec = TreeRefinementSpec(lambda_tree(), (), stationary=1)
    t = build_tree_refinement_tower(spec, 2)
    dec = decide_tensor(t, 3)
    assert dec.verdict is Verdict.YES


def test_edge_space_of_image_tower_is_translated_chains():
    dec = decide_tensor(standard_image_tower(4, 2), 2)
    assert dec.verdict is Verdict.YES
    g = dec.certificate.levels[-1].forest.graph
    assert set(g.edges) == {
        ("0:2", "0:1"),
        ("0:3", "0:2"),
        ("0:4", "0:3"),
        ("0:6", "0:5"),
        ("0:7", "0:6"),
        ("0:8", "0:7"),
    }


def test_decision_is_deterministic():
    a = decide_tensor(triple_copy_tower(3), 3)
    b = decide_tensor(triple_copy_tower(3), 3)
    assert a.verdict is b.verdict
    assert isinstance(a, Decision)
    ea = [sorted(lv.forest.graph.edges) for lv in a.certificate.levels]
    eb = [sorted(lv.forest.graph.edges) for lv in b.certificate.levels]
    assert ea == eb


def check_tails_agree(t: Tower) -> None:
    """Dropping stored levels does not change a tower's limit, so over
    depths 1-5 a tower with a rule and every tail of its stored levels
    never get opposite proof verdicts, and no Yes at one depth turns
    into a No one level deeper."""
    by_tail = {}
    for k in range(len(t.levels)):
        tail = Tower(t.levels[k:], t.maps[k:], t.rule)
        by_tail[k] = vs = [decide_tensor(tail, d).verdict.value for d in range(1, 6)]
        assert ("yes", "no") not in zip(vs, vs[1:]), f"verdicts by tail: {by_tail}"
    proofs = {v for vs in by_tail.values() for v in vs} - {"inconclusive"}
    assert proofs != {"yes", "no"}, f"verdicts by tail: {by_tail}"


def ruled_golden_towers():
    return {name: t for name, t in golden_towers() if t.rule is not None}


def test_the_corpus_has_sixteen_towers_with_a_rule():
    assert len(ruled_golden_towers()) == 16


@pytest.mark.parametrize("name", list(ruled_golden_towers()))
def test_tails_never_get_opposite_proof_verdicts(name):
    check_tails_agree(ruled_golden_towers()[name])


def stored_step_towers():
    """Towers whose proof verdicts today rest on stored steps, each
    contradicted by one of its tails."""
    ut = DigraphAlgebra.upper_triangular
    image = translation_embedding(_diamond(), standard_rows(4, 2))
    identity = translation_embedding(image.target, standard_rows(8, 1), ut(8))
    two_steps = [standard_embedding(2, 2), refinement_embedding(4, 2)]
    return {
        "standard-refinement": Tower([T2, T4, ut(8)], two_steps, StandardRule(2)),
        "refinement": Tower([T2, T4], [refinement_embedding(2, 2)], StandardRule(2)),
        "diamond": Tower([_diamond(), image.target, ut(8)], [image, identity], StandardRule(2)),
    }


@pytest.mark.xfail(strict=True, reason="proof verdicts may use stored steps, which a tail drops")
@pytest.mark.parametrize("name", list(stored_step_towers()))
def test_tails_of_stored_steps_never_get_opposite_proof_verdicts(name):
    check_tails_agree(stored_step_towers()[name])


@pytest.mark.parametrize("build", [standard_tower, refinement_tower])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
def test_telescopings_never_get_opposite_proof_verdicts(build, n, m):
    # Two rule steps of m are one step of m², so the towers of m and m²
    # have one limit.  A depth whose levels pass the cap is skipped.
    verdicts = {}
    for step in (m, m * m):
        for depth in range(1, 6):
            try:
                verdicts[step, depth] = decide_tensor(build(n, step), depth).verdict.value
            except OutputTooLarge:
                pass
    assert {"yes", "no"} - set(verdicts.values()), f"verdicts by step and depth: {verdicts}"


def check_against_the_eager_reference(t: Tower, depth: int) -> bool:
    """Compare decide_tensor with the eager chain list, when every level
    is a tree: under a rule the witness is the first rising chain of the
    list at its first rise, without one the unsettled chains are the eager
    filter, and a Yes certificate is the one built afresh.  False when
    some level is not a tree."""
    levels, maps = materialize(t, depth)
    solved = [solve_grading(a) for a in levels]
    if not all(solved):
        return False
    grades = [ref.grade_table(a) for a in levels]
    chains = ref.all_chain_grades(levels, maps, grades)
    dec = decide_tensor(t, depth)
    cert = dec.certificate
    if t.rule is not None:
        rises = (
            GradeGrowthWitness(cg, cg.start_level + i)
            for cg in chains
            for i in range(len(cg.grades) - 1)
            if cg.grades[i + 1] > cg.grades[i]
        )
        first = next(rises, None)
        if first is None:
            assert not isinstance(cert, GradeGrowthWitness)
        else:
            assert cert == first
    else:
        unsettled = cert.unsettled if isinstance(cert, InconclusiveReport) else ()
        assert unsettled == tuple(
            cg for cg in chains if any(g != cg.grades[1] for g in cg.grades[2:])
        )
    if dec.verdict is Verdict.YES:
        want = ref.forest_presentation(levels, maps, grades)
        assert len(cert.levels) == len(want)
        for lv, (pairs, alg, emb) in zip(cert.levels, want):
            edges = [(unit_name(j), unit_name(i)) for i, j in pairs]
            assert sorted(lv.forest.graph.edges) == sorted(edges)
            assert lv.algebra == alg
            assert lv.embedding == emb
    return True


def test_chain_walk_matches_the_eager_reference():
    # Over the golden decision corpus; the lazy walk of each pair lists
    # its eager chains in order.
    checked = 0
    for _, t in golden_towers():
        for depth in DEPTHS:
            if not check_against_the_eager_reference(t, depth):
                continue
            checked += 1
            levels, maps = materialize(t, depth)
            grades = [ref.grade_table(a) for a in levels]
            eager: dict = {}
            for cg in ref.all_chain_grades(levels, maps, grades):
                eager.setdefault((cg.start_level, cg.pairs[0]), []).append(cg)
            solved = [solve_grading(a) for a in levels]
            for k in range(1, len(levels)):
                for p in levels[k - 1].irreflexive_pairs():
                    walked = list(treealg.tower._chain_grades(maps, solved, k, p))
                    assert walked == eager.get((k, p), [])
    assert checked > 50


MAX_PROPERTY_UNITS = 32


@st.composite
def translation_towers(draw):
    """A stored prefix of translation embeddings, with or without a rule.

    Each level is one block holding an order whose units increase along
    every pair: a full triangular block or a forest order.  Each step
    places m copies of the level along rows that interleave at random and
    increase inside each copy, into the image or into the full triangular
    level of size n * m.
    """
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        level = DigraphAlgebra.upper_triangular(n)
    else:
        parents = [draw(st.integers(i, n)) for i in range(1, n)]
        level = DigraphAlgebra.from_generators(
            [n], [((0, i), (0, p)) for i, p in enumerate(parents, 1) if p != i]
        )
    levels, maps = [level], []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 3))
        if n * m > MAX_PROPERTY_UNITS:
            break
        labels = draw(st.permutations([c for c in range(m) for _ in range(n)]))
        # Row i of copy c goes to the position of the i-th label c.
        at = {i: [0] * m for i in range(1, n + 1)}
        seen = [0] * m
        for pos, c in enumerate(labels, 1):
            seen[c] += 1
            at[seen[c]][c] = pos
        target = DigraphAlgebra.upper_triangular(n * m) if draw(st.booleans()) else None
        e = translation_embedding(levels[-1], at.__getitem__, target)
        levels.append(e.target)
        maps.append(e)
        n *= m
    rule = draw(st.sampled_from([None, StandardRule(1), StandardRule(2), RefinementRule(2)]))
    extra = 0
    while rule is not None and n * 2 ** (extra + 1) <= MAX_PROPERTY_UNITS and extra < 2:
        extra += 1
    depth = len(levels) + draw(st.integers(0, extra))
    return Tower(levels, maps, rule), depth


@settings(max_examples=150, deadline=None)
@given(translation_towers())
def test_decision_matches_the_eager_reference_on_translation_towers(case):
    t, depth = case
    assert check_against_the_eager_reference(t, depth)


@pytest.mark.parametrize(
    "tower, depth", [(standard_tower(2, 2), 7), (triple_copy_tower(3), 3)]
)
def test_yes_walks_no_chain(monkeypatch, tower, depth):
    calls = []

    def counted(maps, grades, level, pair):
        calls.append((level, pair))
        return chain_grades(maps, grades, level, pair)

    chain_grades = treealg.tower._chain_grades
    monkeypatch.setattr(treealg.tower, "_chain_grades", counted)
    assert decide_tensor(tower, depth).verdict is Verdict.YES
    assert calls == []
