"""Decision procedure on towers: verdicts, witnesses, certificates."""

import pytest

from treealg.algebra import DigraphAlgebra
from treealg.ampliation import TreeRefinementSpec, build_tree_refinement_tower
from treealg.catalog import (
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from treealg.embeddings import RegularEmbedding, refinement_embedding
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
    StandardRule,
    Tower,
    Verdict,
    counting_grade,
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
        i = w.level - w.chain.chain.start_level
        assert w.chain.grades[i + 1] > w.chain.grades[i]


def test_refinement_growth_doubles_each_step():
    cgs = counting_grade(refinement_tower(2, 2), 1, ((0, 1), (0, 2)), 3)
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
            for cg in counting_grade(t, level, pair, 4):
                tail = cg.grades[1:]
                assert all(g == tail[0] for g in tail)


def test_counting_grade_rejects_bad_inputs():
    t = standard_tower(2, 2)
    with pytest.raises(ValueError):
        counting_grade(t, 3, ((0, 1), (0, 2)), 2)
    with pytest.raises(ValueError):
        counting_grade(t, 1, ((0, 2), (0, 1)), 2)


def test_counting_grade_rejects_a_non_tree_level():
    # Unit 1 is the source of 2 and 3, which are incomparable.
    fork = DigraphAlgebra([3], [((0, 1), (0, 2)), ((0, 1), (0, 3))])
    with pytest.raises(ValueError, match="level 1 is not a tree semigroupoid"):
        counting_grade(Tower([fork], []), 1, ((0, 1), (0, 2)), 1)


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
    assert w.level == 1 and w.persisted


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
