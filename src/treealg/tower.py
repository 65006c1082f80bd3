"""Towers of digraph algebras and the tensor-algebra decision.

A tower stores finitely many levels joined by regular embeddings, plus an
optional rule saying how all further levels continue.  The decision
procedure tracks, for every matrix-unit pair at every level, the grades
of all its summand chains down to the inspected depth:

* Yes requires the tree condition at every level and every chain to be
  settled, meaning its grade freezes right after the chain starts.  A
  fresh pair may jump once when first embedded, never again.  Without a
  rule this is evidence and needs depth at least 3; under a stationary
  rule one clean step repeats forever, which upgrades the evidence to a
  proof.
* No comes from the nest rule directly, from a persistent failure of the
  tree condition, or from a chain grade strictly increasing under a
  stationary rule (the increase then recurs at every later level).
* Everything else is reported honestly as inconclusive, together with
  the chains that refused to stabilize.

On Yes, the certificate is a forest presentation: level by level, the
units whose whole orbit stays at grade 1 form an out-forest, and the
tower's embeddings restrict to maps sending forest edges to sums of
forest edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .algebra import (
    DigraphAlgebra,
    NonTreeTriple,
    Pair,
    is_tree_semigroupoid,
    solve_grading,
    unit_name,
)
from .embeddings import (
    RegularEmbedding,
    refinement_rows,
    standard_rows,
    translation_embedding,
)
from .errors import MismatchedLevels, OutputTooLarge
from .graphs import DirectedGraph, OutForest, recognize_out_forest

MAX_LEVEL_UNITS = 512
# The most units a level generated from a rule may have.  Each rule step
# multiplies the units by m or l, so the count of the deepest requested
# level is known before any step runs.  decide_tensor on standard_tower(2, 2)
# takes about 3 s at 256 units and 28 s at 512 on a 2-core x86 VM.


@dataclass(frozen=True)
class StandardRule:
    """Repeat standard embeddings of multiplicity m forever."""

    m: int


@dataclass(frozen=True)
class RefinementRule:
    """Repeat refinement embeddings of step l forever."""

    l: int


@dataclass(frozen=True)
class NestRule:
    """All further embeddings are full nest embeddings."""


@dataclass(frozen=True)
class TreeRefinementRule:
    """Keep ampliating the tree of the last stored level by l."""

    tree: OutForest
    l: int


Rule = StandardRule | RefinementRule | NestRule | TreeRefinementRule


class Tower:
    """Immutable list of levels and connecting embeddings, plus a rule."""

    __slots__ = ("_levels", "_maps", "_rule")

    def __init__(
        self,
        levels: Sequence[DigraphAlgebra],
        maps: Sequence[RegularEmbedding],
        rule: Rule | None = None,
    ) -> None:
        lv = tuple(levels)
        mp = tuple(maps)
        if not lv:
            raise MismatchedLevels("a tower needs at least one level")
        if len(mp) != len(lv) - 1:
            raise MismatchedLevels(
                f"{len(lv)} levels need {len(lv) - 1} maps, got {len(mp)}"
            )
        for k, e in enumerate(mp):
            if e.source != lv[k]:
                raise MismatchedLevels(f"map {k} does not start at level {k}")
            if e.target != lv[k + 1]:
                raise MismatchedLevels(f"map {k} does not end at level {k + 1}")
        self._levels = lv
        self._maps = mp
        self._rule = rule

    @property
    def levels(self) -> tuple[DigraphAlgebra, ...]:
        return self._levels

    @property
    def maps(self) -> tuple[RegularEmbedding, ...]:
        return self._maps

    @property
    def rule(self) -> Rule | None:
        return self._rule

    def __repr__(self) -> str:
        r = type(self._rule).__name__ if self._rule is not None else "no rule"
        return f"Tower({len(self._levels)} stored levels, {r})"


def _rule_step(
    level: DigraphAlgebra, rule: Rule
) -> tuple[DigraphAlgebra, RegularEmbedding, Rule]:
    if isinstance(rule, (StandardRule, RefinementRule)):
        standard = isinstance(rule, StandardRule)
        if len(level.blocks) != 1:
            kind = "standard" if standard else "refinement"
            raise MismatchedLevels(f"{kind} rule needs single-block levels")
        n = level.blocks[0]
        copies = rule.m if standard else rule.l
        rows = standard_rows(n, copies) if standard else refinement_rows(copies)
        # A full triangular level continues into the full level one size
        # up; any other level into the image of the step.
        target = None
        if level.is_full_upper_triangular():
            target = DigraphAlgebra.upper_triangular(n * copies)
        e = translation_embedding(level, rows, target)
        return e.target, e, rule
    if isinstance(rule, TreeRefinementRule):
        from .ampliation import refinement_between

        nxt, e = refinement_between(rule.tree, rule.l, level)
        return e.target, e, TreeRefinementRule(nxt, rule.l)
    raise MismatchedLevels(f"cannot generate levels from rule {rule!r}")


def materialize(t: Tower, depth: int) -> tuple[list[DigraphAlgebra], list[RegularEmbedding]]:
    """Levels and maps up to depth, generating from the rule as needed.

    Without a generating rule (none, or the nest rule, which fixes no
    concrete matrices) the result is capped at the stored levels.  A
    generated level of more than MAX_LEVEL_UNITS units, or generated
    levels of more than 2 * MAX_LEVEL_UNITS units together, raise
    OutputTooLarge before any level is generated.  A factor of at least 2
    keeps the sum under the second cap whenever each level is under the
    first; a factor of 1 repeats the last level, so the sum bounds the
    number of levels.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = list(t.levels[:depth])
    maps = list(t.maps[: max(0, len(levels) - 1)])
    rule = t.rule
    generable = rule is not None and not isinstance(rule, NestRule)
    if generable and len(levels) < depth:
        units, total = sum(levels[-1].blocks), 0
        factor = rule.m if isinstance(rule, StandardRule) else rule.l
        # Every level has a unit, so this stops within 2 * MAX_LEVEL_UNITS steps.
        for k in range(len(levels) + 1, depth + 1):
            units *= factor
            total += units
            if units > MAX_LEVEL_UNITS:
                raise OutputTooLarge(
                    f"depth {depth} needs level {k} of {units} units,"
                    f" more than {MAX_LEVEL_UNITS}"
                )
            if total > 2 * MAX_LEVEL_UNITS:
                raise OutputTooLarge(
                    f"depth {depth} needs levels {len(levels) + 1} to {k} of"
                    f" {total} units together, more than {2 * MAX_LEVEL_UNITS}"
                )
    if isinstance(rule, TreeRefinementRule) and len(levels) < depth:
        from .ampliation import level_algebra

        # Each generated level is the order algebra of the rule's tree at
        # that step, so only the first step needs this check.
        if level_algebra(rule.tree) != levels[-1]:
            raise MismatchedLevels(
                "the tree of the tree-refinement rule does not give the last level"
            )
    while len(levels) < depth and generable:
        nxt, emb, rule = _rule_step(levels[-1], rule)
        levels.append(nxt)
        maps.append(emb)
    return levels, maps


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SummandChain:
    """One pair followed through consecutive embeddings, one summand each."""

    start_level: int
    pairs: tuple[Pair, ...]


@dataclass(frozen=True)
class ChainGrades:
    chain: SummandChain
    grades: tuple[int, ...]


@dataclass(frozen=True)
class GradeGrowthWitness:
    """A chain whose grade strictly rose across the step at this level."""

    chain: ChainGrades
    level: int


@dataclass(frozen=True)
class NestRuleWitness:
    note: str = "towers continued by full nest embeddings are never tensor algebras"


@dataclass(frozen=True)
class LevelStructureWitness:
    """A failure of the tree condition at one level, with its persistence."""

    level: int
    witness: NonTreeTriple
    persisted: bool


@dataclass(eq=False, frozen=True)
class PresentationLevel:
    """One level of a forest presentation.

    forest carries the grade-1 units as edges on the diagonal units;
    algebra is the subalgebra those units generate; embedding restricts
    the tower map and sends forest edges to sums of forest edges.  The
    last level has no embedding.
    """

    level: int
    forest: OutForest
    algebra: DigraphAlgebra
    embedding: RegularEmbedding | None


@dataclass(eq=False, frozen=True)
class ForestPresentation:
    levels: tuple[PresentationLevel, ...]


@dataclass(frozen=True)
class InconclusiveReport:
    reason: str
    unsettled: tuple[ChainGrades, ...] = ()


Certificate = (
    ForestPresentation
    | GradeGrowthWitness
    | NestRuleWitness
    | LevelStructureWitness
    | InconclusiveReport
)


@dataclass(eq=False, frozen=True)
class Decision:
    verdict: Verdict
    inspected_depth: int
    certificate: Certificate


def _persists(w: NonTreeTriple, emb: RegularEmbedding, nxt: DigraphAlgebra) -> bool:
    """Does the failure descend to the next level along the embedding?"""
    for x1, y1 in emb.of((w.x, w.y)):
        for x2, z1 in emb.of((w.x, w.z)):
            if x1 != x2 or y1 == z1:
                continue
            if not nxt.has_pair(y1, z1) and not nxt.has_pair(z1, y1):
                return True
    return False


def _chains_from(
    maps: Sequence[RegularEmbedding], level: int, pair: Pair, depth: int
) -> Iterable[tuple[Pair, ...]]:
    """All summand chains of a pair from its level down to depth, 1-based."""
    if level == depth:
        yield (pair,)
        return
    for q in sorted(maps[level - 1].of(pair)):
        for rest in _chains_from(maps, level + 1, q, depth):
            yield (pair,) + rest


def _all_chain_grades(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
) -> list[ChainGrades]:
    out = []
    d = len(levels)
    for k in range(1, d):
        for p in levels[k - 1].irreflexive_pairs():
            for chain in _chains_from(maps, k, p, d):
                seq = tuple(grades[k - 1 + idx][q] for idx, q in enumerate(chain))
                out.append(ChainGrades(SummandChain(k, chain), seq))
    return out


def _is_settled(cg: ChainGrades) -> bool:
    tail = cg.grades[1:]
    return all(g == tail[0] for g in tail) if tail else True


def _forest_presentation(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
) -> ForestPresentation:
    d = len(levels)
    stab1: list[set[Pair]] = [set() for _ in range(d)]
    stab1[d - 1] = {p for p in levels[d - 1].irreflexive_pairs() if grades[d - 1][p] == 1}
    for k in range(d - 2, -1, -1):
        stab1[k] = {
            p
            for p in levels[k].irreflexive_pairs()
            if grades[k][p] == 1 and maps[k].of(p) <= stab1[k + 1]
        }
    algs = [
        DigraphAlgebra.from_generators(levels[k].blocks, stab1[k]) for k in range(d)
    ]
    entries = []
    for k in range(d):
        vs = [unit_name(u) for u in levels[k].units()]
        edges = [(unit_name(j), unit_name(i)) for i, j in sorted(stab1[k])]
        forest = recognize_out_forest(DirectedGraph(vs, edges))
        if not forest:
            raise AssertionError("grade-1 units of a Yes tower must form a forest")
        emb = None
        if k < d - 1:
            img = {q: maps[k].of(q) for q in algs[k].relation}
            emb = RegularEmbedding(algs[k], algs[k + 1], img)
        entries.append(PresentationLevel(k + 1, forest, algs[k], emb))
    if algs[d - 1] != levels[d - 1]:
        raise AssertionError("grade-1 units must generate the final level")
    return ForestPresentation(tuple(entries))


def decide_tensor(t: Tower, depth: int = 4) -> Decision:
    """Decide whether the limit of the tower is a tensor algebra.

    See the module docstring for the exact Yes/No/Inconclusive semantics.
    The result is deterministic in the tower and the depth.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(t.rule, NestRule):
        return Decision(Verdict.NO, depth, NestRuleWitness())

    levels, maps = materialize(t, depth)
    d = len(levels)

    # Under the tree condition no unit receives two covering pairs: if
    # (x, y) and (x, z) both cover, y and z are comparable, so one of the
    # two pairs factors through the other.  The tree check alone finds
    # every structure failure.
    failures: list[tuple[int, NonTreeTriple]] = []
    for k, a in enumerate(levels, start=1):
        w = is_tree_semigroupoid(a)
        if not w:
            failures.append((k, w))
    for k, w in failures:
        if k < d:
            nxt, emb = levels[k], maps[k - 1]
        else:
            # A next level over the cap is as unavailable as one that no
            # rule generates.
            try:
                ext_levels, ext_maps = materialize(t, d + 1)
            except OutputTooLarge:
                continue
            if len(ext_levels) <= d:
                continue
            nxt, emb = ext_levels[d], ext_maps[d - 1]
        if _persists(w, emb, nxt):
            return Decision(Verdict.NO, d, LevelStructureWitness(k, w, True))
    if failures:
        k, w = failures[0]
        return Decision(
            Verdict.INCONCLUSIVE,
            d,
            InconclusiveReport(
                f"level {k} fails the tree condition but the failure was "
                f"not confirmed persistent"
            ),
        )

    grades = [solve_grading(a).grade for a in levels]
    chains = _all_chain_grades(levels, maps, grades)
    stationary = isinstance(t.rule, (StandardRule, RefinementRule, TreeRefinementRule))
    for cg in chains:
        for i in range(len(cg.grades) - 1):
            if cg.grades[i + 1] > cg.grades[i]:
                if stationary:
                    return Decision(
                        Verdict.NO, d, GradeGrowthWitness(cg, cg.chain.start_level + i)
                    )
    unsettled = tuple(cg for cg in chains if not _is_settled(cg))

    if stationary:
        if d >= 2:
            return Decision(Verdict.YES, d, _forest_presentation(levels, maps, grades))
        return Decision(
            Verdict.INCONCLUSIVE,
            d,
            InconclusiveReport("depth 1 shows no embedding step"),
        )
    if unsettled:
        return Decision(
            Verdict.INCONCLUSIVE,
            d,
            InconclusiveReport("some chain grades changed after their first step", unsettled),
        )
    if d >= 3:
        return Decision(Verdict.YES, d, _forest_presentation(levels, maps, grades))
    return Decision(
        Verdict.INCONCLUSIVE,
        d,
        InconclusiveReport(
            f"stabilization over {d} levels is too short without a rule; "
            f"need depth at least 3"
        ),
    )


def counting_grade(t: Tower, level: int, pair: Pair, depth: int) -> list[ChainGrades]:
    """Grade sequences of every summand chain of one pair down to depth.

    Grades exist only on tree semigroupoids, so every level from the
    pair's level down must satisfy the tree condition.
    """
    levels, maps = materialize(t, depth)
    d = len(levels)
    if not 1 <= level <= d:
        raise ValueError(f"level {level} outside the materialized tower of depth {d}")
    if pair not in levels[level - 1].relation:
        raise ValueError(f"pair {pair} is not a unit of level {level}")
    grades = {}
    for k in range(level, d + 1):
        solved = solve_grading(levels[k - 1])
        if not solved:
            raise ValueError(f"level {k} is not a tree semigroupoid, so it has no grades")
        grades[k] = solved.grade
    out = []
    for chain in _chains_from(maps, level, pair, d):
        seq = tuple(grades[level + idx][q] for idx, q in enumerate(chain))
        out.append(ChainGrades(SummandChain(level, chain), seq))
    return out
