"""Towers of digraph algebras and the tensor-algebra decision.

A tower stores finitely many levels joined by regular embeddings, plus an
optional rule saying how all further levels continue.  A standard,
refinement or tree-refinement rule generates each further level from
the rows of the one before, with one translation embedding per step.
The decision procedure grades every level once and asks how the grade
of a matrix-unit pair moves along its summand chains down to the
inspected depth:

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

Grades are decided from covering pairs.  On a graded level a pair of
grade g is the product of the g covers along its covering chain, grades
add along products, and an embedding is multiplicative.  So a summand q
of the image of a pair p is a product of g summands of images of covers,
each off the diagonal (distinct diagonal units have disjoint images) and
so of grade at least 1: grade(q) >= grade(p), with equality exactly when
every factor is a cover.  Hence, with no chain walked:

* some chain rises at the step from level k iff some cover of level k
  has an image summand that is not a cover;
* grades never fall along a chain, so some chain is unsettled iff, for
  some k >= 2, a summand q of an image of level k - 1 has an image
  summand whose grade differs from grade(q).

Chains are walked lazily, level by level, pairs in relation order, depth
first over sorted images, only to print a certificate: a stationary No
names the first rising chain, an inconclusive report every unsettled one.

On Yes, the certificate is a forest presentation: level by level, the
units whose whole orbit stays at grade 1 form an out-forest, and the
tower's embeddings restrict to maps sending forest edges to sums of
forest edges.  Where that holds for every cover of a level, the forest
generates the level itself, and between two such levels the tower's
embedding is its own restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .algebra import (
    DigraphAlgebra,
    Grading,
    NonTreeTriple,
    Pair,
    covering_pairs,
    solve_grading,
    unit_name,
)
from .embeddings import (
    RegularEmbedding,
    refinement_rows,
    standard_rows,
    translation_embedding,
    tree_refinement_embedding,
)
from .errors import MismatchedLevels, NotATree, OutputTooLarge
from .graphs import OutForest, unchecked_forest

MAX_LEVEL_UNITS = 512
# The most units a level generated from a rule may have.  Each rule step
# multiplies the units by m or l, so the count of the deepest requested
# level is known before any step runs.  decide_tensor on standard_tower(2, 2)
# takes about 7.5 ms at 256 units and 14 ms at 512 on a 2-core x86 VM
# (Python 3.11), two fifths of it generating the rule's steps.


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


@dataclass(frozen=True, eq=False)
class Tower:
    """Immutable list of levels and connecting embeddings, plus a rule."""

    levels: Sequence[DigraphAlgebra]
    maps: Sequence[RegularEmbedding]
    rule: Rule | None = None

    def __post_init__(self) -> None:
        lv, mp = tuple(self.levels), tuple(self.maps)
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
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "maps", mp)

    def __repr__(self) -> str:
        r = type(self.rule).__name__ if self.rule is not None else "no rule"
        return f"Tower({len(self.levels)} stored levels, {r})"


def _rule_step(
    level: DigraphAlgebra, rule: StandardRule | RefinementRule | TreeRefinementRule
) -> RegularEmbedding:
    """The embedding of level into the next level the rule generates."""
    if isinstance(rule, TreeRefinementRule):
        return tree_refinement_embedding(level, rule.l)
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
    if level == DigraphAlgebra.upper_triangular(n):
        target = DigraphAlgebra.upper_triangular(n * copies)
    return translation_embedding(level, rows, target)


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
        # Each generated level is the ampliated order of the one before,
        # so only the first step needs these checks.
        if DigraphAlgebra.from_graph(rule.tree)[0] != levels[-1]:
            raise MismatchedLevels(
                "the tree of the tree-refinement rule does not give the last level"
            )
        if not rule.tree.is_tree():
            raise NotATree("ampliation is defined for single-rooted trees")
    while len(levels) < depth and generable:
        e = _rule_step(levels[-1], rule)
        levels.append(e.target)
        maps.append(e)
    return levels, maps


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ChainGrades:
    """One pair followed through consecutive embeddings, one summand each,
    with the grade of every pair on the way."""

    start_level: int
    pairs: tuple[Pair, ...]
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
    """A failure of the tree condition at one level that persists to the next."""

    level: int
    witness: NonTreeTriple


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


def _chain_grades(
    maps: Sequence[RegularEmbedding],
    grades: Sequence[Grading],
    level: int,
    pair: Pair,
) -> Iterator[ChainGrades]:
    """Every summand chain of a pair from its level, 1-based, down to the
    last graded level, depth first over sorted images."""
    d = len(grades)

    def walk(k: int, pairs: tuple[Pair, ...], seq: tuple[int, ...]) -> Iterator[ChainGrades]:
        if k == d:
            yield ChainGrades(level, pairs, seq)
            return
        for q in sorted(maps[k - 1].of(pairs[-1])):
            yield from walk(k + 1, pairs + (q,), seq + (grades[k].of(q),))

    return walk(level, (pair,), (grades[level - 1].of(pair),))


def _forest_presentation(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    covers: Sequence[frozenset[Pair]],
) -> ForestPresentation:
    """The forest presentation of graded levels (module docstring).

    The forests are built by unchecked_forest.  An edge j -> i stands
    for a cover (i, j).  Under the tree condition a unit receives at
    most one cover: of two covers (x, y) and (x, z) with y, z
    comparable, one factors through the other.  So every vertex has at
    most one parent, and as edges run from the source to the range of
    strict pairs, antisymmetry leaves no cycle.  Sorted pairs list the
    children in unit order, which is the declaration order.

    The restricted maps are built by RegularEmbedding.restricted.  Every pair
    of the subalgebra at level k is a product of its generators, stab-1
    covers, whose images lie in stab1[k + 1]; the tower map is
    multiplicative, so every image summand is a product of pairs of the
    subalgebra at level k + 1, and lies in it.  The restriction of a
    validated map to a subalgebra whose images stay in the target keeps
    every law: diagonal images stay disjoint, images keep enumerating
    them, and they compose as before.
    """
    d = len(levels)
    # The grade-1 pairs of a graded level are its covers.
    stab1 = list(covers)
    for k in range(d - 2, -1, -1):
        stab1[k] = frozenset(c for c in covers[k] if maps[k].of(c) <= stab1[k + 1])
    # All the covers of a level generate the level itself.
    full = [len(stab1[k]) == len(covers[k]) for k in range(d)]
    algs = [
        levels[k] if full[k] else DigraphAlgebra.from_generators(levels[k].blocks, stab1[k])
        for k in range(d)
    ]
    entries = []
    for k in range(d):
        names = {u: unit_name(u) for u in levels[k].units()}
        parent = {names[i]: names[j] for i, j in sorted(stab1[k])}
        forest = unchecked_forest(names.values(), parent)
        emb = None
        if k < d - 1 and full[k] and full[k + 1]:
            emb = maps[k]
        elif k < d - 1:
            emb = maps[k].restricted(algs[k], algs[k + 1])
        entries.append(PresentationLevel(k + 1, forest, algs[k], emb))
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
    # every structure failure, and the grading solver runs it.
    solved = [solve_grading(a) for a in levels]
    failures = [(k, w) for k, w in enumerate(solved, start=1) if not w]
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
            return Decision(Verdict.NO, d, LevelStructureWitness(k, w))
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

    covers = [covering_pairs(a) for a in levels]
    chains = (
        cg
        for k in range(1, d)
        for p in levels[k - 1].irreflexive_pairs()
        for cg in _chain_grades(maps, solved, k, p)
    )
    # Past the nest rule every rule is stationary, so one rising chain
    # rises again at every later level.  Some chain rises iff some cover
    # maps to a non-cover (module docstring); only then are chains walked.
    if t.rule is not None:
        if not all(maps[k].of(c) <= covers[k + 1] for k in range(d - 1) for c in covers[k]):
            for cg in chains:
                gs = cg.grades
                for i in range(len(gs) - 1):
                    if gs[i + 1] > gs[i]:
                        return Decision(Verdict.NO, d, GradeGrowthWitness(cg, cg.start_level + i))
        if d >= 2:
            return Decision(Verdict.YES, d, _forest_presentation(levels, maps, covers))
        return Decision(
            Verdict.INCONCLUSIVE,
            d,
            InconclusiveReport("depth 1 shows no embedding step"),
        )
    # A chain is settled when its grade freezes right after it starts.
    # Some chain is not iff some image summand q past level 1 has an image
    # summand of another grade than q (module docstring).
    if any(
        solved[k + 1].of(r) != g
        for k in range(1, d - 1)
        for q in {q for p in levels[k - 1].irreflexive_pairs() for q in maps[k - 1].of(p)}
        for g in (solved[k].of(q),)
        for r in maps[k].of(q)
    ):
        unsettled = tuple(cg for cg in chains if len(set(cg.grades[1:])) > 1)
        return Decision(
            Verdict.INCONCLUSIVE,
            d,
            InconclusiveReport("some chain grades changed after their first step", unsettled),
        )
    if d >= 3:
        return Decision(Verdict.YES, d, _forest_presentation(levels, maps, covers))
    return Decision(
        Verdict.INCONCLUSIVE,
        d,
        InconclusiveReport(
            f"stabilization over {d} levels is too short without a rule; "
            f"need depth at least 3"
        ),
    )
