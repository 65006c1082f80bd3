"""Digraph algebras and integer gradings of their matrix-unit relations.

A digraph algebra is determined by block sizes and a set of matrix-unit
pairs (i, j), each meaning the unit with range i and source j inside one
full matrix block.  The stored relation is reflexive, transitive and
antisymmetric; pairs compose by (i, j) * (j, k) = (i, k).

A grading assigns a nonnegative integer to every pair so that diagonal
pairs get 0, grades add under composition, and a grade-k pair factors into
k grade-1 steps.  Such a grading exists exactly when the relation is the
order generated by an out-forest, and then it is the covering-chain
length; both facts are decided here at the finite level.

Representation.  The N diagonal units are numbered block by block, in
sorted order, and the relation is stored as one Python int per unit:
bit j of row i is set when the pair (unit i, unit j) is present.  Row i
holds the sources of range i; column j, bit j read across all rows, holds
the ranges of source j.  A row operation (and, or, subset test) costs
O(N/64) machine words.  With |R| pairs in the relation:

* constructor: transitivity as "row j is a subset of row i" for every
  pair (i, j), then antisymmetry as "no two rows are equal": |R| row
  operations;
* from_generators: Warshall's closure on the rows, N^2 row operations;
* covering_pairs: the transitive reduction, strict minus strict∘strict
  (Aho, Garey and Ullman, SIAM J. Comput. 1972): |R| row operations;
* is_tree_semigroupoid: the strict sources of x must lie in row y or
  column y, for every pair (x, y): |R| row operations;
* solve_grading: under the tree condition the strict sources of a unit
  are its ancestors in the covering forest, so a grade is a difference
  of two depths (popcounts): O(|R|);
* Grading, validating a caller's grades: one step per composable pair
  (i, j) * (j, k), grouped by the middle unit j, which is O(N^3) for a
  full triangular block but never |R|^2.

The relation as a frozenset of pairs is built from the rows on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CyclicGraph
from .graphs import DirectedGraph, OutForest, find_cycle

Unit = tuple[int, int]
Pair = tuple[Unit, Unit]


def unit_name(u: Unit) -> str:
    return f"{u[0]}:{u[1]}"


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _columns(rows: tuple[int, ...]) -> list[int]:
    """The transpose: bit i of column j is bit j of row i."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            cols[j] |= bit
    return cols


class DigraphAlgebra:
    """Block sizes plus a reflexive transitive antisymmetric unit relation."""

    __slots__ = ("_blocks", "_units", "_rows", "_relation")

    def __init__(self, blocks: Iterable[int], units: Iterable[Pair] = ()) -> None:
        self._set(*self._rows_of(blocks, units))

    @staticmethod
    def _rows_of(
        blocks: Iterable[int], pairs: Iterable[Pair]
    ) -> tuple[tuple[int, ...], tuple[Unit, ...], list[int]]:
        """Validated block sizes, the units, and the reflexive rows
        holding the pairs."""
        bl = tuple(blocks)
        if not bl or any(not isinstance(n, int) or n < 1 for n in bl):
            raise ValueError("blocks must be a nonempty list of positive sizes")
        units = tuple((b, r) for b, n in enumerate(bl) for r in range(1, n + 1))
        index = {u: k for k, u in enumerate(units)}
        rows = [1 << k for k in range(len(units))]
        for i, j in pairs:
            for u in (i, j):
                if u not in index:
                    DigraphAlgebra._check_unit(bl, u)
            if i[0] != j[0]:
                raise ValueError(f"pair {i} / {j} crosses blocks")
            rows[index[i]] |= 1 << index[j]
        return bl, units, rows

    def _set(self, blocks: tuple[int, ...], units: tuple[Unit, ...], rows: list[int]) -> None:
        """Check transitivity and antisymmetry of the rows, then store them."""
        for i, row in enumerate(rows):
            composites = 0
            for j in _bits(row):
                composites |= rows[j]
            if composites != row:
                # A two-cycle is reported ahead of a missing composite.
                _raise_two_cycle(units, rows)
                j = next(j for j in _bits(row) if rows[j] & ~row)
                l = _lowest(rows[j] & ~row)
                ui, uj, ul = units[i], units[j], units[l]
                raise ValueError(f"missing composite ({ui},{ul}) of ({ui},{uj}) and ({uj},{ul})")
        # In a transitive relation, pairs (i, j) and (j, i) make rows i and
        # j equal, and equal rows i != j hold both pairs.
        if len(set(rows)) != len(rows):
            _raise_two_cycle(units, rows)
        self._blocks = blocks
        self._units = units
        self._rows = tuple(rows)
        self._relation = None

    @staticmethod
    def _check_unit(blocks: tuple[int, ...], u: Unit) -> None:
        b, r = u
        if not (0 <= b < len(blocks)) or not (1 <= r <= blocks[b]):
            raise ValueError(f"unit {u} is out of range for blocks {list(blocks)}")

    @classmethod
    def from_generators(cls, blocks: Iterable[int], units: Iterable[Pair]) -> "DigraphAlgebra":
        """Close the given pairs transitively, then build the algebra.

        Warshall's closure: after step k, every row holding unit k also
        holds row k.
        """
        bl, us, rows = cls._rows_of(blocks, units)
        for k in range(len(rows)):
            bit, through = 1 << k, rows[k]
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | through
        a = cls.__new__(cls)
        a._set(bl, us, rows)
        return a

    @classmethod
    def upper_triangular(cls, n: int) -> "DigraphAlgebra":
        return cls([n], [((0, i), (0, j)) for i in range(1, n + 1) for j in range(i, n + 1)])

    @classmethod
    def from_graph(cls, g: DirectedGraph | OutForest) -> tuple["DigraphAlgebra", dict[str, Unit]]:
        """The algebra of the strict order generated by an acyclic graph.

        Vertex k in declaration order becomes diagonal unit (0, k+1); an
        edge u -> v contributes the pair (unit(v), unit(u)), and the pairs
        are closed transitively by from_generators.  Returns the algebra
        together with the vertex-to-unit map; raises CyclicGraph when the
        graph has a directed cycle.
        """
        graph = g.graph if isinstance(g, OutForest) else g
        cyc = find_cycle(graph)
        if cyc is not None:
            raise CyclicGraph(f"graph has a directed cycle: {' -> '.join(cyc)}")
        to_unit = {v: (0, k + 1) for k, v in enumerate(graph.vertices)}
        pairs = [(to_unit[t], to_unit[s]) for s, t in graph.edges]
        return cls.from_generators([len(graph.vertices)], pairs), to_unit

    @property
    def blocks(self) -> tuple[int, ...]:
        return self._blocks

    @property
    def relation(self) -> frozenset[Pair]:
        if self._relation is None:
            us = self._units
            self._relation = frozenset(
                (us[i], us[j]) for i, row in enumerate(self._rows) for j in _bits(row)
            )
        return self._relation

    def units(self) -> list[Unit]:
        return list(self._units)

    def irreflexive_pairs(self) -> list[Pair]:
        """The pairs (i, j) with i != j, sorted."""
        us = self._units
        return [
            (us[i], us[j])
            for i, row in enumerate(self._rows)
            for j in _bits(row & ~(1 << i))
        ]

    def has_pair(self, i: Unit, j: Unit) -> bool:
        return (i, j) in self.relation

    def composable(self) -> list[tuple[Unit, list[Unit], list[Unit]]]:
        """Every composable pair (i, j) * (j, k) with i != j != k, grouped
        by the middle unit.

        One entry (j, ranges, sources) per unit j that has both: the units
        i != j with (i, j) present, and the units k != j with (j, k).
        """
        us = self._units
        ranges: list[list[Unit]] = [[] for _ in us]
        sources = []
        for i, row in enumerate(self._rows):
            src = _bits(row & ~(1 << i))
            sources.append([us[k] for k in src])
            for k in src:
                ranges[k].append(us[i])
        return [(us[j], ranges[j], sources[j]) for j in range(len(us)) if ranges[j] and sources[j]]

    def is_full_upper_triangular(self) -> bool:
        """One block whose row i holds exactly the units i, i+1, ..., n."""
        if len(self._blocks) != 1:
            return False
        full = (1 << self._blocks[0]) - 1
        return all(row == full ^ ((1 << i) - 1) for i, row in enumerate(self._rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigraphAlgebra):
            return NotImplemented
        return self._blocks == other._blocks and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._blocks, self._rows))

    def __repr__(self) -> str:
        off = sum(row.bit_count() for row in self._rows) - len(self._rows)
        return f"DigraphAlgebra(blocks={list(self._blocks)}, {off} off-diagonal units)"


def _raise_two_cycle(units: tuple[Unit, ...], rows: list[int]) -> None:
    """Raise for the first pairs (i, j), (j, i) with i != j, if any."""
    for i, row in enumerate(rows):
        for j in _bits(row & ~(1 << i)):
            if rows[j] >> i & 1:
                ui, uj = units[i], units[j]
                raise ValueError(f"pairs ({ui},{uj}) and ({uj},{ui}) break antisymmetry")


@dataclass(frozen=True)
class NonTreeTriple:
    """Units x, y, z with pairs (x, y) and (x, z) but y, z incomparable."""

    x: Unit
    y: Unit
    z: Unit

    def __bool__(self) -> bool:
        return False


def is_tree_semigroupoid(a: DigraphAlgebra) -> "bool | NonTreeTriple":
    """True, or a falsy counterexample triple.

    The condition: whenever pairs (x, y) and (x, z) are present with
    y != z, then y and z are comparable.  The triple returned is the
    first in sorted order: smallest x, then y, then z.
    """
    rows, us = a._rows, a._units
    cols = _columns(rows)
    for x, row in enumerate(rows):
        strict = row & ~(1 << x)
        for y in _bits(strict):
            # Any z below y would have met y as its own incomparable
            # partner first, so the lowest bit lies above y.
            bad = strict & ~(rows[y] | cols[y])
            if bad:
                return NonTreeTriple(us[x], us[y], us[_lowest(bad)])
    return True


def covering_pairs(a: DigraphAlgebra) -> frozenset[Pair]:
    """Pairs (i, j) with no unit strictly between j and i."""
    us = a._units
    strict = [row & ~(1 << i) for i, row in enumerate(a._rows)]
    out = []
    for i, row in enumerate(strict):
        two_steps = 0
        for j in _bits(row):
            two_steps |= strict[j]
        out.extend((us[i], us[j]) for j in _bits(row & ~two_steps))
    return frozenset(out)


@dataclass(frozen=True)
class Grading:
    """A coherent additive integer grading of an algebra's relation."""

    algebra: DigraphAlgebra
    grade: dict[Pair, int]

    def __post_init__(self) -> None:
        grade = self.grade
        if grade.keys() != self.algebra.relation:
            raise ValueError("grading must cover the relation exactly")
        for (i, j), g in grade.items():
            if (g == 0) != (i == j):
                raise ValueError(f"grade of {(i, j)} must be 0 iff diagonal, got {g}")
            if g < 0:
                raise ValueError("grades must be nonnegative")
        # Pairs with a diagonal factor add up trivially, so only strict
        # composable pairs are checked.  Coherence: a pair (i, k) of grade
        # at least 2 must split off a grade-1 step (i, j) at the top; with
        # additivity the rest (j, k) then has the remaining grade.
        split: dict[Unit, set[Unit]] = {}
        for j, ranges, sources in self.algebra.composable():
            above = [(k, grade[(j, k)]) for k in sources]
            for i in ranges:
                gij = grade[(i, j)]
                for k, gjk in above:
                    if grade[(i, k)] != gij + gjk:
                        raise ValueError(f"grades fail to add on ({i},{j}) * ({j},{k})")
                if gij == 1:
                    split.setdefault(i, set()).update(sources)
        for (i, k), g in grade.items():
            if g >= 2 and k not in split.get(i, ()):
                raise ValueError(f"pair {(i, k)} of grade {g} has no factorization")

    def of(self, pair: Pair) -> int:
        return self.grade[pair]

    def __bool__(self) -> bool:
        return True


def solve_grading(a: DigraphAlgebra) -> Grading | NonTreeTriple:
    """Find the unique coherent grading, or say why none exists.

    The relation must satisfy the tree condition.  Then the strict
    sources of a unit form a chain, its ancestors in the covering forest,
    so their number is the unit's depth there, and the grade of a pair,
    the length of the covering chain from its range up to its source, is
    the difference of the two depths.  Such grades add up by
    construction.
    """
    tree = is_tree_semigroupoid(a)
    if not tree:
        return tree
    rows, us = a._rows, a._units
    depth = [row.bit_count() for row in rows]
    grade = {
        (us[i], us[j]): depth[i] - depth[j] for i, row in enumerate(rows) for j in _bits(row)
    }
    return Grading(a, grade)
