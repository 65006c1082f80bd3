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
O(N/64) machine words.  Each row's strict sources are also kept as an
ascending list of unit indices, so that no loop below decodes a row.
With |R| pairs in the relation:

* constructor: transitivity as "row j is a subset of row i" for every
  pair (i, j), then antisymmetry as "no two rows are equal": |R| row
  operations;
* from_generators: Warshall's closure on the rows, N^2 row operations;
* upper_triangular, ampliated and placed: closed-form rows, each
  builder stating why they form an order, so nothing is checked: O(|R|);
* covering_pairs: the transitive reduction, strict minus strict∘strict
  (Aho, Garey and Ullman, SIAM J. Comput. 1972): |R| row operations;
* is_tree_semigroupoid: the strict sources of x must lie in row y or
  column y, for every pair (x, y): |R| row operations;
* solve_grading: under the tree condition the strict sources of a unit
  are its ancestors in the covering forest, so a grade is a difference
  of two depths (popcounts): O(|R|).

has_pair reads one row bit through the unit index; pairs() lists the
relation sorted, and relation builds a frozenset of it on each read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

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


def _columns(strict: tuple[list[int], ...]) -> list[int]:
    """The transpose: bit i of column j is bit j of row i."""
    cols = [1 << j for j in range(len(strict))]
    for i, sources in enumerate(strict):
        bit = 1 << i
        for j in sources:
            cols[j] |= bit
    return cols


class DigraphAlgebra:
    """Block sizes plus a reflexive transitive antisymmetric unit relation."""

    __slots__ = ("_blocks", "_units", "_index", "_rows", "_strict")

    def __init__(self, blocks: Iterable[int], units: Iterable[Pair] = ()) -> None:
        bl, index, rows = self._rows_of(blocks, units)
        self._set(bl, index, rows, _order_strict(tuple(index), rows))

    @staticmethod
    def _rows_of(
        blocks: Iterable[int], pairs: Iterable[Pair]
    ) -> tuple[tuple[int, ...], dict[Unit, int], list[int]]:
        """Validated block sizes, the unit-to-index map in unit order, and
        the reflexive rows holding the pairs."""
        bl = tuple(blocks)
        if not bl or any(not isinstance(n, int) or n < 1 for n in bl):
            raise ValueError("blocks must be a nonempty list of positive sizes")
        units = tuple((b, r) for b, n in enumerate(bl) for r in range(1, n + 1))
        index = {u: k for k, u in enumerate(units)}
        rows = [1 << k for k in range(len(units))]
        for i, j in pairs:
            for u in (i, j):
                if u not in index:
                    raise ValueError(f"unit {u} is out of range for blocks {list(bl)}")
            if i[0] != j[0]:
                raise ValueError(f"pair {i} / {j} crosses blocks")
            rows[index[i]] |= 1 << index[j]
        return bl, index, rows

    def _set(
        self, blocks: tuple[int, ...], index: dict[Unit, int], rows: list[int], strict: Iterable
    ) -> "DigraphAlgebra":
        """Store the rows and their ascending strict source lists and
        return self, checking nothing: the constructors check first."""
        self._blocks = blocks
        self._units = tuple(index)
        self._index = index
        self._rows = tuple(rows)
        self._strict = tuple(strict)
        return self

    @classmethod
    def from_generators(cls, blocks: Iterable[int], units: Iterable[Pair]) -> "DigraphAlgebra":
        """Close the given pairs transitively, then build the algebra.

        Warshall's closure: after step k, every row holding unit k also
        holds row k.
        """
        bl, index, rows = cls._rows_of(blocks, units)
        for k in range(len(rows)):
            bit, through = 1 << k, rows[k]
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | through
        return cls.__new__(cls)._set(bl, index, rows, _order_strict(tuple(index), rows))

    @classmethod
    def upper_triangular(cls, n: int) -> "DigraphAlgebra":
        """One n-unit block whose row i holds the units i, i+1, ..., n:
        unit j lies in row i exactly when j >= i, which is an order."""
        bl, index, _ = cls._rows_of([n], ())
        full = (1 << n) - 1
        rows = [full ^ ((1 << i) - 1) for i in range(n)]
        return cls.__new__(cls)._set(bl, index, rows, [list(range(i + 1, n)) for i in range(n)])

    def ampliated(self, l: int) -> "DigraphAlgebra":
        """Unit k becomes its copies kl, ..., kl + l - 1, and row (k, s)
        holds the copies 1 to s of k and every copy of every strict source
        of k: the lexicographic order of two orders, an order.  On a tree
        order it is the order of ampliate(tree, l), where (i,s) lies below
        (i,1), ..., (i,s-1) and every copy of every strict ancestor of i.
        """
        if l < 1:
            raise ValueError("multiplicity must be at least 1")
        bl, index, _ = self._rows_of((n * l for n in self._blocks), ())
        every = (1 << l) - 1
        strict, rows = [], []
        for k, sources in enumerate(self._strict):
            copies = [j * l + t for j in sources for t in range(l)]
            cut = bisect_left(copies, k * l)
            below, above = copies[:cut], copies[cut:]
            row = sum([every << j * l for j in sources])
            for s in range(l):
                strict.append(below + list(range(k * l, k * l + s)) + above)
                rows.append(row | ((2 << s) - 1) << k * l)
        return DigraphAlgebra.__new__(DigraphAlgebra)._set(bl, index, rows, strict)

    def placed(self, at: Mapping[int, list[int]]) -> "DigraphAlgebra":
        """m copies of this single-block order on one block of n·m units,
        copy c of unit (0, i) at (0, at[i][c]), the n·m rows distinct and
        in range (translation_embedding checks this).  The copies are
        relabelled orders on disjoint units, so together an order.
        """
        n, m = self._blocks[0], len(at[1])
        bl, index, _ = self._rows_of([n * m], ())
        strict, rows = [[]] * (n * m), [0] * (n * m)
        for c in range(m):
            # Copy c of unit (0, i + 1) sits at index to[i], bit bit[i].
            to = [at[i][c] - 1 for i in range(1, n + 1)]
            bit = [1 << t for t in to]
            for i, sources in enumerate(self._strict):
                strict[to[i]] = sorted([to[j] for j in sources])
                rows[to[i]] = sum([bit[j] for j in sources]) | bit[i]
        return DigraphAlgebra.__new__(DigraphAlgebra)._set(bl, index, rows, strict)

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
        """The pairs as a frozenset, built anew on each read."""
        return frozenset(self.pairs())

    def __len__(self) -> int:
        """The number of pairs, at least one per unit."""
        return sum(row.bit_count() for row in self._rows)

    def pairs(self) -> list[Pair]:
        """The pairs (i, j), sorted."""
        us = self._units
        return [(us[i], us[j]) for i, s in enumerate(self._strict) for j in sorted((i, *s))]

    def units(self) -> list[Unit]:
        return list(self._units)

    def irreflexive_pairs(self) -> list[Pair]:
        """The pairs (i, j) with i != j, sorted."""
        us = self._units
        return [(us[i], us[j]) for i, sources in enumerate(self._strict) for j in sources]

    def has_pair(self, i: Unit, j: Unit) -> bool:
        """Is (i, j) in the relation?  One bit of row i."""
        k, m = self._index.get(i), self._index.get(j)
        return k is not None and m is not None and self._rows[k] >> m & 1 == 1

    def first_pair_outside(self, other: "DigraphAlgebra") -> Pair | None:
        """The first pair in sorted order that other, on the same units,
        lacks, or None: one subset test per row."""
        for i, (row, theirs) in enumerate(zip(self._rows, other._rows)):
            if row & ~theirs:
                return self._units[i], self._units[_lowest(row & ~theirs)]
        return None

    def _covers(self) -> list[list[int]]:
        """Per row i, the units j with (i, j) a covering pair: the strict
        row minus strict∘strict (Aho, Garey and Ullman, 1972)."""
        strict_rows = [row & ~(1 << i) for i, row in enumerate(self._rows)]
        out = []
        for row, sources in zip(strict_rows, self._strict):
            two_steps = 0
            for j in sources:
                two_steps |= strict_rows[j]
            out.append(_bits(row & ~two_steps))
        return out

    def composable_covers(self) -> list[tuple[Unit, list[Unit], list[Unit]]]:
        """Every composable pair (i, j) * (j, k) with (i, j) a covering
        pair and k != j, grouped by the middle unit.

        One entry (j, ranges, sources) per unit j that has both: the units
        i with (i, j) a covering pair, and the units k != j with (j, k).
        A law that holds on these pairs holds on every composable pair;
        RegularEmbedding gives the argument.
        """
        us, strict = self._units, self._strict
        ranges: list[list[Unit]] = [[] for _ in us]
        for i, covers in enumerate(self._covers()):
            for j in covers:
                ranges[j].append(us[i])
        return [
            (us[j], ranges[j], [us[k] for k in strict[j]])
            for j in range(len(us))
            if ranges[j] and strict[j]
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigraphAlgebra):
            return NotImplemented
        return self._blocks == other._blocks and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._blocks, self._rows))

    def __repr__(self) -> str:
        off = len(self) - len(self._rows)
        return f"DigraphAlgebra(blocks={list(self._blocks)}, {off} off-diagonal units)"


def _order_strict(units: tuple[Unit, ...], rows: list[int]) -> tuple[list[int], ...]:
    """The strict source lists of rows checked to form an order."""
    strict = tuple(_bits(row & ~(1 << i)) for i, row in enumerate(rows))
    for i, row in enumerate(rows):
        composites = row
        for j in strict[i]:
            composites |= rows[j]
        if composites != row:
            # A two-cycle is reported ahead of a missing composite.
            _raise_two_cycle(units, rows)
            j = next(j for j in strict[i] if rows[j] & ~row)
            l = _lowest(rows[j] & ~row)
            ui, uj, ul = units[i], units[j], units[l]
            raise ValueError(f"missing composite ({ui},{ul}) of ({ui},{uj}) and ({uj},{ul})")
    # In a transitive relation, pairs (i, j) and (j, i) make rows i and
    # j equal, and equal rows i != j hold both pairs.
    if len(set(rows)) != len(rows):
        _raise_two_cycle(units, rows)
    return strict


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
    cols = _columns(a._strict)
    for x, row in enumerate(rows):
        strict = row & ~(1 << x)
        for y in a._strict[x]:
            # Any z below y would have met y as its own incomparable
            # partner first, so the lowest bit lies above y.
            bad = strict & ~(rows[y] | cols[y])
            if bad:
                return NonTreeTriple(us[x], us[y], us[_lowest(bad)])
    return True


def covering_pairs(a: DigraphAlgebra) -> frozenset[Pair]:
    """Pairs (i, j) with no unit strictly between j and i."""
    us = a._units
    return frozenset((us[i], us[j]) for i, covers in enumerate(a._covers()) for j in covers)


@dataclass(frozen=True)
class Grading:
    """The coherent additive integer grading of an algebra's relation.

    solve_grading is its only constructor, and its grades satisfy the
    laws by construction, so nothing is checked here.
    """

    algebra: DigraphAlgebra
    grade: dict[Pair, int]

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
    construction, they are 0 exactly on the diagonal, and a pair (i, k)
    of grade g >= 2 splits into the cover (i, j), j the deepest strict
    source of i, of grade 1, and (j, k), present because the strict
    sources of i form a chain, of grade g - 1.
    """
    tree = is_tree_semigroupoid(a)
    if not tree:
        return tree
    us, strict = a._units, a._strict
    depth = [row.bit_count() for row in a._rows]
    grade = {
        (us[i], us[j]): depth[i] - depth[j]
        for i, sources in enumerate(strict)
        for j in (i, *sources)
    }
    return Grading(a, grade)
