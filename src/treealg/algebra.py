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
sorted order, and the relation is stored only as one Python int per unit:
bit j of row i is set when the pair (unit i, unit j) is present.  Row i
holds the sources of range i; column j, bit j read across all rows, holds
the ranges of source j.  A row operation (and, or, subset test) costs
O(N/64) machine words; _bits decodes a row with one per set bit.  With
|R| pairs in the relation:

* constructor: transitivity as "row j is a subset of row i" for every
  pair (i, j), then antisymmetry as "no two rows are equal": |R| row
  operations;
* from_generators: one depth-first search that absorbs closed rows
  (see _closed), at most one row operation per generator, and two per
  unit on a chain or a full order; on cyclic input, one search for
  strongly connected components over the generators names the first
  two-cycle (see _cycle_pair): O(N) row operations and one decoding of
  the generators;
* upper_triangular, ampliated and placed: closed-form rows, each
  builder stating why they form an order, so nothing is checked;
  ampliated and placed give a row its unit's copies OR the images of
  its covers' rows: one row operation per cover and copy (0.7 ms for
  ampliated(2) of 256 units on a 2-core x86 VM, Python 3.11);
* covering_pairs: the transitive reduction, strict minus strict∘strict
  (Aho, Garey and Ullman, SIAM J. Comput. 1972): |R| row operations,
  or O(N) under the tree condition (below);
* is_tree_semigroupoid: the strict sources of every unit x must be the
  row of one unit, x's one cover, which one dict from row key to unit
  finds: N lookups (on failure, |R| row operations name a failing
  triple).  The algebra keeps the covers it finds (_parents), which
  covering_pairs and the builders that translate rows read again;
* solve_grading: one depth (popcount) per unit: O(N).

has_pair reads one row bit; pairs() decodes every row (14 ms for the
32,896 pairs of 256 units), and relation builds a frozenset of them on
each read.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import CyclicGraph
from .graphs import DirectedGraph, OutForest, find_cycle
from .records import Record

Unit = tuple[int, int]
Pair = tuple[Unit, Unit]

# A prime, the modulus by which rows are keyed in place of their hash.
# Python hashes an int modulo 2^61 - 1, to which 2^a and 2^(a mod 61) are
# congruent, so the N rows of a chain share 61 hashes, and a dict or set
# of them compares whole rows along probe chains about N/61 long.  The
# powers 2^a are distinct modulo _KEY for every a below 2,000,000, and a
# modulus below 2^30 takes CPython's one-digit division.  Rows that share
# a key anyway are told apart by the rows themselves.
_KEY = (1 << 30) - 35


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

    __slots__ = ("_blocks", "_units", "_index", "_rows", "_tree")

    def __init__(self, blocks: Iterable[int], units: Iterable[Pair] = ()) -> None:
        bl, index, rows = self._rows_of(blocks, units)
        _check_order(tuple(index), rows)
        self._set(bl, index, rows)

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
            k, m = index.get(i), index.get(j)
            if k is None or m is None:
                u = i if k is None else j
                raise ValueError(f"unit {u} is out of range for blocks {list(bl)}")
            if i[0] != j[0]:
                raise ValueError(f"pair {i} / {j} crosses blocks")
            rows[k] |= 1 << m
        return bl, index, rows

    def _set(
        self, blocks: tuple[int, ...], index: dict[Unit, int], rows: list[int]
    ) -> "DigraphAlgebra":
        """Store the rows and return self, checking nothing: the
        constructors check first."""
        self._blocks = blocks
        self._units = tuple(index)
        self._index = index
        self._rows = tuple(rows)
        return self

    @classmethod
    def from_generators(cls, blocks: Iterable[int], units: Iterable[Pair]) -> "DigraphAlgebra":
        """Close the given pairs transitively, then build the algebra."""
        return cls._closed(*cls._rows_of(blocks, units))

    @classmethod
    def _closed(cls, bl: tuple[int, ...], index: dict[Unit, int], rows: list) -> "DigraphAlgebra":
        """The algebra of the transitive closure of reflexive rows over
        validated blocks, such as _rows_of returns.  The decoder of
        algebra files sets the rows' bits itself and ends here too.

        One depth-first search closes the rows in place, from the last
        unit down.  While a unit x is open, its row holds its generators
        without x, and acc the closed rows of the generators it has
        absorbed so far; x closes with row acc plus x.  x takes the
        highest and the lowest pending generator in turn, descending
        first into one that is not yet closed.  A generator that acc
        already holds is skipped: it lies in an absorbed closed row,
        which, being transitive, holds its whole closure.  So by
        induction on the order in which units close, every closed row is
        its unit's closure, and a chain or a full order numbered either
        way costs at most two row operations per unit.  Meeting an open
        unit closes a cycle, and only then does _cycle_pair name, from
        the generators, the first two-cycle of their closure.  Acyclic
        closed rows are distinct, since equal rows i != j would hold both
        (i, j) and (j, i); so nothing else is checked.
        """
        generators = rows[:]
        done = bytearray(len(rows))  # 1 while open, 2 once closed
        for top in reversed(range(len(rows))):
            if done[top]:
                continue
            done[top] = 1
            rows[top] ^= 1 << top
            path = [[top, 0, 0]]
            while path:
                frame = path[-1]
                x, acc, turn = frame
                pending = rows[x] & ~acc
                if not pending:
                    rows[x] = acc | 1 << x
                    done[x] = 2
                    path.pop()
                    continue
                if turn & 1:
                    g = (pending & -pending).bit_length() - 1
                else:
                    g = pending.bit_length() - 1
                if done[g] == 2:
                    frame[1] = acc | rows[g]
                    frame[2] = turn + 1
                elif done[g]:
                    raise _two_cycle_error(tuple(index), *_cycle_pair(generators))
                else:
                    done[g] = 1
                    rows[g] ^= 1 << g
                    path.append([g, 0, 0])
        return cls.__new__(cls)._set(bl, index, rows)

    @classmethod
    def upper_triangular(cls, n: int) -> "DigraphAlgebra":
        """One n-unit block whose row i holds the units i, i+1, ..., n:
        unit j lies in row i exactly when j >= i, which is an order."""
        bl, index, _ = cls._rows_of([n], ())
        full = (1 << n) - 1
        rows = [full ^ ((1 << i) - 1) for i in range(n)]
        return cls.__new__(cls)._set(bl, index, rows)

    def _translated(self, copies: list[list[int]]) -> Iterator[list[int]]:
        """Per mask list in copies, the image rows: masks[i] OR the image
        rows of i's covers.  A row is its unit plus its covers' smaller
        rows, so visiting by popcount finds those complete."""
        covers, rows = self._covers(), self._rows
        order = sorted(range(len(rows)), key=lambda i: rows[i].bit_count())
        for masks in copies:
            image = list(masks)
            for i in order:
                for c in covers[i]:
                    image[i] |= image[c]
            yield image

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
        image = next(self._translated([[every << k * l for k in range(len(self._rows))]]))
        # Row (k, s): the image of row k less its copies s + 1 to l - 1.
        drop = [every ^ ((2 << s) - 1) for s in range(l)]
        rows = [r ^ d << k * l for k, r in enumerate(image) for d in drop]
        return DigraphAlgebra.__new__(DigraphAlgebra)._set(bl, index, rows)

    def placed(self, at: Mapping[int, list[int]]) -> "DigraphAlgebra":
        """m copies of this single-block order on one block of n·m units,
        copy c of unit (0, i) at (0, at[i][c]), the n·m rows distinct and
        in range (translation_embedding checks this).  The copies are
        relabelled orders on disjoint units, so together an order.
        """
        n, m = self._blocks[0], len(at[1])
        bl, index, _ = self._rows_of([n * m], ())
        # Copy c of unit (0, i + 1) sits at index tos[c][i].
        tos = [[at[i][c] - 1 for i in range(1, n + 1)] for c in range(m)]
        rows = [0] * (n * m)
        for to, image in zip(tos, self._translated([[1 << t for t in to] for to in tos])):
            for t, row in zip(to, image):
                rows[t] = row
        return DigraphAlgebra.__new__(DigraphAlgebra)._set(bl, index, rows)

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
        return [(us[i], us[j]) for i, row in enumerate(self._rows) for j in _bits(row)]

    def units(self) -> list[Unit]:
        return list(self._units)

    def irreflexive_pairs(self) -> list[Pair]:
        """The pairs (i, j) with i != j, sorted."""
        us = self._units
        return [(us[i], us[j]) for i, row in enumerate(self._rows) for j in _bits(row ^ 1 << i)]

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

    def _parents(self) -> list[int] | None:
        """_parents of this algebra, found on the first call and kept in
        the slot _tree, which stays unset until then.  Every caller gets
        the one list, and none changes it."""
        if not hasattr(self, "_tree"):
            self._tree = _parents(self)
        return self._tree

    def _covers(self) -> list[list[int]]:
        """Per row i, the units j with (i, j) a covering pair: the one
        cover of _parents under the tree condition, else the strict row
        minus strict∘strict (Aho, Garey and Ullman, 1972)."""
        parents = self._parents()
        if parents is not None:
            return [[c] if c >= 0 else [] for c in parents]
        strict = [row ^ 1 << i for i, row in enumerate(self._rows)]
        out = []
        for row in strict:
            two_steps = 0
            for j in _bits(row):
                two_steps |= strict[j]
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
        us, rows = self._units, self._rows
        ranges: list[list[Unit]] = [[] for _ in us]
        for i, covers in enumerate(self._covers()):
            for j in covers:
                ranges[j].append(us[i])
        return [
            (us[j], ranges[j], [us[k] for k in _bits(rows[j] ^ 1 << j)])
            for j in range(len(us))
            if ranges[j] and rows[j] != 1 << j
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


def _check_order(units: tuple[Unit, ...], rows: list[int]) -> None:
    """Raise unless the reflexive rows form an order."""
    for i, row in enumerate(rows):
        j = next((j for j in _bits(row) if rows[j] & ~row), None)
        if j is not None:
            # A two-cycle is reported ahead of a missing composite.
            _raise_two_cycle(units, rows)
            l = _lowest(rows[j] & ~row)
            ui, uj, ul = units[i], units[j], units[l]
            raise ValueError(f"missing composite ({ui},{ul}) of ({ui},{uj}) and ({uj},{ul})")
    # In a transitive relation, pairs (i, j) and (j, i) make rows i and
    # j equal, and equal rows i != j hold both pairs.  Equal rows share a
    # key (see _KEY); so do, rarely, unequal ones, and then
    # _raise_two_cycle finds nothing to raise.
    if len({row % _KEY for row in rows}) != len(rows):
        _raise_two_cycle(units, rows)


def _cycle_pair(rows: list[int]) -> tuple[int, int] | None:
    """The first pairs (i, j), (j, i) with i != j of the closure of the
    reflexive rows, as (i, j), or None.  In the closure they are i, the
    least unit of a strongly connected component of two units or more,
    and j, the next unit of that component.  Kosaraju's two searches
    find the components: one over the rows, which lists the units as
    they finish, then one against the pairs from the last finished unit
    still unplaced.  The first costs O(N) row operations; the pairs are
    decoded once, into lists of ranges per source, so that nothing of
    N bits is built per unit."""
    left, finished = (1 << len(rows)) - 1, []
    while left:
        path = [_lowest(left)]
        left &= left - 1
        while path:
            ahead = rows[path[-1]] & left
            if ahead:
                path.append(_lowest(ahead))
                left ^= ahead & -ahead
            else:
                finished.append(path.pop())
    ranges: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in _bits(row ^ 1 << i):
            ranges[j].append(i)
    placed, pairs = bytearray(len(rows)), []
    for root in reversed(finished):
        if not placed[root]:
            placed[root], part = 1, [root]
            for x in part:
                for i in ranges[x]:
                    if not placed[i]:
                        placed[i] = 1
                        part.append(i)
            if len(part) > 1:
                pairs.append(tuple(sorted(part)[:2]))
    return min(pairs, default=None)


def _two_cycle_error(units: tuple[Unit, ...], i: int, j: int) -> ValueError:
    ui, uj = units[i], units[j]
    return ValueError(f"pairs ({ui},{uj}) and ({uj},{ui}) break antisymmetry")


def _raise_two_cycle(units: tuple[Unit, ...], rows: list[int]) -> None:
    """Raise for the first pairs (i, j), (j, i) with i != j, if any."""
    for i, row in enumerate(rows):
        for j in _bits(row & ~(1 << i)):
            if rows[j] >> i & 1:
                raise _two_cycle_error(units, i, j)


class NonTreeTriple(Record):
    """Units x, y, z with pairs (x, y) and (x, z) but y, z incomparable."""

    __slots__ = ("x", "y", "z")

    def __bool__(self) -> bool:
        return False


def _parents(a: DigraphAlgebra) -> list[int] | None:
    """The one cover (x, c) of every unit x, as c, or -1 where x has no
    strict source; None where the tree condition fails.

    The strict sources of every unit form a chain exactly when, for each
    unit x that has one, they are the row of some unit c.  If they form
    a chain, let c be the one with the largest row: any other strict
    source s is comparable with c, and (s, c) would put row c strictly
    inside row s, so (c, s) holds and s lies in row c; and row c lies in
    row x without x, by transitivity and antisymmetry.  Conversely, by
    induction on the row size, the strict sources of x are c and the
    strict sources of c, a chain inside row c, so together a chain.
    Every strict source of x but c then lies in row c, so (x, c) is the
    one covering pair of x.  One dict from row key (see _KEY) to unit
    decides it: N lookups, each hit checked against the row itself.  A
    row's key less 2^x mod _KEY is the key of its strict sources.  Where
    two rows share a key, which is rare, each row is keyed by itself.
    """
    rows, modulus = a._rows, _KEY
    keys = [row % modulus for row in rows]
    unit_of = {key: c for c, key in enumerate(keys)}
    if len(unit_of) < len(rows):
        # Two rows share a key, which is rare: key each row by itself.
        modulus, keys = 1 << len(rows), rows
        unit_of = {row: c for c, row in enumerate(rows)}
    parents, low = [], 1
    for x, row in enumerate(rows):
        strict = row ^ 1 << x
        # low is 2^x mod modulus, so this is strict's key.
        c = unit_of.get((keys[x] - low) % modulus) if strict else -1
        if c is None or strict and rows[c] != strict:
            return None
        parents.append(c)
        low = low * 2 % modulus
    return parents


def is_tree_semigroupoid(a: DigraphAlgebra) -> "bool | NonTreeTriple":
    """True, or a falsy counterexample triple.

    The condition: whenever pairs (x, y) and (x, z) are present with
    y != z, then y and z are comparable.  _parents decides it; only on
    failure are the rows scanned for the triple to return, the first in
    sorted order: smallest x, then y, then z.
    """
    if a._parents() is not None:
        return True
    rows, us = a._rows, a._units
    cols = _columns(rows)
    for x, row in enumerate(rows):
        strict = row ^ 1 << x
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
    return frozenset((us[i], us[j]) for i, covers in enumerate(a._covers()) for j in covers)


class Grading(Record):
    """The coherent additive integer grading of an algebra's relation,
    held as one depth per unit: the grade of a pair (i, j) is
    depth[i] - depth[j].

    solve_grading is its only constructor, and its grades satisfy the
    laws by construction, so nothing is checked here.
    """

    __slots__ = ("algebra", "depth")

    def of(self, pair: Pair) -> int:
        """The grade of a pair; KeyError outside the relation."""
        i, j = pair
        index, rows = self.algebra._index, self.algebra._rows
        k, m = index.get(i), index.get(j)
        if k is None or m is None or not rows[k] >> m & 1:
            raise KeyError(pair)
        return self.depth[k] - self.depth[m]

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
    sources of i form a chain, of grade g - 1.  The depths are the row
    popcounts (less one, which cancels): O(N).
    """
    tree = is_tree_semigroupoid(a)
    if not tree:
        return tree
    return Grading(a, tuple(row.bit_count() for row in a._rows))
