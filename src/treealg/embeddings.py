"""Regular multiplicity embeddings between digraph algebras.

An embedding maps every relation pair of the source to a nonempty set of
relation pairs of the target.  Validation enforces the shape such a map
must have to come from a star-extendable algebra homomorphism:

* diagonal units go to disjoint sets of diagonal units,
* the images of a pair biject with the diagonal images of its range and
  source units,
* images compose: im(i,j) * im(j,k) = im(i,k) pairwise, checked where
  (i, j) is a covering pair (see RegularEmbedding).

The RegularEmbedding constructor checks these laws on any map it is
given and keeps its image sets.  Embeddings that place copies of a
single-block level along a row formula are built by one helper,
translation_embedding, which establishes the laws from three cheap
conditions on its rows instead, skips the constructor and keeps only
the copies of each unit.  An explicit map read from a file goes the
second way when its entries pair up copies, as every map written from
a translation embedding does, and the first way otherwise.  The two
classical row formulas: with block size n and multiplicity m, the
standard embedding sends e_ij to the sum of e_{i+kn, j+kn} over k < m;
with step l the refinement embedding sends e_ij to the sum of
e_{(i-1)l+s, (j-1)l+s} over 1 <= s <= l, which also carries the order
of a tree onto the order of its ampliation (tree_refinement_embedding).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .algebra import DigraphAlgebra, Pair, Unit
from .errors import MultiBlockUnsupported


class RegularEmbedding:
    """A validated pair-image map between two digraph algebras.

    An image is held in one of two forms.  A map given to the
    constructor keeps its dict of image sets; of a map read from a file,
    only one whose entries do not pair up copies comes this way.  A
    translation embedding keeps one list of target units per source
    unit, its copies, and of((u, v)) pairs them up copy by copy when
    asked; image builds the whole dict from either.

    The constructor works on unit indices.  A key or an image pair is
    looked up in the unit index of its algebra and its row bit read; the
    diagonal images become disjoint masks of target indices; the ranges
    of an image enumerate the diagonal image of its range unit once each
    exactly when their mask is that image and its popcount is the image
    size, and likewise the sources.  The checks run in a fixed order,
    each naming its first failure: the keys against the source relation,
    then pair by pair an empty image or an image pair outside the target,
    then diagonal images off the diagonal, overlapping diagonal images,
    ranges and sources that do not enumerate them, and composition.

    Composition, img(i,k) = img(i,j) ∘ img(j,k), is checked only where
    (i, j) is a covering pair, and that suffices.  Induct on the length
    of the longest covering chain from i up to j.  If (i, j) is not a
    cover, split off the top cover (i, i') of a longest chain, so that
    (i', j) is present with a shorter chain.  The law on (i', j) gives
    img(i',k) = img(i',j) ∘ img(j,k), and the law on the cover (i, i'),
    applied with sources k and j, gives img(i,k) = img(i,i') ∘ img(i',k)
    and img(i,j) = img(i,i') ∘ img(i',j).  Composition of these
    bijections is associative, so the law holds on (i, j).  On a full
    triangular source with multiplicity m this is O(N^2 m) steps where
    all composable pairs would take O(N^3 m).
    """

    __slots__ = ("_source", "_target", "_image", "_copies")

    def __init__(
        self,
        source: DigraphAlgebra,
        target: DigraphAlgebra,
        image: Mapping[Pair, Iterable[Pair]],
    ) -> None:
        img: dict[Pair, frozenset[Pair]] = {p: frozenset(v) for p, v in image.items()}
        extra = sum(not source.has_pair(i, j) for i, j in img)
        missing = len(source) - (len(img) - extra)
        if missing or extra:
            raise ValueError(
                f"image must cover the source relation exactly "
                f"(missing {missing}, extra {extra})"
            )
        # Per pair, the masks of the target indices of its ranges and of
        # its sources.
        index, rows = target._index, target._rows
        masks = []
        for p, v in img.items():
            if not v:
                raise ValueError(f"pair {p} has an empty image")
            ranges = sources = 0
            for q in v:
                a, b = q
                k, m = index.get(a), index.get(b)
                if k is None or m is None or not rows[k] >> m & 1:
                    raise ValueError(f"image pair {q} of {p} is not in the target relation")
                ranges |= 1 << k
                sources |= 1 << m
            masks.append((ranges, sources))
        diag: dict[Unit, int] = {}
        for d in source.units():
            im = img[(d, d)]
            if any(i != j for i, j in im):
                raise ValueError(f"diagonal unit {d} maps to off-diagonal pairs")
            diag[d] = sum(1 << index[i] for i, _ in im)
        seen = 0
        for d, mask in diag.items():
            if mask & seen:
                # Word the overlap as a scan of the units in order meets it.
                t = next(t for t in frozenset(i for i, _ in img[(d, d)]) if seen >> index[t] & 1)
                first = next(e for e, m in diag.items() if m >> index[t] & 1)
                raise ValueError(f"diagonal images of {first} and {d} both contain {t}")
            seen |= mask
        for ((i, j), v), (ranges, sources) in zip(img.items(), masks):
            if i == j:
                continue
            if ranges != diag[i] or ranges.bit_count() != len(v):
                raise ValueError(
                    f"ranges of the image of {(i, j)} must enumerate the "
                    f"diagonal image of {i} exactly once each"
                )
            if sources != diag[j] or sources.bit_count() != len(v):
                raise ValueError(
                    f"sources of the image of {(i, j)} must enumerate the "
                    f"diagonal image of {j} exactly once each"
                )
        # The image of (i, j) now matches each unit of diag[j] to one unit
        # of diag[i].  Images with a diagonal factor compose trivially, so
        # only strict composable pairs with a covering first factor are
        # checked, grouped by the middle.
        for j, ranges, sources in source.composable_covers():
            for i in ranges:
                left = {b: a for a, b in img[(i, j)]}
                for k in sources:
                    composed = frozenset((left[b], c) for b, c in img[(j, k)])
                    if composed != img[(i, k)]:
                        raise ValueError(
                            f"images of ({i},{j}) and ({j},{k}) compose to "
                            f"{sorted(composed)} but ({i},{k}) maps to {sorted(img[(i, k)])}"
                        )
        self._set(source, target, img)

    def _set(
        self,
        source: DigraphAlgebra,
        target: DigraphAlgebra,
        image: dict[Pair, frozenset[Pair]] | None,
        copies: dict[Unit, list[Unit]] | None = None,
    ) -> "RegularEmbedding":
        """Store the fields as given and return self, checking nothing.

        The constructor ends here after its checks, with image.
        translation_embedding calls it on a fresh instance with copies
        once its row conditions guarantee every law, and restricted
        calls it with the form it restricts.
        """
        self._source = source
        self._target = target
        self._image = image
        self._copies = copies
        return self

    @property
    def source(self) -> DigraphAlgebra:
        return self._source

    @property
    def target(self) -> DigraphAlgebra:
        return self._target

    @property
    def image(self) -> dict[Pair, frozenset[Pair]]:
        """Every pair of the source with its image set, as a new dict."""
        if self._copies is None:
            return dict(self._image)
        return {p: self.of(p) for p in self._source.pairs()}

    def of(self, pair: Pair) -> frozenset[Pair]:
        """The image set of a pair; KeyError outside the source relation."""
        if self._copies is None:
            return self._image[pair]
        if not self._source.has_pair(*pair):
            raise KeyError(pair)
        u, v = pair
        return frozenset(zip(self._copies[u], self._copies[v]))

    def restricted(self, source: DigraphAlgebra, target: DigraphAlgebra) -> "RegularEmbedding":
        """This map on source, a subalgebra of the source on the same
        units, into target, one of the target that holds every image of
        a pair of source.  Such a restriction keeps every law, so nothing
        is checked (tower._forest_presentation).  Copies stay the same
        copies; image sets are read off for the pairs of source."""
        image = None if self._copies is not None else {q: self._image[q] for q in source.pairs()}
        return RegularEmbedding.__new__(RegularEmbedding)._set(source, target, image, self._copies)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularEmbedding):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self.image == other.image
        )

    def __repr__(self) -> str:
        return f"RegularEmbedding({self._source!r} -> {self._target!r})"


Rows = Callable[[int], list[int]]


def standard_rows(n: int, m: int) -> Rows:
    """Row i goes to its m translates i + kn, k < m."""
    return lambda i: [i + k * n for k in range(m)]


def refinement_rows(l: int) -> Rows:
    """Row i goes to the l rows (i-1)l + s, 1 <= s <= l."""
    return lambda i: [(i - 1) * l + s for s in range(1, l + 1)]


def translation_embedding(
    source: DigraphAlgebra, rows: Rows, target: DigraphAlgebra | None = None
) -> RegularEmbedding:
    """Place copies of a single-block source along a row formula.

    rows(i) lists the target rows of source row i, one per copy, in copy
    order; e_ij goes to the sum over copies c of e_{rows(i)[c], rows(j)[c]}.
    The image algebra (placed), one block of n·m units holding exactly
    the image pairs, is the target unless one is given, which must have
    that block and contain it: one subset test per row.

    The laws of RegularEmbedding follow from three conditions, checked
    here in their place: every rows(i) has the same length m >= 1, the
    n·m rows are distinct and in range, and every image pair lies in the
    target relation.  Then the image covers the source relation with
    nonempty sets; a diagonal unit goes to its m diagonal rows, disjoint
    from those of any other unit; the image of (i, j) pairs copy c of
    row i with copy c of row j, so its ranges and sources enumerate the
    diagonal images of i and j once each; and the images of (i, j) and
    (j, k) compose copy by copy to the image of (i, k).

    The embedding keeps the copies of each source unit, not the image
    sets: of builds the image of one pair when asked, so a decision that
    reads only the covers of a level builds O(N·m) pairs, not O(|R|·m).
    """
    if len(source.blocks) != 1:
        raise MultiBlockUnsupported("row translations need a single-block source")
    n = source.blocks[0]
    at = {i: rows(i) for i in range(1, n + 1)}
    m = len(at[1])
    if not m:
        raise ValueError(f"unit {(0, 1)} has no rows")
    owner: dict[int, int] = {}
    for i, rs in at.items():
        if len(rs) != m:
            raise ValueError(f"unit {(0, i)} has {len(rs)} rows where unit {(0, 1)} has {m}")
        for r in rs:
            if owner.get(r) == i:
                raise ValueError(f"unit {(0, i)} lists row {r} twice")
            if r in owner:
                raise ValueError(f"row {r} of unit {(0, i)} is a row of unit {(0, owner[r])} too")
            if not 1 <= r <= n * m:
                raise ValueError(f"unit {(0, r)} is out of range for blocks {[n * m]}")
            owner[r] = i
    placed = source.placed(at)
    if target is None:
        target = placed
    elif target.blocks != placed.blocks:
        blocks = list(target.blocks)
        raise ValueError(f"the target has blocks {blocks} where the image has {[n * m]}")
    else:
        q = placed.first_pair_outside(target)
        if q is not None:
            p = ((0, owner[q[0][1]]), (0, owner[q[1][1]]))
            raise ValueError(f"image pair {q} of {p} is not in the target relation")
    copies = {(0, i): [(0, r) for r in rs] for i, rs in at.items()}
    return RegularEmbedding.__new__(RegularEmbedding)._set(source, target, None, copies)


def standard_embedding(n: int, m: int) -> RegularEmbedding:
    """The multiplicity-m standard embedding on upper triangular algebras."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    full = DigraphAlgebra.upper_triangular
    return translation_embedding(full(n), standard_rows(n, m), full(n * m))


def refinement_embedding(n: int, l: int) -> RegularEmbedding:
    """The step-l refinement embedding on upper triangular algebras."""
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 and l >= 1")
    full = DigraphAlgebra.upper_triangular
    return translation_embedding(full(n), refinement_rows(l), full(n * l))


def tree_refinement_embedding(source: DigraphAlgebra, l: int) -> RegularEmbedding:
    """One tree-refinement step: the refinement rows onto the ampliated order."""
    return translation_embedding(source, refinement_rows(l), source.ampliated(l))
