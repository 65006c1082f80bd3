"""Regular multiplicity embeddings between digraph algebras.

An embedding maps every relation pair of the source to a nonempty set of
relation pairs of the target.  Validation enforces the shape such a map
must have to come from a star-extendable algebra homomorphism:

* diagonal units go to disjoint sets of diagonal units,
* the images of a pair biject with the diagonal images of its range and
  source units,
* images compose: im(i,j) * im(j,k) = im(i,k) pairwise.

Embeddings that place copies of a single-block level along a row formula
are built by one helper, translation_embedding.  The two classical row
formulas: with block size n and multiplicity m, the standard embedding
sends e_ij to the sum of e_{i+kn, j+kn} over k < m; with step l the
refinement embedding sends e_ij to the sum of e_{(i-1)l+s, (j-1)l+s} over
1 <= s <= l.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .algebra import DigraphAlgebra, Pair, Unit
from .errors import IllFormedAttachment, MismatchedLevels, MultiBlockUnsupported
from .graphs import OutForest


class RegularEmbedding:
    """A validated pair-image map between two digraph algebras."""

    __slots__ = ("_source", "_target", "_image")

    def __init__(
        self,
        source: DigraphAlgebra,
        target: DigraphAlgebra,
        image: Mapping[Pair, Iterable[Pair]],
    ) -> None:
        img: dict[Pair, frozenset[Pair]] = {p: frozenset(v) for p, v in image.items()}
        rel = source.relation
        if img.keys() != rel:
            missing = rel - img.keys()
            extra = img.keys() - rel
            raise ValueError(
                f"image must cover the source relation exactly "
                f"(missing {len(missing)}, extra {len(extra)})"
            )
        target_rel = target.relation
        for p, v in img.items():
            if not v:
                raise ValueError(f"pair {p} has an empty image")
            for q in v:
                if q not in target_rel:
                    raise ValueError(f"image pair {q} of {p} is not in the target relation")
        diag: dict[Unit, frozenset[Unit]] = {}
        for d in source.units():
            im = img[(d, d)]
            if any(i != j for i, j in im):
                raise ValueError(f"diagonal unit {d} maps to off-diagonal pairs")
            diag[d] = frozenset(i for i, _ in im)
        seen: dict[Unit, Unit] = {}
        for d, s in diag.items():
            for t in s:
                if t in seen:
                    raise ValueError(
                        f"diagonal images of {seen[t]} and {d} both contain {t}"
                    )
                seen[t] = d
        for (i, j), v in img.items():
            if i == j:
                continue
            ranges = [a for a, _ in v]
            sources = [b for _, b in v]
            if len(set(ranges)) != len(v) or set(ranges) != set(diag[i]):
                raise ValueError(
                    f"ranges of the image of {(i, j)} must enumerate the "
                    f"diagonal image of {i} exactly once each"
                )
            if len(set(sources)) != len(v) or set(sources) != set(diag[j]):
                raise ValueError(
                    f"sources of the image of {(i, j)} must enumerate the "
                    f"diagonal image of {j} exactly once each"
                )
        # The image of (i, j) now matches each unit of diag[j] to one unit
        # of diag[i].  Images with a diagonal factor compose trivially, so
        # only strict composable pairs are checked, grouped by the middle.
        for j, ranges, sources in source.composable():
            for i in ranges:
                left = {b: a for a, b in img[(i, j)]}
                for k in sources:
                    composed = frozenset((left[b], c) for b, c in img[(j, k)])
                    if composed != img[(i, k)]:
                        raise ValueError(
                            f"images of ({i},{j}) and ({j},{k}) compose to "
                            f"{sorted(composed)} but ({i},{k}) maps to {sorted(img[(i, k)])}"
                        )
        self._source = source
        self._target = target
        self._image = img

    @property
    def source(self) -> DigraphAlgebra:
        return self._source

    @property
    def target(self) -> DigraphAlgebra:
        return self._target

    @property
    def image(self) -> dict[Pair, frozenset[Pair]]:
        return dict(self._image)

    def of(self, pair: Pair) -> frozenset[Pair]:
        return self._image[pair]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularEmbedding):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._image == other._image
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
    Without a target the image algebra is used: one block of size n times
    the number of copies, holding exactly the image pairs.
    """
    if len(source.blocks) != 1:
        raise MultiBlockUnsupported("row translations need a single-block source")
    n = source.blocks[0]
    at = {i: rows(i) for i in range(1, n + 1)}
    image = {
        (u, v): frozenset(((0, pi), (0, pj)) for pi, pj in zip(at[u[1]], at[v[1]]))
        for u, v in source.relation
    }
    if target is None:
        off = {q for im in image.values() for q in im if q[0] != q[1]}
        target = DigraphAlgebra([n * len(at[1])], off)
    return RegularEmbedding(source, target, image)


def standard_embedding(n: int, m: int) -> RegularEmbedding:
    """The multiplicity-m standard embedding on upper triangular algebras."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return translation_embedding(
        DigraphAlgebra.upper_triangular(n),
        standard_rows(n, m),
        DigraphAlgebra.upper_triangular(n * m),
    )


def refinement_embedding(n: int, l: int) -> RegularEmbedding:
    """The step-l refinement embedding on upper triangular algebras."""
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 and l >= 1")
    return translation_embedding(
        DigraphAlgebra.upper_triangular(n),
        refinement_rows(l),
        DigraphAlgebra.upper_triangular(n * l),
    )


def compose(f: RegularEmbedding, g: RegularEmbedding) -> RegularEmbedding:
    """Apply f, then g.  Requires f.target == g.source."""
    if f.target != g.source:
        raise MismatchedLevels("target of the first embedding must equal source of the second")
    image = {
        p: frozenset(r for q in f.of(p) for r in g.of(q))
        for p in f.source.relation
    }
    return RegularEmbedding(f.source, g.target, image)


def _descend_copy(
    tree: OutForest,
    target: OutForest,
    root: str,
    anchor: str,
    taken: set[str],
) -> dict[str, str]:
    """Extend root -> anchor to a full edge-preserving injection of tree
    into target, children matched deterministically in declaration order.

    Raises IllFormedAttachment when no extension exists.
    """
    if anchor in taken:
        raise IllFormedAttachment(f"target vertex {anchor!r} is already used")
    phi = {root: anchor}
    used = set(taken) | {anchor}
    def place(v: str, t: str) -> None:
        free = [c for c in target.children(t) if c not in used]
        for child in tree.children(v):
            for c in list(free):
                sub = tree.subtree_vertices(child)
                avail = set(target.subtree_vertices(c)) - used
                if len(avail) < len(sub):
                    continue
                free.remove(c)
                phi[child] = c
                used.add(c)
                place(child, c)
                break
            else:
                raise IllFormedAttachment(
                    f"no free child of {t!r} can host the branch at {child!r}"
                )
    place(root, anchor)
    # Greedy by-order placement can fail where a different assignment
    # works; re-check the result and report honestly if it broke.
    for s, t in tree.edges:
        if (phi[s], phi[t]) not in target.edges:
            raise IllFormedAttachment(
                f"edge {s!r} -> {t!r} does not land on a target edge"
            )
    return phi


def tree_standard_embedding(
    sources: list[OutForest],
    target: OutForest,
    attach: list[Mapping[str, str]],
) -> RegularEmbedding:
    """Embed a disjoint union of out-trees onto branches of a target forest.

    Each entry of attach describes one copy: a map from source vertices to
    target vertices.  A copy may give only the roots (with the special
    value "new-root" meaning the first unused target root); the rest of
    each tree is then placed along the target branches in declaration
    order.  Every copy must send edges to single target edges and the
    copies must not overlap; that is exactly what makes the induced
    embedding send edge generators to sums of edge generators.
    """
    for t in sources:
        if not t.is_tree():
            raise IllFormedAttachment("each source component must be a single out-tree")
    all_src = [v for t in sources for v in t.vertices]
    if len(set(all_src)) != len(all_src):
        raise IllFormedAttachment("source trees must use distinct vertex names")
    if not attach:
        raise IllFormedAttachment("at least one copy is required")

    tvs = set(target.vertices)
    taken: set[str] = set()
    copies: list[dict[str, str]] = []
    for copy_no, spec in enumerate(attach):
        spec = dict(spec)
        phi: dict[str, str] = {}
        for t in sources:
            root = t.single_root()
            if set(t.vertices) <= set(spec):
                # Fully explicit copy: validate as given.
                part = {v: spec[v] for v in t.vertices}
                if any(w not in tvs for w in part.values()):
                    raise IllFormedAttachment("attachment names an unknown target vertex")
                if len(set(part.values())) != len(part):
                    raise IllFormedAttachment("copy map is not injective")
                if set(part.values()) & taken:
                    raise IllFormedAttachment("copies overlap on the target")
                for s, u in t.edges:
                    if (part[s], part[u]) not in target.edges:
                        raise IllFormedAttachment(
                            f"edge {s!r} -> {u!r} does not land on a target edge"
                        )
                phi.update(part)
                taken.update(part.values())
            else:
                anchor = spec.get(root)
                if anchor is None:
                    raise IllFormedAttachment(
                        f"copy {copy_no} gives no image for root {root!r}"
                    )
                if anchor == "new-root":
                    free_roots = [r for r in target.roots if r not in taken]
                    if not free_roots:
                        raise IllFormedAttachment("no unused target root available")
                    anchor = free_roots[0]
                elif anchor not in tvs:
                    raise IllFormedAttachment(f"unknown target vertex {anchor!r}")
                part = _descend_copy(t, target, root, anchor, taken)
                phi.update(part)
                taken.update(part.values())
        copies.append(phi)

    blocks = [len(t.vertices) for t in sources]
    unit_of: dict[str, Unit] = {}
    for b, t in enumerate(sources):
        for k, v in enumerate(t.vertices):
            unit_of[v] = (b, k + 1)
    src_pairs: list[Pair] = []
    for b, t in enumerate(sources):
        comp = DigraphAlgebra.from_graph(t.graph)[0]
        for (i, j) in comp.irreflexive_pairs():
            src_pairs.append(((b, i[1]), (b, j[1])))
    src_alg = DigraphAlgebra(blocks, src_pairs)
    tgt_alg, t_unit = DigraphAlgebra.from_graph(target.graph)

    vertex_of = {u: v for v, u in unit_of.items()}
    image: dict[Pair, set[Pair]] = {}
    for i, j in src_alg.relation:
        vi, vj = vertex_of[i], vertex_of[j]
        image[(i, j)] = {(t_unit[phi[vi]], t_unit[phi[vj]]) for phi in copies}
    try:
        return RegularEmbedding(src_alg, tgt_alg, image)
    except ValueError as exc:
        raise IllFormedAttachment(str(exc)) from exc
