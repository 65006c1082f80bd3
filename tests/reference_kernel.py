"""Quadratic reference versions of the relation checks in treealg.algebra.

These are the loops the algebra layer ran before it stored relations as
row bitmasks.  They work on plain sets of (range, source) unit pairs and
cost up to |R|^2 steps each, so they serve only as the oracle that
test_kernel.py compares the bitmask kernel against on small relations.
grading_ok checks additivity and coherence on every composable pair;
solve_grading returns grades that must pass it.  embedding_ok checks
composition on every composable pair, where RegularEmbedding checks only
those whose first factor is a covering pair.  embedding_error is the
constructor's own checking loop as it ran on tuple-pair sets, and gives
the message RegularEmbedding must raise, word for word.

The graph-level closure, covering edges and out-forest completion test
once duplicated the kernel on DirectedGraph values; they stay here as
the oracle of test_graphs.py and of the grading solver.

iterated_ampliation builds the trees the classification search built
for every candidate before it read their reductions off in closed form,
one single_ampliation per factor; it is the oracle of
classify.ampliated_reduction in test_classify.py and of ampliate's
closed form in test_ampliation.py.
refinement_between builds one tree-refinement step through the tree,
as towers did before they read the next order off the rows; it is the
oracle of the generated steps in test_kernel.py.

single_ampliation is one ampliation step as the definition gives it,
built through the checked constructors.  ampliate_output is the text
`treealg ampliate` wrote when it built the whole ampliation and then
the whole text: JSON through the graph document, DOT and text line by
line (text with weights, as DOT labels them).  They are the oracle of
the chain-by-chain writers in test_ampliate_output.py.

all_chain_grades lists every summand chain of a tower before any is
looked at, as decide_tensor did before it walked chains lazily; it is
the oracle of the chain order in test_tower.py.  pair_chain_grades lists
those of one pair, as tower.counting_grade did; acceptance criterion 10
reads grades off them.  forest_presentation
builds every algebra and embedding of a Yes certificate afresh, as
decide_tensor did before it reused the tower's own where they agree.

tower_from_json and its helpers are the tower decoder of treealg.formats
as it read every unit pair into a tuple, ran every shape check before
any range check, and handed every explicit map to the checked
RegularEmbedding constructor as a dict of image sets; it is the oracle
of the one-pass decoder in test_formats.py, levels, maps, bytes and
messages alike.

The dense CKT family at the end is how treealg.correspondence worked
before it stored edge maps as partial injections: every projection and
edge map is an explicit dim x dim int64 matrix and every relation is a
matrix product.  It is the oracle of test_correspondence.py, which also
reads the dense operator of a vector off vector_operator.  These are the
only users of numpy; treealg itself runs on the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from treealg.algebra import DigraphAlgebra, solve_grading
from treealg.ampliation import ampliate
from treealg.cli import _json_text
from treealg.correspondence import (
    CKTReport,
    Edge,
    GraphCorrespondenceVector,
    PartialIsometryFamily,
    Path,
    RelationCheck,
    edge_range,
    edge_source,
)
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    refinement_rows,
    standard_embedding,
    translation_embedding,
)
from treealg.errors import CyclicGraph, FormatError, GraphMismatch
from treealg.formats import (
    Json,
    _as_dict,
    _as_int,
    _as_list,
    _as_str,
    _get,
    _positive,
    graph_to_json,
    rule_from_json,
)
from treealg.graphs import DirectedGraph, OutForest, find_cycle
from treealg.tower import ChainGrades, Tower

Unit = tuple[int, int]
Pair = tuple[Unit, Unit]


def units_of(blocks) -> list[Unit]:
    return [(b, r) for b, n in enumerate(blocks) for r in range(1, n + 1)]


def relation(blocks, pairs) -> frozenset[Pair]:
    """The reflexive relation the constructor accepts, or ValueError."""
    rel: set[Pair] = {(u, u) for u in units_of(blocks)}
    for i, j in pairs:
        for u in (i, j):
            if not (0 <= u[0] < len(blocks)) or not (1 <= u[1] <= blocks[u[0]]):
                raise ValueError(f"unit {u} is out of range")
        if i[0] != j[0]:
            raise ValueError(f"pair {i} / {j} crosses blocks")
        rel.add((i, j))
    for i, j in rel:
        if i != j and (j, i) in rel:
            raise ValueError("antisymmetry")
    for i, j in rel:
        for k, l in rel:
            if j == k and (i, l) not in rel:
                raise ValueError("composite")
    return frozenset(rel)


def closure(pairs) -> set[Pair]:
    """Close a set of pairs under composition."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k, l in list(rel):
                if j == k and (i, l) not in rel:
                    rel.add((i, l))
                    changed = True
    return rel


def covering_pairs(rel, units) -> frozenset[Pair]:
    """Pairs (i, j), i != j, with no unit strictly between j and i."""
    out = set()
    for i, j in rel:
        if i != j and not any(
            m not in (i, j) and (i, m) in rel and (m, j) in rel for m in units
        ):
            out.add((i, j))
    return frozenset(out)


def non_tree_triple(rel) -> tuple[Unit, Unit, Unit] | None:
    """The first (x, y, z) in sorted order with (x, y), (x, z) present and
    y, z incomparable."""
    by_range: dict[Unit, list[Unit]] = {}
    for i, j in sorted(p for p in rel if p[0] != p[1]):
        by_range.setdefault(i, []).append(j)
    for x, sources in by_range.items():
        for p in range(len(sources)):
            for q in range(p + 1, len(sources)):
                y, z = sources[p], sources[q]
                if (y, z) not in rel and (z, y) not in rel:
                    return (x, y, z)
    return None


def chain_grades(rel, units) -> dict[Pair, int]:
    """Grades as covering-chain lengths, for a relation that passes the
    tree condition."""
    received = {i: j for i, j in covering_pairs(rel, units)}
    grade = {}
    for i, j in rel:
        steps, cur = 0, i
        while cur != j:
            cur = received[cur]
            steps += 1
        grade[(i, j)] = steps
    return grade


def grade_table(a: DigraphAlgebra) -> dict[Pair, int]:
    """The grade of every pair of a level that has a grading, read
    through Grading.of, as the dict the checks here take."""
    g = solve_grading(a)
    return {p: g.of(p) for p in a.pairs()}


def grading_ok(rel, units, grade) -> bool:
    """The laws a coherent additive grading satisfies."""
    if set(grade) != set(rel):
        return False
    for (i, j), g in grade.items():
        if (g == 0) != (i == j) or g < 0:
            return False
    for i, j in rel:
        for k, l in rel:
            if j == k and grade[(i, l)] != grade[(i, j)] + grade[(k, l)]:
                return False
    for (i, j), g in grade.items():
        if g >= 2 and not any(
            grade.get((i, m)) == 1 and grade.get((m, j)) == g - 1 for m in units
        ):
            return False
    return True


def embedding_ok(rel, target_rel, image) -> bool:
    """The checks a pair-image map must pass to be a RegularEmbedding,
    with composition checked on every composable pair, as RegularEmbedding
    did before it checked only those with a covering first factor."""
    img = {p: frozenset(v) for p, v in image.items()}
    if set(img) != set(rel) or any(not v or not v <= target_rel for v in img.values()):
        return False
    diag = {i: {a for a, _ in v} for (i, j), v in img.items() if i == j}
    if any(a != b for (i, j), v in img.items() if i == j for a, b in v):
        return False
    if sum(map(len, diag.values())) != len(set().union(*diag.values())):
        return False
    for (i, j), v in img.items():
        ranges, sources = [a for a, _ in v], [b for _, b in v]
        if len(set(ranges)) != len(v) or set(ranges) != diag[i]:
            return False
        if len(set(sources)) != len(v) or set(sources) != diag[j]:
            return False
    for i, j in rel:
        for k, l in rel:
            if j == k:
                left = {b: a for a, b in img[(i, j)]}
                if {(left[b], c) for b, c in img[(k, l)]} != img[(i, l)]:
                    return False
    return True


def embedding_error(source: DigraphAlgebra, target: DigraphAlgebra, image) -> str | None:
    """The message RegularEmbedding raises on a pair-image map, or None
    if it accepts the map: the checking loop of its constructor before
    the laws moved onto unit indices and row bitmasks, check by check in
    the same order, over the same tuple-pair sets."""
    img = {p: frozenset(v) for p, v in image.items()}
    extra = sum(not source.has_pair(i, j) for i, j in img)
    missing = len(source) - (len(img) - extra)
    if missing or extra:
        return (
            f"image must cover the source relation exactly "
            f"(missing {missing}, extra {extra})"
        )
    for p, v in img.items():
        if not v:
            return f"pair {p} has an empty image"
        for q in v:
            if not target.has_pair(*q):
                return f"image pair {q} of {p} is not in the target relation"
    diag: dict[Unit, frozenset[Unit]] = {}
    for d in source.units():
        im = img[(d, d)]
        if any(i != j for i, j in im):
            return f"diagonal unit {d} maps to off-diagonal pairs"
        diag[d] = frozenset(i for i, _ in im)
    seen: dict[Unit, Unit] = {}
    for d, s in diag.items():
        for t in s:
            if t in seen:
                return f"diagonal images of {seen[t]} and {d} both contain {t}"
            seen[t] = d
    for (i, j), v in img.items():
        if i == j:
            continue
        ranges = [a for a, _ in v]
        sources = [b for _, b in v]
        if len(set(ranges)) != len(v) or set(ranges) != set(diag[i]):
            return (
                f"ranges of the image of {(i, j)} must enumerate the "
                f"diagonal image of {i} exactly once each"
            )
        if len(set(sources)) != len(v) or set(sources) != set(diag[j]):
            return (
                f"sources of the image of {(i, j)} must enumerate the "
                f"diagonal image of {j} exactly once each"
            )
    for j, ranges, sources in source.composable_covers():
        for i in ranges:
            left = {b: a for a, b in img[(i, j)]}
            for k in sources:
                composed = frozenset((left[b], c) for b, c in img[(j, k)])
                if composed != img[(i, k)]:
                    return (
                        f"images of ({i},{j}) and ({j},{k}) compose to "
                        f"{sorted(composed)} but ({i},{k}) maps to {sorted(img[(i, k)])}"
                    )
    return None


def transitive_completion(g: DirectedGraph) -> DirectedGraph:
    """The transitive closure of g on the same vertices and weights.

    Raises CyclicGraph if g has a directed cycle.
    """
    cyc = find_cycle(g)
    if cyc is not None:
        raise CyclicGraph(f"graph has a directed cycle: {' -> '.join(cyc)}")
    reach: dict[str, set[str]] = {v: set(g.successors(v)) for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            extra = set()
            for w in reach[v]:
                extra |= reach[w] - reach[v]
            if extra:
                reach[v] |= extra
                changed = True
    edges = [(v, w) for v in g.vertices for w in reach[v]]
    return DirectedGraph(g.vertices, edges, g.weights)


def covering_edges(g: DirectedGraph) -> frozenset[tuple[str, str]]:
    """Edges (u, v) of g admitting no intermediate w with u -> w -> v in g."""
    out = set()
    for u, v in g.edges:
        if not any(
            g.has_edge(u, w) and g.has_edge(w, v)
            for w in g.vertices
            if w not in (u, v)
        ):
            out.add((u, v))
    return frozenset(out)


def is_transitive_completion_of_out_forest(
    g: DirectedGraph,
) -> tuple[bool, OutForest | None]:
    """Decide whether g is the strict order generated by some out-forest.

    The candidate forest is the covering relation of g; g qualifies exactly
    when that candidate is an out-forest whose transitive closure gives back
    the edges of g.
    """
    if find_cycle(g) is not None:
        return False, None
    cover = DirectedGraph(g.vertices, covering_edges(g), g.weights)
    try:
        forest = OutForest(cover)
    except ValueError:
        return False, None
    if transitive_completion(cover).edges != g.edges:
        return False, None
    return True, forest


def single_ampliation(tree: OutForest, l: int) -> OutForest:
    """Every vertex i becomes the chain (i,1) -> ... -> (i,l), and every
    tree edge j -> i the edge (j,l) -> (i,1)."""
    vertices = [f"({v},{s})" for v in tree.vertices for s in range(1, l + 1)]
    edges = [(f"({v},{s})", f"({v},{s + 1})") for v in tree.vertices for s in range(1, l)]
    edges += [(f"({j},{l})", f"({i},1)") for j, i in tree.edges]
    return OutForest(DirectedGraph(vertices, edges))


def iterated_ampliation(base: OutForest, factors) -> OutForest:
    """base ampliated by each factor in turn, one single_ampliation each."""
    g = base
    for f in factors:
        g = single_ampliation(g, f)
    return g


def _graph_lines(g: DirectedGraph | OutForest, fmt: str) -> str:
    graph = g.graph if isinstance(g, OutForest) else g
    if fmt == "json":
        return _json_text(graph_to_json(graph)) + "\n"
    if fmt == "text":
        named = [f"{v} ({graph.weight(v)})" if graph.weight(v) else v for v in graph.vertices]
        lines = [f"vertices: {', '.join(named)}"]
        lines += [f"  {s} -> {t}" for s, t in sorted(graph.edges)]
        return "\n".join(lines) + "\n"

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph G {"]
    for v in graph.vertices:
        w = graph.weight(v)
        label = f" [label={quote(f'{v} ({w})')}]" if w else ""
        lines.append(f"  {quote(v)}{label};")
    for s in graph.vertices:
        for t in graph.successors(s):
            lines.append(f"  {quote(s)} -> {quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ampliate_output(tree: OutForest, l: int, steps: int, fmt: str) -> str:
    """What `treealg ampliate` writes for tree, -l l, --steps steps and
    --format fmt, from steps single ampliations."""
    return _graph_lines(iterated_ampliation(tree, [l] * steps), fmt)


def refinement_between(
    tree: OutForest, l: int, source: DigraphAlgebra
) -> tuple[OutForest, RegularEmbedding]:
    """The ampliation of tree by l, and the refinement embedding from
    source, the order algebra of tree, onto the order algebra of the
    ampliation, built from its graph."""
    nxt = ampliate(tree, l)
    target = DigraphAlgebra.from_graph(nxt)[0]
    return nxt, translation_embedding(source, refinement_rows(l), target)


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


def pair_chain_grades(
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
    level: int,
    pair: Pair,
) -> list[ChainGrades]:
    """Every summand chain of one pair from its level, 1-based, down to
    the last graded level, with its grades: depth first over sorted
    images."""
    return [
        ChainGrades(level, chain, tuple(grades[level - 1 + k][q] for k, q in enumerate(chain)))
        for chain in _chains_from(maps, level, pair, len(grades))
    ]


def all_chain_grades(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
) -> list[ChainGrades]:
    """Every summand chain of every pair above the last level, listed
    before any is looked at: level by level, pairs in relation order,
    chains depth first over sorted images."""
    return [
        cg
        for k in range(1, len(levels))
        for p in levels[k - 1].irreflexive_pairs()
        for cg in pair_chain_grades(maps, grades, k, p)
    ]


def forest_presentation(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
) -> list[tuple[list[Pair], DigraphAlgebra, RegularEmbedding | None]]:
    """Per level: the sorted pairs whose whole orbit stays at grade 1, the
    algebra they generate, and the tower map restricted to it."""
    d = len(levels)
    stab1: list[set[Pair]] = [set() for _ in range(d)]
    stab1[d - 1] = {p for p in levels[d - 1].irreflexive_pairs() if grades[d - 1][p] == 1}
    for k in range(d - 2, -1, -1):
        stab1[k] = {
            p
            for p in levels[k].irreflexive_pairs()
            if grades[k][p] == 1 and maps[k].of(p) <= stab1[k + 1]
        }
    algs = [DigraphAlgebra.from_generators(levels[k].blocks, stab1[k]) for k in range(d)]
    out = []
    for k in range(d):
        emb = None
        if k < d - 1:
            emb = RegularEmbedding(algs[k], algs[k + 1], {q: maps[k].of(q) for q in algs[k].relation})
        out.append((sorted(stab1[k]), algs[k], emb))
    return out


def _unit_from_json(obj: Json, path: str) -> Unit:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a unit is a [block, row] pair")
    return (_as_int(pair[0], f"{path}[0]"), _as_int(pair[1], f"{path}[1]"))


def _pair_from_json(obj: Json, path: str) -> Pair:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a matrix unit is a [[block,row],[block,col]] pair")
    return (_unit_from_json(pair[0], f"{path}[0]"), _unit_from_json(pair[1], f"{path}[1]"))


def _matrix_units(items: list, path: str) -> list[Pair]:
    """The matrix units of a list, item k at f"{path}[{k}]": an item that is
    no [[int, int], [int, int]] list of lists goes to _pair_from_json."""
    out = []
    for k, p in enumerate(items):
        if type(p) is list and len(p) == 2:
            u, v = p
            if type(u) is type(v) is list and len(u) == len(v) == 2:
                (a, b), (c, e) = u, v
                if type(a) is type(b) is type(c) is type(e) is int:
                    out.append(((a, b), (c, e)))
                    continue
        out.append(_pair_from_json(p, f"{path}[{k}]"))
    return out


def algebra_from_json(obj: Json, path: str = "algebra") -> DigraphAlgebra:
    doc = _as_dict(obj, path)
    blocks = [
        _as_int(b, f"{path}.blocks[{k}]")
        for k, b in enumerate(_as_list(_get(doc, "blocks", path), f"{path}.blocks"))
    ]
    units = _matrix_units(_as_list(doc.get("units", []), f"{path}.units"), f"{path}.units")
    try:
        return DigraphAlgebra.from_generators(blocks, units)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def embedding_from_json(
    obj: Json,
    path: str = "embedding",
    source: DigraphAlgebra | None = None,
    target: DigraphAlgebra | None = None,
) -> RegularEmbedding:
    """Decode an embedding document.

    The explicit form needs the enclosing source and target algebras;
    tower files supply them from the surrounding levels.  A standard or
    refinement map is checked against the sizes of those it is given
    before it is built.
    """
    doc = _as_dict(obj, path)
    kind = _as_str(_get(doc, "kind", path), f"{path}.kind")
    if kind in ("standard", "refinement"):
        n, m = _positive(doc, "n", path), _positive(doc, "m" if kind == "standard" else "l", path)
        for name, level, size in (("source", source, n), ("target", target, n * m)):
            if level is not None and level.blocks != (size,):
                raise FormatError(
                    f"{path}: this {kind} map needs a {name} level with blocks [{size}], "
                    f"found {list(level.blocks)}"
                )
        return (standard_embedding if kind == "standard" else refinement_embedding)(n, m)
    if kind == "explicit":
        if source is None or target is None:
            raise FormatError(
                f"{path}: explicit embeddings need surrounding source and target algebras"
            )
        raw = _as_list(_get(doc, "image", path), f"{path}.image")
        entries = [_entry_from_json(e, f"{path}.image[{k}]") for k, e in enumerate(raw)]
        image: dict[Pair, frozenset[Pair]] = {}
        for k, (src, *tgts) in enumerate(entries):
            if src in image:
                raise FormatError(f"{path}.image[{k}]: source pair {src} has an earlier entry")
            image[src] = frozenset(tgts)
            if len(image[src]) < len(tgts):
                q = next(q for q in tgts if tgts.count(q) > 1)
                raise FormatError(f"{path}.image[{k}]: target pair {q} is listed twice")
        try:
            return RegularEmbedding(source, target, _complete_diagonal(source, image))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    raise FormatError(f"{path}.kind: unknown embedding kind {kind!r}")


def _entry_from_json(obj: Json, path: str) -> list[Pair]:
    """An entry [source, [targets...]] as the list [source, targets...]."""
    entry = _as_list(obj, path)
    if len(entry) != 2:
        raise FormatError(f"{path}: an entry is [source-pair, [target-pairs]]")
    # The source pair is item 0 of the entry, at f"{path}[0]".
    src = _matrix_units(entry[:1], path)
    return src + _matrix_units(_as_list(entry[1], f"{path}[1]"), f"{path}[1]")


def _complete_diagonal(
    source: DigraphAlgebra, image: dict[Pair, frozenset[Pair]]
) -> dict[Pair, frozenset[Pair]]:
    """Fill implied reflexive entries from the off-diagonal ones."""
    if all((i, i) in image for i in source.units()):
        return image
    seen: dict[Unit, set[Pair]] = {}
    for (a, b), tgts in image.items():
        seen.setdefault(a, set()).update((p, p) for p, _ in tgts)
        seen.setdefault(b, set()).update((q, q) for _, q in tgts)
    out = dict(image)
    for i in source.units():
        if (i, i) not in out and seen.get(i):
            out[(i, i)] = frozenset(seen[i])
    return out


def tower_from_json(obj: Json, path: str = "tower") -> Tower:
    doc = _as_dict(obj, path)
    levels = [
        algebra_from_json(item, f"{path}.levels[{k}]")
        for k, item in enumerate(_as_list(_get(doc, "levels", path), f"{path}.levels"))
    ]
    raw_maps = _as_list(doc.get("maps", []), f"{path}.maps")
    if len(raw_maps) != max(len(levels) - 1, 0):
        raise FormatError(
            f"{path}.maps: {len(levels)} levels need {max(len(levels) - 1, 0)} maps, "
            f"found {len(raw_maps)}"
        )
    maps = [
        embedding_from_json(
            item, f"{path}.maps[{k}]", source=levels[k], target=levels[k + 1]
        )
        for k, item in enumerate(raw_maps)
    ]
    rule = rule_from_json(doc.get("rule"), f"{path}.rule")
    try:
        return Tower(levels, maps, rule)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _enumerate_paths(g: DirectedGraph, cutoff: int) -> list[Path]:
    edges = sorted(g.edges)
    paths: list[Path] = [(v, ()) for v in g.vertices]
    frontier = list(paths)
    for _ in range(cutoff):
        nxt: list[Path] = []
        for r, es in frontier:
            tail = edge_source(es[-1]) if es else r
            for e in edges:
                if edge_range(e) == tail:
                    nxt.append((r, es + (e,)))
        paths.extend(nxt)
        frontier = nxt
    return paths


@dataclass(eq=False)
class DenseFamily:
    """Vertex projections and edge maps as dense integer matrices."""

    graph: DirectedGraph
    cutoff: int
    paths: tuple[Path, ...]
    vertex_projections: dict[str, np.ndarray]
    edge_isometries: dict[Edge, np.ndarray]

    @property
    def dimension(self) -> int:
        return len(self.paths)


def vector_operator(fam: PartialIsometryFamily, x: GraphCorrespondenceVector) -> np.ndarray:
    """The dense matrix representing a vector: its amplitude-weighted edge maps."""
    if x.graph != fam.graph:
        raise GraphMismatch("the vector lives on a different graph")
    out = np.zeros((fam.dimension, fam.dimension), dtype=np.complex128)
    for e, d in fam.edge_isometries.items():
        a = x.amplitude(e)
        if a != 0:
            d = np.asarray(d)
            (cols,) = np.nonzero(d >= 0)
            out[d[cols], cols] += a
    return out


def build_ckt_family(g: DirectedGraph, cutoff: int = 4) -> DenseFamily:
    """Concrete integer matrices for the vertex/edge relation family.

    The space is spanned by the directed paths of length at most cutoff.
    A vertex projection keeps the paths ranging at its vertex; an edge
    map prepends its edge where composable and the result still fits.
    """
    if cutoff < 0:
        raise ValueError("the cutoff must be nonnegative")
    paths = _enumerate_paths(g, cutoff)
    index = {p: i for i, p in enumerate(paths)}
    dim = len(paths)
    projections = {}
    for v in g.vertices:
        m = np.zeros((dim, dim), dtype=np.int64)
        for p, i in index.items():
            if p[0] == v:
                m[i, i] = 1
        projections[v] = m
    isometries = {}
    for e in sorted(g.edges):
        m = np.zeros((dim, dim), dtype=np.int64)
        for (r, es), i in index.items():
            if r == edge_source(e) and len(es) < cutoff:
                target = (edge_range(e), (e,) + es)
                m[index[target], i] = 1
        isometries[e] = m
    return DenseFamily(g, cutoff, tuple(paths), projections, isometries)


def verify_ckt(fam: DenseFamily) -> CKTReport:
    """Entrywise verification of the five relations of the family."""
    L = fam.vertex_projections
    T = fam.edge_isometries
    checks: dict[str, RelationCheck] = {}

    r = 0
    for p in fam.graph.vertices:
        for q in fam.graph.vertices:
            if p != q:
                r = max(r, int(np.abs(L[p] @ L[q]).max(initial=0)))
    checks["orthogonal-vertices"] = RelationCheck(r, r == 0)

    r = 0
    for e in T:
        for f in T:
            if e != f:
                r = max(r, int(np.abs(T[e].T @ T[f]).max(initial=0)))
    checks["orthogonal-edges"] = RelationCheck(r, r == 0)

    # The isometry identity can only fail on paths of maximal length,
    # where prepending the edge would overflow the cutoff.
    full = 0
    interior = 0
    for e, m in T.items():
        diff = m.T @ m - L[edge_source(e)]
        full = max(full, int(np.abs(diff).max(initial=0)))
        for (rv, es), i in zip(fam.paths, range(fam.dimension)):
            if len(es) < fam.cutoff:
                interior = max(interior, int(abs(diff[i, i])))
    note = "" if full == 0 else "restricted to paths shorter than the cutoff"
    checks["isometry"] = RelationCheck(full, full == 0, note)
    checks["isometry-interior"] = RelationCheck(interior, interior == 0)

    r = 0
    for e, m in T.items():
        excess = m @ m.T - L[edge_range(e)]
        r = max(r, int(excess.max(initial=0)))
    checks["range-domination"] = RelationCheck(r, r <= 0)

    r = 0
    for p in fam.graph.vertices:
        total = np.zeros((fam.dimension, fam.dimension), dtype=np.int64)
        for e, m in T.items():
            if edge_range(e) == p:
                total = total + m @ m.T
        excess = total - L[p]
        r = max(r, int(excess.max(initial=0)))
    checks["summed-domination"] = RelationCheck(r, r <= 0)

    return CKTReport(checks)
