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
classify_by_codes is the classification search as it ran before it
compared code templates: every candidate's reductions named in full by
ampliated_reduction and compared by canonical_code, and every sequence's
product factored by trial division; it is the oracle of
classify.classify_tree_refinement in test_classify.py.
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

tower_to_json, rule_to_json, spec_to_json and vector_to_json are the
encoders treealg.formats had for documents the command line only reads;
the tests write their input files with them, and the round trips of
test_formats.py check them against the decoders.

The dense CKT family is how treealg.correspondence worked before it
computed its report in closed form: the space of paths up to the cutoff
is enumerated, every projection and edge map is an explicit dim x dim
int64 matrix and every relation is a matrix product.  It is the oracle
of verify_ckt in test_correspondence.py, which also reads the dense
operator of a vector off vector_operator and compares module norms with
operator norms and inner products with module_inner_product.  These are
the only users of numpy, and each imports it when called, so the rest of
this module loads where numpy cannot, as the golden replay of
test_stdlib_only.py needs; treealg itself runs on the standard library.

divisible_by is the divisibility test of SupernaturalNumber, which only
test_classify.py calls.

The records at the end are the 24 record classes of treealg as they
were declared before they became slotted Record subclasses: dataclasses,
copied verbatim and grouped by the module they came from.  They are the
oracle of test_records.py, which checks each record's repr, equality,
hash, order, defaults and messages against its twin here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import treealg.ampliation
import treealg.classify
import treealg.correspondence
import treealg.tower
from treealg.algebra import DigraphAlgebra, solve_grading
from treealg.ampliation import MAX_MULTIPLICITY, ampliate
from treealg.classify import (
    _factor,
    _match_vertices,
    _skeleton,
    ampliated_reduction,
    canonical_code,
    reduce,
    spec_supernatural,
)
from treealg.cli import _json_text
from treealg.correspondence import Edge, GraphCorrespondenceVector, edge_range, edge_source
from treealg.embeddings import (
    RegularEmbedding,
    refinement_embedding,
    refinement_rows,
    standard_embedding,
    translation_embedding,
)
from treealg.errors import CyclicGraph, FormatError, GraphMismatch, MismatchedLevels, NotATree
from treealg.formats import (
    Json,
    _as_dict,
    _as_int,
    _as_list,
    _as_str,
    _get,
    _positive,
    algebra_to_json,
    embedding_to_json,
    graph_to_json,
    rule_from_json,
)
from treealg.graphs import DirectedGraph, OutForest, find_cycle

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


def classify_by_codes(a, b, ampliation_bound: int = 3):
    """classify_tree_refinement with one ampliated_reduction and one
    canonical_code per side and candidate."""
    if ampliation_bound < 0:
        raise ValueError("the ampliation bound must be nonnegative")
    sa, sb = spec_supernatural(a), spec_supernatural(b)
    if sa != sb:
        return treealg.classify.Distinct("supernatural numbers differ")
    specs = (a, b)
    plain = [reduce(spec.base, weights=False) for spec in specs]
    if _skeleton(plain[0]) != _skeleton(plain[1]):
        return treealg.classify.Distinct("branching skeletons differ")
    primes = sorted(sa.primes())
    max_steps = ampliation_bound
    if not sa.infinite:
        max_steps = min(max_steps, sum(e for _, e in sa.finite))
    seqs = {
        math.prod(seq): seq
        for k in range(max_steps + 1)
        for seq in itertools.combinations_with_replacement(primes, k)
        if all(sa.exponent(p) >= e for p, e in _factor(math.prod(seq)).items())
    }
    na, nb = len(a.base.vertices), len(b.base.vertices)
    candidates = sorted(
        (len(pa) + len(pb), pa, pb)
        for la, pa in seqs.items()
        for pb in [seqs.get(na * la // nb)]
        if na * la % nb == 0 and pb is not None
    )

    def reduction(k, seq):
        return ampliated_reduction(plain[k], seq) if seq else reduce(specs[k].base)

    for _, pa, pb in candidates:
        ra, rb = reduction(0, pa), reduction(1, pb)
        if canonical_code(ra) == canonical_code(rb):
            return treealg.classify.Equivalent((pa, pb), _match_vertices(ra, rb))
    return treealg.classify.Undetermined(ampliation_bound)


def divisible_by(self: treealg.classify.SupernaturalNumber, n: int) -> bool:
    if n < 1:
        return False
    for p, e in _factor(n).items():
        if self.exponent(p) < e:
            return False
    return True


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
) -> list[treealg.tower.ChainGrades]:
    """Every summand chain of one pair from its level, 1-based, down to
    the last graded level, with its grades: depth first over sorted
    images."""
    return [
        treealg.tower.ChainGrades(level, chain, tuple(grades[level - 1 + k][q] for k, q in enumerate(chain)))
        for chain in _chains_from(maps, level, pair, len(grades))
    ]


def all_chain_grades(
    levels: Sequence[DigraphAlgebra],
    maps: Sequence[RegularEmbedding],
    grades: Sequence[dict[Pair, int]],
) -> list[treealg.tower.ChainGrades]:
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


def tower_from_json(obj: Json, path: str = "tower") -> treealg.tower.Tower:
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
        return treealg.tower.Tower(levels, maps, rule)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def rule_to_json(rule: treealg.tower.Rule | None) -> Json:
    if rule is None:
        return None
    if isinstance(rule, treealg.tower.StandardRule):
        return {"kind": "standard", "m": rule.m}
    if isinstance(rule, treealg.tower.RefinementRule):
        return {"kind": "refinement", "l": rule.l}
    if isinstance(rule, treealg.tower.NestRule):
        return {"kind": "nest"}
    if isinstance(rule, treealg.tower.TreeRefinementRule):
        return {"kind": "tree-refinement", "tree": graph_to_json(rule.tree), "l": rule.l}
    raise FormatError(f"rule: unknown rule type {type(rule).__name__}")


def tower_to_json(t: treealg.tower.Tower) -> dict:
    return {
        "levels": [algebra_to_json(a) for a in t.levels],
        "maps": [embedding_to_json(e) for e in t.maps],
        "rule": rule_to_json(t.rule),
    }


def spec_to_json(spec: treealg.ampliation.TreeRefinementSpec) -> dict:
    doc: dict = {
        "base": graph_to_json(spec.base),
        "multiplicities": list(spec.multiplicities),
    }
    if spec.stationary is not None:
        doc["stationary"] = spec.stationary
    return doc


def vector_to_json(x: GraphCorrespondenceVector) -> dict:
    g = x.graph
    order = {v: k for k, v in enumerate(g.vertices)}
    amps = []
    for e in sorted(x.support, key=lambda e: (order[e[0]], order[e[1]])):
        a = x.amplitude(e)
        amps.append([e[0], e[1], a.real, a.imag])
    return {"graph": graph_to_json(g), "amplitudes": amps}


# treealg.correspondence

Path = tuple[str, tuple[Edge, ...]]
# A path is (range vertex, composable edge tuple); the empty tuple is the
# length-0 path sitting at its vertex.


def module_inner_product(
    x: GraphCorrespondenceVector, y: GraphCorrespondenceVector
) -> dict[str, complex]:
    """Per-vertex sums of conjugate(x)·y over edges with that source,
    in declaration order."""
    if x.graph != y.graph:
        raise GraphMismatch("inner product needs a common graph")
    g = x.graph
    out = {v: 0j for v in g.vertices}
    for e in ((s, t) for s in g.vertices for t in g.successors(s)):
        out[edge_source(e)] += x.amplitude(e).conjugate() * y.amplitude(e)
    return out


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


def vector_operator(fam: DenseFamily, x: GraphCorrespondenceVector) -> np.ndarray:
    """The dense matrix representing a vector: the sum of its amplitudes
    times the edge maps."""
    if x.graph != fam.graph:
        raise GraphMismatch("the vector lives on a different graph")
    import numpy as np

    out = np.zeros((fam.dimension, fam.dimension), dtype=np.complex128)
    for e, m in fam.edge_isometries.items():
        out += x.amplitude(e) * m
    return out


def build_ckt_family(g: DirectedGraph, cutoff: int = 4) -> DenseFamily:
    """Concrete integer matrices for the vertex/edge relation family.

    The space is spanned by the directed paths of length at most cutoff.
    A vertex projection keeps the paths ranging at its vertex; an edge
    map prepends its edge where composable and the result still fits.
    """
    if cutoff < 0:
        raise ValueError("the cutoff must be nonnegative")
    import numpy as np

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


def verify_ckt(fam: DenseFamily) -> treealg.correspondence.CKTReport:
    """Entrywise verification of the five relations of the family."""
    import numpy as np

    L = fam.vertex_projections
    T = fam.edge_isometries
    checks: dict[str, treealg.correspondence.RelationCheck] = {}

    r = 0
    for p in fam.graph.vertices:
        for q in fam.graph.vertices:
            if p != q:
                r = max(r, int(np.abs(L[p] @ L[q]).max(initial=0)))
    checks["orthogonal-vertices"] = treealg.correspondence.RelationCheck(r, r == 0)

    r = 0
    for e in T:
        for f in T:
            if e != f:
                r = max(r, int(np.abs(T[e].T @ T[f]).max(initial=0)))
    checks["orthogonal-edges"] = treealg.correspondence.RelationCheck(r, r == 0)

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
    checks["isometry"] = treealg.correspondence.RelationCheck(full, full == 0, note)
    checks["isometry-interior"] = treealg.correspondence.RelationCheck(interior, interior == 0)

    r = 0
    for e, m in T.items():
        excess = m @ m.T - L[edge_range(e)]
        r = max(r, int(excess.max(initial=0)))
    checks["range-domination"] = treealg.correspondence.RelationCheck(r, r <= 0)

    r = 0
    for p in fam.graph.vertices:
        total = np.zeros((fam.dimension, fam.dimension), dtype=np.int64)
        for e, m in T.items():
            if edge_range(e) == p:
                total = total + m @ m.T
        excess = total - L[p]
        r = max(r, int(excess.max(initial=0)))
    checks["summed-domination"] = treealg.correspondence.RelationCheck(r, r <= 0)

    return treealg.correspondence.CKTReport(checks)


# treealg.algebra

@dataclass(frozen=True)
class NonTreeTriple:
    """Units x, y, z with pairs (x, y) and (x, z) but y, z incomparable."""

    x: Unit
    y: Unit
    z: Unit

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Grading:
    """The coherent additive integer grading of an algebra's relation,
    held as one depth per unit: the grade of a pair (i, j) is
    depth[i] - depth[j].

    solve_grading is its only constructor, and its grades satisfy the
    laws by construction, so nothing is checked here.
    """

    algebra: DigraphAlgebra
    depth: tuple[int, ...]

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


# treealg.ampliation

@dataclass(frozen=True)
class TreeRefinementSpec:
    """An out-tree plus the multiplicity schedule of its tower.

    multiplicities lists the first steps explicitly; stationary, if given,
    repeats forever after they run out.
    """

    base: OutForest
    multiplicities: tuple[int, ...] = ()
    stationary: int | None = None

    def __post_init__(self) -> None:
        if not self.base.is_tree():
            raise NotATree("the base of a tree-refinement tower must be a tree")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if self.stationary is not None and self.stationary < 1:
            raise ValueError("the stationary multiplicity must be positive")
        if max((*self.multiplicities, self.stationary or 1)) > MAX_MULTIPLICITY:
            raise ValueError(f"multiplicities must be at most {MAX_MULTIPLICITY}")

    def multiplicity(self, step: int) -> int:
        """Multiplicity applied at step (0-based), or raise when exhausted."""
        if step < len(self.multiplicities):
            return self.multiplicities[step]
        if self.stationary is not None:
            return self.stationary
        raise ValueError(
            f"the multiplicity schedule ends after {len(self.multiplicities)} steps"
        )


# treealg.classify

@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Total-order-comparable encoding deciding weighted isomorphism."""

    data: tuple

    def __repr__(self) -> str:
        return f"CanonicalCode({self.data!r})"


@dataclass(frozen=True)
class SupernaturalNumber:
    """Prime exponents of a multiplicity product, some possibly infinite."""

    finite: tuple[tuple[int, int], ...]
    infinite: frozenset[int]

    def exponent(self, p: int) -> float:
        if p in self.infinite:
            return math.inf
        return dict(self.finite).get(p, 0)

    def divisible_by(self, n: int) -> bool:
        if n < 1:
            return False
        for p, e in _factor(n).items():
            if self.exponent(p) < e:
                return False
        return True

    def primes(self) -> frozenset[int]:
        return self.infinite | {p for p, _ in self.finite}

    def __repr__(self) -> str:
        parts = [f"{p}^inf" for p in sorted(self.infinite)]
        parts += [f"{p}^{e}" for p, e in self.finite]
        return "SupernaturalNumber(" + (" * ".join(parts) or "1") + ")"


@dataclass(frozen=True)
class Equivalent:
    verdict = "equivalent"
    ampliations: tuple[tuple[int, ...], tuple[int, ...]]
    bijection: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Distinct:
    verdict = "distinct"
    reason: str


@dataclass(frozen=True)
class Undetermined:
    verdict = "undetermined"
    bound: int


# treealg.correspondence

@dataclass(frozen=True)
class RelationCheck:
    residual: int
    exact: bool
    note: str = ""


@dataclass(frozen=True)
class CKTReport:
    """Per-relation residuals of a family, all entrywise integers.

    ok means the relations hold in the truncated sense: everything exact
    except possibly the isometry identity on maximal-length paths.
    exact means no truncation artifact at all.
    """

    checks: dict[str, RelationCheck]

    @property
    def ok(self) -> bool:
        return all(c.exact for name, c in self.checks.items() if name != "isometry")

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.checks.values())


@dataclass(frozen=True)
class NeatCheck:
    holds: bool
    norm_x: float
    norm_y: float
    norm_sum: float

    def __bool__(self) -> bool:
        return self.holds


# treealg.tower

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


@dataclass(eq=False, frozen=True)
class Decision:
    verdict: Verdict
    inspected_depth: int
    certificate: Certificate

