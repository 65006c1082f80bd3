"""JSON codecs for the interchange formats, plus graph text in JSON, DOT
and plain text.

One JSON dialect covers graphs, algebras, embeddings, towers, rules,
refinement specs and correspondence vectors.  Parsers raise FormatError
with a path prefix locating the offending field; encoders emit canonical
(sorted, deterministic) structures so identical values give identical
documents.  Towers, rules, specs and vectors are input only; reports
(decisions, classifications, relation checks) are output only.

A tower file is read straight into the forms the kernel works on.  Each
level's units become bits of its rows in one pass, with no pair tuples,
before the rows are closed.  An explicit map whose entries pair up the
copies of its units copy by copy becomes a translation embedding that
keeps only those copies; any other explicit map goes to the checked
RegularEmbedding constructor as a dict of image sets.  Each unit list,
target list and graph is read in one unpacking pass, which builds a
field's path only where its checks may fail.  The command line parses
and decodes with the cyclic garbage collector paused (cli._read): a
parsed document is a tree, so a collection during the pass frees
nothing.
"""

from __future__ import annotations

import math
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator

from .algebra import DigraphAlgebra, Pair, Unit
from .ampliation import TreeRefinementSpec
from .classify import ClassificationResult, Distinct, Equivalent, Undetermined
from .correspondence import CKTReport, GraphCorrespondenceVector
from .embeddings import RegularEmbedding, refinement_embedding, standard_embedding
from .embeddings import translation_embedding
from .errors import FormatError
from .graphs import DirectedGraph, Edge, OutForest
from .tower import (
    ChainGrades,
    Decision,
    ForestPresentation,
    GradeGrowthWitness,
    InconclusiveReport,
    LevelStructureWitness,
    NestRule,
    NestRuleWitness,
    RefinementRule,
    Rule,
    StandardRule,
    Tower,
    TreeRefinementRule,
)

Json = Any


def _fail(path: str, want: str, got: Json) -> FormatError:
    kind = type(got).__name__
    return FormatError(f"{path}: expected {want}, found {kind}")


def _as_dict(obj: Json, path: str) -> dict:
    if not isinstance(obj, dict):
        raise _fail(path, "an object", obj)
    return obj


def _as_list(obj: Json, path: str) -> list:
    if not isinstance(obj, list):
        raise _fail(path, "an array", obj)
    return obj


def _as_str(obj: Json, path: str) -> str:
    if not isinstance(obj, str):
        raise _fail(path, "a string", obj)
    return obj


def _as_int(obj: Json, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise _fail(path, "an integer", obj)
    return obj


def _get(obj: dict, key: str, path: str) -> Json:
    if key not in obj:
        raise FormatError(f"{path}: missing field {key!r}")
    return obj[key]


def _positive(obj: dict, key: str, path: str) -> int:
    value = _as_int(_get(obj, key, path), f"{path}.{key}")
    if value < 1:
        raise FormatError(f"{path}.{key}: expected a positive integer, found {value}")
    return value


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(g: DirectedGraph | OutForest) -> dict:
    graph = g.graph if isinstance(g, OutForest) else g
    verts: list[Json] = [
        {"id": v, "weight": graph.weight(v)} if graph.weight(v) else v
        for v in graph.vertices
    ]
    # Successors are stored in vertex order, so this lists the edges
    # sorted by (source, target) position.
    edges = [[s, t] for s in graph.vertices for t in graph.successors(s)]
    return {"vertices": verts, "edges": edges}


def graph_from_json(obj: Json, path: str = "graph") -> DirectedGraph:
    doc = _as_dict(obj, path)
    vertices: list[str] = []
    weights: dict[str, int] = {}
    # Each item's path is built only where its checks may fail.
    for k, item in enumerate(_as_list(_get(doc, "vertices", path), f"{path}.vertices")):
        if isinstance(item, str):
            vertices.append(item)
        elif isinstance(item, dict):
            vid, weight = item.get("id"), item.get("weight", 0)
            if type(vid) is not str or type(weight) is not int:
                vp = f"{path}.vertices[{k}]"
                _as_str(_get(item, "id", vp), f"{vp}.id"), _as_int(weight, f"{vp}.weight")
            vertices.append(vid)
            if "weight" in item:
                weights[vid] = weight
        else:
            raise _fail(f"{path}.vertices[{k}]", "a string or an {id, weight} object", item)
    edges: list[tuple[str, str]] = []
    for k, item in enumerate(_as_list(_get(doc, "edges", path), f"{path}.edges")):
        if type(item) is not list or len(item) != 2 or not (type(item[0]) is type(item[1]) is str):
            ep = f"{path}.edges[{k}]"
            if len(_as_list(item, ep)) != 2:
                raise FormatError(f"{ep}: an edge is a [source, range] pair")
            _as_str(item[0], f"{ep}[0]"), _as_str(item[1], f"{ep}[1]")
        edges.append((item[0], item[1]))
    try:
        return DirectedGraph(vertices, edges, weights)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def forest_from_json(obj: Json, path: str = "graph") -> OutForest:
    g = graph_from_json(obj, path)
    try:
        return OutForest(g)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# algebras


def _unit_from_json(obj: Json, path: str) -> Unit:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a unit is a [block, row] pair")
    return (_as_int(pair[0], f"{path}[0]"), _as_int(pair[1], f"{path}[1]"))


def _pair_to_json(p: Pair) -> list:
    return [list(p[0]), list(p[1])]


def _pair_from_json(obj: Json, path: str) -> Pair:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a matrix unit is a [[block,row],[block,col]] pair")
    return (_unit_from_json(pair[0], f"{path}[0]"), _unit_from_json(pair[1], f"{path}[1]"))


def algebra_to_json(a: DigraphAlgebra) -> dict:
    units = sorted(a.irreflexive_pairs())
    return {"blocks": list(a.blocks), "units": [_pair_to_json(p) for p in units]}


def algebra_from_json(obj: Json, path: str = "algebra") -> DigraphAlgebra:
    """Decode an algebra document in one pass over its units.

    Each unit [[b, i], [b, j]] sets bit j of row i of block b; the rows
    are then closed as from_generators closes them.  A unit of another
    shape raises at once.  Invalid block sizes, or the first unit out of
    range or pair across blocks, raise once the pass ends, so that a
    shape error anywhere is reported first.
    """
    doc = _as_dict(obj, path)
    blocks = [
        _as_int(b, f"{path}.blocks[{k}]")
        for k, b in enumerate(_as_list(_get(doc, "blocks", path), f"{path}.blocks"))
    ]
    try:
        bl, index, rows = DigraphAlgebra._rows_of(blocks, ())
    except ValueError:
        bl, index, rows = (), {}, []
    # Unit (b, r) has index start[b] + r.
    start, bad = [sum(bl[:b]) - 1 for b in range(len(bl))], []
    for p in (units := _as_list(doc.get("units", []), f"{path}.units")):
        try:
            (a, b), (c, e) = u, v = p
            ok = type(p) is type(u) is type(v) is list
        except (TypeError, ValueError):
            ok = False
        if not (ok and type(a) is type(b) is type(c) is type(e) is int):
            k = next(k for k, q in enumerate(units) if q is p)
            (a, b), (c, e) = _pair_from_json(p, f"{path}.units[{k}]")
        if a == c and 0 <= a < len(bl) and 0 < b <= bl[a] and 0 < e <= bl[a]:
            rows[start[a] + b] |= 1 << start[a] + e
        elif not bad:
            bad.append(((a, b), (c, e)))
    try:
        if bad or not bl:
            # Raises for the blocks or the pair as the algebra constructors do.
            DigraphAlgebra._rows_of(blocks, bad)
        return DigraphAlgebra._closed(bl, index, rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# embeddings


def embedding_to_json(e: RegularEmbedding) -> dict:
    image = [
        [_pair_to_json(p), [_pair_to_json(q) for q in sorted(e.of(p))]]
        for p in e.source.pairs()
    ]
    return {"kind": "explicit", "image": image}


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
    before it is built.  An explicit map that pairs up copies (_copywise)
    becomes a translation embedding and keeps only its copies; any other
    goes to the RegularEmbedding constructor as a dict of image sets.
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
        if (at := _copywise(raw, source, target)) is not None:
            try:
                return translation_embedding(source, at.__getitem__, target)
            except ValueError:
                pass
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


def _copywise(
    raw: list, source: DigraphAlgebra, target: DigraphAlgebra
) -> dict[int, list[int]] | None:
    """The rows of the copies of each source unit, when the explicit image
    raw pairs them up copy by copy; else None.

    Both algebras have one block, and every entry of raw is well formed.
    The copies of a unit are its diagonal entry's target rows, sorted.
    The entries list each source pair exactly once, and the image of
    (i, j) lists, in any order, the pairs of copy c of i with copy c of
    j, once each.  translation_embedding then checks the rest.
    """
    if len(source.blocks) != 1 or len(target.blocks) != 1:
        return None
    n = source.blocks[0]
    seen, diagonal = [0] * n, [[]] * n
    # Every shape is unpacked and then checked; one that does not unpack
    # raises TypeError, ValueError or LookupError.
    try:
        for entry in raw:
            src, targets = entry
            (a, i), (c, j) = u, v = src
            if not (type(entry) is type(src) is type(u) is type(v) is type(targets) is list):
                return None
            if not (type(a) is type(i) is type(c) is type(j) is int) or a or c:
                return None
            if not (0 < i <= n and 0 < j <= n) or seen[i - 1] >> j - 1 & 1:
                return None
            seen[i - 1] |= 1 << j - 1
            if i == j:
                diagonal[i - 1] = targets
        if tuple(seen) != source._rows:
            return None
        # The loop below checks every target, these diagonal ones too.
        m = len(diagonal[0])
        at = {i + 1: sorted(t[0][1] for t in d) for i, d in enumerate(diagonal)}
        # code[r] = i·m + c where target row r is copy c of source row i + 1.
        code = {r: i * m + c for i, rows in enumerate(at.values()) for c, r in enumerate(rows)}
        for ((_, i), (_, j)), targets in raw:
            if len(targets) != m:
                return None
            got = 0
            for t in targets:
                (a, b), (c, e) = u, v = t
                if not (type(t) is type(u) is type(v) is list):
                    return None
                if not (type(a) is type(b) is type(c) is type(e) is int) or a or c:
                    return None
                k = code.get(b, -1) - (i - 1) * m
                if not 0 <= k < m or code.get(e, -1) - (j - 1) * m != k:
                    return None
                got |= 1 << k
            if got != (1 << m) - 1:
                return None
    except (TypeError, ValueError, LookupError):
        return None
    return at


def _entry_from_json(obj: Json, path: str) -> list[Pair]:
    """An entry [source, [targets...]] as the list [source, targets...]."""
    entry = _as_list(obj, path)
    if len(entry) != 2:
        raise FormatError(f"{path}: an entry is [source-pair, [target-pairs]]")
    src = _pair_from_json(entry[0], f"{path}[0]")
    targets = _as_list(entry[1], f"{path}[1]")
    return [src] + [_pair_from_json(q, f"{path}[1][{k}]") for k, q in enumerate(targets)]


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


# ---------------------------------------------------------------------------
# rules and towers


def rule_from_json(obj: Json, path: str = "rule") -> Rule | None:
    if obj is None:
        return None
    doc = _as_dict(obj, path)
    kind = _as_str(_get(doc, "kind", path), f"{path}.kind")
    if kind == "standard":
        return StandardRule(_positive(doc, "m", path))
    if kind == "refinement":
        return RefinementRule(_positive(doc, "l", path))
    if kind == "nest":
        return NestRule()
    if kind == "tree-refinement":
        tree = forest_from_json(_get(doc, "tree", path), f"{path}.tree")
        return TreeRefinementRule(tree, _positive(doc, "l", path))
    raise FormatError(f"{path}.kind: unknown rule kind {kind!r}")


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


# ---------------------------------------------------------------------------
# refinement specs


def spec_from_json(obj: Json, path: str = "spec") -> TreeRefinementSpec:
    doc = _as_dict(obj, path)
    base = forest_from_json(_get(doc, "base", path), f"{path}.base")
    mults = [
        _as_int(m, f"{path}.multiplicities[{k}]")
        for k, m in enumerate(_as_list(doc.get("multiplicities", []), f"{path}.multiplicities"))
    ]
    stationary = None
    if doc.get("stationary") is not None:
        stationary = _as_int(doc["stationary"], f"{path}.stationary")
    try:
        return TreeRefinementSpec(base, tuple(mults), stationary)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# correspondence vectors


def vector_from_json(obj: Json, path: str = "vector") -> GraphCorrespondenceVector:
    doc = _as_dict(obj, path)
    g = graph_from_json(_get(doc, "graph", path), f"{path}.graph")
    amps: dict[tuple[str, str], complex] = {}
    for k, item in enumerate(_as_list(doc.get("amplitudes", []), f"{path}.amplitudes")):
        ap = f"{path}.amplitudes[{k}]"
        entry = _as_list(item, ap)
        if len(entry) not in (3, 4):
            raise FormatError(f"{ap}: an amplitude is [source, range, re] or [source, range, re, im]")
        s = _as_str(entry[0], f"{ap}[0]")
        t = _as_str(entry[1], f"{ap}[1]")
        parts = entry[2:]
        for j, c in enumerate(parts):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise _fail(f"{ap}[{j + 2}]", "a number", c)
            # json reads NaN and Infinity, and an integer past the float
            # range does not convert.
            try:
                finite = math.isfinite(c)
            except OverflowError:
                finite = False
            if not finite:
                raise _fail(f"{ap}[{j + 2}]", "a finite number", c)
        amps[(s, t)] = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    try:
        return GraphCorrespondenceVector(g, amps)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# reports (output only)


def _chain_grades_to_json(cg: ChainGrades) -> dict:
    return {
        "start-level": cg.start_level,
        "pairs": [_pair_to_json(p) for p in cg.pairs],
        "grades": list(cg.grades),
    }


def _certificate_to_json(cert: object) -> dict:
    if isinstance(cert, ForestPresentation):
        levels = []
        for lv in cert.levels:
            entry: dict = {
                "level": lv.level,
                "forest": graph_to_json(lv.forest),
                "algebra": algebra_to_json(lv.algebra),
            }
            if lv.embedding is not None:
                entry["embedding"] = embedding_to_json(lv.embedding)
            levels.append(entry)
        return {"kind": "forest-presentation", "levels": levels}
    if isinstance(cert, GradeGrowthWitness):
        return {
            "kind": "grade-growth",
            "level": cert.level,
            "chain": _chain_grades_to_json(cert.chain),
        }
    if isinstance(cert, NestRuleWitness):
        return {"kind": "nest-rule", "note": cert.note}
    if isinstance(cert, LevelStructureWitness):
        w = cert.witness
        return {
            "kind": "level-structure",
            "level": cert.level,
            "persisted": True,
            "witness": {
                "type": "incomparable-sources",
                "range": list(w.x),
                "sources": [list(w.y), list(w.z)],
            },
        }
    if isinstance(cert, InconclusiveReport):
        return {
            "kind": "inconclusive",
            "reason": cert.reason,
            "unsettled": [_chain_grades_to_json(cg) for cg in cert.unsettled],
        }
    return {"kind": type(cert).__name__}


def decision_to_json(d: Decision) -> dict:
    return {
        "verdict": d.verdict.value,
        "inspected-depth": d.inspected_depth,
        "certificate": _certificate_to_json(d.certificate),
    }


def classification_to_json(r: ClassificationResult) -> dict:
    if isinstance(r, Equivalent):
        return {
            "verdict": r.verdict,
            "witness": {
                "ampliations": [list(r.ampliations[0]), list(r.ampliations[1])],
                "vertex-bijection": [[a, b] for a, b in r.bijection],
            },
        }
    if isinstance(r, Distinct):
        return {"verdict": r.verdict, "reason": r.reason}
    if isinstance(r, Undetermined):
        return {"verdict": r.verdict, "bound": r.bound}
    raise FormatError(f"classification: unknown result type {type(r).__name__}")


def ckt_report_to_json(rep: CKTReport) -> dict:
    return {
        "ok": rep.ok,
        "exact": rep.exact,
        "relations": {
            name: {"residual": c.residual, "exact": c.exact, "note": c.note}
            for name, c in rep.checks.items()
        },
    }


# ---------------------------------------------------------------------------
# graph text: JSON, DOT and text

_PIECE = 256
# Vertices or edges per piece of graph text.


def _pieces(items: Iterable) -> Iterator[list]:
    """items in lists of at most _PIECE."""
    it = iter(items)
    return iter(lambda: list(islice(it, _PIECE)), [])


def _json_items(pieces: Iterable[list[str]]) -> Iterator[str]:
    """A JSON array of written items at the indent of a graph's fields."""
    lead = "[\n    "
    for piece in pieces:
        yield lead + ",\n    ".join(piece)
        lead = ",\n    "
    yield "[]" if lead == "[\n    " else "\n  ]"


def _json_graph(
    vertices: Iterable[str], weights: dict[str, int], edges: Iterable[Edge]
) -> Iterator[str]:
    # The layout of json.dumps(graph_to_json(g), indent=2), and a newline.
    if weights:
        vertices = (
            f'{{\n      "id": {v},\n      "weight": {weights[v]}\n    }}' if v in weights else v
            for v in vertices
        )
    yield '{\n  "vertices": '
    yield from _json_items(_pieces(vertices))
    yield ',\n  "edges": '
    yield from _json_items(
        [f"[\n      {s},\n      {t}\n    ]" for s, t in piece] for piece in _pieces(edges)
    )
    yield "\n}\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_graph(
    vertices: Iterable[str], weights: dict[str, int], edges: Iterable[Edge]
) -> Iterator[str]:
    yield "digraph G {\n"
    for piece in _pieces(vertices):
        # A weighted vertex is labelled "v (w)"; v is written quoted.
        yield "".join([
            f'  {v} [label={v[:-1]} ({weights[v]})"];\n' if v in weights else f"  {v};\n"
            for v in piece
        ])
    for piece in _pieces(edges):
        yield "".join([f"  {s} -> {t};\n" for s, t in piece])
    yield "}\n"


def _text_graph(
    vertices: Iterable[str], weights: dict[str, int], edges: Iterable[Edge]
) -> Iterator[str]:
    # One line of the vertices, a weighted one as "v (w)", then one line
    # per edge, sorted by name.
    lead = "vertices: "
    for piece in _pieces(vertices):
        yield lead + ", ".join([f"{v} ({weights[v]})" if v in weights else v for v in piece])
        lead = ", "
    yield "vertices: \n" if lead == "vertices: " else "\n"
    for piece in _pieces(sorted(edges)):
        yield "".join([f"  {s} -> {t}\n" for s, t in piece])


# Format -> (quote, write).  quote writes one name as the format does.
# write(vertices, weights, edges) gives the text of a graph in pieces of
# at most _PIECE vertices or edges: vertices are written names in order,
# weights maps a written name to its weight where that is not 0, and
# edges are pairs of written names, sorted by the positions of their
# sources and then of their targets.
GRAPH_FORMATS: dict[str, tuple[Callable[[str], str], Callable[..., Iterator[str]]]] = {
    "json": (encode_basestring_ascii, _json_graph),
    "dot": (_dot_quote, _dot_graph),
    "text": (str, _text_graph),
}


def _written(g: DirectedGraph | OutForest, quote: Callable[[str], str]):
    """The vertices, weights and edges of g for a writer of GRAPH_FORMATS,
    each name quoted once."""
    graph = g.graph if isinstance(g, OutForest) else g
    q = {v: quote(v) for v in graph.vertices}
    weights = {q[v]: w for v, w in graph.weights.items() if w}
    # Successors are stored in vertex order.
    edges = ((q[s], q[t]) for s in graph.vertices for t in graph.successors(s))
    return q.values(), weights, edges


def graph_text(g: DirectedGraph | OutForest, fmt: str) -> str:
    """g written in fmt, one of GRAPH_FORMATS."""
    quote, write = GRAPH_FORMATS[fmt]
    return "".join(write(*_written(g, quote)))


def graph_to_dot(g: DirectedGraph | OutForest) -> str:
    return graph_text(g, "dot")
