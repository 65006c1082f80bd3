"""JSON codecs for the interchange formats, plus DOT emission.

One JSON dialect covers graphs, algebras, embeddings, towers, rules,
refinement specs and correspondence vectors.  Parsers raise FormatError
with a path prefix locating the offending field; encoders emit canonical
(sorted, deterministic) structures so identical values give identical
documents.  Reports (decisions, classifications, relation checks) are
output only.
"""

from __future__ import annotations

import math
from typing import Any

from .algebra import DigraphAlgebra, Pair, Unit
from .ampliation import TreeRefinementSpec
from .classify import ClassificationResult, Distinct, Equivalent, Undetermined
from .correspondence import CKTReport, GraphCorrespondenceVector
from .embeddings import RegularEmbedding, refinement_embedding, standard_embedding
from .errors import FormatError
from .graphs import DirectedGraph, OutForest
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
    order = {v: k for k, v in enumerate(graph.vertices)}
    verts: list[Json] = [
        {"id": v, "weight": graph.weight(v)} if graph.weight(v) else v
        for v in graph.vertices
    ]
    edges = sorted(graph.edges, key=lambda e: (order[e[0]], order[e[1]]))
    return {"vertices": verts, "edges": [[s, t] for s, t in edges]}


def graph_from_json(obj: Json, path: str = "graph") -> DirectedGraph:
    doc = _as_dict(obj, path)
    vertices: list[str] = []
    weights: dict[str, int] = {}
    for k, item in enumerate(_as_list(_get(doc, "vertices", path), f"{path}.vertices")):
        vp = f"{path}.vertices[{k}]"
        if isinstance(item, str):
            vertices.append(item)
        elif isinstance(item, dict):
            vid = _as_str(_get(item, "id", vp), f"{vp}.id")
            vertices.append(vid)
            if "weight" in item:
                weights[vid] = _as_int(item["weight"], f"{vp}.weight")
        else:
            raise _fail(vp, "a string or an {id, weight} object", item)
    edges: list[tuple[str, str]] = []
    for k, item in enumerate(_as_list(_get(doc, "edges", path), f"{path}.edges")):
        ep = f"{path}.edges[{k}]"
        pair = _as_list(item, ep)
        if len(pair) != 2:
            raise FormatError(f"{ep}: an edge is a [source, range] pair")
        edges.append((_as_str(pair[0], f"{ep}[0]"), _as_str(pair[1], f"{ep}[1]")))
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


def _unit_to_json(u: Unit) -> list:
    return [u[0], u[1]]


def _unit_from_json(obj: Json, path: str) -> Unit:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a unit is a [block, row] pair")
    return (_as_int(pair[0], f"{path}[0]"), _as_int(pair[1], f"{path}[1]"))


def _pair_to_json(p: Pair) -> list:
    return [_unit_to_json(p[0]), _unit_to_json(p[1])]


def _pair_from_json(obj: Json, path: str) -> Pair:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise FormatError(f"{path}: a matrix unit is a [[block,row],[block,col]] pair")
    return (_unit_from_json(pair[0], f"{path}[0]"), _unit_from_json(pair[1], f"{path}[1]"))


def algebra_to_json(a: DigraphAlgebra) -> dict:
    units = sorted(a.irreflexive_pairs())
    return {"blocks": list(a.blocks), "units": [_pair_to_json(p) for p in units]}


def algebra_from_json(obj: Json, path: str = "algebra") -> DigraphAlgebra:
    doc = _as_dict(obj, path)
    blocks = [
        _as_int(b, f"{path}.blocks[{k}]")
        for k, b in enumerate(_as_list(_get(doc, "blocks", path), f"{path}.blocks"))
    ]
    units = [
        _pair_from_json(item, f"{path}.units[{k}]")
        for k, item in enumerate(_as_list(doc.get("units", []), f"{path}.units"))
    ]
    try:
        return DigraphAlgebra.from_generators(blocks, units)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# embeddings


def embedding_to_json(e: RegularEmbedding) -> dict:
    image = [
        [_pair_to_json(p), [_pair_to_json(q) for q in sorted(e.of(p))]]
        for p in sorted(e.source.relation)
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
    tower files supply them from the surrounding levels.
    """
    doc = _as_dict(obj, path)
    kind = _as_str(_get(doc, "kind", path), f"{path}.kind")
    if kind == "standard":
        return standard_embedding(_positive(doc, "n", path), _positive(doc, "m", path))
    if kind == "refinement":
        return refinement_embedding(_positive(doc, "n", path), _positive(doc, "l", path))
    if kind == "explicit":
        if source is None or target is None:
            raise FormatError(
                f"{path}: explicit embeddings need surrounding source and target algebras"
            )
        image: dict[Pair, list[Pair]] = {}
        for k, item in enumerate(_as_list(_get(doc, "image", path), f"{path}.image")):
            ip = f"{path}.image[{k}]"
            entry = _as_list(item, ip)
            if len(entry) != 2:
                raise FormatError(f"{ip}: an entry is [source-pair, [target-pairs]]")
            src = _pair_from_json(entry[0], f"{ip}[0]")
            tgts = [
                _pair_from_json(t, f"{ip}[1][{j}]")
                for j, t in enumerate(_as_list(entry[1], f"{ip}[1]"))
            ]
            image[src] = tgts
        try:
            return RegularEmbedding(source, target, _complete_diagonal(source, image))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    raise FormatError(f"{path}.kind: unknown embedding kind {kind!r}")


def _complete_diagonal(
    source: DigraphAlgebra, image: dict[Pair, list[Pair]]
) -> dict[Pair, list[Pair]]:
    """Fill implied reflexive entries from the off-diagonal ones."""
    out = dict(image)
    for i, j in source.relation:
        if (i, j) in out:
            continue
        if i != j:
            continue
        seen: set[Pair] = set()
        for (a, b), tgts in image.items():
            if a == i:
                seen.update((p, p) for p, _ in tgts)
            if b == i:
                seen.update((q, q) for _, q in tgts)
        if seen:
            out[(i, i)] = sorted(seen)
    return out


# ---------------------------------------------------------------------------
# rules and towers


def rule_to_json(rule: Rule | None) -> Json:
    if rule is None:
        return None
    if isinstance(rule, StandardRule):
        return {"kind": "standard", "m": rule.m}
    if isinstance(rule, RefinementRule):
        return {"kind": "refinement", "l": rule.l}
    if isinstance(rule, NestRule):
        return {"kind": "nest"}
    if isinstance(rule, TreeRefinementRule):
        return {"kind": "tree-refinement", "tree": graph_to_json(rule.tree), "l": rule.l}
    raise FormatError(f"rule: unknown rule type {type(rule).__name__}")


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


def tower_to_json(t: Tower) -> dict:
    return {
        "levels": [algebra_to_json(a) for a in t.levels],
        "maps": [embedding_to_json(e) for e in t.maps],
        "rule": rule_to_json(t.rule),
    }


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


def spec_to_json(spec: TreeRefinementSpec) -> dict:
    doc: dict = {
        "base": graph_to_json(spec.base),
        "multiplicities": list(spec.multiplicities),
    }
    if spec.stationary is not None:
        doc["stationary"] = spec.stationary
    return doc


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


def vector_to_json(x: GraphCorrespondenceVector) -> dict:
    g = x.graph
    order = {v: k for k, v in enumerate(g.vertices)}
    amps = []
    for e in sorted(x.support, key=lambda e: (order[e[0]], order[e[1]])):
        a = x.amplitude(e)
        amps.append([e[0], e[1], a.real, a.imag])
    return {"graph": graph_to_json(g), "amplitudes": amps}


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
        "start-level": cg.chain.start_level,
        "pairs": [_pair_to_json(p) for p in cg.chain.pairs],
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
            "persisted": cert.persisted,
            "witness": {
                "type": "incomparable-sources",
                "range": _unit_to_json(w.x),
                "sources": [_unit_to_json(w.y), _unit_to_json(w.z)],
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
# DOT


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: DirectedGraph | OutForest, name: str = "G") -> str:
    graph = g.graph if isinstance(g, OutForest) else g
    order = {v: k for k, v in enumerate(graph.vertices)}
    lines = [f"digraph {_dot_quote(name)[1:-1]} {{"]
    for v in graph.vertices:
        w = graph.weight(v)
        label = f" [label={_dot_quote(f'{v} ({w})')}]" if w else ""
        lines.append(f"  {_dot_quote(v)}{label};")
    for s, t in sorted(graph.edges, key=lambda e: (order[e[0]], order[e[1]])):
        lines.append(f"  {_dot_quote(s)} -> {_dot_quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
