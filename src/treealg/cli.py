"""Command line front end.

Commands read JSON documents (see formats), run the library, and print
a report.  Exit codes are a contract: 0 carries a positive verdict
(yes, equivalent, isomorphic, relations pass), 1 a negative one, 2 an
inconclusive or undetermined one; 64 flags a usage error, 65 an
unreadable or ill-formed input, and 70 an internal error.  Identical
inputs give identical output; nothing here consults clocks.

The parser is built once, when the module is imported, from literals
alone, and it is the only module state.  Each call parses into a fresh
namespace whose `run` is the command's handler; handlers read their
inputs and options from it by name.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .ampliation import ampliate
from .classify import (
    Distinct,
    Equivalent,
    SupernaturalNumber,
    Undetermined,
    classify_tree_refinement,
    reduce,
    spec_supernatural,
    trees_isomorphic,
)
from .correspondence import build_ckt_family, module_norm, verify_ckt
from .errors import FormatError, OutputTooLarge, TreealgError
from .graphs import OutForest
from .tower import (
    Decision,
    ForestPresentation,
    GradeGrowthWitness,
    InconclusiveReport,
    LevelStructureWitness,
    NestRuleWitness,
    Verdict,
    decide_tensor,
)

USAGE_ERROR = 64
DATA_ERROR = 65
INTERNAL_ERROR = 70

MAX_AMPLIATED_VERTICES = 250_000
# The most vertices `ampliate` builds over all its steps; step k of an
# n-vertex tree by l builds n·l^k of them.


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _integer(lower: int):
    """An argument type: an integer of at least lower, which is 0 or 1."""
    message = "must not be negative" if lower == 0 else f"must be at least {lower}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < lower:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treealg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run, fmt=("json", "text")) -> None:
        p.add_argument("--format", choices=fmt, default=None, dest="fmt")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.set_defaults(run=run)

    p = sub.add_parser("check-tensor", help="decide whether a tower presents a tensor algebra")
    p.add_argument("tower", help="tower JSON file")
    p.add_argument("--depth", type=_integer(1), default=4)
    common(p, cmd_check_tensor)

    p = sub.add_parser("ampliate", help="ampliate an out-tree under a multiplicity")
    p.add_argument("graph", help="graph JSON file holding an out-tree")
    p.add_argument("-l", "--multiplicity", type=_integer(1), required=True)
    p.add_argument("--steps", type=_integer(0), default=1,
                   help="how many times to apply the rule (0 echoes the input)")
    common(p, cmd_ampliate, fmt=("json", "text", "dot"))

    p = sub.add_parser("classify", help="compare two tree-refinement specs")
    p.add_argument("first", help="spec JSON file")
    p.add_argument("second", help="spec JSON file")
    p.add_argument("--bound", type=_integer(0), default=3, dest="ampliation_bound")
    common(p, cmd_classify)

    p = sub.add_parser("reduce", help="contract chains of an out-tree into weights")
    p.add_argument("graph", help="graph JSON file holding an out-tree")
    common(p, cmd_reduce, fmt=("json", "text", "dot"))

    p = sub.add_parser("iso", help="test two out-trees for weighted isomorphism")
    p.add_argument("first", help="graph JSON file")
    p.add_argument("second", help="graph JSON file")
    common(p, cmd_iso)

    p = sub.add_parser("supernatural", help="the supernatural number of a spec")
    p.add_argument("spec", help="spec JSON file")
    common(p, cmd_supernatural)

    p = sub.add_parser("verify-ckt", help="check the relations of a truncated isometry family")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--cutoff", type=_integer(1), default=4)
    common(p, cmd_verify_ckt)

    p = sub.add_parser("norm", help="the module norm of a correspondence vector")
    p.add_argument("vector", help="vector JSON file")
    common(p, cmd_norm)

    p = sub.add_parser("emit-dot", help="render a graph file as DOT text")
    p.add_argument("graph", help="graph JSON file")
    common(p, cmd_emit_dot, fmt=("dot",))

    return parser


def _read(decode, path: str):
    """Decode the JSON document in the file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return decode(doc, path)


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(ns: argparse.Namespace, doc) -> None:
    _emit(ns, json.dumps(doc, indent=2) + "\n")


def _emit_graph(ns: argparse.Namespace, g) -> None:
    if ns.fmt == "dot":
        _emit(ns, formats.graph_to_dot(g))
    elif ns.fmt == "text":
        graph = g.graph if isinstance(g, OutForest) else g
        lines = [f"vertices: {', '.join(graph.vertices)}"]
        for s, t in sorted(graph.edges):
            lines.append(f"  {s} -> {t}")
        _emit(ns, "\n".join(lines) + "\n")
    else:
        _emit_json(ns, formats.graph_to_json(g))


def _decision_text(d: Decision) -> str:
    lines = [f"verdict: {d.verdict.value}", f"inspected depth: {d.inspected_depth}"]
    cert = d.certificate
    if isinstance(cert, ForestPresentation):
        lines.append("certificate: forest presentation of the edge spaces")
        for lv in cert.levels:
            lines.append(
                f"  level {lv.level}: forest on {len(lv.forest.vertices)} vertices"
                f" with {len(lv.forest.edges)} edges"
            )
    elif isinstance(cert, GradeGrowthWitness):
        ch = cert.chain
        lines.append(f"certificate: grade growth across level {cert.level}")
        lines.append(
            f"  chain from level {ch.chain.start_level} has grades "
            + ", ".join(str(g) for g in ch.grades)
        )
    elif isinstance(cert, NestRuleWitness):
        lines.append(f"certificate: nest rule ({cert.note})")
    elif isinstance(cert, LevelStructureWitness):
        lines.append(
            f"certificate: the level-{cert.level} relation is not a tree semigroupoid"
            + (" and the failure persists" if cert.persisted else "")
        )
    elif isinstance(cert, InconclusiveReport):
        lines.append(f"reason: {cert.reason}")
        if cert.unsettled:
            lines.append(f"unsettled chains: {len(cert.unsettled)}")
    return "\n".join(lines) + "\n"


_VERDICT_EXIT = {Verdict.YES: 0, Verdict.NO: 1, Verdict.INCONCLUSIVE: 2}


def cmd_check_tensor(ns: argparse.Namespace) -> int:
    tower = _read(formats.tower_from_json, ns.tower)
    decision = decide_tensor(tower, depth=ns.depth)
    if ns.fmt == "json":
        _emit_json(ns, formats.decision_to_json(decision))
    else:
        _emit(ns, _decision_text(decision))
    return _VERDICT_EXIT[decision.verdict]


def cmd_ampliate(ns: argparse.Namespace) -> int:
    tree = _read(formats.forest_from_json, ns.graph)
    built, size = 0, len(tree.vertices)
    for _ in range(ns.steps):
        size *= ns.multiplicity
        built += size
        if built > MAX_AMPLIATED_VERTICES:
            raise OutputTooLarge(
                f"{ns.steps} ampliation steps by {ns.multiplicity} build more than"
                f" {MAX_AMPLIATED_VERTICES} vertices"
            )
    for _ in range(ns.steps):
        tree = ampliate(tree, ns.multiplicity)
    _emit_graph(ns, tree)
    return 0


def cmd_classify(ns: argparse.Namespace) -> int:
    a = _read(formats.spec_from_json, ns.first)
    b = _read(formats.spec_from_json, ns.second)
    result = classify_tree_refinement(a, b, ampliation_bound=ns.ampliation_bound)
    if ns.fmt == "json":
        _emit_json(ns, formats.classification_to_json(result))
    else:
        lines = [f"verdict: {result.verdict}"]
        if isinstance(result, Equivalent):
            first, second = result.ampliations
            lines.append(
                "ampliations: "
                f"[{', '.join(map(str, first))}] and [{', '.join(map(str, second))}]"
            )
            lines.append(
                "vertex bijection: "
                + ", ".join(f"{x} -> {y}" for x, y in result.bijection)
            )
        elif isinstance(result, Distinct):
            lines.append(f"reason: {result.reason}")
        elif isinstance(result, Undetermined):
            lines.append(f"search bound: {result.bound}")
        _emit(ns, "\n".join(lines) + "\n")
    return {"equivalent": 0, "distinct": 1, "undetermined": 2}[result.verdict]


def cmd_reduce(ns: argparse.Namespace) -> int:
    _emit_graph(ns, reduce(_read(formats.forest_from_json, ns.graph)))
    return 0


def cmd_iso(ns: argparse.Namespace) -> int:
    a = _read(formats.forest_from_json, ns.first)
    b = _read(formats.forest_from_json, ns.second)
    same = trees_isomorphic(a, b)
    if ns.fmt == "json":
        _emit_json(ns, {"isomorphic": same})
    else:
        _emit(ns, f"isomorphic: {'true' if same else 'false'}\n")
    return 0 if same else 1


def _supernatural_text(sn: SupernaturalNumber) -> str:
    parts = [f"{p}^{e}" for p, e in sorted(sn.finite)]
    parts += [f"{p}^inf" for p in sorted(sn.infinite)]
    return " * ".join(parts) if parts else "1"


def cmd_supernatural(ns: argparse.Namespace) -> int:
    spec = _read(formats.spec_from_json, ns.spec)
    sn = spec_supernatural(spec)
    if ns.fmt == "json":
        _emit_json(
            ns,
            {
                "finite": [[p, e] for p, e in sorted(sn.finite)],
                "infinite": sorted(sn.infinite),
            },
        )
    else:
        _emit(ns, _supernatural_text(sn) + "\n")
    return 0


def cmd_verify_ckt(ns: argparse.Namespace) -> int:
    g = _read(formats.graph_from_json, ns.graph)
    report = verify_ckt(build_ckt_family(g, cutoff=ns.cutoff))
    if ns.fmt == "json":
        _emit_json(ns, formats.ckt_report_to_json(report))
    else:
        lines = []
        for name, check in report.checks.items():
            state = "exact" if check.exact else f"residual {check.residual}"
            suffix = f" ({check.note})" if check.note else ""
            lines.append(f"{name}: {state}{suffix}")
        lines.append(f"ok: {'true' if report.ok else 'false'}")
        _emit(ns, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_norm(ns: argparse.Namespace) -> int:
    x = _read(formats.vector_from_json, ns.vector)
    value = module_norm(x)
    if ns.fmt == "json":
        _emit_json(ns, {"norm": value})
    else:
        _emit(ns, f"{value!r}\n")
    return 0


def cmd_emit_dot(ns: argparse.Namespace) -> int:
    g = _read(formats.graph_from_json, ns.graph)
    _emit(ns, formats.graph_to_dot(g))
    return 0


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except (TreealgError, OSError) as exc:
        print(f"treealg: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:
        # Exit 1 means "no", so a crash must not end with it.
        print(f"treealg: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
