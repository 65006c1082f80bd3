"""Command line front end.

Commands read JSON documents (see formats), run the library, and print
a report.  Exit codes are a contract: 0 carries a positive verdict
(yes, equivalent, isomorphic, relations pass), 1 a negative one, 2 an
inconclusive or undetermined one; 64 flags a usage error, 65 an
unreadable or ill-formed input, and 70 an internal error.  Identical
inputs give identical output; nothing here consults clocks.

The parser is built once, when the module is imported, from literals
alone, and it is the only module state; the import also parses one
literal command line per command, so that argparse has compiled its
patterns before the first call.  Each call parses into a fresh
namespace whose `run` is the command's handler; handlers read their
inputs and options from it by name.  Input files are read as bytes and
decoded as UTF-8 JSON.
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
from .errors import FormatError, TreealgError
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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # Newlines are translated as a text-mode read would, so error
        # positions count lines alike.
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # The one other ValueError of the decoder: an integer literal
        # longer than the interpreter converts.
        raise FormatError(f"{path}: {exc}") from exc
    return decode(doc, path)


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_string = json.encoder.encode_basestring_ascii


def _json_text(o, indent: str = "\n") -> str:
    """o as json.dumps(o, indent=2) writes it, without the pure-Python
    encoder that json selects for an indent.

    indent is the newline and indentation in front of o's closing
    bracket.  Values must have the exact types str, int, float, bool,
    None, list, tuple or dict, and dict keys must be strings; lists and
    tuples are written alike, and only floats go through json.
    """
    t = type(o)
    if t is str:
        return _string(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        deeper = inner + "  "
        items = []
        for x in o:
            if type(x) is str:
                items.append(_string(x))
            elif type(x) is list and len(x) == 2 and type(x[0]) is str and type(x[1]) is str:
                # Every edge is a pair of strings; writing pairs here saves
                # a call per edge.
                items.append(f"[{deeper}{_string(x[0])},{deeper}{_string(x[1])}{inner}]")
            else:
                items.append(_json_text(x, inner))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = [_string(k) + ": " + _json_text(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is int:
        return repr(o)
    if t is float:
        return json.dumps(o)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit_json(ns: argparse.Namespace, doc) -> None:
    _emit(ns, _json_text(doc) + "\n")


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
            f"  chain from level {ch.start_level} has grades "
            + ", ".join(str(g) for g in ch.grades)
        )
    elif isinstance(cert, NestRuleWitness):
        lines.append(f"certificate: nest rule ({cert.note})")
    elif isinstance(cert, LevelStructureWitness):
        lines.append(
            f"certificate: the level-{cert.level} relation is not a tree semigroupoid"
            " and the failure persists"
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
    _emit_graph(ns, ampliate(tree, ns.multiplicity, ns.steps))
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

# One valid command line per command, parsed at import and thrown away.
# argparse compiles the patterns that match arguments against options
# on the first parse that needs them; this moves that cost out of every
# call of a process that imports once and runs many calls.  Only the
# parser runs: no file is opened and no handler is called.
_WARM_ARGV = (
    ("check-tensor", "tower.json", "--depth", "1"),
    ("ampliate", "graph.json", "-l", "1"),
    ("classify", "first.json", "second.json", "--bound", "0"),
    ("reduce", "graph.json", "--format", "json"),
    ("iso", "first.json", "second.json", "--format", "json"),
    ("supernatural", "spec.json", "--format", "json"),
    ("verify-ckt", "graph.json", "--cutoff", "1"),
    ("norm", "vector.json", "--format", "json"),
    ("emit-dot", "graph.json", "--format", "dot"),
)
for _argv in _WARM_ARGV:
    _PARSER.parse_args(_argv)
del _argv


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
