"""Command line front end.

Commands read JSON documents (see formats), run the library, and print
a report.  Exit codes are a contract: 0 carries a positive verdict
(yes, equivalent, isomorphic, relations pass), 1 a negative one, 2 an
inconclusive or undetermined one; 64 flags a usage error, 65 an
unreadable or ill-formed input, and 70 an internal error.  Identical
inputs give identical output; nothing here consults clocks.

The table _COMMANDS states the grammar once: each command's help text,
positionals, options, --format choices and handler.  It is the only
module state.  A call whose arguments have the form every real call has
(see _direct) is parsed straight from it.  Any other call, and so every
usage error and help text, goes to an argparse parser that build_parser
makes from the table for that call alone; only then is argparse
imported.  Each call parses into a fresh namespace whose `run` is the
command's handler; handlers read their inputs and options from it by
name.  An --out that is empty or lies in no existing directory is
refused before any input is read.  Input files are read as bytes and
decoded as UTF-8 JSON.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
from itertools import chain
from types import SimpleNamespace
from typing import Iterable

from . import formats
from .ampliation import ampliation_chains, check_ampliation
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


def _check_out(path: str) -> None:
    """Raise the error that opening path for writing raises when path is
    empty or its directory cannot be reached or is no directory, so that
    such an --out fails before any input is read; no file is created."""
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or os.curdir).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        # open names the whole path, whichever component failed.
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(ns: SimpleNamespace, text: str | Iterable[str]) -> None:
    """Write text, one string or its pieces in order, to --out or stdout."""
    pieces = (text,) if type(text) is str else text
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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


def _emit_json(ns: SimpleNamespace, doc) -> None:
    _emit(ns, _json_text(doc) + "\n")


def _emit_graph(ns: SimpleNamespace, g: OutForest) -> None:
    _emit(ns, formats.graph_text(g, ns.fmt or "json"))


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


def cmd_check_tensor(ns: SimpleNamespace) -> int:
    tower = _read(formats.tower_from_json, ns.tower)
    decision = decide_tensor(tower, depth=ns.depth)
    if ns.fmt == "json":
        _emit_json(ns, formats.decision_to_json(decision))
    else:
        _emit(ns, _decision_text(decision))
    return _VERDICT_EXIT[decision.verdict]


def cmd_ampliate(ns: SimpleNamespace) -> int:
    tree = _read(formats.forest_from_json, ns.graph)
    l, steps = ns.multiplicity, ns.steps
    check_ampliation(tree, l, steps)
    if steps == 0:
        _emit_graph(ns, tree)
        return 0
    # Written chain by chain from the closed form: all vertices, then all
    # edges, in pieces, with no forest and no whole text held.
    quote, write = formats.GRAPH_FORMATS[ns.fmt or "json"]
    vertices = chain.from_iterable(names for names, _ in ampliation_chains(tree, l, steps, quote))
    edges = chain.from_iterable(edges for _, edges in ampliation_chains(tree, l, steps, quote))
    _emit(ns, write(vertices, {}, edges))
    return 0


def cmd_classify(ns: SimpleNamespace) -> int:
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


def cmd_reduce(ns: SimpleNamespace) -> int:
    _emit_graph(ns, reduce(_read(formats.forest_from_json, ns.graph)))
    return 0


def cmd_iso(ns: SimpleNamespace) -> int:
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


def cmd_supernatural(ns: SimpleNamespace) -> int:
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


def cmd_verify_ckt(ns: SimpleNamespace) -> int:
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


def cmd_norm(ns: SimpleNamespace) -> int:
    x = _read(formats.vector_from_json, ns.vector)
    value = module_norm(x)
    if ns.fmt == "json":
        _emit_json(ns, {"norm": value})
    else:
        _emit(ns, f"{value!r}\n")
    return 0


def cmd_emit_dot(ns: SimpleNamespace) -> int:
    g = _read(formats.graph_from_json, ns.graph)
    _emit(ns, formats.graph_to_dot(g))
    return 0


# The grammar, stated once: command -> (help, handler, --format choices,
# positionals, options), with commands, positionals and options in the
# order help lists them.  A positional is (dest, help).  An option is
# (flags, dest, kind, default, required, help), where kind is the least
# integer the option takes, the tuple of its choices, or None for any
# string.
_COMMANDS = {
    "check-tensor": ("decide whether a tower presents a tensor algebra", cmd_check_tensor,
                     ("json", "text"), [("tower", "tower JSON file")],
                     [(("--depth",), "depth", 1, 4, False, None)]),
    "ampliate": ("ampliate an out-tree under a multiplicity", cmd_ampliate,
                 ("json", "text", "dot"), [("graph", "graph JSON file holding an out-tree")],
                 [(("-l", "--multiplicity"), "multiplicity", 1, None, True, None),
                  (("--steps",), "steps", 0, 1, False,
                   "how many times to apply the rule (0 echoes the input)")]),
    "classify": ("compare two tree-refinement specs", cmd_classify,
                 ("json", "text"), [("first", "spec JSON file"), ("second", "spec JSON file")],
                 [(("--bound",), "ampliation_bound", 0, 3, False, None)]),
    "reduce": ("contract chains of an out-tree into weights", cmd_reduce,
               ("json", "text", "dot"), [("graph", "graph JSON file holding an out-tree")], []),
    "iso": ("test two out-trees for weighted isomorphism", cmd_iso,
            ("json", "text"), [("first", "graph JSON file"), ("second", "graph JSON file")], []),
    "supernatural": ("the supernatural number of a spec", cmd_supernatural,
                     ("json", "text"), [("spec", "spec JSON file")], []),
    "verify-ckt": ("check the relations of a truncated isometry family", cmd_verify_ckt,
                   ("json", "text"), [("graph", "graph JSON file")],
                   [(("--cutoff",), "cutoff", 1, 4, False, None)]),
    "norm": ("the module norm of a correspondence vector", cmd_norm,
             ("json", "text"), [("vector", "vector JSON file")], []),
    "emit-dot": ("render a graph file as DOT text", cmd_emit_dot,
                 ("dot",), [("graph", "graph JSON file")], []),
}


def _options(choices: tuple, own: list) -> list:
    """A command's options: its own, then --format and --out, which
    every command takes."""
    return [*own, (("--format",), "fmt", choices, None, False, None),
            (("--out",), "out", None, None, False, "write the report here instead of stdout")]


def build_parser():
    """The argparse parser of the table, for the calls _direct declines:
    it words help and usage errors, and parses unusual spellings."""
    import argparse

    def integer(lower: int):
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

    parser = argparse.ArgumentParser(prog="treealg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, run, choices, positionals, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        for flags, dest, kind, default, required, text in _options(choices, own):
            p.add_argument(*flags, dest=dest, default=default, required=required, help=text,
                           type=integer(kind) if type(kind) is int else None,
                           choices=kind if type(kind) is tuple else None)
        p.set_defaults(run=run)
    return parser


def _direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) builds, for an argv
    of the one form every real call has: a command, that command's
    positionals, then pairs of an exact option string and a value, where
    no positional or value starts with "-".  Each value must be of its
    option's kind, and every required option must be given.

    Any other argv gives None and is left to argparse: abbreviations,
    "--depth=3", "-l5", "--", "-", help, options before positionals, and
    every bad, missing or extra argument.  So argparse words every usage
    error and help text, and a well-formed call neither builds nor runs
    a parser.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, run, choices, positionals, own = entry
    options = _options(choices, own)
    n = len(positionals) + 1
    if len(argv) < n or (len(argv) - n) % 2:
        return None
    values = {dest: default for _, dest, _, default, required, _ in options if not required}
    values.update(command=argv[0], run=run)
    for (dest, _), text in zip(positionals, argv[1:n]):
        if text.startswith("-"):
            return None
        values[dest] = text
    for flag, text in zip(argv[n::2], argv[n + 1::2]):
        option = next((o for o in options if flag in o[0]), None)
        if option is None or text.startswith("-"):
            return None
        _, dest, kind, _, _, _ = option
        value = text
        if type(kind) is int:
            try:
                value = int(text)
            except ValueError:
                return None
            if value < kind:
                return None
        elif kind is not None and text not in kind:
            return None
        values[dest] = value
    if any(required and dest not in values for _, dest, _, _, required, _ in options):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _direct(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            # argparse exits 2 on a usage error, after writing the usage
            # and the error to stderr.
            return USAGE_ERROR if exc.code == 2 else int(exc.code or 0)
    try:
        if ns.out is not None:
            _check_out(ns.out)
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
