"""Span tracing installed from outside the program.

A span wraps one public callable of a treealg module at the binding its
callers use (the module attribute, or the class attribute for
constructors and class methods).  Each call records the span name, its
start and end, and the index of the span that was open when it began.
Spans stay in memory for the whole job and are summarized, and written
out, after the job returned.

A layer is a module; its name is the part of the span name before the
first dot.  Self time is a span's duration minus the durations of its
direct children, which nest inside it because a job runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path).  The span name starts with its
# layer.  Several targets may share one span name; their times add up.
TARGETS = [
    ("cli.main", "treealg.cli", "main"),
    ("formats.decode", "treealg.formats", "tower_from_json"),
    ("formats.decode", "treealg.formats", "forest_from_json"),
    ("formats.decode", "treealg.formats", "graph_from_json"),
    ("formats.decode", "treealg.formats", "spec_from_json"),
    ("formats.decode", "treealg.formats", "vector_from_json"),
    ("formats.encode", "treealg.formats", "decision_to_json"),
    ("formats.encode", "treealg.formats", "classification_to_json"),
    ("formats.encode", "treealg.formats", "ckt_report_to_json"),
    ("formats.encode", "treealg.formats", "graph_to_json"),
    ("formats.encode", "treealg.formats", "graph_to_dot"),
    ("algebra.DigraphAlgebra", "treealg.algebra", "DigraphAlgebra.__init__"),
    ("algebra.from_generators", "treealg.algebra", "DigraphAlgebra.from_generators"),
    ("algebra.from_graph", "treealg.algebra", "DigraphAlgebra.from_graph"),
    ("algebra.solve_grading", "treealg.algebra", "solve_grading"),
    ("algebra.Grading", "treealg.algebra", "Grading.__init__"),
    ("algebra.is_tree_semigroupoid", "treealg.algebra", "is_tree_semigroupoid"),
    ("algebra.covering_pairs", "treealg.algebra", "covering_pairs"),
    ("embeddings.RegularEmbedding", "treealg.embeddings", "RegularEmbedding.__init__"),
    ("embeddings.standard_embedding", "treealg.embeddings", "standard_embedding"),
    ("embeddings.refinement_embedding", "treealg.embeddings", "refinement_embedding"),
    ("tower.decide_tensor", "treealg.tower", "decide_tensor"),
    ("tower.materialize", "treealg.tower", "materialize"),
    ("tower.Tower", "treealg.tower", "Tower.__init__"),
    ("graphs.DirectedGraph", "treealg.graphs", "DirectedGraph.__init__"),
    ("graphs.OutForest", "treealg.graphs", "OutForest.__init__"),
    ("graphs.transitive_completion", "treealg.graphs", "transitive_completion"),
    ("graphs.recognize_out_forest", "treealg.graphs", "recognize_out_forest"),
    ("graphs.find_cycle", "treealg.graphs", "find_cycle"),
    ("ampliation.ampliate", "treealg.ampliation", "ampliate"),
    ("ampliation.refinement_between", "treealg.ampliation", "refinement_between"),
    ("classify.classify_tree_refinement", "treealg.classify", "classify_tree_refinement"),
    ("classify.trees_isomorphic", "treealg.classify", "trees_isomorphic"),
    ("classify.reduce", "treealg.classify", "reduce"),
    ("classify.canonical_code", "treealg.classify", "canonical_code"),
    ("classify.branching_skeleton", "treealg.classify", "branching_skeleton"),
    ("correspondence.build_ckt_family", "treealg.correspondence", "build_ckt_family"),
    ("correspondence.verify_ckt", "treealg.correspondence", "verify_ckt"),
]

LAYERS = ("cli", "formats", "algebra", "embeddings", "tower", "graphs",
          "ampliation", "classify", "correspondence")


def _count_algebra(c, args, result):
    c["algebra.relation_pairs"] += len(args[0].relation)


def _count_embedding(c, args, result):
    c["embeddings.image_pairs"] += sum(len(v) for v in args[0].image.values())


def _count_materialize(c, args, result):
    levels = result[0]
    c["tower.levels"] += len(levels)
    c["tower.max_units"] = max([c["tower.max_units"]] + [sum(a.blocks) for a in levels])


def _count_ampliate(c, args, result):
    c["ampliation.vertices_out"] += len(result.vertices)


def _count_family(c, args, result):
    c["correspondence.path_dim"] += result.dimension
    c["correspondence.edge_maps"] += len(result.edge_isometries)


def _count_classify(c, args, result):
    c["classify.equivalent"] += result.verdict == "equivalent"


# Counters read off arguments or results after the call returned.
COUNTERS = {
    "algebra.DigraphAlgebra": _count_algebra,
    "embeddings.RegularEmbedding": _count_embedding,
    "tower.materialize": _count_materialize,
    "ampliation.ampliate": _count_ampliate,
    "correspondence.build_ckt_family": _count_family,
    "classify.classify_tree_refinement": _count_classify,
}

COUNTER_NAMES = (
    "algebra.relation_pairs", "embeddings.image_pairs", "tower.levels",
    "tower.max_units", "ampliation.vertices_out", "correspondence.path_dim",
    "correspondence.edge_maps", "classify.candidates", "classify.equivalent",
)


class Tracer:
    """Spans and counters of one job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = COUNTERS.get(name)
        clock = time.perf_counter_ns
        candidate = name == "classify.trees_isomorphic"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if candidate and parent >= 0 and spans[parent][0] == "classify.classify_tree_refinement":
                counters["classify.candidates"] += 1
            record = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return span

    def install(self) -> None:
        """Replace every target at each binding that holds it.

        A target missing from its module (renamed or removed by a later
        change) is recorded in absent and skipped.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "treealg" or n.startswith("treealg.")]
        for name, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(member) if owner is not None and hasattr(owner, "__dict__") else None
            if raw is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            if owner_name:
                # Constructors and class methods live on the class, so one
                # replacement covers every caller.
                if isinstance(raw, classmethod):
                    setattr(owner, member, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, member, self.wrap(name, raw))
                continue
            wrapped = self.wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)

    def summary(self) -> dict:
        """Self time and calls per span name, plus the counters."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for k, (name, start, end, _) in enumerate(spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child[k])
            calls[name] = calls.get(name, 0) + 1
        return {
            "self_s": {n: v / 1e9 for n, v in self_ns.items()},
            "calls": calls,
            "counters": dict(self.counters),
            "spans": len(spans),
            "absent": self.absent,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
