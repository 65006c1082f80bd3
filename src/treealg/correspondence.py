"""Numerics for finite graph correspondences.

Vectors live on the edge set of a fixed graph; the module inner product
collects conjugated products of amplitudes at each source vertex and the
norm takes the largest per-vertex square root.  For an edge written
(u, v), u is the range and v the source, matching the matrix-unit
convention where the unit of a pair acts from its source column to its
range row.

verify_ckt reports on the family that realizes a graph on the space of
its directed paths of length at most a cutoff.  A path ranges at the
range of its first edge, or at its vertex if it has no edge.  The vertex
projection L_v keeps the paths ranging at v.  The edge map T_e sends a
path p ranging at the source of e and shorter than the cutoff to e·p, the
path with e prepended, and every other path to 0.  Every operator is a
0/1 matrix, and a residual is the largest entry of the difference of the
two sides of a relation, or for a domination of its excess.  Five of the
six hold by construction:

* orthogonal vertices, L_p L_q = 0 for p != q: a path has one range vertex;
* orthogonal edges, T_e* T_f = 0 for e != f: its entry at (p, q) is 1
  exactly when e·p = f·q, and a path has one first edge;
* isometry on the interior, T_e* T_e = L_s, s the source of e, on the
  paths shorter than the cutoff: T_e is injective, so T_e* T_e projects
  onto its domain, and the domain holds every such path ranging at s;
* range domination, T_e T_e* <= L_r, r the range of e: T_e T_e* projects
  onto the paths whose first edge is e, and they range at r;
* summed domination, the sum of T_e T_e* over the edges e ranging at v
  is at most L_v: those projections have disjoint ranges, by the second
  point, so their sum projects onto paths that range at v.

The isometry T_e* T_e = L_s itself fails exactly on the paths of length
cutoff ranging at s, with residual 1.  With e prepended, such a path is
a walk of cutoff + 1 edges, and every such walk is one.  So the isometry
residual is 1 when the graph has a walk of cutoff + 1 edges and 0
otherwise, and the report is ok on every graph.  No path is enumerated:
one walk count, O(|E|) per length, decides it.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import GraphMismatch, OutputTooLarge, PreconditionViolated
from .graphs import DirectedGraph
from .records import Record

Edge = tuple[str, str]


def edge_range(e: Edge) -> str:
    return e[0]


def edge_source(e: Edge) -> str:
    return e[1]


class GraphCorrespondenceVector:
    """Complex amplitudes supported on the edges of one graph."""

    __slots__ = ("_graph", "_amp")

    def __init__(
        self, graph: DirectedGraph, amplitudes: Mapping[Edge, complex] | None = None
    ) -> None:
        amp = {}
        for e, a in (amplitudes or {}).items():
            if not graph.has_edge(*e):
                raise ValueError(f"amplitude on undeclared edge {e}")
            amp[e] = complex(a)
        self._graph = graph
        self._amp = amp

    @property
    def graph(self) -> DirectedGraph:
        return self._graph

    def amplitude(self, e: Edge) -> complex:
        return self._amp.get(e, 0j)

    @property
    def support(self) -> frozenset[Edge]:
        return frozenset(e for e, a in self._amp.items() if a != 0)

    def __add__(self, other: "GraphCorrespondenceVector") -> "GraphCorrespondenceVector":
        if not isinstance(other, GraphCorrespondenceVector):
            return NotImplemented
        if self._graph != other._graph:
            raise GraphMismatch("vectors live on different graphs")
        amp = dict(self._amp)
        for e, a in other._amp.items():
            amp[e] = amp.get(e, 0j) + a
        return GraphCorrespondenceVector(self._graph, amp)

    def __repr__(self) -> str:
        return f"GraphCorrespondenceVector({len(self.support)} supported edges)"


def module_norm(x: GraphCorrespondenceVector) -> float:
    """Largest per-vertex square root of the self inner product.

    Amplitudes are scaled by 2^-k, 2^k the power of two of their largest
    real or imaginary part, before they are squared, and the root by 2^k
    after, so no square overflows or underflows; scaling by a power of
    two is exact.  Each vertex's squares are summed with math.fsum, whose
    result does not depend on the order of the edges, which follows
    string hashing.
    """
    amps = [x.amplitude(e) for e in x.graph.edges]
    top = max((max(abs(a.real), abs(a.imag)) for a in amps), default=0.0)
    if not top:
        return 0.0
    k = math.frexp(top)[1]
    squares = {v: [] for v in x.graph.vertices}
    for e, a in zip(x.graph.edges, amps):
        a = complex(math.ldexp(a.real, -k), math.ldexp(a.imag, -k))
        squares[edge_source(e)].append((a.conjugate() * a).real)
    return math.ldexp(math.sqrt(max(map(math.fsum, squares.values()))), k)


MAX_FAMILY_ENTRIES = 2_000_000
# The most entries a path family may hold: dim·(|V| + |E|) mask and map
# entries, dim the number of paths, plus the edges of the paths.  No family
# is built, but verify_ckt still refuses a cutoff whose family is larger.


class RelationCheck(Record, defaults=("",)):
    __slots__ = ("residual", "exact", "note")


class CKTReport(Record):
    """Per-relation residuals of a family, all entrywise integers.

    ok means the relations hold in the truncated sense: everything exact
    except possibly the isometry identity on maximal-length paths.
    exact means no truncation artifact at all.
    """

    __slots__ = ("checks",)

    @property
    def ok(self) -> bool:
        return all(c.exact for name, c in self.checks.items() if name != "isometry")

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.checks.values())


def verify_ckt(g: DirectedGraph, cutoff: int = 4) -> CKTReport:
    """The residuals of the five relations of the path family of g at
    cutoff, in closed form (see the module docstring for the proof).

    Raises OutputTooLarge when the family would hold more than
    MAX_FAMILY_ENTRIES entries.  Paths are counted by tail vertex up to
    length cutoff + 1, and the count stops at the first length with no
    path, so a graph without cycles costs at most its longest path.
    """
    if cutoff < 0:
        raise ValueError("the cutoff must be nonnegative")
    width = len(g.vertices) + len(g.edges)
    walks = dict.fromkeys(g.vertices, 1)
    dim, held = len(g.vertices), 0
    for length in range(1, cutoff + 2):
        if dim * width + held > MAX_FAMILY_ENTRIES:
            raise OutputTooLarge(
                f"the path space at cutoff {cutoff} needs more than"
                f" {MAX_FAMILY_ENTRIES} stored entries"
            )
        nxt = dict.fromkeys(g.vertices, 0)
        for e in g.edges:
            nxt[edge_source(e)] += walks[edge_range(e)]
        count = sum(nxt.values())
        if count == 0 or length > cutoff:
            break
        dim += count
        held += length * count
        walks = nxt
    longer = count > 0
    exact = RelationCheck(0, True)
    note = "restricted to paths shorter than the cutoff" if longer else ""
    return CKTReport({
        "orthogonal-vertices": exact,
        "orthogonal-edges": exact,
        "isometry": RelationCheck(int(longer), not longer, note),
        "isometry-interior": exact,
        "range-domination": exact,
        "summed-domination": exact,
    })


class NeatCheck(Record):
    __slots__ = ("holds", "norm_x", "norm_y", "norm_sum")

    def __bool__(self) -> bool:
        return self.holds


def check_neat_inequality(
    x: GraphCorrespondenceVector,
    y: GraphCorrespondenceVector,
    d: Mapping[str, float],
    tol: float = 1e-12,
) -> NeatCheck:
    """Ultrametric norm bound for vectors separated by a contraction.

    d must be a [0,1]-valued vertex function acting on the right by
    (f·d)(e) = f(e)·d(source(e)), with x·d = x and y·d = 0.  Under that
    separation the sum's norm never exceeds the larger summand norm.
    """
    if x.graph != y.graph:
        raise GraphMismatch("the vectors live on different graphs")
    g = x.graph
    for v in g.vertices:
        val = d.get(v, 0.0)
        if not math.isfinite(val) or val < -tol or val > 1 + tol:
            raise PreconditionViolated(f"d({v!r}) = {val} is not in [0, 1]")
    for e in ((s, t) for s in g.vertices for t in g.successors(s)):
        dv = d.get(edge_source(e), 0.0)
        if abs(x.amplitude(e)) * abs(1 - dv) > tol:
            raise PreconditionViolated(f"x is not fixed by d at edge {e}")
        if abs(y.amplitude(e)) * abs(dv) > tol:
            raise PreconditionViolated(f"y is not annihilated by d at edge {e}")
    nx = module_norm(x)
    ny = module_norm(y)
    ns = module_norm(x + y)
    return NeatCheck(ns <= max(nx, ny) + tol, nx, ny, ns)
