"""Numerics for finite graph correspondences.

Vectors live on the edge set of a fixed graph; the module inner product
collects conjugated products of amplitudes at each source vertex and the
norm takes the largest per-vertex square root.  For an edge written
(u, v), u is the range and v the source, matching the matrix-unit
convention where the unit of a pair acts from its source column to its
range row.

The partial-isometry family realizes the five vertex/edge relations on
the space of directed paths up to a length cutoff.  Its operators have
integer entries, so relation checks are exact; the only truncation
artifact is the isometry identity on paths of maximal length, which the
verification report tracks separately.

Representation.  With dim paths, a vertex projection is a bytearray
holding 1 on the paths ranging at the vertex and 0 elsewhere, and an
edge map a partial injection on path indices: an array('q') of length
dim holding the index of each path with the edge prepended, or -1 where
that is undefined.  verify_ckt reads the largest entry of every matrix
product a relation involves off these, so no dim x dim matrix is formed.
Set operations run on masks read as ints with one bit per byte; edge
map domains come from the high byte of each entry and destinations from
itertools.compress over them, all at C speed:

* orthogonal vertices: the masks overlap, O(|V|·dim);
* orthogonal edges: a path lies in the ranges of two edges, a set union
  of the destinations, O(|E|·dim), where the products T_e* T_f would be
  |E|^2 dense products;
* isometry and its interior part: each edge's domain XOR the mask of
  its source, O(|E|·dim);
* range and summed domination: per-destination counts against the mask
  of the range vertex, summed per range vertex, O(|E|·dim).

build_ckt_family first counts the paths from walk counts, O(cutoff·|E|),
and refuses a family above MAX_FAMILY_ENTRIES stored entries; then it
enumerates the paths with successors indexed by vertex and fills the
edge maps from index arithmetic on that enumeration, O(dim·cutoff).
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import reduce
from itertools import compress
from operator import or_, sub
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


Path = tuple[str, tuple[Edge, ...]]
# A path is (range vertex, composable edge tuple); the empty tuple is the
# length-0 path sitting at its vertex.

MAX_FAMILY_ENTRIES = 2_000_000
# The most entries build_ckt_family stores: dim·(|V| + |E|) mask and map
# entries plus the edges held by the paths themselves.


def _family_entries(g: DirectedGraph, cutoff: int) -> int:
    """Entries the family at cutoff would store, from walk counts.

    Paths are counted by tail vertex, O(|E|) per length; the count stops
    once it passes MAX_FAMILY_ENTRIES or no path has the next length.
    """
    width = len(g.vertices) + len(g.edges)
    walks = dict.fromkeys(g.vertices, 1)
    dim, held = len(g.vertices), 0
    for length in range(1, cutoff + 1):
        if dim * width + held > MAX_FAMILY_ENTRIES:
            break
        nxt = dict.fromkeys(g.vertices, 0)
        for e in g.edges:
            nxt[edge_source(e)] += walks[edge_range(e)]
        count = sum(nxt.values())
        if count == 0:
            break
        dim += count
        held += length * count
        walks = nxt
    return dim * width + held


class PartialIsometryFamily(Record, eq=False):
    """Vertex projections and edge maps on a truncated path space.

    vertex_projections[v] is a bytearray of dim bytes, 1 on the paths
    ranging at v and 0 elsewhere.  edge_isometries[e] is an array('q')
    partial injection on path indices, 8·dim bytes: entry i is the index
    of path i with e prepended, or -1 where e does not compose with path
    i or the result would exceed the cutoff.
    """

    __slots__ = ("graph", "cutoff", "paths", "vertex_projections", "edge_isometries")

    def __init__(
        self,
        graph: DirectedGraph,
        cutoff: int,
        paths: tuple[Path, ...],
        vertex_projections: dict[str, bytearray],
        edge_isometries: dict[Edge, array],
    ) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "vertex_projections", vertex_projections)
        object.__setattr__(self, "edge_isometries", edge_isometries)

    @property
    def dimension(self) -> int:
        return len(self.paths)


def build_ckt_family(g: DirectedGraph, cutoff: int = 4) -> PartialIsometryFamily:
    """The vertex/edge relation family on the paths of length at most cutoff.

    A vertex projection keeps the paths ranging at its vertex; an edge
    map prepends its edge where composable and the result still fits.
    Raises OutputTooLarge, before enumerating any path, when the family
    would store more than MAX_FAMILY_ENTRIES entries.
    """
    if cutoff < 0:
        raise ValueError("the cutoff must be nonnegative")
    if _family_entries(g, cutoff) > MAX_FAMILY_ENTRIES:
        raise OutputTooLarge(
            f"the path space at cutoff {cutoff} needs more than"
            f" {MAX_FAMILY_ENTRIES} stored entries"
        )
    # Paths by length; the extensions of path j follow in sorted edge order
    # from index first[j].  rest[i] indexes path i minus its first edge e,
    # so that the map of e sends rest[i] to i; no path is ever hashed.
    after: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        after[edge_range(e)].append(e)
    slot = {e: k for es in after.values() for k, e in enumerate(es)}
    vertex = {v: i for i, v in enumerate(g.vertices)}
    paths: list[Path] = [(v, ()) for v in g.vertices]
    tails = list(g.vertices)
    rest = [-1] * len(paths)
    first: dict[int, int] = {}
    level = range(len(paths))
    for _ in range(cutoff):
        begin = len(paths)
        for j in level:
            first[j] = len(paths)
            r, es = paths[j]
            for e in after[tails[j]]:
                s = edge_source(e)
                paths.append((r, es + (e,)))
                tails.append(s)
                rest.append(first[rest[j]] + slot[e] if es else vertex[s])
        if len(paths) == begin:
            break
        level = range(begin, len(paths))
    dim = len(paths)
    masks = {v: bytearray(dim) for v in g.vertices}
    maps = {e: array("q", [-1]) * dim for e in sorted(g.edges)}
    for i, (r, es) in enumerate(paths):
        masks[r][i] = 1
        if es:
            maps[es[0]][rest[i]] = i
    return PartialIsometryFamily(g, cutoff, tuple(paths), masks, maps)


class RelationCheck(Record):
    __slots__ = ("residual", "exact", "note")

    def __init__(self, residual: int, exact: bool, note: str = "") -> None:
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "note", note)


class CKTReport(Record):
    """Per-relation residuals of a family, all entrywise integers.

    ok means the relations hold in the truncated sense: everything exact
    except possibly the isometry identity on maximal-length paths.
    exact means no truncation artifact at all.
    """

    __slots__ = ("checks",)

    def __init__(self, checks: dict[str, RelationCheck]) -> None:
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.exact for name, c in self.checks.items() if name != "isometry")

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.checks.values())


_HIGH = 7 if sys.byteorder == "little" else 0
_NONNEGATIVE = bytes([1]) + bytes(255)
# The high byte of an edge map entry is 0 for an index and 0xFF for -1;
# translating by _NONNEGATIVE turns it into the 0/1 domain byte.


def _excess(counts: dict[int, int], mask: bytearray) -> int:
    """The largest count of a path less its mask byte."""
    return max(map(sub, counts.values(), map(mask.__getitem__, counts)), default=0)


def verify_ckt(fam: PartialIsometryFamily) -> CKTReport:
    """Entrywise verification of the five relations of the family.

    Each residual is the largest entry the matrix products of the
    relation would have, read off the masks and the edge maps.
    """
    L = fam.vertex_projections
    T = fam.edge_isometries
    bits = {v: int.from_bytes(m, "little") for v, m in L.items()}
    checks: dict[str, RelationCheck] = {}

    # L_p L_q is the diagonal of the overlap of two masks: a + b = (a | b)
    # + (a & b), so the masks are disjoint when their sum is their union.
    r = int(sum(bits.values()) != reduce(or_, bits.values(), 0))
    checks["orthogonal-vertices"] = RelationCheck(r, r == 0)

    # T_e T_eᵀ is the diagonal of the counts of e's destinations; the
    # entry (i, j) of T_eᵀ T_f is 1 when e·i = f·j, so it vanishes
    # exactly when the ranges of e and f are disjoint.
    domains = {e: d.tobytes()[_HIGH::8].translate(_NONNEGATIVE) for e, d in T.items()}
    # Counted in plain dicts: a Counter checks each argument against the
    # Mapping ABC, a walk that every fresh process pays for again.
    hits: dict[Edge, dict[int, int]] = {}
    for e, d in T.items():
        h = hits[e] = {}
        for x in compress(d, domains[e]):
            h[x] = h.get(x, 0) + 1
    r = int(len(set().union(*hits.values())) < sum(map(len, hits.values())))
    checks["orthogonal-edges"] = RelationCheck(r, r == 0)

    # T_e is injective, so T_eᵀ T_e is the diagonal of its domain.  The
    # isometry identity can only fail on paths of maximal length, where
    # prepending the edge would overflow the cutoff.
    short = int.from_bytes(bytes(len(es) < fam.cutoff for _, es in fam.paths), "little")
    diffs = [int.from_bytes(m, "little") ^ bits[edge_source(e)] for e, m in domains.items()]
    full = int(any(diffs))
    interior = int(any(diff & short for diff in diffs))
    note = "" if full == 0 else "restricted to paths shorter than the cutoff"
    checks["isometry"] = RelationCheck(full, full == 0, note)
    checks["isometry-interior"] = RelationCheck(interior, interior == 0)

    r = max((_excess(h, L[edge_range(e)]) for e, h in hits.items()), default=0)
    checks["range-domination"] = RelationCheck(r, r <= 0)

    summed: dict[str, dict[int, int]] = {v: {} for v in L}
    for e, h in hits.items():
        s = summed[edge_range(e)]
        for x, c in h.items():
            s[x] = s.get(x, 0) + c
    r = max((_excess(s, L[v]) for v, s in summed.items()), default=0)
    checks["summed-domination"] = RelationCheck(r, r <= 0)

    return CKTReport(checks)


class NeatCheck(Record):
    __slots__ = ("holds", "norm_x", "norm_y", "norm_sum")

    def __init__(self, holds: bool, norm_x: float, norm_y: float, norm_sum: float) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "norm_x", norm_x)
        object.__setattr__(self, "norm_y", norm_y)
        object.__setattr__(self, "norm_sum", norm_sum)

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
