"""Seeded job lists for the three benchmark workloads.

A job is one `treealg` command line plus the input files it reads, the
check its output must pass, and the size parameters that explain its
cost.  Inputs are written as JSON documents directly from the file
formats in the README, without importing treealg, so the inputs do not
change when the library under test does.

Sizes are drawn by stratified sampling: family job k of K gets the
quantile u = (k + r) / K with r uniform in [0, 1), and u is mapped onto
a continuous (log-spaced) size range.  Every seed then covers each
range evenly, so the sums and percentiles of job time move little from
seed to seed and no percentile falls into a gap between families.

Workloads (all closed loop: one client, one job in flight):

* dense -- `check-tensor` on towers of full upper-triangular levels.
  The O(|R|^2) relation loops of the algebra layer do most of the work;
  the explicit-map tower files also load the formats decoder.
* trees -- `classify` on spec pairs, `ampliate` on 10-40 vertex trees,
  and `check-tensor` on tree-refinement towers (sparse order relations).
  Graphs, ampliation and classification do most of the work.
* ckt -- `verify-ckt` on out-trees and random DAGs at cutoffs 2-5.  The
  dense integer products of the correspondence layer do most of it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("dense", "trees", "ckt")


@dataclass
class Job:
    """One CLI invocation of a workload.

    argv excludes the program name.  check names the output property
    verified after the job ran (see run.check_output); size holds the
    parameters that set the job's cost.
    """

    name: str
    family: str
    argv: list[str]
    check: dict
    size: dict = field(default_factory=dict)
    top: bool = False


class _Writer:
    """Writes input documents into one directory and builds Jobs."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.jobs: list[Job] = []

    def file(self, stem: str, doc) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        return str(path)

    def add(self, family: str, argv: list[str], check: dict, size: dict, top=False) -> None:
        self.jobs.append(Job("", family, argv, check, size, top))


def _strata(rng: random.Random, count: int, tiny: bool) -> list[float]:
    """Stratified quantiles for a family of count jobs (two when tiny)."""
    count = 2 if tiny else count
    return [(k + rng.random()) / count for k in range(count)]


def _logrange(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# documents


def _algebra(n: int, pairs) -> dict:
    units = sorted((i, j) for i, j in pairs if i != j)
    return {"blocks": [n], "units": [[[0, i], [0, j]] for i, j in units]}


def _ut_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def _explicit(pairs, lift) -> dict:
    """An explicit embedding: relation pair (i, j) goes to the copies
    (lift_c(i), lift_c(j)) for each copy c."""
    image = []
    for i, j in sorted(pairs):
        tgts = sorted((a, b) for a, b in zip(lift(i), lift(j)))
        image.append([[[0, i], [0, j]], [[[0, a], [0, b]] for a, b in tgts]])
    return {"kind": "explicit", "image": image}


def _stored_tower(n0: int, lifts: list, rule) -> tuple[dict, int]:
    """Full triangular levels starting at size n0, joined by explicit maps.

    lifts[k] = (factor, lift) grows the level size by factor, sending row
    i to the rows lift(i, size).
    """
    levels = [_algebra(n0, _ut_pairs(n0))]
    maps = []
    n = n0
    for factor, lift in lifts:
        maps.append(_explicit(_ut_pairs(n), lambda i, n=n: lift(i, n)))
        n *= factor
        levels.append(_algebra(n, _ut_pairs(n)))
    return {"levels": levels, "maps": maps, "rule": rule}, n


def _standard_rows(m: int):
    return lambda i, n: [i + k * n for k in range(m)]


def _refinement_rows(l: int):
    return lambda i, n: [(i - 1) * l + s for s in range(1, l + 1)]


_TRIPLE_COPIES = ((1, 2, 5), (3, 4, 6), (7, 8, 9))


def _triple_rows(i: int, n: int) -> list[int]:
    # Levels have sizes 3, 9, 27, ...: a row is a grid row of the
    # previous level's scale plus an offset inside it.
    scale = n // 3
    block, inner = divmod(i - 1, scale)
    return [(copy[block] - 1) * scale + inner + 1 for copy in _TRIPLE_COPIES]


def _graph(vertices: list[str], edges) -> dict:
    order = {v: k for k, v in enumerate(vertices)}
    es = sorted(set(edges), key=lambda e: (order[e[0]], order[e[1]]))
    return {"vertices": list(vertices), "edges": [[s, t] for s, t in es]}


def _random_tree(rng: random.Random, n: int, prefix: str) -> tuple[list[str], list]:
    vs = [f"{prefix}{k}" for k in range(n)]
    return vs, [(vs[rng.randrange(k)], vs[k]) for k in range(1, n)]


def _ampliate(vs: list[str], edges, l: int) -> tuple[list[str], list]:
    """The multiplicity-l ampliation, named as the library names it."""
    name = lambda v, s: f"({v},{s})"
    out_v = [name(v, s) for v in vs for s in range(1, l + 1)]
    out_e = [(name(v, s), name(v, s + 1)) for v in vs for s in range(1, l)]
    out_e += [(name(j, l), name(i, 1)) for j, i in edges]
    return out_v, out_e


def _closure_pairs(vs: list[str], edges) -> list[tuple[int, int]]:
    """Relation pairs of a tree's order algebra: (row of v, row of u) for
    every u above v, plus the diagonal."""
    row = {v: k + 1 for k, v in enumerate(vs)}
    parent = {t: s for s, t in edges}
    pairs = [(row[v], row[v]) for v in vs]
    for v in vs:
        u = parent.get(v)
        while u is not None:
            pairs.append((row[v], row[u]))
            u = parent.get(u)
    return pairs


# ---------------------------------------------------------------------------
# dense: check-tensor on full upper-triangular towers


def _split(rng: random.Random, target: float, factors: tuple[int, ...], max_steps: int):
    """A base size n, factor f and step count d with n * f**d near target."""
    best = None
    for f in factors:
        for d in range(1, max_steps + 1):
            n = max(2, round(target / f**d))
            err = abs(math.log(n * f**d / target)) + 0.05 * rng.random()
            if best is None or err < best[0]:
                best = (err, n, f, d)
    return best[1:]


def _dense(w: _Writer, rng: random.Random, tiny: bool) -> None:
    top_n = 8 if tiny else 44

    for u in _strata(rng, 32, tiny):
        n, m, d = _split(rng, _logrange(u, 4, top_n), (2, 3), 3)
        doc = {"levels": [_algebra(n, _ut_pairs(n))], "maps": [], "rule": {"kind": "standard", "m": m}}
        argv = ["check-tensor", w.file(f"standard-{len(w.jobs)}", doc), "--depth", str(d + 1)]
        w.add("standard", argv, {"exit": [0, 1, 2]}, {"N": n * m**d, "R": _tri(n * m**d)})

    for u in _strata(rng, 26, tiny):
        n, l, d = _split(rng, _logrange(u, 4, top_n), (2, 3), 3)
        doc = {"levels": [_algebra(n, _ut_pairs(n))], "maps": [], "rule": {"kind": "refinement", "l": l}}
        argv = ["check-tensor", w.file(f"refinement-{len(w.jobs)}", doc), "--depth", str(d + 1)]
        w.add("refinement", argv, {"exit": [1]}, {"N": n * l**d, "R": _tri(n * l**d)})

    for u in _strata(rng, 14, tiny):
        n, m, d = _split(rng, _logrange(u, 6, top_n), (2, 3), 2)
        # Two stored levels: a full level and its image under one
        # standard step; deeper levels come from the standard rule.
        src = _ut_pairs(n)
        lift = _standard_rows(m)
        img = sorted({(a, b) for i, j in src for a, b in zip(lift(i, n), lift(j, n))})
        doc = {
            "levels": [_algebra(n, src), _algebra(n * m, img)],
            "maps": [_explicit(src, lambda i: lift(i, n))],
            "rule": {"kind": "standard", "m": m},
        }
        argv = ["check-tensor", w.file(f"image-{len(w.jobs)}", doc), "--depth", str(d + 1)]
        w.add("standard-image", argv, {"exit": [0, 1, 2]}, {"N": n * m**d, "R": len(img)})

    for u in _strata(rng, 12, tiny):
        stored = 2 + min(3, int(u * 4))
        lifts = [(2, _refinement_rows(2) if k % 2 == 0 else _standard_rows(2)) for k in range(stored - 1)]
        doc, n = _stored_tower(2, lifts, None)
        depth = stored + rng.randrange(2)
        argv = ["check-tensor", w.file(f"mixed-{len(w.jobs)}", doc), "--depth", str(depth)]
        w.add("mixed", argv, {"exit": [0, 1, 2]}, {"N": n, "R": _tri(n)})

    for u in _strata(rng, 14, tiny):
        n = round(_logrange(u, 3, 6 if tiny else 30))
        stored = 1 + rng.randrange(2)
        lifts = [(2, _standard_rows(2))] * (stored - 1)
        doc, top = _stored_tower(n, lifts, {"kind": "nest"})
        argv = ["check-tensor", w.file(f"nest-{len(w.jobs)}", doc), "--depth", str(2 + rng.randrange(3))]
        w.add("nest", argv, {"exit": [1]}, {"N": top, "R": _tri(top)})

    for u in _strata(rng, 10, tiny):
        stored = 2 + int(u * 2)
        doc, n = _stored_tower(3, [(3, _triple_rows)] * (stored - 1), None)
        depth = 2 + rng.randrange(4)
        want = [0] if stored >= 3 and depth >= 3 else [0, 1, 2]
        argv = ["check-tensor", w.file(f"triple-{len(w.jobs)}", doc), "--depth", str(depth)]
        w.add("triple-copy", argv, {"exit": want}, {"N": n, "R": _tri(n)})

    stored = 3 if tiny else 4
    doc, n = _stored_tower(3, [(3, _triple_rows)] * (stored - 1), None)
    argv = ["check-tensor", w.file("triple-top", doc), "--depth", str(stored)]
    w.add("triple-copy", argv, {"exit": [0]}, {"N": n, "R": _tri(n)}, top=True)


def _tri(n: int) -> int:
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# trees: classify, ampliate, check-tensor on tree-refinement towers


def _primes(s: int) -> list[int]:
    out, d = [], 2
    while s > 1:
        if s % d == 0:
            out.append(d)
            while s % d == 0:
                s //= d
        d += 1
    return out


def _search_vertices(n: int, s: int, bound: int) -> int:
    """Vertices materialized by an exhaustive classify search on two
    n-vertex bases: every nondecreasing prime sequence of length at most
    bound, ampliated step by step."""
    total = 0
    frontier = [(0, 1)]  # (index of last prime, product)
    primes = _primes(s)
    for _ in range(bound):
        nxt = []
        for start, prod in frontier:
            for k in range(start, len(primes)):
                nxt.append((k, prod * primes[k]))
        total += sum(prod for _, prod in nxt)
        frontier = nxt
    return 2 * n * (1 + total)


def _spec(vs, edges, stationary: int, mults=()) -> dict:
    return {"base": _graph(vs, edges), "multiplicities": list(mults), "stationary": stationary}


def _exhaust_pair(rng: random.Random, n: int, prefix: str):
    """Two n-vertex trees with the same branching skeleton whose limits
    never match: A subdivides one edge of a tree T with a branching
    root, B hangs T below a new root.  Ampliation keeps A's root
    branching and B's root a chain, so the searches exhaust."""
    while True:
        vs, es = _random_tree(rng, n - 1, prefix)
        if sum(1 for s, _ in es if s == vs[0]) >= 2:
            break
    s, t = es[rng.randrange(len(es))]
    mid = f"{prefix}m"
    a = (vs + [mid], [e for e in es if e != (s, t)] + [(s, mid), (mid, t)])
    rho = f"{prefix}r"
    b = ([rho] + vs, [(rho, vs[0])] + es)
    return a, b


def _refinement_levels(rng: random.Random, target: float):
    """Trees of a tree-refinement tower whose top level has about target
    relation pairs, and the tower's multiplicity."""
    best = None
    for _ in range(200):
        l = rng.choice((2, 3))
        vs, es = _random_tree(rng, 3 + rng.randrange(18), "r")
        trees = [(vs, es)]
        for _ in range(1 + rng.randrange(2)):
            trees.append(_ampliate(*trees[-1], l))
        err = abs(math.log(len(_closure_pairs(*trees[-1])) / target))
        if best is None or err < best[0]:
            best = (err, trees, l)
        if err < 0.05:
            break
    return best[1:]


def _trees(w: _Writer, rng: random.Random, tiny: bool) -> None:

    # Exhaustive classify searches, sized by the vertices they ampliate.
    options = [
        (_search_vertices(n, s, b), n, s, b)
        for n in range(4, 15)
        for s in (2, 3, 4, 6, 9, 12)
        for b in range(1, 8)
    ]
    for u in _strata(rng, 22, tiny):
        target = _logrange(u, 60, 2.0e3 if tiny else 4.0e4)
        _, n, s, b = min(options, key=lambda o: abs(math.log(o[0] / target)) + 0.1 * rng.random())
        (av, ae), (bv, be) = _exhaust_pair(rng, n, "x")
        fa = w.file(f"cls-{len(w.jobs)}-a", _spec(av, ae, s))
        fb = w.file(f"cls-{len(w.jobs)}-b", _spec(bv, be, s))
        w.add("classify-exhaust", ["classify", fa, fb, "--bound", str(b), "--format", "json"],
              {"exit": [0, 1, 2]}, {"n": n, "bound": b, "n_prod_l": _search_vertices(n, s, b)})

    for u in _strata(rng, 12, tiny):
        n = round(_logrange(u, 3, 14))
        s = rng.choice((2, 3, 6))
        steps = [rng.choice(_primes(s)) for _ in range(1 + rng.randrange(2))]
        vs, es = _random_tree(rng, n, "e")
        bv, be = vs, es
        for p in steps:
            bv, be = _ampliate(bv, be, p)
        fa = w.file(f"eq-{len(w.jobs)}-a", _spec(vs, es, s))
        fb = w.file(f"eq-{len(w.jobs)}-b", _spec(bv, be, s))
        bound = len(steps) + rng.randrange(2)
        w.add("classify-equivalent", ["classify", fa, fb, "--bound", str(bound), "--format", "json"],
              {"exit": [0]}, {"n": n, "bound": bound, "n_prod_l": n * math.prod(steps)})

    for u in _strata(rng, 10, tiny):
        n = round(_logrange(u, 3, 40))
        s1, s2 = rng.sample((2, 3, 5, 6), 2)
        va, ea = _random_tree(rng, n, "p")
        vb, eb = _random_tree(rng, n, "q")
        fa = w.file(f"sn-{len(w.jobs)}-a", _spec(va, ea, s1, [rng.choice((2, 3))]))
        fb = w.file(f"sn-{len(w.jobs)}-b", _spec(vb, eb, s2))
        w.add("classify-supernatural", ["classify", fa, fb, "--format", "json"],
              {"exit": [1]}, {"n": n, "bound": 3})

    for u in _strata(rng, 40, tiny):
        target = _logrange(u, 80, 500 if tiny else 5000)
        n, l, k = min(
            ((n, l, k) for n in range(10, 41) for l in (2, 3, 4, 5) for k in (2, 3)),
            key=lambda o: abs(math.log(o[0] * o[1] ** o[2] / target)) + 0.05 * rng.random(),
        )
        vs, es = _random_tree(rng, n, "t")
        f = w.file(f"amp-{len(w.jobs)}", _graph(vs, es))
        w.add("ampliate", ["ampliate", f, "-l", str(l), "--steps", str(k), "--format", "json"],
              {"vertices": n * l**k}, {"n": n, "n_prod_l": n * l**k})

    for k, u in enumerate(_strata(rng, 24, tiny)):
        # Cost follows the top level's relation size |R|, which depends
        # on the depth of the random tree as much as on its size.  Every
        # other tower leaves its top level to the rule, so that check-tensor
        # also ampliates and builds the refinement embedding itself.
        trees, l = _refinement_levels(rng, _logrange(u, 20, 60 if tiny else 1200))
        stored = trees[:-1] if k % 2 else trees
        levels = [_algebra(len(tv), _closure_pairs(tv, te)) for tv, te in stored]
        lift = _refinement_rows(l)
        maps = [
            _explicit(_closure_pairs(tv, te), lambda i, n=len(tv): lift(i, n))
            for tv, te in stored[:-1]
        ]
        doc = {"levels": levels, "maps": maps,
               "rule": {"kind": "tree-refinement", "tree": _graph(*stored[-1]), "l": l}}
        f = w.file(f"trt-{len(w.jobs)}", doc)
        top = len(trees[-1][0])
        w.add("tree-refinement", ["check-tensor", f, "--depth", str(len(trees)), "--format", "json"],
              {"exit": [1, 2]},
              {"N": top, "R": len(_closure_pairs(*trees[-1])), "n_prod_l": top})

    # Top rung: the widest exhaustive search, on two 4-vertex bases.
    n, s, b = (4, 6, 3) if tiny else (4, 6, 8)
    (av, ae), (bv, be) = _exhaust_pair(rng, n, "y")
    fa = w.file("cls-top-a", _spec(av, ae, s))
    fb = w.file("cls-top-b", _spec(bv, be, s))
    w.add("classify-exhaust", ["classify", fa, fb, "--bound", str(b), "--format", "json"],
          {"exit": [0, 1, 2]}, {"n": n, "bound": b, "n_prod_l": _search_vertices(n, s, b)}, top=True)


# ---------------------------------------------------------------------------
# ckt: verify-ckt on out-trees and random DAGs


def _path_dim(vs: list[str], edges, cutoff: int) -> int:
    """Paths of length at most cutoff: an edge (u, v) extends a path
    ranging at v to one ranging at u."""
    into = {v: [] for v in vs}
    for u, v in edges:
        into[v].append(u)
    count = {v: 1 for v in vs}
    total = len(vs)
    for _ in range(cutoff):
        nxt = {v: 0 for v in vs}
        for v, c in count.items():
            for u in into[v]:
                nxt[u] += c
        count = nxt
        total += sum(count.values())
    return total


def _ckt_cost(n: int, e: int, dim: int) -> float:
    # Dense dim x dim integer products for every vertex pair and edge pair.
    return (n * n + e * e) * float(dim) ** 3


def _ckt_graph(rng: random.Random, target: float, dag: bool, tol: float):
    best = None
    for _ in range(400):
        cutoff = 2 + rng.randrange(4)
        if dag:
            n = 3 + rng.randrange(9)
            p = 0.2 + 0.7 * rng.random()
            vs = [f"g{k}" for k in range(n)]
            es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        else:
            vs, es = _random_tree(rng, 3 + rng.randrange(40), "o")
        dim = _path_dim(vs, es, cutoff)
        err = abs(math.log(_ckt_cost(len(vs), len(es), dim) / target))
        if best is None or err < best[0]:
            best = (err, vs, es, cutoff, dim)
        if err < tol:
            break
    return best[1:]


def _ckt(w: _Writer, rng: random.Random, tiny: bool) -> None:
    hi = 1.0e5 if tiny else 2.5e8
    for family, dag in (("out-tree", False), ("dag", True)):
        for u in _strata(rng, 56, tiny):
            vs, es, cutoff, dim = _ckt_graph(rng, _logrange(u, 2.0e4, hi), dag, 0.05)
            f = w.file(f"{family}-{len(w.jobs)}", _graph(vs, es))
            w.add(family, ["verify-ckt", f, "--cutoff", str(cutoff), "--format", "json"],
                  {"ckt_ok": True}, {"n": len(vs), "E": len(es), "cutoff": cutoff, "path_dim": dim})
    # Top rung: the complete DAG on 7 vertices (5 in the self-test), every
    # path kept; only the vertex names depend on the seed.
    n = 5 if tiny else 7
    vs = [f"k{v}" for v in rng.sample(range(100), n)]
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    f = w.file("dag-top", _graph(vs, es))
    w.add("dag", ["verify-ckt", f, "--cutoff", str(n - 1), "--format", "json"],
          {"ckt_ok": True},
          {"n": n, "E": len(es), "cutoff": n - 1, "path_dim": _path_dim(vs, es, n - 1)}, top=True)


_BUILDERS = {"dense": _dense, "trees": _trees, "ckt": _ckt}


def make_jobs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """Write the inputs of one workload and return its jobs in run order.

    The same workload and seed give the same files and the same jobs.
    tiny shrinks every family to two small jobs, for the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(workdir)
    _BUILDERS[workload](w, rng, tiny)
    jobs = w.jobs
    rng.shuffle(jobs)
    for k, job in enumerate(jobs):
        job.name = f"{workload}-{k:03d}"
    return jobs
