"""Module norms, CKT families, and the ultrametric norm bound."""

import math
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from treealg.classify import canonical_code, reduce
from treealg.correspondence import (
    GraphCorrespondenceVector,
    PartialIsometryFamily,
    _family_entries,
    build_ckt_family,
    check_neat_inequality,
    module_inner_product,
    module_norm,
    verify_ckt,
)
from treealg.errors import GraphMismatch, PreconditionViolated
from treealg.formats import ckt_report_to_json
from treealg.graphs import DirectedGraph

from catalog import chain_graph, lambda_graph
from conftest import all_parent_arrays, random_dag, random_out_tree, tree_from_parents


def longest_path(g: DirectedGraph) -> int:
    memo = {}

    def down(v):
        if v not in memo:
            memo[v] = 1 + max(
                (down(s) for s in g.successors(v)), default=-1
            )
        return memo[v]

    return max((down(v) for v in g.vertices), default=0)


def test_vector_rejects_undeclared_edges():
    g = lambda_graph()
    with pytest.raises(ValueError):
        GraphCorrespondenceVector(g, {("a", "b"): 1})


def test_indicator_inner_product_and_norm():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 1})
    ip = module_inner_product(x, x)
    assert ip["a"] == 1 and ip["r"] == 0 and ip["b"] == 0
    assert module_norm(x) == 1.0


def test_orthogonal_indicators():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 1})
    y = GraphCorrespondenceVector(g, {("r", "b"): 1})
    assert all(v == 0 for v in module_inner_product(x, y).values())


def test_shared_source_accumulates():
    h = DirectedGraph(["p", "q", "s"], [("p", "s"), ("q", "s")])
    x = GraphCorrespondenceVector(h, {("p", "s"): 2})
    y = GraphCorrespondenceVector(h, {("p", "s"): 3})
    assert module_inner_product(x, y)["s"] == 6
    z = GraphCorrespondenceVector(h, {("q", "s"): 3})
    assert module_norm(x + z) == math.sqrt(4 + 9)


def test_zero_vector_norm():
    assert module_norm(GraphCorrespondenceVector(lambda_graph())) == 0.0
    assert module_norm(GraphCorrespondenceVector(DirectedGraph([], []))) == 0.0


def test_norm_squares_to_max_inner_product():
    rng = random.Random(2)
    for _ in range(30):
        g = random_dag(rng, rng.randrange(1, 7))
        amps = {
            e: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for e in g.edges
            if rng.random() < 0.8
        }
        x = GraphCorrespondenceVector(g, amps)
        ip = module_inner_product(x, x)
        best = max((v.real for v in ip.values()), default=0.0)
        assert abs(module_norm(x) ** 2 - best) < 1e-9


def test_norm_neither_underflows_nor_overflows():
    g = lambda_graph()
    assert module_norm(GraphCorrespondenceVector(g, {("r", "a"): 1e-200})) == 1e-200
    huge = GraphCorrespondenceVector(g, {("r", "a"): 1e200 + 1e200j})
    assert module_norm(huge) == 1.414213562373095e200


FAN_IN = DirectedGraph(["a", "b", "c", "s"], [("a", "s"), ("b", "s"), ("c", "s"), ("s", "a")])
# Parts 2^-80 to 2^53 in size, so every part times 2^k for |k| <= 900 is a
# normal float.
PARTS = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-80, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PARTS, PARTS), min_size=4, max_size=4), st.integers(-900, 900))
def test_norm_scales_exactly_by_powers_of_two(parts, k):
    edges = sorted(FAN_IN.edges)
    x = GraphCorrespondenceVector(FAN_IN, {e: complex(*p) for e, p in zip(edges, parts)})
    scaled = {e: complex(math.ldexp(re, k), math.ldexp(im, k)) for e, (re, im) in zip(edges, parts)}
    assert module_norm(GraphCorrespondenceVector(FAN_IN, scaled)) == math.ldexp(module_norm(x), k)


def test_norm_does_not_depend_on_vertex_names():
    # Edges come out of a graph in the order string hashing gives their
    # names, and a float sum taken in that order can differ in its last
    # bit; renaming the vertices reorders the edges.
    rng = random.Random(3)
    amplitudes = [complex(rng.uniform(-9, 9) * 10 ** rng.randint(-3, 3), rng.uniform(-9, 9)) for _ in range(30)]
    norms = set()
    for names in ([f"{prefix}{i}" for i in range(30)] for prefix in "abcdefghijklmnopqrst"):
        g = DirectedGraph(names + ["s"], [(v, "s") for v in names])
        norms.add(module_norm(GraphCorrespondenceVector(g, {(v, "s"): a for v, a in zip(names, amplitudes)})))
    assert len(norms) == 1


def test_mismatched_graphs_raise():
    x = GraphCorrespondenceVector(lambda_graph())
    y = GraphCorrespondenceVector(chain_graph(3))
    with pytest.raises(GraphMismatch):
        module_inner_product(x, y)
    with pytest.raises(GraphMismatch):
        x + y


def projections(fam):
    """The vertex projections as dense 0/1 matrices."""
    return {
        v: np.diag(np.frombuffer(m, dtype=np.uint8).astype(np.int64))
        for v, m in fam.vertex_projections.items()
    }


def test_single_vertex_family_is_identity():
    fam = build_ckt_family(DirectedGraph(["p"], []))
    assert fam.dimension == 1
    assert projections(fam)["p"].tolist() == [[1]]
    assert verify_ckt(fam).exact


def test_family_is_stored_in_bytearrays_and_index_arrays():
    fam = build_ckt_family(chain_graph(3), cutoff=2)
    # The paths: the vertices 1, 2, 3; then 1->2, 2->3; then 1->2->3.
    assert fam.dimension == 6
    assert fam.vertex_projections == {
        "1": bytearray([1, 0, 0, 1, 0, 1]),
        "2": bytearray([0, 1, 0, 0, 1, 0]),
        "3": bytearray([0, 0, 1, 0, 0, 0]),
    }
    assert fam.edge_isometries == {
        ("1", "2"): array("q", [-1, 3, -1, -1, 5, -1]),
        ("2", "3"): array("q", [-1, -1, 4, -1, -1, -1]),
    }


def test_family_fields_cannot_be_reassigned():
    fam = build_ckt_family(chain_graph(3), cutoff=2)
    for field in ("graph", "cutoff", "paths", "vertex_projections", "edge_isometries"):
        with pytest.raises(AttributeError):
            setattr(fam, field, getattr(fam, field))
        with pytest.raises(AttributeError):
            delattr(fam, field)
    assert fam.cutoff == 2 and fam.dimension == 6


def test_single_edge_family_relations():
    g = DirectedGraph(["p", "q"], [("p", "q")])
    fam = build_ckt_family(g, cutoff=2)
    L = projections(fam)
    T = ref.vector_operator(fam, GraphCorrespondenceVector(g, {("p", "q"): 1}))
    assert (T.conj().T @ T == L["q"]).all()
    assert ((L["p"] - T @ T.conj().T).real >= 0).all()
    assert verify_ckt(fam).exact


def test_lambda_family_all_relations_exact():
    rep = verify_ckt(build_ckt_family(lambda_graph(), cutoff=4))
    assert rep.exact
    assert all(c.residual == 0 for c in rep.checks.values())


def test_out_trees_exact_at_sufficient_cutoff():
    rng = random.Random(17)
    for _ in range(12):
        g = random_out_tree(rng, rng.randrange(1, 9)).graph
        rep = verify_ckt(build_ckt_family(g, cutoff=longest_path(g) + 1))
        assert rep.exact


def test_truncation_confined_to_maximal_paths():
    rep = verify_ckt(build_ckt_family(chain_graph(6), cutoff=2))
    assert not rep.checks["isometry"].exact
    assert rep.checks["isometry"].note
    assert rep.checks["isometry-interior"].exact
    assert rep.ok and not rep.exact


def test_empty_graph_family():
    rep = verify_ckt(build_ckt_family(DirectedGraph([], [])))
    assert rep.exact


def test_sixty_vertex_tree_verifies_within_budget():
    g = random_out_tree(random.Random(3), 60).graph
    start = time.perf_counter()
    rep = verify_ckt(build_ckt_family(g, cutoff=12))
    assert time.perf_counter() - start < 1.0
    assert rep.ok


# The dense oracle: reference_kernel keeps the matrix-product verifier.

ORACLE_DIM = 80


def dense(fam: PartialIsometryFamily) -> ref.DenseFamily:
    """The same family with explicit 0/1 matrices."""
    dim = fam.dimension
    maps = {}
    for e, d in fam.edge_isometries.items():
        m = np.zeros((dim, dim), dtype=np.int64)
        d = np.asarray(d)
        (cols,) = np.nonzero(d >= 0)
        m[d[cols], cols] = 1
        maps[e] = m
    return ref.DenseFamily(fam.graph, fam.cutoff, fam.paths, projections(fam), maps)


def assert_same_family(fam: PartialIsometryFamily, oracle: ref.DenseFamily) -> None:
    expected = dense(fam)
    assert fam.paths == oracle.paths
    assert expected.vertex_projections.keys() == oracle.vertex_projections.keys()
    for v, m in oracle.vertex_projections.items():
        assert (expected.vertex_projections[v] == m).all()
    assert list(expected.edge_isometries) == list(oracle.edge_isometries)
    for e, m in oracle.edge_isometries.items():
        assert (expected.edge_isometries[e] == m).all()


def agrees_with_oracle(g: DirectedGraph, cutoff: int) -> None:
    fam = build_ckt_family(g, cutoff)
    oracle = ref.build_ckt_family(g, cutoff)
    assert_same_family(fam, oracle)
    # The size the cap is checked against is the size actually stored.
    held = sum(len(es) for _, es in fam.paths)
    width = len(g.vertices) + len(g.edges)
    assert _family_entries(g, cutoff) == fam.dimension * width + held
    assert ckt_report_to_json(verify_ckt(fam)) == ckt_report_to_json(ref.verify_ckt(oracle))


@st.composite
def digraphs(draw):
    """Graphs on up to four vertices, cycles included."""
    vs = [str(i) for i in range(draw(st.integers(0, 4)))]
    pairs = [(u, v) for u in vs for v in vs if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return DirectedGraph(vs, edges)


def small_cutoff(g: DirectedGraph, cutoff: int) -> int:
    """The largest cutoff up to the given one with at most ORACLE_DIM paths."""
    while cutoff and build_ckt_family(g, cutoff).dimension > ORACLE_DIM:
        cutoff -= 1
    return cutoff


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.integers(0, 6))
def test_family_and_report_match_the_dense_oracle(g, cutoff):
    agrees_with_oracle(g, small_cutoff(g, cutoff))


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.integers(0, 4), st.data())
def test_residuals_of_perturbed_families_match_dense_products(g, cutoff, data):
    # Flipped mask entries and redirected or dropped destinations make
    # every relation fail somewhere; the edge maps stay injective.
    fam = build_ckt_family(g, small_cutoff(g, cutoff))
    dim = fam.dimension
    masks = {v: m.copy() for v, m in fam.vertex_projections.items()}
    maps = {e: array("q", d) for e, d in fam.edge_isometries.items()}
    for _ in range(data.draw(st.integers(0, 3)) if dim else 0):
        i = data.draw(st.integers(0, dim - 1))
        if maps and data.draw(st.booleans()):
            d = maps[data.draw(st.sampled_from(sorted(maps)))]
            free = sorted(set(range(dim)) - set(d))
            d[i] = data.draw(st.sampled_from([-1] + free))
        else:
            masks[data.draw(st.sampled_from(g.vertices))][i] ^= 1
    perturbed = PartialIsometryFamily(g, fam.cutoff, fam.paths, masks, maps)
    assert ckt_report_to_json(verify_ckt(perturbed)) == ckt_report_to_json(
        ref.verify_ckt(dense(perturbed))
    )


def test_criterion_corpus_matches_the_dense_oracle():
    seen = set()
    for n in range(1, 9):
        for parents in all_parent_arrays(n):
            tree = tree_from_parents(parents)
            key = canonical_code(reduce(tree))
            if key not in seen:
                seen.add(key)
                agrees_with_oracle(tree.graph, longest_path(tree.graph) + 1)
    assert len(seen) >= 200
    rng = random.Random(808)
    for _ in range(50):
        g = random_dag(rng, rng.randrange(1, 7), p=0.5)
        agrees_with_oracle(g, longest_path(g) + 1)
    vs = [str(i) for i in range(6)]
    complete = DirectedGraph(vs, [(u, v) for k, u in enumerate(vs) for v in vs[k + 1:]])
    for cutoff in (5, 3):
        agrees_with_oracle(complete, cutoff)


def test_operator_norm_equals_module_norm():
    rng = random.Random(29)
    for _ in range(20):
        g = random_dag(rng, rng.randrange(1, 6), p=0.5)
        fam = build_ckt_family(g, cutoff=3)
        amps = {
            e: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for e in g.edges
        }
        x = GraphCorrespondenceVector(g, amps)
        if fam.dimension == 0:
            continue
        op = np.linalg.norm(ref.vector_operator(fam, x), 2)
        assert abs(op - module_norm(x)) < 1e-12


def random_neat_instance(rng: random.Random, g: DirectedGraph):
    d = {}
    for v in g.vertices:
        d[v] = rng.choice([0.0, 1.0, round(rng.uniform(0.1, 0.9), 3)])
    xa, ya = {}, {}
    for e in g.edges:
        dv = d[e[1]]
        if dv == 1.0 and rng.random() < 0.8:
            xa[e] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dv == 0.0 and rng.random() < 0.8:
            ya[e] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    return (
        GraphCorrespondenceVector(g, xa),
        GraphCorrespondenceVector(g, ya),
        d,
    )


def test_neat_inequality_trivial_cases():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 2})
    zero = GraphCorrespondenceVector(g)
    res = check_neat_inequality(x, zero, {"a": 1.0})
    assert res and res.norm_sum == res.norm_x == 2.0


def test_neat_inequality_disjoint_sources_attains_max():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 3})
    y = GraphCorrespondenceVector(g, {("r", "b"): 4})
    res = check_neat_inequality(x, y, {"a": 1.0, "b": 0.0})
    assert res.holds and res.norm_sum == 4.0


def test_neat_preconditions_enforced():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 1})
    y = GraphCorrespondenceVector(g, {("r", "a"): 1})
    with pytest.raises(PreconditionViolated):
        check_neat_inequality(x, y, {"a": 1.0})  # y not annihilated
    with pytest.raises(PreconditionViolated):
        check_neat_inequality(x, y, {"a": 0.5})
    with pytest.raises(PreconditionViolated):
        check_neat_inequality(x, GraphCorrespondenceVector(g), {"a": 2.0})


def test_neat_rejects_non_finite_d():
    # nan compares false both ways, so it once passed the range check
    # and gave a false counterexample: x = y = e_ab has norm 1, x + y 2.
    g = DirectedGraph(["a", "b"], [("a", "b")])
    x = GraphCorrespondenceVector(g, {("a", "b"): 1})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionViolated, match=r"d\('b'\) = .* is not in \[0, 1\]"):
            check_neat_inequality(x, x, {"b": bad})


def test_neat_inequality_randomized():
    rng = random.Random(41)
    done = 0
    while done < 150:
        g = random_dag(rng, rng.randrange(2, 7), p=0.5)
        if not g.edges:
            continue
        x, y, d = random_neat_instance(rng, g)
        assert check_neat_inequality(x, y, d).holds
        done += 1


FAN_IN_RUN = """
from treealg.correspondence import GraphCorrespondenceVector as V, check_neat_inequality, module_inner_product
from treealg.errors import PreconditionViolated
from treealg.graphs import DirectedGraph
ts = [f"t{i}" for i in range(1, 31)]
g = DirectedGraph(["s", *ts], [(t, "s") for t in ts])
x = V(g, {(t, "s"): 1 / i + 1j * i**0.5 for i, t in enumerate(ts, 1)})
print(repr(module_inner_product(x, x)["s"]))
try:
    check_neat_inequality(x, V(g), {})
except PreconditionViolated as exc:
    print(exc)
"""


def test_sums_and_first_failing_edge_do_not_follow_string_hashing():
    # 30 edges into one source vertex: added in hash order, the sum's last
    # bits and the first edge named changed with PYTHONHASHSEED.
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    outs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", FAN_IN_RUN], env=env, capture_output=True, text=True, check=True
        )
        outs.add(done.stdout)
    assert len(outs) == 1
    assert outs.pop().splitlines()[1] == "x is not fixed by d at edge ('t1', 's')"
