"""End-to-end acceptance suite.

Each test covers one advertised guarantee, prints a one-line summary,
and enforces the stated time budget.  Nothing here may be weakened: a
red line in this file means the package does not do what it claims.
"""

import itertools
import json
import random
import time

from treealg.algebra import DigraphAlgebra, covering_pairs, solve_grading
from treealg.ampliation import TreeRefinementSpec, ampliate, build_tree_refinement_tower
from treealg.catalog import (
    chain_forest,
    lambda_tree,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from treealg.classify import (
    Distinct,
    Equivalent,
    canonical_code,
    classify_tree_refinement,
    reduce,
    trees_isomorphic,
)
from treealg.cli import main
from treealg.correspondence import (
    GraphCorrespondenceVector,
    build_ckt_family,
    check_neat_inequality,
    verify_ckt,
)
from treealg.embeddings import RegularEmbedding
from treealg.graphs import DirectedGraph, OutForest
from treealg.tower import Verdict, decide_tensor, materialize

import reference_kernel as ref
from conftest import all_parent_arrays, random_dag, random_out_tree, tree_from_parents


def finish(number: int, label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): pass in {elapsed:.2f}s, budget {budget:.0f}s")
    assert elapsed < budget


def test_criterion_01_ampliation_figure(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "lambda.json"
    path.write_text(
        json.dumps({"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["1", "3"]]})
    )
    assert main(["ampliate", str(path), "-l", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["vertices"]) == {
        "(1,1)", "(1,2)", "(2,1)", "(2,2)", "(3,1)", "(3,2)",
    }
    assert {tuple(e) for e in doc["edges"]} == {
        ("(1,1)", "(1,2)"),
        ("(1,2)", "(2,1)"),
        ("(1,2)", "(3,1)"),
        ("(2,1)", "(2,2)"),
        ("(3,1)", "(3,2)"),
    }
    finish(1, "ampliation figure", start, 1.0)


def test_criterion_02_four_vertex_grading(capsys):
    start = time.perf_counter()
    g = DirectedGraph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("3", "4")])
    algebra, unit = DigraphAlgebra.from_graph(g)
    grading = solve_grading(algebra)
    assert grading
    expected = {
        (unit["2"], unit["1"]): 1,
        (unit["3"], unit["1"]): 1,
        (unit["4"], unit["3"]): 1,
        (unit["4"], unit["1"]): 2,
    }
    for pair, value in expected.items():
        assert grading.of(pair) == value
    off_diagonal = [p for p in algebra.relation if p[0] != p[1]]
    assert sorted(off_diagonal) == sorted(expected)
    finish(2, "four-vertex grading", start, 1.0)


def test_criterion_03_triple_copy_yes(capsys):
    start = time.perf_counter()
    tower = triple_copy_tower(3)
    decision = decide_tensor(tower, depth=3)
    assert decision.verdict is Verdict.YES
    levels = decision.certificate.levels
    assert [lv.level for lv in levels] == [1, 2, 3]
    for k, lv in enumerate(levels):
        OutForest(lv.forest.graph)
        DigraphAlgebra(lv.algebra.blocks, lv.algebra.relation)
        if k + 1 < len(levels):
            emb = lv.embedding
            assert emb is not None
            assert emb.source == lv.algebra
            assert emb.target == levels[k + 1].algebra
            RegularEmbedding(emb.source, emb.target, emb.image)
            next_edges = covering_pairs(levels[k + 1].algebra)
            for pair in covering_pairs(lv.algebra):
                assert emb.of(pair) <= next_edges
        else:
            assert lv.embedding is None
    finish(3, "triple-copy tower decided yes", start, 10.0)


def test_criterion_04_refinement_no(capsys):
    start = time.perf_counter()
    decision = decide_tensor(refinement_tower(2, 2), depth=3)
    assert decision.verdict is Verdict.NO
    grades = decision.certificate.chain.grades
    assert grades[0] == 1 and grades[1] >= 2
    finish(4, "refinement tower refused", start, 1.0)


def test_criterion_05_tree_refinement_never_yes(capsys):
    start = time.perf_counter()
    spec = TreeRefinementSpec(lambda_tree(), (), 2)
    tower = build_tree_refinement_tower(spec, 3)
    decision = decide_tensor(tower, depth=3)
    assert decision.verdict in (Verdict.NO, Verdict.INCONCLUSIVE)
    finish(5, "branching tree refinement refused", start, 5.0)


def shape_isomorphic(a: OutForest, b: OutForest) -> bool:
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    degrees = lambda f: sorted(
        sum(1 for s, _ in f.edges if s == v) for v in f.vertices
    )
    if degrees(a) != degrees(b):
        return False
    for perm in itertools.permutations(b.vertices):
        m = dict(zip(a.vertices, perm))
        if all((m[s], m[t]) in b.edges for s, t in a.edges):
            return True
    return False


def weighted_isomorphic(a: OutForest, b: OutForest) -> bool:
    if len(a.vertices) != len(b.vertices) or sorted(
        a.graph.weights.values()
    ) != sorted(b.graph.weights.values()):
        return False
    for perm in itertools.permutations(b.vertices):
        m = dict(zip(a.vertices, perm))
        if any(a.graph.weight(v) != b.graph.weight(m[v]) for v in a.vertices):
            continue
        if all((m[s], m[t]) in b.edges for s, t in a.edges):
            return True
    return False


def relabel_tree(rng: random.Random, f: OutForest) -> OutForest:
    names = list(f.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    m = dict(zip(names, shuffled))
    order = names[:]
    rng.shuffle(order)
    return OutForest(
        DirectedGraph([m[v] for v in order], [(m[s], m[t]) for s, t in f.edges])
    )


def test_criterion_06_isomorphism_oracle(capsys):
    start = time.perf_counter()
    rng = random.Random(606)
    pairs = 0
    while pairs < 300:
        a = random_out_tree(rng, rng.randrange(1, 9))
        if rng.random() < 0.5:
            b = relabel_tree(rng, a)
        else:
            b = random_out_tree(rng, rng.randrange(1, 9))
        assert trees_isomorphic(a, b) == shape_isomorphic(a, b)
        pairs += 1
    while pairs < 500:
        ra = reduce(random_out_tree(rng, rng.randrange(1, 9)))
        wa = OutForest(
            DirectedGraph(ra.vertices, ra.edges, {v: rng.randrange(4) for v in ra.vertices})
        )
        if rng.random() < 0.5:
            wb = relabel_weighted(rng, wa)
        else:
            rb = reduce(random_out_tree(rng, rng.randrange(1, 9)))
            wb = OutForest(
                DirectedGraph(rb.vertices, rb.edges, {v: rng.randrange(4) for v in rb.vertices})
            )
        assert (canonical_code(wa) == canonical_code(wb)) == weighted_isomorphic(wa, wb)
        pairs += 1
    finish(6, "isomorphism oracle, 500 pairs", start, 60.0)


def relabel_weighted(rng: random.Random, w: OutForest) -> OutForest:
    names = list(w.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    m = dict(zip(names, shuffled))
    order = names[:]
    rng.shuffle(order)
    return OutForest(
        DirectedGraph(
            [m[v] for v in order],
            [(m[s], m[t]) for s, t in w.edges],
            {m[v]: w.graph.weight(v) for v in names},
        )
    )


def test_criterion_07_classification_cases(capsys):
    start = time.perf_counter()
    lam = TreeRefinementSpec(lambda_tree(), (), 2)
    amp = TreeRefinementSpec(ampliate(lambda_tree(), 2), (), 2)
    result = classify_tree_refinement(lam, amp, ampliation_bound=2)
    assert isinstance(result, Equivalent)

    chain = TreeRefinementSpec(chain_forest(3), (), 2)
    assert isinstance(classify_tree_refinement(lam, chain, ampliation_bound=3), Distinct)

    extra_three = TreeRefinementSpec(lambda_tree(), (3,), 2)
    verdict = classify_tree_refinement(lam, extra_three, ampliation_bound=3)
    assert isinstance(verdict, Distinct)
    finish(7, "classification cases", start, 5.0)


def longest_path(g: DirectedGraph) -> int:
    memo = {}

    def down(v):
        if v not in memo:
            memo[v] = 1 + max((down(s) for s in g.successors(v)), default=-1)
        return memo[v]

    return max((down(v) for v in g.vertices), default=0)


def test_criterion_08_ckt_families(capsys):
    start = time.perf_counter()
    seen = set()
    checked = 0
    for n in range(1, 9):
        for parents in all_parent_arrays(n):
            tree = tree_from_parents(parents)
            key = canonical_code(reduce(tree))
            if key in seen:
                continue
            seen.add(key)
            g = tree.graph
            report = verify_ckt(build_ckt_family(g, cutoff=longest_path(g) + 1))
            assert report.exact
            assert all(c.residual == 0 for c in report.checks.values())
            checked += 1
    rng = random.Random(808)
    for _ in range(50):
        g = random_dag(rng, rng.randrange(1, 7), p=0.5)
        report = verify_ckt(build_ckt_family(g, cutoff=longest_path(g) + 1))
        assert report.exact
        assert all(c.residual == 0 for c in report.checks.values())
    assert checked >= 200
    finish(8, f"ckt relations on {checked} tree shapes plus 50 dags", start, 30.0)


def test_criterion_09_neat_inequality(capsys):
    start = time.perf_counter()
    rng = random.Random(909)
    done = 0
    while done < 1000:
        g = random_dag(rng, rng.randrange(2, 7), p=0.5)
        if not g.edges:
            continue
        d = {
            v: rng.choice([0.0, 1.0, round(rng.uniform(0.05, 0.95), 3)])
            for v in g.vertices
        }
        xa, ya = {}, {}
        for e in g.edges:
            if d[e[1]] == 1.0 and rng.random() < 0.8:
                xa[e] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if d[e[1]] == 0.0 and rng.random() < 0.8:
                ya[e] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        x = GraphCorrespondenceVector(g, xa)
        y = GraphCorrespondenceVector(g, ya)
        assert check_neat_inequality(x, y, d).holds
        done += 1
    finish(9, "1000 norm inequality instances", start, 10.0)


def test_criterion_10_counting_grades_agree(capsys):
    start = time.perf_counter()
    corpus = [
        (standard_tower(2, 3), 3),
        (standard_image_tower(4, 2), 2),
        (triple_copy_tower(3), 3),
        (build_tree_refinement_tower(TreeRefinementSpec(lambda_tree(), (), 1), 3), 3),
    ]
    for tower, depth in corpus:
        decision = decide_tensor(tower, depth=depth)
        assert decision.verdict is Verdict.YES
        levels, maps = materialize(tower, depth)
        grades = [ref.grade_table(a) for a in levels]
        for lv in decision.certificate.levels:
            grading = solve_grading(lv.algebra)
            assert grading
            for pair in lv.algebra.irreflexive_pairs():
                chains = ref.pair_chain_grades(maps, grades, lv.level, pair)
                assert chains
                assert grading.of(pair) == max(cg.grades[-1] for cg in chains)
    finish(10, "counting grades agree on yes towers", start, 10.0)
