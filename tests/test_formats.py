"""Round trips and error paths of the interchange codecs."""

import random

import pytest

from treealg.algebra import DigraphAlgebra
from treealg.ampliation import TreeRefinementSpec, build_tree_refinement_tower
from treealg.catalog import (
    lambda_graph,
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from treealg.correspondence import GraphCorrespondenceVector
from treealg.embeddings import refinement_embedding, standard_embedding
from treealg.errors import FormatError
from treealg.formats import (
    algebra_from_json,
    algebra_to_json,
    embedding_from_json,
    embedding_to_json,
    forest_from_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    rule_from_json,
    rule_to_json,
    spec_from_json,
    spec_to_json,
    tower_from_json,
    tower_to_json,
    vector_from_json,
    vector_to_json,
)
from treealg.graphs import DirectedGraph
from treealg.tower import NestRule, RefinementRule, StandardRule, TreeRefinementRule

from conftest import random_dag, random_out_forest, random_weights


def assert_tower_equal(a, b):
    assert a.levels == b.levels
    assert a.maps == b.maps
    assert a.rule == b.rule


def test_graph_round_trip_with_weights():
    g = lambda_graph().with_weights({"a": 2})
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.weights["a"] == 2


def test_graph_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = random_out_forest(rng, rng.randrange(1, 9))
        g = f.graph.with_weights(random_weights(rng, f.graph))
        assert graph_from_json(graph_to_json(g)) == g
        d = random_dag(rng, rng.randrange(0, 7))
        assert graph_from_json(graph_to_json(d)) == d


def test_graph_parse_errors_carry_paths():
    with pytest.raises(FormatError, match="graph.vertices"):
        graph_from_json({"vertices": 3, "edges": []})
    with pytest.raises(FormatError, match=r"vertices\[0\]"):
        graph_from_json({"vertices": [7], "edges": []})
    with pytest.raises(FormatError, match=r"edges\[0\]"):
        graph_from_json({"vertices": ["a"], "edges": [["a"]]})
    with pytest.raises(FormatError, match="missing field"):
        graph_from_json({"edges": []})
    with pytest.raises(FormatError):
        graph_from_json({"vertices": ["a"], "edges": [["a", "b"]]})


def test_forest_from_json_rejects_cycles():
    doc = {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}
    with pytest.raises(FormatError):
        forest_from_json(doc)


def test_algebra_round_trip():
    for a in [
        DigraphAlgebra.upper_triangular(4),
        DigraphAlgebra([2, 3]),
        DigraphAlgebra([3], [((0, 1), (0, 3))]),
    ]:
        assert algebra_from_json(algebra_to_json(a)) == a


def test_algebra_parse_closes_generators():
    doc = {
        "blocks": [3],
        "units": [[[0, 1], [0, 2]], [[0, 2], [0, 3]]],
    }
    a = algebra_from_json(doc)
    assert ((0, 1), (0, 3)) in a.relation


def test_algebra_parse_errors():
    with pytest.raises(FormatError, match="blocks"):
        algebra_from_json({"blocks": "x", "units": []})
    with pytest.raises(FormatError, match=r"units\[0\]"):
        algebra_from_json({"blocks": [2], "units": [[[0, 1]]]})
    with pytest.raises(FormatError, match="antisymmetry"):
        algebra_from_json(
            {"blocks": [2], "units": [[[0, 1], [0, 2]], [[0, 2], [0, 1]]]}
        )


def test_embedding_kinds_parse():
    std = embedding_from_json({"kind": "standard", "n": 2, "m": 3})
    assert std.target.blocks == (6,)
    ref = embedding_from_json({"kind": "refinement", "n": 2, "l": 2})
    assert len(ref.of(((0, 1), (0, 1)))) == 2
    with pytest.raises(FormatError, match="kind"):
        embedding_from_json({"kind": "mystery"})
    with pytest.raises(FormatError, match="surrounding"):
        embedding_from_json({"kind": "explicit", "image": []})


def test_explicit_embedding_round_trip():
    e = refinement_embedding(3, 2)
    doc = embedding_to_json(e)
    back = embedding_from_json(doc, source=e.source, target=e.target)
    assert back == e


def test_explicit_embedding_fills_diagonal():
    e = standard_embedding(2, 2)
    doc = embedding_to_json(e)
    doc["image"] = [entry for entry in doc["image"] if entry[0][0] != entry[0][1]]
    back = embedding_from_json(doc, source=e.source, target=e.target)
    assert back == e


def test_tree_standard_embedding_kind_is_unknown():
    emb = {"kind": "tree-standard", "attach": [{"r": "new-root"}]}
    doc = {"levels": [{"blocks": [1]}, {"blocks": [1]}], "maps": [emb]}
    with pytest.raises(FormatError, match="unknown embedding kind"):
        tower_from_json(doc)


def test_rule_round_trips():
    rules = [
        None,
        StandardRule(3),
        RefinementRule(2),
        NestRule(),
        TreeRefinementRule(lambda_tree(), 2),
    ]
    for r in rules:
        back = rule_from_json(rule_to_json(r))
        if isinstance(r, TreeRefinementRule):
            assert back.tree.graph == r.tree.graph and back.l == r.l
        else:
            assert back == r
    with pytest.raises(FormatError, match="rule.kind"):
        rule_from_json({"kind": "spiral"})
    for bad in ({"kind": "standard", "m": 0}, {"kind": "refinement", "l": 0}):
        with pytest.raises(FormatError, match="positive"):
            rule_from_json(bad)


def test_tower_round_trips():
    towers = [
        standard_tower(2, 3),
        refinement_tower(2, 2),
        standard_image_tower(4, 2),
        mixed_tower(3),
        triple_copy_tower(3),
        build_tree_refinement_tower(TreeRefinementSpec(lambda_tree(), (), 2), 3),
    ]
    for t in towers:
        assert_tower_equal(tower_from_json(tower_to_json(t)), t)


def test_tower_map_count_checked():
    doc = tower_to_json(standard_tower(2, 3))
    doc["maps"] = [{"kind": "standard", "n": 2, "m": 3}]
    with pytest.raises(FormatError, match="maps"):
        tower_from_json(doc)


def test_spec_round_trip():
    for spec in [
        TreeRefinementSpec(lambda_tree(), (2, 3), 2),
        TreeRefinementSpec(lambda_tree(), (), None),
    ]:
        back = spec_from_json(spec_to_json(spec))
        assert back.base.graph == spec.base.graph
        assert back.multiplicities == spec.multiplicities
        assert back.stationary == spec.stationary
    assert "stationary" not in spec_to_json(TreeRefinementSpec(lambda_tree()))


def test_spec_parse_errors():
    with pytest.raises(FormatError, match="base"):
        spec_from_json({"multiplicities": []})
    with pytest.raises(FormatError, match="multiplicities"):
        spec_from_json(
            {
                "base": graph_to_json(lambda_graph()),
                "multiplicities": [0],
            }
        )


def test_vector_round_trip():
    g = lambda_graph()
    x = GraphCorrespondenceVector(g, {("r", "a"): 1 + 2j, ("r", "b"): -0.5})
    back = vector_from_json(vector_to_json(x))
    assert back.graph == g
    for e in g.edges:
        assert back.amplitude(e) == x.amplitude(e)


def test_vector_parse_shortcuts_and_errors():
    doc = {
        "graph": graph_to_json(lambda_graph()),
        "amplitudes": [["r", "a", 2]],
    }
    assert vector_from_json(doc).amplitude(("r", "a")) == 2 + 0j
    doc["amplitudes"] = [["r", "a", "big"]]
    with pytest.raises(FormatError, match="number"):
        vector_from_json(doc)
    doc["amplitudes"] = [["a", "r", 1]]
    with pytest.raises(FormatError):
        vector_from_json(doc)


def test_json_documents_are_deterministic():
    t = triple_copy_tower(2)
    assert tower_to_json(t) == tower_to_json(triple_copy_tower(2))
    g = lambda_graph()
    assert graph_to_dot(g) == graph_to_dot(lambda_graph())


def test_dot_output_shape():
    dot = graph_to_dot(DirectedGraph(["a b", "c"], [("a b", "c")], {"c": 1}))
    assert dot.startswith("digraph")
    assert '"a b" -> "c";' in dot
    assert 'label="c (1)"' in dot
