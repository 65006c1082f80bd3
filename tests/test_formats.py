"""Round trips and error paths of the interchange codecs."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealg.algebra import DigraphAlgebra
from treealg.ampliation import TreeRefinementSpec, build_tree_refinement_tower
from treealg.cli import main
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
    spec_from_json,
    tower_from_json,
    vector_from_json,
)
from treealg.graphs import DirectedGraph
from treealg.tower import NestRule, RefinementRule, StandardRule, Tower, TreeRefinementRule

from catalog import (
    lambda_graph,
    lambda_tree,
    mixed_tower,
    refinement_tower,
    standard_image_tower,
    standard_tower,
    triple_copy_tower,
)
from conftest import random_dag, random_out_forest, random_weights
import reference_kernel as ref
from reference_kernel import rule_to_json, spec_to_json, tower_to_json, vector_to_json
from test_tower import translation_towers


def assert_tower_equal(a, b):
    assert a.levels == b.levels
    assert a.maps == b.maps
    assert a.rule == b.rule


def test_graph_round_trip_with_weights():
    lam = lambda_graph()
    g = DirectedGraph(lam.vertices, lam.edges, {"a": 2})
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.weights["a"] == 2


def test_bool_weight_is_rejected_so_every_graph_round_trips():
    # graph_from_json rejects a JSON true as a weight, so the constructor
    # must not accept True either, or graph_to_json would emit one.
    lam = lambda_graph()
    with pytest.raises(ValueError, match="weight of 'a' must be a nonnegative integer"):
        DirectedGraph(lam.vertices, lam.edges, {"a": True})
    with pytest.raises(FormatError, match="found bool"):
        graph_from_json({"vertices": [{"id": "a", "weight": True}], "edges": []})
    g = DirectedGraph(lam.vertices, lam.edges, {"a": 1})
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = random_out_forest(rng, rng.randrange(1, 9))
        g = DirectedGraph(f.vertices, f.edges, random_weights(rng, f.graph))
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


@st.composite
def algebra_documents(draw):
    """Up to three blocks and up to eight units inside them, with perhaps
    a unit of random coordinates, in range or not, and perhaps a
    malformed one, each at a random place."""
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    inside = st.integers(0, len(blocks) - 1).flatmap(
        lambda b: st.lists(st.integers(1, blocks[b]), min_size=2, max_size=2).map(
            lambda rs: [[b, rs[0]], [b, rs[1]]]
        )
    )
    units = draw(st.lists(inside, max_size=8))
    coordinate = st.integers(-1, 5)
    for extra in (
        st.lists(st.lists(coordinate, min_size=2, max_size=2), min_size=2, max_size=2),
        st.sampled_from(MALFORMED_UNITS),
    ):
        if draw(st.booleans()):
            units.insert(draw(st.integers(0, len(units))), draw(extra))
    return {"blocks": blocks, "units": units}


@settings(max_examples=300, deadline=None)
@given(algebra_documents())
def test_algebra_decoder_matches_the_tuple_decoder(doc):
    def decoded(decode):
        try:
            return decode(doc)
        except FormatError as exc:
            return str(exc)

    assert decoded(algebra_from_json) == decoded(ref.algebra_from_json)


def test_algebra_shape_errors_come_before_range_errors():
    # Every shape check once ran before any range check, so the first unit
    # out of range or pair across blocks waits for the end of the list.
    ranges = [[[0, 1], [0, 3]], [[0, 1], [1, 1]], [[0, 2], [0, 9]]]
    messages = [
        "unit (0, 3) is out of range for blocks [2, 1]",
        "pair (0, 1) / (1, 1) crosses blocks",
        "unit (0, 9) is out of range for blocks [2, 1]",
    ]
    shape = "algebra.units[3][1][1]: expected an integer, found bool"
    for blocks in ([2, 1], [0]):
        with pytest.raises(FormatError) as info:
            algebra_from_json({"blocks": blocks, "units": ranges + [[[0, 1], [0, True]]]})
        assert str(info.value) == shape
    for k, message in enumerate(messages):
        with pytest.raises(FormatError) as info:
            algebra_from_json({"blocks": [2, 1], "units": ranges[k:]})
        assert str(info.value) == f"algebra: {message}"
    with pytest.raises(FormatError) as info:
        algebra_from_json({"blocks": [0], "units": ranges})
    assert str(info.value) == "algebra: blocks must be a nonempty list of positive sizes"


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


# A matrix unit inside a tower file, by its keys from the document root:
# a level's unit, an explicit map's source pair, and one of its targets.
MATRIX_UNITS = {
    "tower.levels[1].units[2]": ("levels", 1, "units", 2),
    "tower.maps[0].image[1][0]": ("maps", 0, "image", 1, 0),
    "tower.maps[0].image[1][1][1]": ("maps", 0, "image", 1, 1, 1),
}

# (keys inside the matrix unit, the value put there, the rest of the message)
MALFORMED = [
    ((0, 1), True, "[0][1]: expected an integer, found bool"),
    ((0, 1), 1.5, "[0][1]: expected an integer, found float"),
    ((1, 0), "0", "[1][0]: expected an integer, found str"),
    ((1, 1), None, "[1][1]: expected an integer, found NoneType"),
    ((0,), [0], "[0]: a unit is a [block, row] pair"),
    ((1,), [0, 1, 2], "[1]: a unit is a [block, row] pair"),
    ((1,), (0, 2), "[1]: expected an array, found tuple"),
    ((), [[0, 1]], ": a matrix unit is a [[block,row],[block,col]] pair"),
    ((), [[0, 1], [0, 2], [0, 3]], ": a matrix unit is a [[block,row],[block,col]] pair"),
    ((), {"range": [0, 1]}, ": expected an array, found dict"),
    ((), ((0, 1), (0, 2)), ": expected an array, found tuple"),
    ((), "e12", ": expected an array, found str"),
    ((), None, ": expected an array, found NoneType"),
]


@pytest.mark.parametrize("where", MATRIX_UNITS)
@pytest.mark.parametrize("inner, value, rest", MALFORMED)
def test_malformed_matrix_units_are_worded_exactly(where, inner, value, rest):
    e = standard_embedding(2, 2)
    doc = tower_to_json(Tower([e.source, e.target], [e]))
    keys = MATRIX_UNITS[where] + inner
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    with pytest.raises(FormatError) as info:
        tower_from_json(doc)
    assert str(info.value) == where + rest


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


def test_explicit_map_rejects_repeated_pairs():
    # Once the last of two entries of a source pair won, and a target pair
    # listed twice was read once: e12 -> 2 e12 + e34 became e12 + e34.
    e = standard_embedding(2, 2)
    e12 = [[0, 1], [0, 2]]
    doc = tower_to_json(Tower([e.source, e.target], [e]))
    image = doc["maps"][0]["image"]
    assert image[1] == [e12, [e12, [[0, 3], [0, 4]]]]
    image.append(image[1])
    with pytest.raises(FormatError) as info:
        tower_from_json(doc)
    assert str(info.value) == (
        "tower.maps[0].image[3]: source pair ((0, 1), (0, 2)) has an earlier entry"
    )
    image.pop()
    image[1][1].insert(0, e12)
    with pytest.raises(FormatError) as info:
        tower_from_json(doc)
    assert str(info.value) == "tower.maps[0].image[1]: target pair ((0, 1), (0, 2)) is listed twice"


# ---------------------------------------------------------------------------
# the one-pass decoder against the decoder it replaced (reference_kernel)


def _decoded(decode, doc):
    """The levels, maps and written text of decode(doc), or the type and
    message of what it raised.  Towers compare by identity, so these
    stand in for them."""
    try:
        t = decode(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return list(t.levels), list(t.maps), json.dumps(tower_to_json(t))


def _unit_slots(doc):
    """(list, index) of every matrix unit of a tower document."""
    slots = [(lv["units"], k) for lv in doc["levels"] for k in range(len(lv["units"]))]
    for mp in doc["maps"]:
        for entry in mp["image"]:
            slots.append((entry, 0))
            slots += [(entry[1], k) for k in range(len(entry[1]))]
    return slots


def _entries(draw, doc, count):
    """An explicit map's image list and count distinct entry indices, or
    None when no map has that many entries."""
    images = [mp["image"] for mp in doc["maps"] if len(mp["image"]) >= count]
    if not images:
        return None
    image = draw(st.sampled_from(images))
    indices = st.integers(0, len(image) - 1)
    picked = draw(st.lists(indices, min_size=count, max_size=count, unique=True))
    return image, picked


def _drop_entry(draw, doc):
    if (got := _entries(draw, doc, 1)) is not None:
        image, (k,) = got
        del image[k]


def _duplicate_entry(draw, doc):
    if (got := _entries(draw, doc, 1)) is not None:
        image, (k,) = got
        image.insert(draw(st.integers(0, len(image))), json.loads(json.dumps(image[k])))


def _swap_targets(draw, doc):
    if (got := _entries(draw, doc, 2)) is not None:
        image, (k, m) = got
        a, b = image[k][1], image[m][1]
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(b) - 1))
        a[i], b[j] = b[j], a[i]


def _repeat_target(draw, doc):
    if (got := _entries(draw, doc, 1)) is not None:
        image, (k,) = got
        targets = image[k][1]
        targets[draw(st.integers(0, len(targets) - 1))] = draw(st.sampled_from(targets))


def _omit_diagonal(draw, doc):
    if (got := _entries(draw, doc, 1)) is not None:
        image, _ = got
        image[:] = [e for e in image if e[0][0] != e[0][1] or draw(st.booleans())]


def _set_coordinate(draw, doc, values):
    slots = _unit_slots(doc)
    if slots:
        items, k = draw(st.sampled_from(slots))
        unit = json.loads(json.dumps(items[k]))
        u, c = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        unit[u][c] = draw(st.sampled_from(values(unit[u][c])))
        items[k] = unit


def _out_of_range(draw, doc):
    _set_coordinate(draw, doc, lambda x: [-1, 0, 1, 64, x + 1])


def _bool_or_float(draw, doc):
    _set_coordinate(draw, doc, lambda x: [True, False, 1.0, float(x)])


def _cross_block(draw, doc):
    level = draw(st.sampled_from(doc["levels"]))
    level["blocks"].append(draw(st.integers(1, 2)))
    row = draw(st.integers(1, level["blocks"][0]))
    pair = [[0, row], [1, 1]] if draw(st.booleans()) else [[1, 1], [0, row]]
    level["units"].insert(draw(st.integers(0, len(level["units"]))), pair)


def _bad_blocks(draw, doc):
    draw(st.sampled_from(doc["levels"]))["blocks"] = draw(st.sampled_from([[], [0], [-2], [3, 0]]))


MALFORMED_UNITS = [[[0, 1]], "e12", None, {"a": 1}, [[0, 1], [0]], [[0, 1], [0, True]]]


def _shape_after_range(draw, doc):
    lists = [lv["units"] for lv in doc["levels"] if lv["units"]]
    lists += [e[1] for mp in doc["maps"] for e in mp["image"]]
    if lists:
        items = draw(st.sampled_from(lists))
        k = draw(st.integers(0, len(items) - 1))
        items[k] = [[0, 0], [0, 1]]
        items.insert(draw(st.integers(k + 1, len(items))), draw(st.sampled_from(MALFORMED_UNITS)))


MUTATIONS = [
    None,
    _drop_entry,
    _duplicate_entry,
    _repeat_target,
    _swap_targets,
    _omit_diagonal,
    _out_of_range,
    _bool_or_float,
    _cross_block,
    _bad_blocks,
    _shape_after_range,
]


@st.composite
def tower_documents(draw):
    """A random translation tower as tower_to_json writes it, parsed from
    its text, then perhaps changed by one mutation."""
    t, _ = draw(translation_towers())
    doc = json.loads(json.dumps(tower_to_json(t)))
    mutate = draw(st.sampled_from(MUTATIONS))
    if mutate is not None:
        mutate(draw, doc)
    return doc


@settings(max_examples=300, deadline=None)
@given(tower_documents())
def test_decoder_matches_the_tuple_decoder(doc):
    assert _decoded(tower_from_json, doc) == _decoded(ref.tower_from_json, doc)


# Edits of the image list of the triple_copy_tower(2) document, whose
# entries 0 to 5 are those of ((0, i), (0, j)) for (i, j) = (1, 1), (1, 2),
# (1, 3), (2, 2), (2, 3), (3, 3); each with the form the map is then read
# in, or None where the file does not decode.


def _reorder_targets(image):
    image[1][1].insert(0, image[1][1].pop())


def _omit_diagonal_entries(image):
    image[:] = [e for e in image if e[0][0] != e[0][1]]


def _repeat_target_in_entry(image):
    image[1][1][1] = image[1][1][0]


def _swap_targets_between_entries(image):
    image[1][1][0], image[2][1][0] = image[2][1][0], image[1][1][0]


def _add_entry_outside_the_relation(image):
    image.append([[[0, 2], [0, 1]], [[[0, 2], [0, 1]], [[0, 4], [0, 3]], [[0, 8], [0, 7]]]])


def _share_copies(image):
    image[3][1] = image[0][1]


def _move_target_to_another_block(image):
    image[1][1][0][0][0] = 1


COPY_MAP_EDITS = {
    "targets in another order": (_reorder_targets, "copies"),
    "diagonal entries omitted": (_omit_diagonal_entries, "image sets"),
    "off-diagonal entry dropped": (lambda image: image.pop(1), None),
    "entry repeated": (lambda image: image.append(image[1]), None),
    "target repeated in its entry": (_repeat_target_in_entry, None),
    "targets swapped between entries": (_swap_targets_between_entries, None),
    "entry outside the source relation": (_add_entry_outside_the_relation, None),
    "copies shared by two units": (_share_copies, None),
    "target pair in another block": (_move_target_to_another_block, None),
}


@pytest.mark.parametrize("edit", COPY_MAP_EDITS)
def test_decoder_matches_the_tuple_decoder_on_edited_copy_maps(edit):
    doc = json.loads(json.dumps(tower_to_json(triple_copy_tower(2))))
    change, form = COPY_MAP_EDITS[edit]
    change(doc["maps"][0]["image"])
    got = _decoded(tower_from_json, doc)
    assert got == _decoded(ref.tower_from_json, doc)
    if form is None:
        assert got[0] is FormatError
    else:
        assert ("copies" if got[1][0]._copies is not None else "image sets") == form


def test_target_with_more_units_than_the_copies_is_read_as_image_sets():
    doc = json.loads(json.dumps(tower_to_json(triple_copy_tower(2))))
    doc["levels"][1]["blocks"] = [10]
    got = _decoded(tower_from_json, doc)
    assert got == _decoded(ref.tower_from_json, doc)
    assert got[1][0]._copies is None


# Levels [2] with (1,2) and [4] with (1,2), (3,4), (1,4), (3,2); the map
# sends (1,2) to (1,4) + (3,2): valid, but it pairs the sorted copies
# [1, 3] and [2, 4] of units 1 and 2 crosswise.
TWISTED = {
    "levels": [
        {"blocks": [2], "units": [[[0, 1], [0, 2]]]},
        {
            "blocks": [4],
            "units": [[[0, 1], [0, 2]], [[0, 1], [0, 4]], [[0, 3], [0, 2]], [[0, 3], [0, 4]]],
        },
    ],
    "maps": [
        {
            "kind": "explicit",
            "image": [
                [[[0, 1], [0, 1]], [[[0, 1], [0, 1]], [[0, 3], [0, 3]]]],
                [[[0, 1], [0, 2]], [[[0, 1], [0, 4]], [[0, 3], [0, 2]]]],
                [[[0, 2], [0, 2]], [[[0, 2], [0, 2]], [[0, 4], [0, 4]]]],
            ],
        }
    ],
    "rule": None,
}


def test_twisted_map_is_read_as_image_sets(tmp_path, capsys):
    assert _decoded(tower_from_json, TWISTED) == _decoded(ref.tower_from_json, TWISTED)
    (e,) = tower_from_json(TWISTED).maps
    assert e._copies is None
    assert e.of(((0, 1), (0, 2))) == {((0, 1), (0, 4)), ((0, 3), (0, 2))}
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(TWISTED))
    assert main(["check-tensor", str(path)]) == 2


@pytest.mark.parametrize(
    "tower",
    [triple_copy_tower(4), mixed_tower(), standard_image_tower(2, 2)],
    ids=["triple_copy_tower(4)", "mixed_tower()", "standard_image_tower(2, 2)"],
)
def test_written_translation_maps_are_read_as_copies(tower):
    back = tower_from_json(json.loads(json.dumps(tower_to_json(tower))))
    assert all(e._copies is not None and e._image is None for e in back.maps)
    assert list(back.maps) == list(tower.maps)


def test_decoding_the_triple_copy_tower_allocates_little():
    # 0.51 MB when every unit pair became a tuple and every map a dict of
    # frozensets of them; the rows and copy lists need under 0.05 MB.
    doc = json.loads(json.dumps(tower_to_json(triple_copy_tower(4))))
    tracemalloc.start()
    try:
        tower_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
