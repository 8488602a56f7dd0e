from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_ref
from topolayers.document import (
    DocumentError,
    decomposition_to_document,
    parse_document,
    serialize_document,
    verify_document,
)


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_round_trip_byte_identity(which, request):
    d = request.getfixturevalue(f"{which}_decomposition")
    doc = decomposition_to_document(d)
    text = serialize_document(doc)
    doc2 = parse_document(text)
    assert serialize_document(doc2) == text


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_produced_documents_verify(which, request):
    d = request.getfixturevalue(f"{which}_decomposition")
    doc = decomposition_to_document(d)
    rep = verify_document(doc)
    assert rep.ok, rep.lines()


def test_parse_rejects_garbage():
    with pytest.raises(DocumentError, match="JSON"):
        parse_document("{not json")
    with pytest.raises(DocumentError, match="not a"):
        parse_document('{"format": "something-else"}')
    with pytest.raises(DocumentError, match="missing"):
        parse_document('{"format": "topolayers-decomposition", "graph": {}}')


def test_corrupted_arc_fails_verification(k7_document):
    text = serialize_document(k7_document)
    doc = parse_document(text)
    doc["layers"][0]["system"]["cycles"][0]["arcs"][0] = [1, 4]
    rep = verify_document(doc)
    assert not rep.ok


def test_document_lists_all_imaginary(k7_document, k7_decomposition):
    ids = {entry["id"] for entry in k7_document["imaginary"]}
    assert ids == set(k7_decomposition.drawing.imaginary)
    total = sum(len(s) for s in k7_document["sequences"].values())
    assert total == len(ids)


DIGESTED = [
    "k7_decomposition",
    "k8_decomposition",
    "k10_decomposition",
    "k12_unpinned_decomposition",
    "k14_unpinned_decomposition",
    "k16_unpinned_decomposition",
    "q4_decomposition",
    "q5_decomposition",
]


@pytest.mark.parametrize("fixture", DIGESTED)
def test_serialize_matches_json_on_digested_documents(fixture, request):
    doc = decomposition_to_document(request.getfixturevalue(fixture))
    assert serialize_document(doc) == serialize_ref(doc)
    assert verify_document(doc).ok


_text = st.text(alphabet=st.sampled_from('a"\\[]{},: \n\té \U0001f600'), max_size=6)
_scalars = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.floats(), _text
)
# Row cells: mostly ints, with the bools and floats a %d template would
# write as ints.
_cells = st.one_of(st.integers(), st.integers(), st.booleans(), st.floats(-3, 3))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.lists(_cells, min_size=2, max_size=2), max_size=4),
        st.lists(st.lists(_cells, min_size=3, max_size=3), max_size=4),
        st.lists(st.one_of(_cells, _text), max_size=4),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_serialize_matches_json_on_drawn_values(value):
    assert serialize_document(value) == serialize_ref(value)


def test_serialize_refuses_non_str_keys():
    with pytest.raises(TypeError):
        serialize_document({"layers": [{1: 2}]})


def _edge_off_the_graph(doc):
    doc["graph"]["edges"][0] = [1, 1, 50]


def _self_loop(doc):
    doc["graph"]["edges"][0] = [1, 2, 2]


def _repeated_edge_id(doc):
    doc["graph"]["edges"][1][0] = doc["graph"]["edges"][0][0]


def _repeated_edge_ends(doc):
    eid, u, v = doc["graph"]["edges"][0]
    doc["graph"]["edges"][1][1:] = [v, u]


def _chord_not_its_edge(doc):
    doc["chords"][0][1:] = doc["chords"][0][:0:-1]


def _ring_off_the_graph(doc):
    doc["layers"][1]["ring"][3] = 500


def _ring_repeats_a_vertex(doc):
    doc["layers"][1]["ring"][3] = doc["layers"][1]["ring"][4]


def _ring_pair_not_in_layer_1(doc):
    ring = doc["layers"][2]["ring"]
    ring[0], ring[2] = ring[2], ring[0]


def _ring_on_layer_1(doc):
    doc["layers"][0]["ring"] = list(doc["layers"][1]["ring"])


def _layer_index_seven(doc):
    doc["layers"][1]["index"] = 7


def _bogus_face_under_a_used_id(doc):
    cycles = doc["layers"][1]["system"]["cycles"]
    cycles.insert(0, {"id": cycles[0]["id"], "arcs": [[1, 2], [2, 3], [3, 1]]})


def _cycle_entry_twice(doc):
    cycles = doc["layers"][1]["system"]["cycles"]
    cycles.append(json.loads(json.dumps(cycles[-1])))


def _chord_row_twice(doc):
    doc["chords"].append(list(doc["chords"][0]))


@pytest.mark.parametrize(
    "corrupt,check,detail",
    [
        (_edge_off_the_graph, "graph-edges", "e1: (1,50) names a vertex outside 1..10"),
        (_self_loop, "graph-edges", "e1: self-loop at v2"),
        (_repeated_edge_id, "graph-edges", "e1: id used twice"),
        (_repeated_edge_ends, "graph-edges", "e2: same ends as e1"),
        (_chord_not_its_edge, "graph-edges", "is not graph edge"),
        (_ring_off_the_graph, "layer-rings", "layer 2: ring does not list 1..10 once each"),
        (_ring_repeats_a_vertex, "layer-rings", "layer 2: ring does not list 1..10 once each"),
        (_ring_pair_not_in_layer_1, "layer-rings", "is not an edge of the first layer"),
        (_ring_on_layer_1, "layer-rings", "layer 1: the first layer has a ring"),
        (_layer_index_seven, "layer-indexes", "layer 2 has index 7"),
        (_bogus_face_under_a_used_id, "layer-2/cycle-ids", "id used 2 times"),
        (_cycle_entry_twice, "layer-2/cycle-ids", "id used 2 times"),
        (_chord_row_twice, "graph-edges", "listed twice"),
    ],
    ids=[
        "edge-off-graph",
        "self-loop",
        "repeated-id",
        "repeated-ends",
        "chord-not-its-edge",
        "ring-off-graph",
        "ring-repeats",
        "ring-pair-off-layer-1",
        "ring-on-layer-1",
        "layer-index-seven",
        "bogus-face-reusing-an-id",
        "cycle-entry-twice",
        "chord-row-twice",
    ],
)
def test_verifier_names_bad_edges_and_rings(k10_decomposition, corrupt, check, detail):
    doc = parse_document(serialize_document(decomposition_to_document(k10_decomposition)))
    assert verify_document(doc).checks[check].ok
    corrupt(doc)
    rep = verify_document(doc)
    assert not rep.ok and not rep.checks[check].ok
    assert any(detail in d for d in rep.checks[check].details), rep.checks[check].details


def test_verifier_names_layers_by_position(k10_decomposition):
    """A broken layer 2 stays reported when layer 3 claims index 2."""
    doc = parse_document(serialize_document(decomposition_to_document(k10_decomposition)))
    doc["layers"][1]["system"]["cycles"][0]["arcs"][0] = [1, 4]
    broken = {name for name, res in verify_document(doc).checks.items() if not res.ok}
    assert broken and all(name.startswith("layer-2/") for name in broken)
    doc["layers"][2]["index"] = 2
    rep = verify_document(doc)
    assert {name for name, res in rep.checks.items() if not res.ok} == broken | {"layer-indexes"}
    assert rep.checks["layer-indexes"].details == ["layer 3 has index 2"]
