from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_ref
from topolayers import document
from topolayers.document import (
    DocumentError,
    decomposition_to_document,
    parse_document,
    serialize_document,
    verify_document,
)
from topolayers.render import render_svg


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


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"n": ' + "1" * 5000 + "}"], ids=["nested", "long-int"]
)
def test_parse_reports_undecodable_json(text):
    if text[0] == "{" and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter reads ints of any length")
    with pytest.raises(DocumentError, match="not valid JSON"):
        parse_document(text)


@pytest.mark.parametrize(
    "keys",
    [{"03": [999, 998]}, {"03": None}, {"+3": None}, {"1" * 5000: [1]}],
    ids=["padded-beside-real", "padded-alone", "signed", "5000-digits"],
)
def test_parse_refuses_non_canonical_sequence_keys(k7_document, keys):
    doc = json.loads(serialize_document(k7_document))
    for key, seq in keys.items():
        doc["sequences"][key] = doc["sequences"].pop("3") if seq is None else seq
    with pytest.raises(DocumentError, match="malformed sequences"):
        parse_document(json.dumps(doc))


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


# The three row lists the emitter writes from cached templates, plus near
# misses that must take the generic path: bool and float cells, extra or
# missing keys, empty arcs, rows of length 1 or 3, refs of length 3, and
# kinds that hold %, a quote, a NUL or non-ASCII text.  Arcs, pairs,
# carriers and rows are drawn as lists, as a parsed document holds them,
# or as tuples, as a built one does, and a list of rows mixes the two.
_cell = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 99), st.booleans(), st.floats(-3, 3))
_int = st.integers(-(2**70), 2**70)


def _list_or_tuple(items):
    return st.one_of(items, items.map(tuple))


_pair = _list_or_tuple(st.lists(_int, min_size=2, max_size=2))
_near_pair = _list_or_tuple(st.lists(_cell, min_size=1, max_size=3))
_kind = st.one_of(
    st.sampled_from(["edge", "conn"]),
    st.text(alphabet=st.sampled_from('ab%d"\\\0é\U0001f600'), max_size=4),
    _int,
    st.booleans(),
)
_ref = st.one_of(_int, _pair, _cell, _near_pair)
_cycle = st.one_of(
    st.fixed_dictionaries(
        {"arcs": _list_or_tuple(st.lists(_pair, min_size=1, max_size=4)), "id": _int}
    ),
    st.fixed_dictionaries(
        {"arcs": _list_or_tuple(st.lists(st.one_of(_pair, _near_pair), max_size=3))},
        optional={"id": _cell, "rim": _int},
    ),
)
_carrier_pair = _list_or_tuple(st.tuples(_kind, _ref).map(list))
_imaginary = st.one_of(
    st.fixed_dictionaries({"carrier": _carrier_pair, "chord": _pair, "host": _pair, "id": _int}),
    st.fixed_dictionaries(
        {
            "carrier": st.one_of(_carrier_pair, _near_pair),
            "chord": st.one_of(_pair, _near_pair),
            "host": _pair,
        },
        optional={"id": _cell, "x": _int},
    ),
)
_carrier = st.one_of(
    _list_or_tuple(st.tuples(_int, _int, _kind, _ref).map(list)),
    _list_or_tuple(st.tuples(_cell, _cell, _kind, _ref).map(list)),
    _near_pair,
)


def _nest(value, depth):
    for k in range(depth):
        value = {"k": value} if k % 2 else [value]
    return value


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(_cycle, min_size=1, max_size=4),
        st.lists(_imaginary, min_size=1, max_size=4),
        st.lists(_carrier, min_size=1, max_size=4),
    ),
    st.integers(0, 3),
)
def test_serialize_matches_json_on_drawn_rows(rows, depth):
    value = _nest(rows, depth)
    assert serialize_document(value) == serialize_ref(value)


_ROWS = {
    "cycles": [{"arcs": [[1, 2], [2, 3], [3, 1]], "id": 4}, {"arcs": [[5, 6]], "id": 7}],
    "imaginary": [
        {"carrier": ["conn", [1, 2]], "chord": [3, 4], "host": [5, 6], "id": 7},
        {"carrier": ["edge", 8], "chord": [9, 10], "host": [11, 12], "id": 13},
    ],
    "carrier": [[1, 2, "conn", [3, 4]], [5, 6, "edge", 7]],
    "built cycles": [{"arcs": ((1, 2), (2, 3), (3, 1)), "id": 4}, {"arcs": [(5, 6), [6, 5]], "id": 7}],
    "built imaginary": [
        {"carrier": ("conn", (1, 2)), "chord": (3, 4), "host": (5, 6), "id": 7},
        {"carrier": ["edge", 8], "chord": (9, 10), "host": [11, 12], "id": 13},
    ],
    "built carrier": [(1, 2, "conn", (3, 4)), [5, 6, "edge", 7], (8, 9, "conn", [1, 2])],
}


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_serialize_rows_at_every_indent(name):
    """One shape written at several depths keeps each depth's indent."""
    for depth in (0, 1, 2, 3, 1, 0):
        value = _nest(_ROWS[name], depth)
        assert serialize_document(value) == serialize_ref(value)


@pytest.mark.parametrize("kind", ["%", "%d", "%s%%", '"', "\0", "é"])
def test_serialize_rows_with_odd_kinds(kind):
    for value in (
        [[1, 2, kind, 3], [4, 5, kind, [6, 7]]],
        [{"carrier": [kind, 1], "chord": [2, 3], "host": [4, 5], "id": 6}],
    ):
        assert serialize_document(value) == serialize_ref(value)


@pytest.mark.parametrize("cell", [True, False, 1.0, None])
def test_serialize_rows_with_non_int_cells(cell):
    values = [
        [{"arcs": [[1, 2]], "id": cell}],
        [{"carrier": ["edge", cell], "chord": [2, 3], "host": [4, 5], "id": 6}],
        [[1, cell, "conn", [3, 4]]],
        [[1, 2, "conn", [3, cell]]],
    ]
    for value in values:
        assert serialize_document(value) == serialize_ref(value)


def test_serialize_k16_writes_rows_from_templates(k16_unpinned_decomposition, monkeypatch):
    """Unpinned K16 has about 20,000 rows and cells; with the row lists
    written from templates the emitter recurses a few hundred times."""
    doc = decomposition_to_document(k16_unpinned_decomposition)
    calls = []
    emit = document._emit

    def counted(x, indent):
        calls.append(1)
        return emit(x, indent)

    monkeypatch.setattr(document, "_emit", counted)
    assert serialize_document(doc) == serialize_ref(doc)
    assert len(calls) < 1000


def _readings(doc):
    """What the readers make of a document: each check's name, verdict
    and details in `verify_document`'s order, and every layer's SVG."""
    checks = [(name, r.ok, r.details) for name, r in verify_document(doc).checks.items()]
    return checks, [render_svg(doc, k) for k in range(1, len(doc["layers"]) + 1)]


@pytest.mark.parametrize(
    "fixture",
    ["k7_decomposition", "k8_decomposition", "k10_decomposition", "k12_unpinned_decomposition", "q4_decomposition"],
)
def test_built_and_parsed_documents_read_alike(fixture, request):
    """A built document holds the drawing's tuples and its parse holds
    lists; the verifier and the renderer read both the same."""
    built = decomposition_to_document(request.getfixturevalue(fixture))
    parsed = parse_document(serialize_document(built))
    assert _readings(built) == _readings(parsed)


def test_built_document_shares_the_drawings_tuples(k12_unpinned_decomposition):
    """Unpinned K12's document copies nothing the drawing holds as an
    immutable tuple: each cycle row's arcs are its `Cycle`'s own, so a
    face kept from one layer to the next is one arcs object in both rows,
    and the imaginary entries and carrier rows hold the drawing's own
    tuples.  A copy, as lists or as fresh tuples, fails here."""
    d = k12_unpinned_decomposition
    doc = decomposition_to_document(d)
    rows_by_layer = []
    for layer, row in zip(d.layers, doc["layers"]):
        system, sj = layer.system, row["system"]
        if system.rim is None:
            assert sj["rim"] is None
        else:
            assert sj["rim"]["arcs"] is system.rim.arcs
        for c in sj["cycles"]:
            assert c["arcs"] is system.cycles[c["id"]].arcs
            assert type(c["arcs"]) is tuple and set(map(type, c["arcs"])) == {tuple}
        rows_by_layer.append({c["id"]: c for c in sj["cycles"]})
    kept = 0
    for k, (rows, later) in enumerate(zip(rows_by_layer, rows_by_layer[1:])):
        for cid in rows.keys() & later.keys():
            if d.layers[k].system.cycles[cid] is d.layers[k + 1].system.cycles[cid]:
                kept += 1
                assert rows[cid]["arcs"] is later[cid]["arcs"]
                assert rows[cid] is not later[cid]
    assert kept > 0
    for entry in doc["imaginary"]:
        info = d.drawing.imaginary[entry["id"]]
        for key in ("host", "chord", "carrier"):
            assert entry[key] is info[key] and type(entry[key]) is tuple
        assert type(entry["carrier"][1]) in (int, tuple)
    for row in doc["carrier"]:
        assert type(row) is tuple and type(row[3]) in (int, tuple)
        assert row[3] is d.drawing.carrier[row[:2]][1]


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


def _imaginary_vertex_made_real(doc):
    # subdivide a layer-2 segment with v1000000 in both faces that hold
    # it, then raise that layer's n above it
    sj = doc["layers"][1]["system"]
    a, b = sj["cycles"][0]["arcs"][0]
    for member in sj["cycles"] + ([sj["rim"]] if sj["rim"] else []):
        for x, y in ((a, b), (b, a)):
            if [x, y] in member["arcs"]:
                i = member["arcs"].index([x, y])
                member["arcs"][i : i + 1] = [[x, 10**6], [10**6, y]]
    sj["n"] = 10**7


def _bogus_face_under_a_used_id(doc):
    cycles = doc["layers"][1]["system"]["cycles"]
    cycles.insert(0, {"id": cycles[0]["id"], "arcs": [[1, 2], [2, 3], [3, 1]]})


def _cycle_entry_twice(doc):
    cycles = doc["layers"][1]["system"]["cycles"]
    cycles.append(json.loads(json.dumps(cycles[-1])))


def _chord_row_twice(doc):
    doc["chords"].append(list(doc["chords"][0]))


def _sequence_without_chord(doc):
    doc["sequences"]["999"] = [8]


def _sequence_on_a_layer_1_edge(doc):
    doc["sequences"][str(doc["layers"][0]["realized"][0])] = [8]


def _conn_carrier_off_the_graph(doc):
    # the first connection carrier an imaginary entry names, (5,9), ends
    # at v50 in its rows and in every entry on it
    key = next(e["carrier"] for e in doc["imaginary"] if e["carrier"][0] == "conn")
    u, v = key[1]
    for c in doc["carrier"]:
        if c[2:] == key:
            c[:] = [50 if x == v else x for x in c[:2]] + ["conn", [u, 50]]
    for e in doc["imaginary"]:
        if e["carrier"] == key:
            e["carrier"] = ["conn", [u, 50]]


def _carrier_row_dropped(doc):
    # the row of segment (1,30) in pinned K10
    del doc["carrier"][5]


def _carrier_refs_swapped(doc):
    # pinned K10's rows (1,2) and (1,9) carry each other's edge, e8 and
    # e1: every segment keeps one valid carrier, but neither edge's rows
    # walk a path between its ends
    for row in doc["carrier"]:
        if row[:2] == [1, 2]:
            assert row[2:] == ["edge", 1]
            row[3] = 8
        elif row[:2] == [1, 9]:
            assert row[2:] == ["edge", 8]
            row[3] = 1


def _imaginary_entry_dropped(doc):
    # the entry of v16 in pinned K10
    del doc["imaginary"][5]


def _imaginary_chord_not_a_chord(doc):
    # pinned K10's first entry, v11, crosses chord (1,3); (1,2) is a
    # layer-1 edge
    doc["imaginary"][0]["chord"] = [1, 2]


def _imaginary_host_off_its_path(doc):
    # v11 subdivides (2,10) on edge 17's path, which never reaches v1
    doc["imaginary"][0]["host"] = [1, 2]


def _final_edge_through_vertex_0(doc):
    # subdivide e1 = (1,2), a final-layer segment of pinned K10, by v0 in
    # both faces that hold it and in its carrier rows
    sj = doc["layers"][-1]["system"]
    for member in sj["cycles"] + ([sj["rim"]] if sj["rim"] else []):
        for x, y in ((1, 2), (2, 1)):
            if [x, y] in member["arcs"]:
                i = member["arcs"].index([x, y])
                member["arcs"][i : i + 1] = [[x, 0], [0, y]]
    row = doc["carrier"].index([1, 2, "edge", 1])
    doc["carrier"][row : row + 1] = [[0, 1, "edge", 1], [0, 2, "edge", 1]]


def _carrier_row_twice(doc):
    doc["carrier"].append([1, 2, "edge", 1])


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
        (_imaginary_vertex_made_real, "layer-2/imaginary-degree", "v1000000: degree 2 != 4"),
        (_imaginary_vertex_made_real, "layer-indexes", "layer 2 has system n 10000000, not the graph's 10"),
        (_bogus_face_under_a_used_id, "layer-2/cycle-ids", "id used 2 times"),
        (_cycle_entry_twice, "layer-2/cycle-ids", "id used 2 times"),
        (_chord_row_twice, "graph-edges", "listed twice"),
        (_sequence_without_chord, "connection-realization", "e999: sequence names no chord"),
        (_sequence_on_a_layer_1_edge, "connection-realization", "sequence names no chord"),
        (_conn_carrier_off_the_graph, "carrier-table", "carrier connection (5,50) is not a chord's ends"),
        (_carrier_row_dropped, "carrier-table", "segment (1,30) has no carrier row"),
        (_imaginary_entry_dropped, "carrier-table", "v16: no imaginary entry"),
        (_carrier_refs_swapped, "carrier-table", "carrier edge 8 is not a path"),
        (_imaginary_chord_not_a_chord, "carrier-table", "v11: (1,2) is not a chord whose sequence holds v11"),
        (_imaginary_host_off_its_path, "carrier-table", "v11: host (1,2) does not hold v11 on its carrier's path"),
        (_final_edge_through_vertex_0, "layer-3/walks", "vertex 0 is below 1"),
        (_carrier_row_twice, "carrier-table", "segment (1,2) has 2 carrier rows"),
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
        "imaginary-made-real-degree",
        "imaginary-made-real-n",
        "bogus-face-reusing-an-id",
        "cycle-entry-twice",
        "chord-row-twice",
        "sequence-without-chord",
        "sequence-on-a-layer-1-edge",
        "conn-carrier-off-graph",
        "carrier-row-dropped",
        "imaginary-entry-dropped",
        "carrier-refs-swapped",
        "imaginary-chord-not-a-chord",
        "imaginary-host-off-its-path",
        "final-edge-through-vertex-0",
        "carrier-row-twice",
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
