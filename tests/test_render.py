from __future__ import annotations

import copy
import json
import math
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import graph_from_networkx, imaginary_positions_ref, tutte_positions_ref
from topolayers.document import (
    decomposition_to_document,
    document_checks,
    parse_document,
    serialize_document,
    verify_document,
)
from topolayers.graphs import complete_graph
from topolayers.layering import decompose
from topolayers.render import (
    RenderError,
    _base_positions,
    _imaginary_positions,
    render_svg,
)


def _lines(svg):
    for m in re.finditer(
        r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"', svg
    ):
        x1, y1, x2, y2 = map(float, m.groups())
        yield (x1, y1), (x2, y2)


def _polylines(svg):
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        yield [tuple(map(float, p.split(","))) for p in m.group(1).split()]


def _markers(svg):
    for m in re.finditer(
        r'<circle class="imaginary" cx="([-\d.]+)" cy="([-\d.]+)"', svg
    ):
        yield float(m.group(1)), float(m.group(2))


def _on_segment(p, a, b, tol=0.05):
    ax, ay = a
    bx, by = b
    px, py = p
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if abs(cross) > tol * 600:
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    sq = (bx - ax) ** 2 + (by - ay) ** 2
    return 1e-9 < dot < sq - 1e-9


def _crossing_recount(layer1_svg: str, layer_svg: str) -> int:
    """Each crossing marker must lie on a chord polyline and on either a
    layer-1 segment or a second polyline; count the markers that do."""
    base = list(_lines(layer1_svg))
    polys = list(_polylines(layer_svg))
    count = 0
    for p in _markers(layer_svg):
        on_poly = sum(
            1
            for pts in polys
            for i in range(len(pts) - 1)
            if _on_segment(p, pts[i], pts[i + 1]) or p in pts
        )
        on_base = any(_on_segment(p, a, b) for a, b in base)
        if on_poly >= 1 and (on_base or on_poly >= 2):
            count += 1
    return count


def test_k7_layer1_counts(k7_document):
    svg = render_svg(k7_document, 1)
    assert svg.count("<line") == 15
    assert svg.count('class="vertex"') == 7
    assert svg.count('class="imaginary"') == 0


def test_k7_layer2_markers(k7_document, k7_decomposition):
    svg = render_svg(k7_document, 2)
    assert svg.count("<polyline") == len(k7_decomposition.layers[1].realized)
    assert svg.count('class="imaginary"') == len(k7_decomposition.drawing.imaginary)


def test_deterministic(k7_document):
    assert render_svg(k7_document, 2) == render_svg(k7_document, 2)
    assert "date" not in render_svg(k7_document, 1)


def test_crossing_recount_matches_imaginary(k7_document, k7_decomposition):
    svg1 = render_svg(k7_document, 1)
    svg2 = render_svg(k7_document, 2)
    assert _crossing_recount(svg1, svg2) == len(k7_decomposition.drawing.imaginary)


def test_zero_interior_polygon_only(k7_document):
    svg = render_svg(k7_document, 2)
    # layer 2 draws only the 7 ring segments plus chord polylines
    assert svg.count("<line") == 7


def test_missing_layer_errors(k7_document):
    with pytest.raises(RenderError):
        render_svg(k7_document, 99)


def test_interior_vertices_via_tutte():
    d = decompose(complete_graph(4))
    svg = render_svg(decomposition_to_document(d), 1)
    assert svg.count("<line") == 6 and svg.count('class="vertex"') == 4


@pytest.mark.parametrize(
    "make",
    [
        lambda: nx.hypercube_graph(3),
        nx.icosahedral_graph,
        nx.dodecahedral_graph,
        lambda: nx.wheel_graph(41),
        lambda: nx.circular_ladder_graph(51),
        nx.truncated_tetrahedron_graph,
    ],
    ids=["q3", "icosahedron", "dodecahedron", "w40", "c51xk2", "truncated-tetrahedron"],
)
def test_tutte_positions_match_the_dense_solve(make):
    """Eliminating vertices from layer 1's graph places each interior
    vertex where the dense solve does, to within 1e-6 px (the SVG writes
    0.01 px); the arithmetic differs, so the floats may not be equal."""
    doc = decomposition_to_document(decompose(graph_from_networkx(make())))
    assert [layer["ring"] for layer in doc["layers"]] == [None]
    pos, _ = _base_positions(doc)
    rim = {a for a, _ in doc["layers"][0]["system"]["rim"]["arcs"]}
    ref = tutte_positions_ref(doc, {v: pos[v] for v in rim})
    assert ref.keys() == pos.keys() - rim
    assert max(math.dist(pos[v], ref[v]) for v in ref) < 1e-6


def test_ringless_self_loop_arc_moves_no_vertex():
    """An arc (4,4) in a face of ringless K4's layer 1 moves no vertex, as
    v4 is not its own neighbour, but the face fails `verify`'s walk check,
    so render refuses every layer with that check's first detail, though
    it drew the same dict before the arc went in.  The arc goes into a
    parsed copy: a built document's arcs are the drawing's own tuples."""
    doc = parse_document(serialize_document(decomposition_to_document(decompose(complete_graph(4)))))
    render_svg(doc, 1)
    clean = _base_positions(doc)
    face = next(c for c in doc["layers"][0]["system"]["cycles"] if [2, 4] in c["arcs"])
    face["arcs"].insert(face["arcs"].index([2, 4]) + 1, [4, 4])
    assert _base_positions(doc)[0] == clean[0]
    walks = verify_document(doc).checks["layer-1/walks"]
    assert walks.details == [f"c{face['id']}: revisits a vertex", f"c{face['id']}: self-loop arc"]
    with pytest.raises(RenderError, match="^" + re.escape(f"layer-1/walks: {walks.details[0]}") + "$"):
        render_svg(doc, 1)


def _assert_markers_match_full_relaxation(doc):
    """Each layer's drawn markers sit exactly where relaxing every marker
    of the document puts them."""
    pos, _ = _base_positions(doc)
    ref = imaginary_positions_ref(doc, pos)
    _, _, paths, places = document_checks(doc)
    sequences = {int(k): v for k, v in doc["sequences"].items()}
    for layer in doc["layers"]:
        realized = [] if layer["index"] == 1 else layer["realized"]
        drawn = {w for eid in realized for w in sequences.get(eid, [])}
        assert _imaginary_positions(doc, paths, places, pos, drawn) == {w: ref[w] for w in drawn}


@pytest.mark.parametrize("n", range(7, 17))
def test_unpinned_markers_match_full_relaxation(n, request):
    if n in (12, 14, 16):  # decomposed once per session in conftest
        d = request.getfixturevalue(f"k{n}_unpinned_decomposition")
    else:
        d = decompose(complete_graph(n))
    _assert_markers_match_full_relaxation(decomposition_to_document(d))


@pytest.mark.parametrize("which", ["k7", "k8", "k10", "q4", "q5"])
def test_markers_match_full_relaxation(which, request):
    d = request.getfixturevalue(f"{which}_decomposition")
    _assert_markers_match_full_relaxation(decomposition_to_document(d))


def test_k7_realized_edge_off_the_graph_is_a_render_error(k7_document):
    doc = copy.deepcopy(k7_document)
    eid = doc["layers"][1]["realized"][0]
    for row in doc["graph"]["edges"] + doc["chords"]:
        if row[0] == eid:
            row[2] = 50
    for k in (1, 2):
        with pytest.raises(RenderError, match="^" + re.escape(f"graph-edges: e{eid}: (1,50) names a vertex outside 1..7")):
            render_svg(doc, k)


def test_k7_sequence_off_its_connection_path_is_a_render_error(k7_document):
    """Pinned K7's e9 crosses v9 then v10 from its smaller end; listed the
    other way round, the polyline would not follow its connection."""
    doc = copy.deepcopy(k7_document)
    assert doc["sequences"]["9"] == [9, 10]
    doc["sequences"]["9"] = [10, 9]
    assert not verify_document(doc).checks["connection-realization"].ok
    message = "connection-realization: e9: sequence is not the interior of its connection's path"
    for k in (1, 2):
        with pytest.raises(RenderError, match="^" + re.escape(message)):
            render_svg(doc, k)


def test_k7_layer_realizing_a_non_chord_is_a_render_error(k7_document):
    """e21 = (6,7), a layer-1 edge off the ring, listed in layer 2: no
    document check reads which layer realizes a chord, and layer 2 has no
    sequence to draw it by."""
    doc = copy.deepcopy(k7_document)
    first, second = doc["layers"]
    assert first["realized"][-1] == 21
    second["realized"].append(first["realized"].pop())
    with pytest.raises(RenderError, match=re.escape("layer 2 realizes e21, which is not a chord")):
        render_svg(doc, 2)


@pytest.fixture(scope="module")
def k4_decomposition():
    return decompose(complete_graph(4))


@pytest.fixture(scope="module")
def pinned_documents(k7_decomposition, k8_decomposition, k10_decomposition):
    return [
        serialize_document(decomposition_to_document(d))
        for d in (k7_decomposition, k8_decomposition, k10_decomposition)
    ]


# The refusals render makes by rules of its own; every other refusal names
# a document check that verify fails too.
RENDER_OWN = re.compile(
    r"document has no layer -?\d+"
    r"|layer-1/walks: .*"
    r"|layer-1 arcs leave interior vertices unconnected to the ring"
    r"|layer \d+ realizes e\d+, which is not a chord"
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), part=st.sampled_from(["edge", "carrier", "conn"]))
def test_vertex_off_the_graph_renders_or_is_a_render_error(pinned_documents, data, part):
    """A vertex outside 1..n written into a graph edge (and its chord), a
    carrier row or a connection carrier's ends still parses; rendering
    any layer returns an SVG or raises RenderError, and unless render
    refuses by a rule of its own, the document fails verify."""
    doc = json.loads(data.draw(st.sampled_from(pinned_documents)))
    n = doc["graph"]["n"]
    x = n + data.draw(st.integers(1, 50))
    if part == "edge":
        eid = data.draw(st.sampled_from([eid for eid, _, _ in doc["graph"]["edges"]]))
        end = data.draw(st.sampled_from([1, 2]))
        for row in doc["graph"]["edges"] + doc["chords"]:
            if row[0] == eid:
                row[end] = x
    elif part == "carrier":
        row = data.draw(st.sampled_from(doc["carrier"]))
        row[data.draw(st.sampled_from([0, 1]))] = x
    else:
        refs = sorted({tuple(ref) for _, _, kind, ref in doc["carrier"] if kind == "conn"})
        ref = data.draw(st.sampled_from(refs))
        old = ref[data.draw(st.sampled_from([0, 1]))]
        new = [x if v == old else v for v in ref]
        for row in doc["carrier"]:
            if row[2] == "conn" and tuple(row[3]) == ref:
                row[:] = [x if v == old else v for v in row[:2]] + ["conn", new]
        for entry in doc["imaginary"]:
            if entry["carrier"] == ["conn", list(ref)]:
                entry["carrier"] = ["conn", new]
    doc = parse_document(json.dumps(doc))
    for k in range(1, len(doc["layers"]) + 1):
        try:
            assert render_svg(doc, k).startswith("<svg")
        except RenderError as exc:
            if not RENDER_OWN.fullmatch(str(exc)):
                assert not verify_document(doc).ok, str(exc)


# Carrier-table corruptions of pinned K7, each returning the carrier it
# breaks as the verifier and the renderer both name it.


def _stray_row(doc):
    # a row on no segment of the drawing, off the path of edge 2's rows
    doc["carrier"].append([900, 901, "edge", 2])
    return "edge 2"


def _edge_refs_swapped(doc):
    # rows (1,3) and (2,3) carry each other's edge, e7 and e2; neither
    # walks a path, and the smaller is named first
    for row in doc["carrier"]:
        if row[:2] == [1, 3]:
            assert row[2:] == ["edge", 2]
            row[3] = 7
        elif row[:2] == [2, 3]:
            assert row[2:] == ["edge", 7]
            row[3] = 2
    return "edge 2"


def _connection_to_v50(doc):
    # the first connection carrier, (1,4), ends at v50 in its rows and in
    # every imaginary entry on it
    key = next(row[2:] for row in doc["carrier"] if row[2] == "conn")
    moved = ["conn", [key[1][0], 50]]
    for row in doc["carrier"]:
        if row[2:] == key:
            row[2:] = moved
    for entry in doc["imaginary"]:
        if entry["carrier"] == key:
            entry["carrier"] = moved
    return f"connection ({key[1][0]},50)"


def _row_at_imaginary_dropped(doc):
    # the row of segment (2,8), where connection (2,4) crosses at v8
    i = doc["carrier"].index([2, 8, "conn", [2, 4]])
    del doc["carrier"][i]
    return "connection (2,4)"


@pytest.mark.parametrize(
    "corrupt",
    [_stray_row, _edge_refs_swapped, _connection_to_v50, _row_at_imaginary_dropped],
    ids=["stray-row", "edge-refs-swapped", "connection-to-v50", "row-at-imaginary-dropped"],
)
def test_render_refuses_what_verify_rejects_in_the_carrier_table(k7_document, corrupt):
    doc = parse_document(serialize_document(k7_document))
    assert verify_document(doc).checks["carrier-table"].ok
    name = corrupt(doc)
    check = verify_document(doc).checks["carrier-table"]
    assert not check.ok and any(f"carrier {name} " in d for d in check.details), check.details
    for k in range(1, len(doc["layers"]) + 1):
        with pytest.raises(RenderError, match="^" + re.escape(f"carrier-table: carrier {name} ")):
            render_svg(doc, k)


# Documents verify rejects by a document check, each with that check's
# name.  Render refuses each of them, for every layer, naming the same
# check: it runs the same document checks first.


def _k7_ring_entries_swapped(doc):
    ring = doc["layers"][1]["ring"]
    ring[0], ring[2] = ring[2], ring[0]
    return "layer-rings"


def _k10_chord_in_two_layers(doc):
    doc["layers"][1]["realized"].append(doc["layers"][2]["realized"][0])
    return "edge-partition"


def _k10_chord_in_no_layer(doc):
    del doc["layers"][2]["realized"][0]
    return "edge-partition"


def _k7_sequence_padded(doc):
    # e3 = (1,4) crosses v23 alone; v24 is a neighbour of v23 in the final
    # drawing, so each consecutive pair of the padded sequence is a segment
    assert doc["sequences"]["3"] == [23]
    doc["sequences"]["3"] = [23, 24, 23]
    return "connection-realization"


def _k7_rim_into_cycles_ring_dropped(doc):
    # nothing is left to place layer 1 on
    system = doc["layers"][0]["system"]
    system["cycles"].append(system["rim"])
    system["rim"] = None
    doc["layers"][1]["ring"] = None
    return "layer-rings"


def _k4_n_raised_to_6(doc):
    # v5 and v6 lie on no layer-1 arc
    doc["graph"]["n"] = doc["layers"][0]["system"]["n"] = 6
    return "layer-indexes"


def _k10_layer1_arc_to_v500(doc):
    doc["layers"][0]["system"]["cycles"][0]["arcs"].append([1, 500])
    return "layer-indexes"


def _imaginary_entry_dropped(w):
    def corrupt(doc):
        doc["imaginary"] = [e for e in doc["imaginary"] if e["id"] != w]
        return "carrier-table"

    return corrupt


def _imaginary_entry_twice(w):
    # counting the entries needs no segment table, so render counts them too
    def corrupt(doc):
        doc["imaginary"].append(dict(next(e for e in doc["imaginary"] if e["id"] == w)))
        return "carrier-table"

    return corrupt


@pytest.mark.parametrize(
    "which,corrupt",
    [
        ("k7", _k7_ring_entries_swapped),
        ("k10", _k10_chord_in_two_layers),
        ("k7", _k7_sequence_padded),
        ("k10", _k10_chord_in_no_layer),
        ("k7", _imaginary_entry_twice(8)),
        ("k10", _imaginary_entry_twice(16)),
        ("k7", _k7_rim_into_cycles_ring_dropped),
        ("k4", _k4_n_raised_to_6),
        # v13 neighbours v56 on a connection's path; v67 lies on a chord
        # of layer 2
        ("k10", _imaginary_entry_dropped(13)),
        ("k10", _imaginary_entry_dropped(67)),
        ("k10", _k10_layer1_arc_to_v500),
    ],
    ids=[
        "k7-ring-entries-swapped",
        "k10-chord-in-two-layers",
        "k7-sequence-padded",
        "k10-chord-in-no-layer",
        "k7-v8-entry-twice",
        "k10-v16-entry-twice",
        "k7-rimless-ringless",
        "k4-n-6",
        "k10-v13-entry-dropped",
        "k10-v67-entry-dropped",
        "k10-layer-1-arc-to-v500",
    ],
)
def test_render_refuses_what_verify_rejects_by_name(which, corrupt, request):
    d = request.getfixturevalue(f"{which}_decomposition")
    doc = parse_document(serialize_document(decomposition_to_document(d)))
    assert verify_document(doc).ok
    check = corrupt(doc)
    report = verify_document(doc)
    assert not report.checks[check].ok, report.lines()
    for k in range(1, len(doc["layers"]) + 1):
        with pytest.raises(RenderError, match="^" + re.escape(f"{check}: {report.checks[check].details[0]}")):
            render_svg(doc, k)
