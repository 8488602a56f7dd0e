from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from topolayers.cli import main
from topolayers.document import (
    DocumentError,
    decomposition_to_document,
    parse_document,
    serialize_document,
)
from topolayers.graphs import complete_graph, format_graph
from topolayers.render import RenderError, render_svg


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def k7_file(tmp_path):
    p = tmp_path / "k7.txt"
    p.write_text(format_graph(complete_graph(7)))
    return str(p)


@pytest.fixture()
def k7_doc_file(runner, k7_file, tmp_path):
    out = str(tmp_path / "k7.json")
    res = runner.invoke(main, ["decompose", k7_file, "--pin", "k7", "-o", out])
    assert res.exit_code == 0, res.output
    return out


def test_cli_import_loads_no_numpy():
    code = "import sys, topolayers.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cycles_k7(runner, k7_file):
    res = runner.invoke(main, ["cycles", k7_file])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 36 and lines[-1] == "total: 35"


def test_cycles_k4(runner, tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(format_graph(complete_graph(4)))
    res = runner.invoke(main, ["cycles", str(p)])
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[-1] == "total: 4"


def test_cycles_empty_file_is_input_error(runner, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    res = runner.invoke(main, ["cycles", str(p)])
    assert res.exit_code == 2


def test_cycles_separable_is_input_error(runner, tmp_path):
    p = tmp_path / "sep.txt"
    p.write_text("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n")
    res = runner.invoke(main, ["cycles", str(p)])
    assert res.exit_code == 2
    assert "nonseparable" in res.output


def test_planarize_pinned(runner, k7_file):
    res = runner.invoke(main, ["planarize", k7_file, "--pin", "k7"])
    assert res.exit_code == 0
    assert "edges: 15 of 21" in res.output


def test_planarize_unpinned(runner, k7_file):
    res = runner.invoke(main, ["planarize", k7_file])
    assert res.exit_code == 0
    assert "edges: 15 of 21" in res.output


def test_decompose_and_verify(runner, k7_doc_file):
    res = runner.invoke(main, ["verify", k7_doc_file])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output


def test_decompose_strategy_option(runner, k7_file, tmp_path):
    out = str(tmp_path / "io.json")
    res = runner.invoke(
        main, ["decompose", k7_file, "--strategy", "inner-only", "-o", out]
    )
    assert res.exit_code == 0, res.output


def test_verify_corrupted_exits_1(runner, k7_doc_file, tmp_path):
    doc = json.loads(open(k7_doc_file).read())
    doc["layers"][0]["system"]["cycles"][0]["arcs"][0] = [1, 4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def _edge_off_the_graph(doc):
    doc["graph"]["edges"][0] = [1, 1, 50]


def _ring_off_the_graph(doc):
    doc["layers"][1]["ring"][3] = 500


def _layer_index_seven(doc):
    doc["layers"][1]["index"] = 7


@pytest.mark.parametrize(
    "corrupt,check",
    [
        (_edge_off_the_graph, "graph-edges"),
        (_ring_off_the_graph, "layer-rings"),
        (_layer_index_seven, "layer-indexes"),
    ],
    ids=["edge-off-graph", "ring-off-graph", "layer-index-seven"],
)
def test_verify_bad_edge_or_ring_exits_1(runner, k7_doc_file, tmp_path, corrupt, check):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 1, res.output
    assert f"{check}: FAIL" in res.output


def test_verify_missing_file_exits_2(runner):
    res = runner.invoke(main, ["verify", "no-such-file.json"])
    assert res.exit_code == 2


def test_verify_not_a_document_exits_2(runner, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"format": "other"}')
    res = runner.invoke(main, ["verify", str(p)])
    assert res.exit_code == 2


def test_render(runner, k7_doc_file, tmp_path):
    out = str(tmp_path / "layer2.svg")
    res = runner.invoke(main, ["render", k7_doc_file, "--layer", "2", "-o", out])
    assert res.exit_code == 0, res.output
    svg = open(out).read()
    assert svg.startswith("<svg") and "polyline" in svg


def test_render_missing_layer_exits_2(runner, k7_doc_file, tmp_path):
    out = str(tmp_path / "nope.svg")
    res = runner.invoke(main, ["render", k7_doc_file, "--layer", "9", "-o", out])
    assert res.exit_code == 2


def _drop_carrier_segment_at_imaginary(doc):
    w = doc["imaginary"][0]["id"]
    del doc["carrier"][next(i for i, c in enumerate(doc["carrier"]) if w in c[:2])]


def _drop_carrier_key(doc):
    del doc["carrier"]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_drop_carrier_segment_at_imaginary, "is not a path"),
        (_drop_carrier_key, "document is missing 'carrier'"),
    ],
    ids=["broken-path", "missing-key"],
)
def test_render_bad_carrier_exits_2(runner, k7_doc_file, tmp_path, corrupt, message):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["render", str(bad), "--layer", "2", "-o", str(tmp_path / "x.svg")])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and message in res.output


def _imaginary_off_its_path(doc):
    doc["imaginary"][0]["id"] = 999


def _imaginary_list_edge_ref(doc):
    entry = next(e for e in doc["imaginary"] if e["carrier"][0] == "edge")
    entry["carrier"][1] = [entry["carrier"][1]]


def _imaginary_carrier_without_path(doc):
    entry = next(e for e in doc["imaginary"] if e["carrier"][0] == "edge")
    entry["carrier"][1] = doc["chords"][0][0]


@pytest.mark.parametrize(
    "corrupt",
    [_imaginary_off_its_path, _imaginary_list_edge_ref, _imaginary_carrier_without_path],
    ids=["off-path-id", "list-edge-ref", "no-path"],
)
def test_render_bad_imaginary_exits_2(runner, k7_doc_file, tmp_path, corrupt):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    with pytest.raises(RenderError):
        render_svg(doc, 2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["render", str(bad), "--layer", "2", "-o", str(tmp_path / "x.svg")])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ")


def _realizes_unknown_edge(doc):
    doc["layers"][1]["realized"].append(9999)


def _sequence_vertex_without_entry(doc):
    eid = next(e for e in doc["layers"][1]["realized"] if doc["sequences"].get(str(e)))
    doc["sequences"][str(eid)].append(999)


def _layer1_arc_off_the_graph(doc):
    doc["layers"][0]["system"]["cycles"][0]["arcs"].append([1, 500])


def _ring_repeats_a_vertex(doc):
    doc["layers"][2]["ring"][0] = doc["layers"][2]["ring"][1]


def _vertices_without_edges(doc):
    doc["graph"]["n"] = 20


def _interior_triangle_off_the_ring(doc):
    doc["graph"]["n"] = 13
    arcs = [[11, 12], [12, 13], [13, 11]]
    doc["layers"][0]["system"]["cycles"].append({"id": 999, "arcs": arcs})


def _path_neighbour_not_a_vertex(doc):
    # Imaginary vertex 13 lies on the path of 56's carrier but has another
    # host; renamed in that carrier's rows only, the path stays whole.
    key = next(e["carrier"] for e in doc["imaginary"] if e["id"] == 56)
    for row in doc["carrier"]:
        if row[2:] == key:
            row[:2] = [777 if x == 13 else x for x in row[:2]]


@pytest.mark.parametrize(
    "corrupt,layer,message",
    [
        (_realizes_unknown_edge, 2, "realizes 9999, which is not a graph edge"),
        (_sequence_vertex_without_entry, 2, "vertex 999 has no imaginary entry"),
        (_layer1_arc_off_the_graph, 1, "arc (1,500) names a vertex outside 1..10"),
        (_vertices_without_edges, 1, "vertex 11 is neither on the ring nor on a layer-1 arc"),
        (_vertices_without_edges, 2, "vertex 11 is neither on the ring nor on a layer-1 arc"),
        (_interior_triangle_off_the_ring, 1, "arcs leave interior vertices unconnected to the ring"),
        (_path_neighbour_not_a_vertex, 1, "vertex 56 has path neighbour 777, not a vertex"),
        (_ring_off_the_graph, 2, "layer 2 ring names v500, outside 1..10"),
        (_ring_off_the_graph, 1, "layer 2 ring names v500, outside 1..10"),
        (_ring_repeats_a_vertex, 3, "layer 3 ring repeats a vertex"),
        (_layer_index_seven, 2, "layer indexes [1, 7, 3] are not 1..3 in order"),
        (_layer_index_seven, 1, "layer indexes [1, 7, 3] are not 1..3 in order"),
    ],
    ids=[
        "unknown-edge",
        "no-imaginary-entry",
        "arc-off-graph",
        "n-20-layer-1",
        "n-20-layer-2",
        "interior-off-the-ring",
        "neighbour-not-a-vertex",
        "ring-off-graph-layer-2",
        "ring-off-graph-layer-1",
        "ring-repeats-layer-3",
        "layer-index-seven-layer-2",
        "layer-index-seven-layer-1",
    ],
)
def test_render_malformed_document_exits_2(
    runner, k10_decomposition, tmp_path, corrupt, layer, message
):
    doc = json.loads(serialize_document(decomposition_to_document(k10_decomposition)))
    corrupt(doc)
    with pytest.raises(RenderError, match=re.escape(message)):
        render_svg(doc, layer)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = str(tmp_path / "x.svg")
    res = runner.invoke(main, ["render", str(bad), "--layer", str(layer), "-o", out])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and message in res.output, res.output


def _layer_without_system(doc):
    del doc["layers"][1]["system"]


def _string_arcs(doc):
    doc["layers"][0]["system"]["cycles"][0]["arcs"] = "1 3 2"


def _empty_layers(doc):
    doc["layers"] = []


def _letter_sequence_key(doc):
    doc["sequences"]["zz"] = []


@pytest.mark.parametrize(
    "corrupt",
    [_layer_without_system, _string_arcs, _empty_layers, _letter_sequence_key],
    ids=["no-system", "string-arcs", "empty-layers", "letter-sequence-key"],
)
def test_verify_malformed_document_exits_2(runner, k7_doc_file, tmp_path, corrupt):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    with pytest.raises(DocumentError, match="malformed"):
        parse_document(json.dumps(doc))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: malformed")


def test_pin_from_file(runner, k7_file, tmp_path):
    from topolayers.fixtures import load_fixture

    pin = tmp_path / "pin.json"
    pin.write_text(json.dumps(load_fixture("k7")))
    res = runner.invoke(main, ["planarize", k7_file, "--pin", str(pin)])
    assert res.exit_code == 0


def test_unknown_pin_exits_2(runner, k7_file):
    res = runner.invoke(main, ["planarize", k7_file, "--pin", "nope"])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["decompose", "planarize"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "expected an object, got list"),
        ('{"system": "x"}', "'system' must be an object, got str"),
        ('{"hamiltonian": {"ring": [1, 2, 3]}}', "'hamiltonian' must be a list, got dict"),
        ('{"plan": [[]]}', "'plan' must be an object, got list"),
        ("not json", "is not JSON"),
        ('{"system": {}}', "'system.cycles' must be a list of integer lists"),
        ('{"system": {"cycles": "x", "rim": [1, 2, 3]}}', "'system.cycles' must be a list"),
        ('{"system": {"cycles": [[1, 2, 3]], "rim": "x"}}', "'system.rim' must be a list"),
        ('{"hamiltonian": ["a", 2]}', "'hamiltonian' must hold integers only"),
        ('{"system": {"cycles": [[]], "rim": [1, 2, 3]}}', "a ring of 'system' is empty"),
        ('{"system": {"cycles": [[1, 2, 3]], "rim": []}}', "a ring of 'system' is empty"),
    ],
    ids=[
        "list",
        "system-string",
        "hamiltonian-object",
        "plan-list",
        "not-json",
        "system-empty",
        "cycles-string",
        "rim-string",
        "hamiltonian-strings",
        "empty-cycle",
        "empty-rim",
    ],
)
def test_malformed_pin_exits_2(runner, k7_file, tmp_path, command, text, message):
    pin = tmp_path / "pin.json"
    pin.write_text(text)
    args = [command, k7_file, "--pin", str(pin)]
    if command == "decompose":
        args += ["-o", str(tmp_path / "out.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and message in res.output, res.output


@pytest.mark.parametrize("ring", [[1, 2, 3], [1, 2, 3, 2, 5, 6, 7]], ids=["short", "repeated-vertex"])
def test_decompose_bad_pinned_ring_exits_2(runner, k7_file, tmp_path, ring):
    from topolayers.fixtures import load_fixture

    pin = load_fixture("k7")
    pin["hamiltonian"] = ring
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(pin))
    res = runner.invoke(main, ["decompose", k7_file, "--pin", str(path), "-o", str(tmp_path / "out.json")])
    assert res.exit_code == 2, res.output
    assert res.output == "error: pinned ring does not list 1..7 once each\n", res.output


def _layers_not_a_list(plan):
    plan["layers"] = "x"


def _layer_not_a_list(plan):
    plan["layers"][0] = "x"


def _entry_not_an_object(plan):
    plan["layers"][0][0] = [2, 4]


def _short_chord(plan):
    plan["layers"][0][0]["chord"] = [2]


def _no_chord(plan):
    del plan["layers"][0][0]["chord"]


def _no_crossings(plan):
    del plan["layers"][0][1]["crossings"]


def _short_crossing_row(plan):
    plan["layers"][0][1]["crossings"][0] = [9, 7]


def _string_crossing_id(plan):
    plan["layers"][0][1]["crossings"][0][0] = "9"


def _gap_in_ids(plan):
    plan["layers"][0][1]["crossings"][1][0] = 11


def _reused_id(plan):
    for row in plan["layers"][0][1]["crossings"]:
        row[0] -= 1  # 8 and 9: consecutive, but 8 already crosses (2,4)


def _chord_twice(plan):
    plan["layers"][0][1] = dict(plan["layers"][0][0])


@pytest.mark.parametrize(
    "corrupt",
    [
        _layers_not_a_list,
        _layer_not_a_list,
        _entry_not_an_object,
        _short_chord,
        _no_chord,
        _no_crossings,
        _short_crossing_row,
        _string_crossing_id,
        _gap_in_ids,
        _reused_id,
        _chord_twice,
    ],
    ids=[
        "layers-not-a-list",
        "layer-not-a-list",
        "entry-not-an-object",
        "short-chord",
        "no-chord",
        "no-crossings",
        "short-crossing-row",
        "string-crossing-id",
        "gap-in-ids",
        "reused-id",
        "chord-twice",
    ],
)
def test_decompose_malformed_plan_exits_2(runner, k7_file, tmp_path, corrupt):
    from topolayers.fixtures import load_fixture

    pin = load_fixture("k7")
    corrupt(pin["plan"])
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(pin))
    res = runner.invoke(main, ["decompose", k7_file, "--pin", str(path), "-o", str(tmp_path / "out.json")])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(("error: malformed plan", "error: planned chord")), res.output
