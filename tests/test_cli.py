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
    document_checks,
    parse_document,
    serialize_document,
)
from topolayers.graphs import complete_graph, format_graph
from topolayers.layering import decompose
from topolayers.render import RenderError, render_svg

from test_document import (
    _carrier_refs_swapped,
    _carrier_row_dropped,
    _conn_carrier_off_the_graph,
    _imaginary_entry_dropped,
)
from test_planar import K7_CYCLE_TWICE_PIN, K7_RIM_AS_CYCLE_PIN, K7_TORUS_PIN, K7_TORUS_REFUSAL


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


def test_verify_and_render_load_no_networkx(k7_file, tmp_path):
    """Pinned and unpinned `decompose`, `planarize` and `cycles` run on K7,
    and `verify` and `render` on the pinned document, in one fresh
    interpreter, which has not loaded networkx when they are done."""
    doc, plain, svg = (str(tmp_path / name) for name in ("k7.json", "k7-plain.json", "k7.svg"))
    code = (
        "import sys\n"
        "from topolayers.cli import main\n"
        "k7, doc, plain, svg = sys.argv[1:]\n"
        "for args in (\n"
        "    ['decompose', k7, '--pin', 'k7', '-o', doc],\n"
        "    ['decompose', k7, '-o', plain],\n"
        "    ['planarize', k7],\n"
        "    ['cycles', k7],\n"
        "    ['verify', doc],\n"
        "    ['render', doc, '--layer', '2', '-o', svg],\n"
        "):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), (args, exc.code)\n"
        "assert 'networkx' not in sys.modules\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, k7_file, doc, plain, svg], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines().count("total: 35") == 1
    assert open(svg).read().startswith("<svg")
    assert json.load(open(plain))["layers"]


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


@pytest.mark.parametrize(
    "text, code",
    [(format_graph(complete_graph(7)), 0), ("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n", 2)],
    ids=["k7", "separable"],
)
def test_decompose_runs_the_gate_once(runner, tmp_path, monkeypatch, text, code):
    import topolayers.cli
    import topolayers.layering
    from topolayers.graphs import validate_nonseparable

    calls = []

    def counted(g):
        calls.append(g.name)
        return validate_nonseparable(g)

    for module in (topolayers.cli, topolayers.layering):
        monkeypatch.setattr(module, "validate_nonseparable", counted)
    p = tmp_path / "in.txt"
    p.write_text(text)
    res = runner.invoke(main, ["decompose", str(p), "-o", str(tmp_path / "out.json")])
    assert res.exit_code == code, res.output
    assert calls == ["in"]
    if code:
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


def _sequence_without_chord(doc):
    doc["sequences"]["999"] = [8]


@pytest.mark.parametrize(
    "corrupt,check",
    [
        (_edge_off_the_graph, "graph-edges"),
        (_ring_off_the_graph, "layer-rings"),
        (_layer_index_seven, "layer-indexes"),
        (_sequence_without_chord, "connection-realization"),
    ],
    ids=["edge-off-graph", "ring-off-graph", "layer-index-seven", "sequence-without-chord"],
)
def test_verify_bad_edge_or_ring_exits_1(runner, k7_doc_file, tmp_path, corrupt, check):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 1, res.output
    assert f"{check}: FAIL" in res.output


@pytest.mark.parametrize(
    "corrupt",
    [_conn_carrier_off_the_graph, _carrier_row_dropped, _imaginary_entry_dropped, _carrier_refs_swapped],
    ids=["conn-carrier-off-graph", "carrier-row-dropped", "imaginary-entry-dropped", "carrier-refs-swapped"],
)
def test_verify_bad_carrier_table_exits_1(runner, k10_decomposition, tmp_path, corrupt):
    doc = json.loads(serialize_document(decomposition_to_document(k10_decomposition)))
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 1, res.output
    assert "carrier-table: FAIL" in res.output.splitlines()


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


# render_svg reads a parsed document, so a carrier of the wrong shape is
# refused by parse_document, as the CLI reads it, and never reaches render.
@pytest.mark.parametrize(
    "corrupt,error",
    [
        (_imaginary_off_its_path, RenderError),
        (_imaginary_list_edge_ref, DocumentError),
        (_imaginary_carrier_without_path, RenderError),
    ],
    ids=["off-path-id", "list-edge-ref", "no-path"],
)
def test_render_bad_imaginary_exits_2(runner, k7_doc_file, tmp_path, corrupt, error):
    doc = json.loads(open(k7_doc_file).read())
    corrupt(doc)
    with pytest.raises(error):
        render_svg(parse_document(json.dumps(doc)), 2)
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


def _path_neighbour_entry_dropped(doc):
    # v13 neighbours v56 on the path of v56's connection carrier
    doc["imaginary"] = [e for e in doc["imaginary"] if e["id"] != 13]


def _drawn_vertex_entry_dropped(doc):
    # v67 lies on a chord of layer 2, and on no connection carrier's path
    # beside a vertex whose entry names that carrier
    doc["imaginary"] = [e for e in doc["imaginary"] if e["id"] != 67]


def _path_neighbour_not_a_vertex(doc):
    # Imaginary vertex 13 lies on the path of 56's carrier but has another
    # host; renamed in that carrier's rows only, the path stays whole.
    key = next(e["carrier"] for e in doc["imaginary"] if e["id"] == 56)
    for row in doc["carrier"]:
        if row[2:] == key:
            row[:2] = [777 if x == 13 else x for x in row[:2]]


def _realized_edge_off_the_graph(doc):
    # graph and chord rows of layer 2's first realized edge, e2 = (1,3)
    eid = doc["layers"][1]["realized"][0]
    for row in doc["graph"]["edges"] + doc["chords"]:
        if row[0] == eid:
            row[2] = 50


def _edge_carrier_off_the_graph(doc):
    # the first edge carrier an imaginary entry names, e17 = (2,10), ends
    # at v50 in its graph row and its carrier rows
    key = next(e["carrier"] for e in doc["imaginary"] if e["carrier"][0] == "edge")
    row = next(r for r in doc["graph"]["edges"] if r[0] == key[1])
    for c in doc["carrier"]:
        if c[2:] == key:
            c[:2] = [50 if x == row[2] else x for x in c[:2]]
    row[2] = 50


@pytest.mark.parametrize(
    "corrupt,layer,message",
    [
        (_realizes_unknown_edge, 2, "edge-partition: unknown edges [9999]"),
        (_sequence_vertex_without_entry, 2, "carrier-table: v999: no imaginary entry"),
        (_drawn_vertex_entry_dropped, 2, "carrier-table: v67: no imaginary entry"),
        (_layer1_arc_off_the_graph, 1, "layer-indexes: layer 1 arc (1,500) names a vertex outside 1..10"),
        (_vertices_without_edges, 1, "layer-indexes: layer 1 has system n 10, not the graph's 20"),
        (_vertices_without_edges, 2, "layer-indexes: layer 1 has system n 10, not the graph's 20"),
        (_interior_triangle_off_the_ring, 1, "layer-indexes: layer 1 has system n 10, not the graph's 13"),
        (
            _path_neighbour_not_a_vertex,
            1,
            "carrier-table: v56: host (5,13) does not hold v56 on its carrier's path",
        ),
        (_path_neighbour_entry_dropped, 1, "carrier-table: v13: no imaginary entry"),
        (_ring_off_the_graph, 2, "layer-rings: layer 2: ring does not list 1..10 once each"),
        (_ring_off_the_graph, 1, "layer-rings: layer 2: ring does not list 1..10 once each"),
        (_ring_repeats_a_vertex, 3, "layer-rings: layer 3: ring does not list 1..10 once each"),
        (_layer_index_seven, 2, "layer-indexes: layer 2 has index 7"),
        (_layer_index_seven, 1, "layer-indexes: layer 2 has index 7"),
        (_realized_edge_off_the_graph, 2, "graph-edges: e2: (1,50) names a vertex outside 1..10"),
        (_edge_carrier_off_the_graph, 1, "graph-edges: e17: (2,50) names a vertex outside 1..10"),
        (_conn_carrier_off_the_graph, 2, "carrier-table: carrier connection (5,50) is not a chord's ends"),
    ],
    ids=[
        "unknown-edge",
        "no-imaginary-entry",
        "drawn-vertex-entry-dropped",
        "arc-off-graph",
        "n-20-layer-1",
        "n-20-layer-2",
        "interior-off-the-ring",
        "neighbour-not-a-vertex",
        "path-neighbour-entry-dropped",
        "ring-off-graph-layer-2",
        "ring-off-graph-layer-1",
        "ring-repeats-layer-3",
        "layer-index-seven-layer-2",
        "layer-index-seven-layer-1",
        "realized-edge-off-graph",
        "edge-carrier-off-graph",
        "conn-carrier-off-graph",
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


# A planar input's one layer has no ring and K4 has no chords, so raising
# n with a face over the new vertices leaves every document check passing:
# render reaches its own checks of layer 1's arcs.  Raising n alone leaves
# v5 on no layer-1 arc, which the layer-index check names.


def _k4_vertices_without_edges(doc):
    doc["graph"]["n"] = doc["layers"][0]["system"]["n"] = 6


def _k4_interior_triangle_off_the_ring(doc):
    doc["graph"]["n"] = doc["layers"][0]["system"]["n"] = 7
    arcs = [[5, 6], [6, 7], [7, 5]]
    doc["layers"][0]["system"]["cycles"].append({"id": 999, "arcs": arcs})


def _k4_self_loop_arc(doc):
    face = next(c for c in doc["layers"][0]["system"]["cycles"] if [2, 4] in c["arcs"])
    face["arcs"].insert(face["arcs"].index([2, 4]) + 1, [4, 4])


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_k4_vertices_without_edges, "layer-indexes: vertex 5 is on no layer-1 arc"),
        (_k4_interior_triangle_off_the_ring, "arcs leave interior vertices unconnected to the ring"),
        (_k4_self_loop_arc, "layer-1/walks: c2: revisits a vertex"),
    ],
    ids=["n-6", "interior-off-the-ring", "self-loop-arc"],
)
def test_render_bad_planar_layer_exits_2(runner, tmp_path, corrupt, message):
    doc = json.loads(serialize_document(decomposition_to_document(decompose(complete_graph(4)))))
    corrupt(doc)
    failed = [name for name, check in document_checks(doc).checks.items() if not check.ok]
    assert failed == [name for name in ["layer-indexes"] if message.startswith(f"{name}: ")]
    with pytest.raises(RenderError, match=re.escape(message)):
        render_svg(doc, 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["render", str(bad), "--layer", "1", "-o", str(tmp_path / "x.svg")])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and message in res.output, res.output


def _layer_without_system(doc):
    del doc["layers"][1]["system"]


def _layer_without_ring(doc):
    del doc["layers"][1]["ring"]


def _string_arcs(doc):
    doc["layers"][0]["system"]["cycles"][0]["arcs"] = "1 3 2"


def _empty_layers(doc):
    doc["layers"] = []


def _letter_sequence_key(doc):
    doc["sequences"]["zz"] = []


def _padded_sequence_key_beside_the_real_one(doc):
    doc["sequences"]["03"] = [999, 998]


def _padded_sequence_key(doc):
    doc["sequences"]["03"] = doc["sequences"].pop("3")


def _number_rim(doc):
    doc["layers"][1]["system"]["rim"] = 5


def _list_rim(doc):
    doc["layers"][1]["system"]["rim"] = [1]


def _three_cell_entry_carrier(doc):
    doc["imaginary"][0]["carrier"] = ["edge", 1, 2]


@pytest.mark.parametrize(
    "corrupt",
    [
        _layer_without_system,
        _layer_without_ring,
        _string_arcs,
        _empty_layers,
        _letter_sequence_key,
        _padded_sequence_key_beside_the_real_one,
        _padded_sequence_key,
        _number_rim,
        _list_rim,
        _three_cell_entry_carrier,
    ],
    ids=[
        "no-system",
        "no-ring",
        "string-arcs",
        "empty-layers",
        "letter-sequence-key",
        "padded-sequence-key-beside-real",
        "padded-sequence-key",
        "number-rim",
        "list-rim",
        "three-cell-entry-carrier",
    ],
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


def test_render_without_ring_or_rim_exits_2(runner, k7_doc_file, tmp_path):
    """Pinned K7 with layer 1's rim listed among its cycles and layer 2's
    ring dropped leaves no polygon to place layer 1 on: verify fails the
    ring check, and render names it."""
    doc = json.loads(open(k7_doc_file).read())
    system = doc["layers"][0]["system"]
    system["cycles"].append(system["rim"])
    system["rim"] = None
    doc["layers"][1]["ring"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 1, res.output
    assert "layer-rings: FAIL\n  - no layer has a ring, and layer 1 has no rim\n" in res.output
    for layer in ("1", "2"):
        res = runner.invoke(main, ["render", str(bad), "--layer", layer, "-o", str(tmp_path / "x.svg")])
        assert res.exit_code == 2, res.output
        assert res.output == "error: layer-rings: no layer has a ring, and layer 1 has no rim\n"


def _args(command, path, tmp_path):
    if command == "decompose":
        return [command, path, "-o", str(tmp_path / "out.json")]
    if command == "render":
        return [command, path, "--layer", "1", "-o", str(tmp_path / "out.svg")]
    return [command, path]


@pytest.mark.parametrize("command", ["cycles", "planarize", "decompose", "verify", "render"])
def test_non_utf8_input_exits_2_naming_the_file(runner, tmp_path, command):
    p = tmp_path / "utf16.txt"
    p.write_bytes(b"\xff\xfe1 2\n")
    res = runner.invoke(main, _args(command, str(p), tmp_path))
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"error: {str(p)!r} is not UTF-8 text")


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize(
    "text", ["[" * 200_000, "1" * 5000], ids=["nested-200000-deep", "int-of-5000-digits"]
)
def test_undecodable_json_exits_2(runner, tmp_path, command, text):
    p = tmp_path / "doc.json"
    p.write_text(text)
    res = runner.invoke(main, _args(command, str(p), tmp_path))
    assert res.exit_code == 2, res.output
    # without an int digit limit the 5000 digits read as a number, which
    # is valid JSON but not a document
    limited = text[0] == "[" or getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert res.output.startswith("error: not valid JSON" if limited else "error: not a ")


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
        ("[" * 200_000, "is not JSON"),
        ('{"system": {}}', "'system.cycles' must be a list of integer lists"),
        ('{"system": {"cycles": "x", "rim": [1, 2, 3]}}', "'system.cycles' must be a list"),
        ('{"system": {"cycles": [[1, 2, 3]], "rim": "x"}}', "'system.rim' must be a list"),
        ('{"hamiltonian": ["a", 2]}', "'hamiltonian' must hold integers only"),
        ('{"system": {"cycles": [[]], "rim": [1, 2, 3]}}', "a ring of 'system' is empty"),
        ('{"system": {"cycles": [[1, 2, 3]], "rim": []}}', "a ring of 'system' is empty"),
        (json.dumps({"system": K7_TORUS_PIN}), K7_TORUS_REFUSAL),
        (json.dumps({"system": K7_CYCLE_TWICE_PIN}), "is listed twice"),
        (json.dumps({"system": K7_RIM_AS_CYCLE_PIN}), "is listed twice"),
    ],
    ids=[
        "list",
        "system-string",
        "hamiltonian-object",
        "plan-list",
        "not-json",
        "nested-200000-deep",
        "system-empty",
        "cycles-string",
        "rim-string",
        "hamiltonian-strings",
        "empty-cycle",
        "empty-rim",
        "toroidal",
        "cycle-twice",
        "rim-as-cycle",
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


# Plans that parse but whose routes the pinned drawing cannot follow; each
# edit names the row it changes in K7's packaged plan, where the first
# entry routes (2,4) across conjugate (3,7) and the second routes (2,5).


def _set_first_row(entry, row):
    def corrupt(plan):
        plan["layers"][0][entry]["crossings"][0] = row

    return corrupt


def _no_crossing_for_2_4(plan):
    plan["layers"][0][0]["crossings"] = []


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_no_crossing_for_2_4, "pinned zero-crossing route for (2,4) is ambiguous: []"),
        (_set_first_row(0, [8, 1, 4]), "pinned conjugate (1,4) lies on 0 faces"),
        (_set_first_row(0, [8, 1, 2]), "pinned route for (2,4): cannot anchor at v2"),
        (_set_first_row(0, [8, 1, 3]), "pinned route for (2,4) does not reach v4"),
        (
            _set_first_row(1, [9, 1, 3]),
            "pinned route for (2,5): conjugate (4,7) does not continue from c7",
        ),
    ],
    ids=["ambiguous", "conjugate-on-no-face", "no-anchor", "misses-target", "broken-chain"],
)
def test_decompose_unfollowable_plan_exits_2(runner, k7_file, tmp_path, corrupt, message):
    from topolayers.fixtures import load_fixture

    pin = load_fixture("k7")
    corrupt(pin["plan"])
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(pin))
    res = runner.invoke(main, ["decompose", k7_file, "--pin", str(path), "-o", str(tmp_path / "out.json")])
    assert res.exit_code == 2, res.output
    assert res.output == f"error: {message}\n"
