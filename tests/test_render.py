from __future__ import annotations

import re

import pytest

from oracles import imaginary_positions_ref
from topolayers.document import decomposition_to_document
from topolayers.graphs import complete_graph
from topolayers.layering import decompose
from topolayers.render import RenderError, _base_positions, _imaginary_positions, render_svg


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


def _assert_markers_match_full_relaxation(doc):
    """Each layer's drawn markers sit exactly where relaxing every marker
    of the document puts them."""
    pos = _base_positions(doc)
    ref = imaginary_positions_ref(doc, pos)
    sequences = {int(k): v for k, v in doc["sequences"].items()}
    for layer in doc["layers"]:
        realized = [] if layer["index"] == 1 else layer["realized"]
        drawn = {w for eid in realized for w in sequences.get(eid, [])}
        assert _imaginary_positions(doc, pos, drawn) == {w: ref[w] for w in drawn}


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
