"""Sizes read from outside input are checked before anything is built from them.

An edge list or a document names its vertex count n, directly or through
its largest vertex id.  Each check below must refuse a huge n in time and
memory linear in the input's length; the bound on the tracemalloc peak
fails any version that allocates a list or graph of n vertices first.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from click.testing import CliRunner

from topolayers.cli import main
from topolayers.document import decomposition_to_document, serialize_document, verify_document
from topolayers.graphs import Graph, complete_graph
from topolayers.layering import decompose
from topolayers.planar import PlanarizationError, hamiltonian_rim
from topolayers.render import RenderError, render_svg

BIG = 10**6
PEAK_BYTES = 4 * 2**20


def _peak(fn):
    """fn's result and the tracemalloc peak, in bytes, of calling it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def big_k7_document(k7_decomposition):
    doc = json.loads(serialize_document(decomposition_to_document(k7_decomposition)))
    doc["graph"]["n"] = BIG
    return doc


def test_edge_list_with_a_vertex_gap_is_refused(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("1 2\n1 3\n2 3\n3 200000\n")
    out = str(tmp_path / "gap.json")
    res, peak = _peak(lambda: CliRunner().invoke(main, ["decompose", str(path), "-o", out]))
    assert res.exit_code == 2, res.output
    assert "v4 is on no edge" in res.output
    assert peak < PEAK_BYTES


def test_verify_compares_ring_length_with_n_first(big_k7_document):
    report, peak = _peak(lambda: verify_document(big_k7_document))
    check = report.checks["layer-rings"]
    assert not check.ok
    assert check.details == [f"layer 2: ring does not list 1..{BIG} once each"]
    assert peak < PEAK_BYTES


def test_render_finds_the_smallest_uncovered_vertex_without_scanning_n(big_k7_document):
    """K7's layers fail the layer-index check, which compares their n
    with the graph's; planar K4's one layer has no ring and K4 no chord,
    so its document with n raised in the graph and the layer fails only
    the layer-index check's look for a vertex on no layer-1 arc, in verify
    and in render alike."""
    k4 = json.loads(serialize_document(decomposition_to_document(decompose(complete_graph(4)))))
    k4["graph"]["n"] = k4["layers"][0]["system"]["n"] = BIG

    def check():
        with pytest.raises(RenderError, match=f"^layer-indexes: layer 1 has system n 7, not the graph's {BIG}"):
            render_svg(big_k7_document, 2)
        with pytest.raises(RenderError, match="^layer-indexes: vertex 5 is on no layer-1 arc$"):
            render_svg(k4, 1)
        return verify_document(k4)

    report, peak = _peak(check)
    assert [name for name, result in report.checks.items() if not result.ok] == ["layer-indexes"]
    assert report.checks["layer-indexes"].details == ["vertex 5 is on no layer-1 arc"]
    assert peak < PEAK_BYTES


def test_pinned_ring_length_is_compared_with_n_first(k7, k7_system):
    big = Graph(n=BIG, edges=dict(k7.edges))

    def rim():
        with pytest.raises(PlanarizationError, match=f"does not list 1..{BIG} once each"):
            hamiltonian_rim(k7_system, big, [1, 6, 5, 4, 3, 2, 7])

    assert _peak(rim)[1] < PEAK_BYTES
