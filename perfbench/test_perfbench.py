"""Tests of the benchmark's own logic: bounds, checks, time limit, tail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from topolayers import (  # noqa: E402
    complete_graph,
    decompose,
    decomposition_to_document,
    serialize_document,
)
from topolayers.fixtures import load_fixture  # noqa: E402


@pytest.mark.parametrize(
    "n, theta", [(4, 1), (5, 2), (8, 2), (9, 3), (10, 3), (11, 3), (16, 3), (17, 4), (23, 5)]
)
def test_complete_thickness(n, theta):
    assert corpus.complete_thickness(n) == theta


@pytest.mark.parametrize("d, theta", [(3, 1), (4, 2), (7, 2), (8, 3)])
def test_hypercube_thickness(d, theta):
    assert corpus.hypercube_thickness(d) == theta


@pytest.mark.parametrize(
    "graph, bound",
    [
        (nx.cubical_graph(), 1),  # planar, triangle-free: ceil(12/12)
        (nx.complete_graph(6), 2),  # ceil(15/12)
        (nx.complete_bipartite_graph(3, 3), 2),  # triangle-free: ceil(9/8)
        (nx.petersen_graph(), 2),  # ceil(15/16) = 1, raised: not planar
        (nx.complete_bipartite_graph(6, 6), 2),  # ceil(36/20)
        (nx.random_regular_graph(8, 20, seed=0), 2),  # ceil(80/54)
    ],
)
def test_euler_lower_bound(graph, bound):
    assert corpus.euler_lower_bound(graph) == bound


def test_manifest_matches_corpus():
    recorded = json.loads((HERE / "inputs.json").read_text())
    assert recorded == corpus.manifest()


def test_sparse_corpus_is_fixed():
    a, b = corpus.sparse_inputs(), corpus.sparse_inputs()
    assert [i.text for i in a] == [i.text for i in b]
    assert len(a) == 17 and all(i.m == i.text.count("\n") for i in a)


K7_EDGES = [(u, v) for u in range(1, 8) for v in range(u + 1, 8)]


def pinned_k7_text() -> str:
    g = complete_graph(7, name="K7")
    return serialize_document(decomposition_to_document(decompose(g, pin=load_fixture("k7"))))


def test_checks_accept_pinned_k7():
    doc = checks.check_document("K7", pinned_k7_text(), K7_EDGES, layers=2)
    assert len(doc["layers"]) == 2


def test_checks_catch_merged_layers():
    # verify_document alone accepts this document; the planarity check must not.
    doc = json.loads(pinned_k7_text())
    first, second = doc["layers"]
    first["realized"] = sorted(first["realized"] + second["realized"])
    second["realized"] = [first["realized"].pop()]
    text = serialize_document(doc)
    with pytest.raises(checks.CheckFailure) as err:
        checks.check_document("K7", text, K7_EDGES)
    assert err.value.check == "layer-planarity"


def test_checks_catch_wrong_layer_count_and_round_trip():
    text = pinned_k7_text()
    with pytest.raises(checks.CheckFailure) as err:
        checks.check_document("K7", text, K7_EDGES, layers=3)
    assert err.value.check == "layer-count"
    with pytest.raises(checks.CheckFailure) as err:
        checks.check_document("K7", text.replace("\n", "\n ", 1), K7_EDGES)
    assert err.value.check == "round-trip"


def test_time_limit_interrupts_a_busy_input():
    t0 = time.perf_counter()
    with pytest.raises(run.InputTimeout):
        with run.time_limit(0.2):
            while True:
                pass
    assert time.perf_counter() - t0 < 2.0


def test_low_tail_has_ten_passes_below_it():
    assert run.low_tail([float(v) for v in range(100, 0, -1)]) == (11.0, 10)
    # Too few passes for a tail of ten: the median.
    assert run.low_tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 2)


def test_speed_probe_samples_while_an_input_runs():
    probe = run.SpeedProbe()
    with probe.running(run.REF_NOMINAL_S):
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            pass
    assert len(probe.samples) >= 3
    assert probe.paused >= sum(probe.samples[1:])
    assert 0.2 < run.speed_scale(probe.samples) < 5
