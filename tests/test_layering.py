from __future__ import annotations

import copy
import hashlib

import networkx as nx
import pytest

from topolayers.cycles import canonical_ring, seg
from topolayers.document import decomposition_to_document, serialize_document, verify_document
from topolayers.fixtures import load_fixture
from topolayers import layering
from topolayers.graphs import complete_graph, edge_between, parse_graph
from topolayers.layering import DecompositionError, decompose, split_regions
from topolayers.planar import PlanarizationError, hamiltonian_rim
from topolayers.routing import Drawing, insert_connection, shortest_route
from topolayers.verify import verify_system

from oracles import strip_imaginary_region_ref

K7_SEQUENCES = {
    (1, 4): [23],
    (2, 4): [8],
    (2, 5): [9, 10],
    (2, 6): [11, 12, 13],
    (3, 6): [14, 15],
    (4, 6): [24, 25],
}
K7_HOSTS = {
    23: 13,
    8: 15,
    9: 15,
    10: 18,
    11: 15,
    12: 18,
    13: 20,
    14: 1,
    15: 6,
    24: 13,
    25: 4,
}


def _replayed_inner(k7, k7_system):
    d = Drawing.from_system(k7, k7_system)
    ring = hamiltonian_rim(k7_system, k7, load_fixture("k7")["hamiltonian"])
    split_regions(d, ring)
    inner = lambda: sorted(f for f, s in d.side.items() if s == "inner")
    for chord in ((2, 4), (2, 5), (2, 6)):
        insert_connection(d, *chord, shortest_route(d, *chord, inner()))
    return d


def test_strip_residual_rim(k7, k7_system):
    d = _replayed_inner(k7, k7_system)
    face_ids, ring = strip_imaginary_region_ref(d, chord=(3, 6))
    assert sorted(face_ids) == [1, 5, 15]
    assert canonical_ring(ring) == canonical_ring([6, 1, 3, 2, 7])


def test_k7_thickness_two_layers(k7_decomposition):
    d = k7_decomposition
    assert len(d.layers) == 2
    for layer in d.layers:
        rep = verify_system(layer.system)
        assert rep.ok, rep.lines()


def test_k7_sequences_and_hosts(k7, k7_decomposition):
    d = k7_decomposition
    got = {d.chords[eid]: seq for eid, seq in d.sequences.items()}
    assert got == K7_SEQUENCES
    for w, host_eid in K7_HOSTS.items():
        kind, ref = d.drawing.imaginary[w]["carrier"]
        assert (kind, ref) == ("edge", host_eid)


def test_k7_partition(k7, k7_decomposition):
    part = {layer.index: sorted(layer.realized) for layer in k7_decomposition.layers}
    assert sorted(eid for ids in part.values() for eid in ids) == sorted(k7.edges)
    assert sorted(part[2]) == [3, 8, 9, 10, 14, 17]


def test_k8_counts_and_empty_rim(k8_decomposition):
    d = k8_decomposition
    assert len(d.layers) == 2
    assert len(d.layers[0].realized) == 18
    counts = {eid: len(seq) for eid, seq in d.sequences.items()}
    assert counts == {24: 1, 4: 2, 3: 3, 9: 4, 11: 2, 10: 3, 17: 1, 12: 2, 15: 3, 21: 7}
    assert d.layers[-1].system.rim is None
    # without a rim, the GF(2) sum of the cycles must be empty
    assert verify_system(d.layers[-1].system).checks["gf2-sum"].ok
    for layer in d.layers:
        assert verify_system(layer.system).ok


def test_k10_three_layers(k10, k10_decomposition):
    d = k10_decomposition
    assert len(d.layers) <= 3
    for layer in d.layers:
        rep = verify_system(layer.system)
        assert rep.ok, rep.lines()
    part = {layer.index: sorted(layer.realized) for layer in d.layers}
    assert sorted(eid for ids in part.values() for eid in ids) == sorted(k10.edges)


def test_inner_only_strategy(k7):
    d = decompose(k7, strategy="inner-only", pin=load_fixture("k7"))
    assert len(d.layers) >= 2
    for layer in d.layers:
        assert verify_system(layer.system).ok
    part = {layer.index: sorted(layer.realized) for layer in d.layers}
    assert sorted(eid for ids in part.values() for eid in ids) == sorted(k7.edges)


def test_planar_input_single_layer():
    g = complete_graph(4)
    d = decompose(g)
    assert len(d.layers) == 1
    assert not d.drawing.imaginary
    assert sorted(d.layers[0].realized) == sorted(g.edges)


def test_a_planar_input_is_one_ringless_layer_without_a_ring_search(monkeypatch):
    from test_digests import PLANAR

    def searched(*args, **kwargs):
        raise AssertionError("a one-layer run looked for a ring")

    for name in ("hamiltonian_rim", "split_regions"):
        monkeypatch.setattr(layering, name, searched)
    for which, (make, _) in sorted(PLANAR.items()):
        d = decompose(make())
        assert [layer.ring for layer in d.layers] == [None], which
        assert verify_document(decomposition_to_document(d)).ok, which


def test_a_pinned_ring_is_checked_on_a_planar_input():
    with pytest.raises(PlanarizationError, match="pinned ring does not list 1..4 once each"):
        decompose(complete_graph(4), pin={"hamiltonian": [1, 2, 3]})


def test_unpinned_k7():
    d = decompose(complete_graph(7))
    assert len(d.layers) == 2
    for layer in d.layers:
        assert verify_system(layer.system).ok


def test_decompose_rejects_separable():
    g = parse_graph("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n")
    with pytest.raises(DecompositionError, match="nonseparable"):
        decompose(g)


def test_decompose_rejects_unknown_strategy(k7):
    with pytest.raises(DecompositionError):
        decompose(k7, strategy="magic")


@pytest.mark.parametrize(
    "pin",
    [[1, 2], {"system": {}}, {"system": {"cycles": "x", "rim": [1, 2, 3]}}, {"hamiltonian": ["a", 2]}],
    ids=["list", "system-empty", "cycles-string", "hamiltonian-strings"],
)
def test_decompose_rejects_malformed_pin(k7, pin):
    with pytest.raises(DecompositionError, match="malformed pin"):
        decompose(k7, pin=pin)


def test_decompose_deterministic(k7, k7_decomposition):
    d2 = decompose(k7, strategy="thickness", pin=load_fixture("k7"))
    assert d2.sequences == k7_decomposition.sequences
    assert [sorted(l.realized) for l in d2.layers] == [
        sorted(l.realized) for l in k7_decomposition.layers
    ]


def _logged_decompose(monkeypatch, g, **kwargs):
    """decompose(g, **kwargs) and its chords (s, t) as it inserted them, in
    order; the same chords, in the same order, as the drawing's ("conn",
    ends) carriers, which keep no orientation."""
    inserted = []
    real = layering.insert_connection

    def recorded(drawing, s, t, route):
        inserted.append((s, t))
        return real(drawing, s, t, route)

    with monkeypatch.context() as m:
        m.setattr(layering, "insert_connection", recorded)
        d = decompose(g, **kwargs)
    conns = [ref for kind, ref in d.drawing.carried if kind == "conn"]
    assert [seg(s, t) for s, t in inserted] == conns
    return d, inserted


def _route_log(d, inserted):
    """The plan that replays d, whose chords were inserted as `inserted`:
    for each layer from 2, every chord in insertion order with its own
    rows of the imaginary table."""
    layer_of = {seg(*d.chords[eid]): layer.index for layer in d.layers[1:] for eid in layer.realized}
    rows = {}
    for w, info in sorted(d.drawing.imaginary.items()):
        rows.setdefault(info["chord"], []).append([w, *info["host"]])
    log = [[] for _ in d.layers[1:]]
    for s, t in inserted:
        log[layer_of[seg(s, t)] - 2].append({"chord": [s, t], "crossings": rows.get(seg(s, t), [])})
    return log


def _text(d):
    return serialize_document(decomposition_to_document(d))


def _hypercube(dim):
    G = nx.convert_node_labels_to_integers(nx.hypercube_graph(dim), first_label=1)
    return parse_graph("".join(f"{u} {v}\n" for u, v in sorted(G.edges)), name=f"Q{dim}")


@pytest.mark.parametrize(
    "g",
    [complete_graph(n, name=f"K{n}") for n in range(7, 13)] + [_hypercube(4)],
    ids=lambda g: g.name,
)
def test_route_log_replays_unpinned_drawing(g, monkeypatch):
    d, inserted = _logged_decompose(monkeypatch, g)
    assert len(d.layers) >= 2
    replayed = decompose(g, pin={"plan": {"layers": _route_log(d, inserted)}})
    assert _text(replayed) == _text(d)


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_pinned_fixture_is_its_own_route_log(which, request, monkeypatch):
    pin = load_fixture(which)
    n = int(which[1:])
    d, inserted = _logged_decompose(monkeypatch, complete_graph(n, name=f"K{n}"), pin=pin)
    assert _text(d) == _text(request.getfixturevalue(f"{which}_decomposition"))
    assert _route_log(d, inserted) == pin["plan"]["layers"]
    assert [layer.ring for layer in d.layers[1:]] == [pin["hamiltonian"]] * len(pin["plan"]["layers"])


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_pinned_run_replays_without_searching(which, monkeypatch):
    from test_digests import PINNED

    def searched(*args, **kwargs):
        raise AssertionError("a pinned run searched for chords or routes")

    for name in ("expanded_ring", "basis_from_ring", "select_noncrossing", "shortest_route"):
        monkeypatch.setattr(layering, name, searched)
    n = int(which[1:])
    d = decompose(complete_graph(n, name=f"K{n}"), pin=load_fixture(which))
    assert hashlib.sha256(_text(d).encode()).hexdigest() == PINNED[which]


def test_decompose_leaves_the_pin_alone(k7):
    from test_digests import PINNED

    pin = load_fixture("k7")
    before = copy.deepcopy(pin)
    texts = [_text(decompose(k7, pin=pin)) for _ in range(2)]
    assert pin == before
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == PINNED["k7"]
