from __future__ import annotations

import pytest

from topolayers.fixtures import load_fixture
from topolayers.layering import split_regions
from topolayers.planar import hamiltonian_rim
from topolayers.routing import (
    Drawing,
    RoutingError,
    build_mixed_cycle_graph,
    imaginary_sequence,
    insert_connection,
    shortest_route,
)
from topolayers.verify import verify_system

from oracles import conjugate_edge


@pytest.fixture()
def k7_drawing(k7, k7_system):
    d = Drawing.from_system(k7, k7_system)
    ring = hamiltonian_rim(k7_system, k7, load_fixture("k7")["hamiltonian"])
    split_regions(d, ring)
    return d


def _inner(d):
    return sorted(fid for fid, s in d.side.items() if s == "inner")


def test_conjugate_edge(k7_system):
    assert conjugate_edge(k7_system.cycles[19], k7_system.cycles[28]) == (3, 7)
    with pytest.raises(RoutingError):
        conjugate_edge(k7_system.cycles[19], k7_system.cycles[13])


def test_mixed_cycle_graph_links_inner(k7_drawing):
    mcg = build_mixed_cycle_graph(k7_drawing, set(_inner(k7_drawing)))
    assert {fid for fid, _ in mcg.links[19]} <= set(_inner(k7_drawing))
    assert (28, (3, 7)) in mcg.links[19]


def test_replay_k7_inner_insertions(k7_drawing):
    d = k7_drawing
    # chord (2,4): one crossing on (3,7), four replacement triangles
    route = shortest_route(d, 2, 4, _inner(d))
    assert route == [19, 28]
    before = set(d.faces)
    rec = insert_connection(d, 2, 4, route)
    new_rings = {
        frozenset(d.faces[fid].vertices) for fid in set(d.faces) - before
    }
    assert new_rings == {
        frozenset({2, 3, 8}),
        frozenset({2, 8, 7}),
        frozenset({4, 7, 8}),
        frozenset({4, 8, 3}),
    }
    assert d.imaginary[8]["host"] == (3, 7)
    assert len(d.faces) - len(before) == len(route)
    assert verify_system(d.snapshot()).ok

    # chord (2,5): two crossings
    route = shortest_route(d, 2, 5, _inner(d))
    assert route == [37, 39, 33]
    n_before = len(d.faces)
    insert_connection(d, 2, 5, route)
    assert len(d.faces) - n_before == len(route)
    assert imaginary_sequence(d, (2, 5)) == [9, 10]
    assert d.imaginary[9]["host"] == (7, 8)
    assert d.imaginary[10]["host"] == (4, 7)
    assert verify_system(d.snapshot()).ok

    # chord (2,6): three crossings
    route = shortest_route(d, 2, 6, _inner(d))
    assert route == [41, 43, 45, 35]
    n_before = len(d.faces)
    insert_connection(d, 2, 6, route)
    assert len(d.faces) - n_before == len(route)
    assert imaginary_sequence(d, (2, 6)) == [11, 12, 13]
    assert [d.imaginary[w]["host"] for w in (11, 12, 13)] == [
        (7, 9),
        (7, 10),
        (5, 7),
    ]
    assert verify_system(d.snapshot()).ok

    # every imaginary vertex has degree 4 in the drawing
    for w in d.imaginary:
        deg = sum(
            1
            for f in d.faces.values()
            for a, b in f.arcs
            if a == w
        )
        assert deg == 4


def test_route_rejects_degenerate(k7_drawing):
    d = k7_drawing
    with pytest.raises(RoutingError):
        shortest_route(d, 2, 2, _inner(d))
    with pytest.raises(RoutingError):
        shortest_route(d, 2, 3, _inner(d))  # edge already drawn


def test_insert_rejects_bad_route(k7_drawing):
    d = k7_drawing
    with pytest.raises(RoutingError):
        insert_connection(d, 2, 4, [])
    with pytest.raises(RoutingError):
        insert_connection(d, 2, 4, [19, 19])


def test_banned_segment_blocks_reuse(k7_drawing):
    d = k7_drawing
    insert_connection(d, 2, 4, shortest_route(d, 2, 4, _inner(d)))
    # the new connection arcs are banned as conjugate edges
    assert any(d.banned[d.seg_id[seg]] for seg in [(2, 8), (4, 8)])
    mcg = build_mixed_cycle_graph(d)
    for fid, nbrs in mcg.links.items():
        for oid, cseg in nbrs:
            assert conjugate_edge(d.faces[fid], d.faces[oid]) == cseg
            assert not d.banned[d.seg_id[cseg]]
