"""Incremental selection and routing against their loop references.

`select_noncrossing` and `shortest_route` reuse work across queries: each
projection is computed once per selection, and routes read conjugate
links from the drawing's face index and link cache, testing each link in
place.  `_route_greedy` keeps each chord's route until an insertion
touches a face its query saw.  These tests require the same kept ids,
removal order, routes, `seen` sets and greedy insertions as the loop
versions in `oracles`, check the face and carrier indexes and the link
cache after every insertion, and check that the reuse really happens.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolayers.layering as layering
import topolayers.projection as projection
import topolayers.routing as routing
import topolayers.cycles as cycles
from topolayers.cycles import seg
from topolayers.fixtures import load_fixture
from topolayers.graphs import complete_graph
from topolayers.layering import decompose, split_regions
from topolayers.planar import hamiltonian_rim, select_planar_cycle_system
from topolayers.projection import basis_from_ring, select_noncrossing
from topolayers.routing import (
    Drawing,
    build_mixed_cycle_graph,
    insert_connection,
    shortest_route,
)

from oracles import (
    face_indexes,
    mixed_cycle_graph_ref,
    route_greedy_ref,
    select_noncrossing_ref,
    shortest_route_copying_ref,
    shortest_route_ref,
)


@st.composite
def rings_and_chords(draw):
    k = draw(st.integers(4, 14))
    ring = draw(st.permutations(list(range(1, k + 1))))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ring), st.sampled_from(ring)).filter(lambda p: p[0] != p[1]),
            max_size=24,
        )
    )
    ids = draw(st.lists(st.integers(1, 500), min_size=len(pairs), max_size=len(pairs), unique=True))
    return ring, dict(zip(ids, pairs))


@settings(max_examples=200, deadline=None)
@given(rings_and_chords())
def test_select_noncrossing_matches_reference(case):
    ring, chords = case
    basis = basis_from_ring(ring)
    assert select_noncrossing(basis, chords) == select_noncrossing_ref(basis, chords)


def _pending(drawing, g):
    """Chords of g that are neither drawing edges nor routed yet."""
    drawn = {ck[1] for ck in drawing.carrier.values() if ck[0] == "edge"}
    routed = {seg(*uv) for uv in drawing.routed}
    return [uv for eid, uv in sorted(g.edges.items()) if eid not in drawn and seg(*uv) not in routed]


def _face_sets(drawing):
    return {
        "all": None,
        "inner": {f for f, s in drawing.side.items() if s == "inner"},
        "outer": {f for f, s in drawing.side.items() if s == "outer"},
    }


def _assert_routes_match(drawing, g):
    """Same graph and routes as the references, the same `seen` as the
    copying search, and face_ids left as it was."""
    for name, faces in _face_sets(drawing).items():
        before = None if faces is None else set(faces)
        mcg = build_mixed_cycle_graph(drawing, faces)
        links, vertex_faces = mixed_cycle_graph_ref(drawing, faces)
        assert mcg.links == links, name
        assert mcg.vertex_faces == vertex_faces, name
        for s, t in _pending(drawing, g):
            seen, seen_ref = set(), set()
            want = shortest_route_ref(drawing, s, t, faces)
            assert shortest_route_copying_ref(drawing, s, t, faces, seen_ref) == want
            assert shortest_route(drawing, s, t, faces, seen) == want, (name, s, t)
            assert seen == seen_ref, (name, s, t)
            assert faces == before, name


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 9), st.randoms(use_true_random=False))
def test_shortest_route_matches_reference_on_random_insertions(n, rnd):
    g = complete_graph(n)
    sys_ = select_planar_cycle_system(g)
    d = Drawing.from_system(g, sys_)
    ring = hamiltonian_rim(sys_, g)
    split_regions(d, ring)
    chords = _pending(d, g)
    rnd.shuffle(chords)
    for s, t in chords:
        for faces in _face_sets(d).values():
            assert shortest_route(d, s, t, faces) == shortest_route_ref(d, s, t, faces)
        route = shortest_route(d, s, t)
        if route is None:
            d.banned.clear()
            route = shortest_route(d, s, t)
            if route is None:
                continue
        insert_connection(d, s, t, route)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_decompose_queries_match_reference(n, monkeypatch):
    """Every pending chord, before every insertion of an unpinned K_n run."""
    g = complete_graph(n)
    selections = []

    def checked_select(basis, chords):
        got = select_noncrossing(basis, chords)
        assert got == select_noncrossing_ref(basis, chords)
        selections.append(got)
        return got

    def checked_insert(drawing, s, t, route):
        _assert_routes_match(drawing, g)
        return insert_connection(drawing, s, t, route)

    monkeypatch.setattr(layering, "select_noncrossing", checked_select)
    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(g)
    assert selections
    assert len(d.drawing.routed) == len(d.chords)


def test_face_index_tracks_every_insertion(monkeypatch):
    """The incremental indexes equal ones rebuilt from the faces and the
    carrier table, always."""
    g = complete_graph(10)
    inserts = []

    def checked_insert(drawing, s, t, route):
        record = insert_connection(drawing, s, t, route)
        by_seg, by_vertex = face_indexes(drawing)
        assert drawing.segment_faces == by_seg
        assert drawing.vertex_faces == by_vertex
        by_key = {}
        for sg, key in drawing.carrier.items():
            by_key.setdefault(key, set()).add(sg)
        assert drawing.carried == by_key
        inserts.append(record)
        return record

    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(g)
    assert len(inserts) == len(d.chords)


def test_selection_projects_each_candidate_once(monkeypatch):
    calls = []
    real = projection.project_chord

    def counted(basis, chord):
        calls.append(chord)
        return real(basis, chord)

    def checked_select(basis, chords):
        del calls[:]
        got = select_noncrossing(basis, chords)
        if len(chords) >= 2:
            assert len(calls) == len(chords)
        return got

    monkeypatch.setattr(projection, "project_chord", counted)
    monkeypatch.setattr(layering, "select_noncrossing", checked_select)
    rng = random.Random(7)
    ring = list(range(1, 13))
    rng.shuffle(ring)
    chords = {eid: tuple(rng.sample(ring, 2)) for eid in range(1, 31)}
    checked_select(basis_from_ring(ring), chords)
    decompose(complete_graph(12))


def test_routing_never_builds_the_mixed_cycle_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("shortest_route built the whole mixed cycle graph")

    monkeypatch.setattr(routing, "build_mixed_cycle_graph", forbidden)
    d = decompose(complete_graph(10))
    assert d.drawing.routed


def _drawn(drawing):
    """Everything a greedy routing pass changes in a drawing."""
    faces = {fid: c.arcs for fid, c in drawing.faces.items()}
    return faces, drawing.carrier, drawing.side, drawing.banned, drawing.routed


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_route_greedy_matches_reference(n, monkeypatch):
    """Every greedy pass of an unpinned K_n run, against re-querying all."""
    real = layering._route_greedy
    sides = set()

    def checked(drawing, pool, side):
        twin = copy.deepcopy(drawing)
        want = route_greedy_ref(twin, pool, side)
        got = real(drawing, pool, side)
        assert got == want, side
        assert _drawn(drawing) == _drawn(twin), side
        sides.add(side)
        return got

    monkeypatch.setattr(layering, "_route_greedy", checked)
    d = decompose(complete_graph(n))
    assert sides == {"inner", "outer", None}
    assert len(d.drawing.routed) == len(d.chords)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(6, 10),
    st.sampled_from(["inner", "outer", None]),
    st.randoms(use_true_random=False),
)
def test_route_greedy_matches_reference_on_shuffled_pools(n, side, rnd):
    g = complete_graph(n)
    d = Drawing.from_system(g, select_planar_cycle_system(g))
    ring = hamiltonian_rim(d.snapshot(), g)
    split_regions(d, ring)
    chords = _pending(d, g)
    rnd.shuffle(chords)
    for s, t in chords[: rnd.randrange(4)]:
        route = shortest_route(d, s, t)
        if route is not None:
            insert_connection(d, s, t, route)
    rest = [uv for uv in chords if seg(*uv) not in {seg(*r) for r in d.routed}]
    rest = rest[: rnd.randrange(len(rest) + 1)]
    pool = dict(zip(rnd.sample(range(1, 1000), len(rest)), rest))
    twin = copy.deepcopy(d)
    assert layering._route_greedy(d, pool, side) == route_greedy_ref(twin, pool, side)
    assert _drawn(d) == _drawn(twin)


def _assert_links_fresh(drawing):
    """Every cached link list equals one computed from the faces alone."""
    assert set(drawing.links) <= set(drawing.faces)
    fresh, _ = mixed_cycle_graph_ref(drawing, banned=set())
    for fid, links in drawing.links.items():
        assert links == fresh[fid], fid


def test_link_cache_tracks_every_insertion(monkeypatch):
    g = complete_graph(10)
    cached = []

    def checked_insert(drawing, s, t, route):
        record = insert_connection(drawing, s, t, route)
        _assert_links_fresh(drawing)
        cached.append(len(drawing.links))
        return record

    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(g)
    assert len(cached) == len(d.chords) and sum(cached) > 0


def test_link_cache_tracks_each_face_change():
    """_remove_face and _add_face each keep the cache exact on their own;
    insert_connection always pairs them, which would hide a lapse in one."""
    g = complete_graph(8)
    d = Drawing.from_system(g, select_planar_cycle_system(g))
    for fid in sorted(d.faces):
        face = d.faces[fid]
        build_mixed_cycle_graph(d)
        d._remove_face(fid)
        _assert_links_fresh(d)
        build_mixed_cycle_graph(d)
        d._add_face(face)
        _assert_links_fresh(d)


def test_pool_is_enumerated_only_for_pins(monkeypatch, k7):
    calls = []
    real = cycles.enumerate_isometric_cycles

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(cycles, "enumerate_isometric_cycles", counted)
    decompose(complete_graph(10))
    assert calls == []
    decompose(k7, pin=load_fixture("k7"))
    assert calls == [7]
