"""Incremental selection and routing against their loop references.

`select_noncrossing` and `shortest_route` reuse work across queries: each
chord's ring positions are found once per selection, and routes read conjugate
links from the drawing's face index and link cache, testing each link in
place.  `_route_greedy` keeps each chord's route until an insertion
splits one of its faces, and its length as a floor, and answers chords
from the floods of failed queries, all until an insertion whose route
face has a neighbour on two segments.  These tests require the same kept
ids, removal order, routes, `seen` sets and greedy insertions as the
loop versions in `oracles`, check the segment-id tables, the vertex and
carrier indexes and the link cache after every insertion, and check
that the reuse really happens.  A run also steps a tuple-keyed twin
drawing through the same queries and insertions and compares them one
by one.
"""

from __future__ import annotations

import copy
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolayers.layering as layering
import topolayers.projection as projection
import topolayers.routing as routing
import topolayers.cycles as cycles
from topolayers.cycles import seg
from topolayers.fixtures import load_fixture
from topolayers.graphs import complete_graph, parse_graph
from topolayers.layering import DecompositionError, decompose, split_regions
from topolayers.planar import PlanarizationError, hamiltonian_rim, select_planar_cycle_system
from topolayers.projection import basis_from_ring, select_noncrossing
from topolayers.routing import (
    Drawing,
    RoutingError,
    build_mixed_cycle_graph,
    insert_connection,
    shortest_route,
)

import oracles
from oracles import (
    TupleDrawing,
    banned_segments,
    cached_links_count_ref,
    face_indexes,
    graph_from_networkx,
    insert_connection_tuple_ref,
    mixed_cycle_graph_ref,
    route_greedy_ref,
    select_noncrossing_ref,
    shortest_route_copying_ref,
    shortest_route_ref,
    shortest_route_tuple_ref,
)
from test_planar import nonseparable_graphs


@st.composite
def rings_and_chords(draw):
    k = draw(st.integers(3, 20))
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


def _routed(drawing):
    """The ends of each chord the drawing has routed: its ("conn", ends)
    carriers."""
    return {ref for kind, ref in drawing.carrier.values() if kind == "conn"}


def _pending(drawing, g):
    """Chords of g that are neither drawing edges nor routed yet."""
    drawn = {ck[1] for ck in drawing.carrier.values() if ck[0] == "edge"}
    routed = _routed(drawing)
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
            d.clear_bans()
            route = shortest_route(d, s, t)
            if route is None:
                continue
        insert_connection(d, s, t, route)


# Unpinned K7-K12, and three sparse benchmark graphs whose drawings have
# faces that share more than one segment and so are not conjugate; in
# each, some route face has a neighbour on two of its segments.
RUNS = [7, 8, 9, 10, 11, 12, "rr4_16_s0", "rr5_20_s1", "rr6_20_s0"]


def _run_graph(which):
    """K_n for an int, else the sparse benchmark graph rr{d}_{n}_s{seed}."""
    if isinstance(which, int):
        return complete_graph(which)
    d, n, seed = (int(x.lstrip("rs")) for x in which.split("_"))
    return graph_from_networkx(nx.random_regular_graph(d, n, seed=seed), name=which)


@pytest.mark.parametrize("n", RUNS)
def test_decompose_queries_match_reference(n, monkeypatch):
    """Every pending chord, before every insertion of an unpinned run."""
    g = _run_graph(n)
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
    assert len(_routed(d.drawing)) == len(d.chords)


def _assert_tables_fresh(drawing):
    """The segment-id tables equal ones rebuilt from the faces, and so does
    the vertex index on the graph vertices 1..n, the only ones it covers;
    `carried` equals a regrouping of the carrier table."""
    by_seg, by_vertex = face_indexes(drawing)
    assert set(drawing.seg_id) == set(by_seg)
    for sg, fids in by_seg.items():
        sid = drawing.seg_id[sg]
        assert drawing.seg_ends[sid] == sg
        slots = drawing.seg_faces[2 * sid : 2 * sid + 2]
        assert sorted(f for f in slots if f >= 0) == sorted(fids), sg
    live = set(drawing.seg_id.values())
    for sid in range(len(drawing.seg_ends)):
        if sid not in live:
            assert drawing.seg_faces[2 * sid : 2 * sid + 2] == [-1, -1], sid
            assert not drawing.banned[sid], sid
    for fid, sids in enumerate(drawing.face_segs):
        if fid in drawing.faces:
            arcs = drawing.faces[fid].arcs
            assert [drawing.seg_ends[sid] for sid in sids] == [seg(a, b) for a, b in arcs]
        else:
            assert sids is None, fid
    n = drawing.g.n
    assert drawing.vertex_faces == {v: f for v, f in by_vertex.items() if v <= n}
    by_key = {}
    for sg, key in drawing.carrier.items():
        by_key.setdefault(key, set()).add(sg)
    assert drawing.carried == by_key


def test_face_index_tracks_every_insertion(monkeypatch):
    """The incremental indexes equal ones rebuilt from the faces and the
    carrier table, always."""
    g = complete_graph(10)
    inserts = []

    def checked_insert(drawing, s, t, route):
        record = insert_connection(drawing, s, t, route)
        _assert_tables_fresh(drawing)
        inserts.append(record)
        return record

    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(g)
    assert len(inserts) == len(d.chords)


def _tuple_state(d):
    """Everything an insertion changes, dict orders included, with the
    bans as segments."""
    banned = d.banned if isinstance(d, TupleDrawing) else banned_segments(d)
    return (
        [(fid, c.arcs) for fid, c in d.faces.items()],
        list(d.carrier.items()),
        list(d.imaginary.items()),
        list(d.side.items()),
        banned,
        d.rim_id,
        d.next_cycle_id,
        d.next_vertex_id,
    )


@pytest.mark.parametrize("n", RUNS)
def test_id_tables_match_the_tuple_reference(n, monkeypatch):
    """Every query and insertion of an unpinned run, against the
    tuple-keyed search and insertion run on a twin drawing in step."""
    twins = {}
    counts = {"queries": 0, "inserts": 0}

    def twin(drawing):
        if id(drawing) not in twins:
            twins[id(drawing)] = TupleDrawing.from_drawing(drawing)
        return twins[id(drawing)]

    real_clear = Drawing.clear_bans

    def clear(drawing):
        real_clear(drawing)
        twin(drawing).banned.clear()

    def checked_route(drawing, s, t, face_ids=None, seen=None):
        seen_ref = None if seen is None else set(seen)
        want = shortest_route_tuple_ref(twin(drawing), s, t, face_ids, seen_ref)
        got = shortest_route(drawing, s, t, face_ids, seen)
        assert got == want, (s, t)
        assert seen == seen_ref, (s, t)
        counts["queries"] += 1
        return got

    def checked_insert(drawing, s, t, route):
        want = insert_connection_tuple_ref(twin(drawing), s, t, route)
        got = insert_connection(drawing, s, t, route)
        assert got == want
        assert _tuple_state(drawing) == _tuple_state(twin(drawing)), (s, t)
        counts["inserts"] += 1
        return got

    monkeypatch.setattr(Drawing, "clear_bans", clear)
    monkeypatch.setattr(layering, "shortest_route", checked_route)
    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(_run_graph(n))
    assert counts["inserts"] == len(d.chords) and counts["queries"] > counts["inserts"]


def test_selection_projects_each_candidate_once(monkeypatch):
    calls = []
    real = projection._span

    def counted(basis, chord):
        calls.append(chord)
        return real(basis, chord)

    def checked_select(basis, chords):
        del calls[:]
        got = select_noncrossing(basis, chords)
        if len(chords) >= 2:
            assert len(calls) == len(chords)
        return got

    monkeypatch.setattr(projection, "_span", counted)
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
    assert _routed(d.drawing)


def _drawn(drawing):
    """Everything a greedy routing pass changes in a drawing."""
    faces = {fid: c.arcs for fid, c in drawing.faces.items()}
    return faces, drawing.carrier, drawing.side, drawing.banned


def _doubled(drawing, route):
    """Some face of the route has a neighbour on two of its segments."""
    return any(len(nbs) > len(set(nbs)) for nbs in map(drawing.neighbours, route))


def _checked_greedy(real, stats):
    """`_route_greedy` that first runs `route_greedy_ref` on a twin drawing
    and requires the same chords, in the same order, along the same
    routes, and the same drawing after; `stats` counts the passes by side
    and the insertions whose route face has a two-segment neighbour."""

    def checked(drawing, pool, side):
        twin = copy.deepcopy(drawing)
        inserted = {"ref": [], "memo": []}

        def recording(log):
            def insert(d, s, t, route):
                log.append((s, t, list(route), _doubled(d, route)))
                return insert_connection(d, s, t, route)

            return insert

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "insert_connection", recording(inserted["ref"]))
            mp.setattr(layering, "insert_connection", recording(inserted["memo"]))
            want = route_greedy_ref(twin, pool, side)
            got = real(drawing, pool, side)
        assert got == want, side
        assert inserted["memo"] == inserted["ref"], side
        assert _drawn(drawing) == _drawn(twin), side
        stats[side] = stats.get(side, 0) + 1
        stats["doubled"] += sum(doubled for *_, doubled in inserted["memo"])
        return got

    return checked


@pytest.mark.parametrize("n", RUNS)
def test_route_greedy_matches_reference(n, monkeypatch):
    """Every greedy pass of an unpinned run, against re-querying all; K_n
    runs reach the all-faces pass, and each sparse run inserts some route
    whose face has a neighbour on two segments, so the memo's clearing
    is checked too."""
    stats = {"doubled": 0}
    monkeypatch.setattr(
        layering, "_route_greedy", _checked_greedy(layering._route_greedy, stats)
    )
    d = decompose(_run_graph(n))
    sides = set(stats) - {"doubled"}
    assert sides == {"inner", "outer", None} if isinstance(n, int) else {"inner", "outer"} <= sides
    assert len(_routed(d.drawing)) == len(d.chords)
    if isinstance(n, str):
        assert stats["doubled"] > 0


@settings(max_examples=60, deadline=None)
@given(
    nonseparable_graphs(cycle=(6, 10), ears=(20, 40), inner=0),
    st.sampled_from(["thickness", "inner-only"]),
)
def test_route_greedy_matches_reference_on_ear_built_graphs(g, strategy):
    """Every greedy pass of an ear-built graph's run, a refusal ending it.
    A Hamiltonian cycle with 20-40 chords drawn on it: most such graphs
    open a second layer, and some route faces have a neighbour on two
    segments."""
    stats = {"doubled": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layering, "_route_greedy", _checked_greedy(layering._route_greedy, stats))
        try:
            decompose(g, strategy)
        except (DecompositionError, PlanarizationError):
            pass


# Faces 1 and 2 share the segments (1,2) and (3,4), so no link joins
# them.  Faces 3-6 fan around vertex 9 between (2,5,3) and (3,8,2), and
# faces 7 and 8 fill the region between (4,6,1) and (1,7,4).
TWICE_JOINED = {
    1: ((1, 2), (2, 5), (5, 3), (3, 4), (4, 6), (6, 1)),
    2: ((2, 1), (1, 7), (7, 4), (4, 3), (3, 8), (8, 2)),
    3: ((2, 8), (8, 9), (9, 2)),
    4: ((8, 3), (3, 9), (9, 8)),
    5: ((3, 5), (5, 9), (9, 3)),
    6: ((5, 2), (2, 9), (9, 5)),
    7: ((1, 6), (6, 7), (7, 1)),
    8: ((6, 4), (4, 7), (7, 6)),
}


@pytest.mark.parametrize(
    "banned,pool",
    [
        ([(1, 6), (4, 6), (2, 8), (3, 8)], {1: (5, 7), 2: (5, 6)}),
        ([(4, 6), (5, 9), (8, 9)], {2: (6, 9), 18: (5, 7), 24: (1, 4), 27: (1, 5)}),
    ],
    ids=["flood", "route-and-floor"],
)
def test_route_greedy_clears_its_memo_when_a_split_opens_a_link(banned, pool):
    """A chord that splits face 1 leaves halves that each share one segment
    with face 2, a link no older route walk has.  With the links from face
    1 and the fan to faces 2, 7 and 8 banned, chord (5,7) first has no
    route, then one across (3,4), which the flood of its first query would
    deny.  With fewer bans, (5,7) first routes through the fan in three
    faces, then in two across a split face's half: a kept route or a kept
    floor of 3 would let (6,9) go first."""
    segments = sorted({seg(*arc) for c in TWICE_JOINED.values() for arc in c})
    g = parse_graph("".join(f"{a} {b}\n" for a, b in segments + sorted(pool.values())))
    d = Drawing(g=g, faces={f: cycles.Cycle(f, arcs) for f, arcs in TWICE_JOINED.items()}, rim_id=None)
    for sg in banned:
        d.banned[d.seg_id[sg]] = 1
    stats = {"doubled": 0}
    assert sorted(_checked_greedy(layering._route_greedy, stats)(d, pool, None)) == sorted(pool)
    assert stats["doubled"] > 0


def test_route_queries_are_memoised(monkeypatch):
    """Unpinned K16 made 726 route queries when every round re-queried
    each chord whose kept answer an insertion had touched, unbounded, 450
    when each failed flood labelled its faces, and 402 with floods kept
    as sets and each query bounded by the route it had to beat, dropping
    every answer an insertion's route or a neighbour of it touched.  With
    routes kept until a face of theirs is split, and their lengths kept
    as floors, K16 makes 178 and K20 361 (1,520 before), and no query is
    bounded."""
    calls = []
    real = layering.shortest_route

    def counted(*args, **kwargs):
        assert "limit" not in kwargs and len(args) <= 5
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(layering, "shortest_route", counted)
    decompose(complete_graph(16))
    assert len(calls) <= 178
    del calls[:]
    decompose(complete_graph(20))
    assert len(calls) <= 361


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
    rest = [uv for uv in chords if seg(*uv) not in _routed(d)]
    rest = rest[: rnd.randrange(len(rest) + 1)]
    pool = dict(zip(rnd.sample(range(1, 1000), len(rest)), rest))
    twin = copy.deepcopy(d)
    assert layering._route_greedy(d, pool, side) == route_greedy_ref(twin, pool, side)
    assert _drawn(d) == _drawn(twin)


def _cached(drawing):
    """The drawing's cached link lists by face id, segments by their ends."""
    ends = drawing.seg_ends
    return {
        fid: [(nb, ends[sid]) for nb, sid in links]
        for fid, links in enumerate(drawing.links)
        if links is not None
    }


def _assert_links_fresh(drawing):
    """Every cached link list equals one computed from the faces alone."""
    cached = _cached(drawing)
    assert set(cached) <= set(drawing.faces)
    fresh, _ = mixed_cycle_graph_ref(drawing, banned=set())
    for fid, links in cached.items():
        assert links == fresh[fid], fid


def test_link_cache_tracks_every_insertion(monkeypatch):
    g = complete_graph(10)
    cached = []

    def checked_insert(drawing, s, t, route):
        record = insert_connection(drawing, s, t, route)
        _assert_links_fresh(drawing)
        cached.append(len(_cached(drawing)))
        return record

    monkeypatch.setattr(layering, "insert_connection", checked_insert)
    d = decompose(g)
    assert len(cached) == len(d.chords) and sum(cached) > 0


def test_link_cache_tracks_each_face_change(monkeypatch):
    """_split_face keeps the cache exact after each split of an unpinned
    K8 run, every entry filled before each insertion.  Checking only once
    an insertion has split all its route faces would hide a lapse in one
    split, since a later split drops the entries of its own neighbours."""
    real_split = Drawing._split_face
    split = []

    def filled(drawing, s, t, route):
        build_mixed_cycle_graph(drawing)
        return insert_connection(drawing, s, t, route)

    def checked(drawing, fid, *args):
        real_split(drawing, fid, *args)
        _assert_links_fresh(drawing)
        split.append(fid)

    monkeypatch.setattr(layering, "insert_connection", filled)
    monkeypatch.setattr(Drawing, "_split_face", checked)
    d = decompose(complete_graph(8))
    # some insertion split more than one face
    assert len(split) > len(d.chords)


# Hexagon 1 and, outside it, face 2 sharing two of its segments, face 3
# three and face 4 one.
HEXAGON = {
    1: ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)),
    2: ((2, 1), (1, 6), (6, 7), (7, 2)),
    3: ((6, 5), (5, 4), (4, 3), (3, 7), (7, 6)),
    4: ((3, 2), (2, 7), (7, 3)),
}


def _link_lists(drawing, links_of):
    ends = drawing.seg_ends
    return {fid: [(nb, ends[sid]) for nb, sid in links_of(drawing, fid)] for fid in drawing.faces}


def test_link_lists_match_the_counting_reference():
    """One scan of the sorted pairs keeps the links `list.count` does: on
    faces sharing one, two and three segments, with a face missing so
    that some segments have one face, and on a sparse graph's first
    drawing, where faces share more than one segment."""
    sphere = {fid: cycles.Cycle(fid, arcs) for fid, arcs in HEXAGON.items()}
    holed = {fid: c for fid, c in sphere.items() if fid != 4}
    g = _run_graph("rr4_16_s0")
    drawings = [
        Drawing(g=complete_graph(7), faces=sphere, rim_id=None),
        Drawing(g=complete_graph(7), faces=holed, rim_id=None),
        Drawing.from_system(g, select_planar_cycle_system(g)),
    ]
    for d in drawings:
        assert _link_lists(d, routing._cached_links) == _link_lists(d, cached_links_count_ref)
    assert _link_lists(drawings[0], routing._cached_links) == {
        1: [(4, (2, 3))],
        2: [(3, (6, 7)), (4, (2, 7))],
        3: [(2, (6, 7)), (4, (3, 7))],
        4: [(1, (2, 3)), (2, (2, 7)), (3, (3, 7))],
    }
    run = drawings[2]
    assert any(len(set(nbs)) < len(nbs) for nbs in map(run.neighbours, run.faces))


def test_hand_built_drawing_numbers_fresh_ids():
    """A drawing built from K7's faces 1-4 alone numbers its new faces
    above every face id and its imaginary vertices above n: chord (1,4)
    splits face 1, and chord (5,7), in the next layer, crosses (1,4) and
    (2,3)."""
    faces = {fid: cycles.Cycle(fid, arcs) for fid, arcs in HEXAGON.items()}
    d = Drawing(g=complete_graph(7), faces=faces, rim_id=None)
    assert (d.next_cycle_id, d.next_vertex_id) == (5, 8)
    assert insert_connection(d, 1, 4, [1]).imaginary_ids == []
    assert sorted(d.faces) == [2, 3, 4, 5, 6]
    d.clear_bans()  # a new layer may cross the first chord
    assert insert_connection(d, 5, 7, [6, 5, 4]).imaginary_ids == [8, 9]
    assert sorted(d.faces) == [2, 3, 7, 8, 9, 10, 11, 12]
    assert sorted(d.imaginary) == [8, 9]
    assert [d.imaginary[w]["host"] for w in (8, 9)] == [(1, 4), (2, 3)]


# Three of K4's four triangular faces, by their arcs
K4_FACES = {1: ((1, 2), (2, 3), (3, 1)), 2: ((2, 1), (1, 4), (4, 2)), 3: ((3, 2), (2, 4), (4, 3))}


@pytest.mark.parametrize(
    "g,faces,message",
    [
        (
            parse_graph("1 2\n1 3\n1 4\n2 3\n3 4\n"),
            K4_FACES,
            "drawing edge (2,4) is not a graph edge",
        ),
        (
            complete_graph(4),
            {**K4_FACES, 3: ((1, 2), (2, 4), (4, 1))},
            "segment (1,2) would lie on three faces",
        ),
    ],
    ids=["edge-off-the-graph", "three-faces-on-a-segment"],
)
def test_drawing_refuses_faces_that_are_not_a_drawing(g, faces, message):
    cycles_by_id = {fid: cycles.Cycle(fid, arcs) for fid, arcs in faces.items()}
    with pytest.raises(RoutingError, match=re.escape(message)):
        Drawing(g=g, faces=cycles_by_id, rim_id=None)


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
