from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _solve_gf2_subset,
    embedding_faces_ref,
    graph_from_networkx,
    greedy_planar_subgraph_ref,
    hamiltonian_rim_ref,
)
from topolayers import planar
from topolayers.cycles import ring_cycle, seg
from topolayers.graphs import complete_graph, parse_graph
from topolayers.layering import split_regions
from topolayers.planar import (
    PlanarizationError,
    _greedy_planar_subgraph,
    _insert_in_shared_face,
    hamiltonian_rim,
    orient_cycles,
    select_planar_cycle_system,
)
from topolayers.fixtures import load_fixture
from topolayers.routing import Drawing
from topolayers.verify import verify_system

# The pinned K7 system, oriented: every edge appears once per direction.
K7_ORIENTED = {
    1: ((1, 3), (3, 2), (2, 1)),
    5: ((1, 2), (2, 7), (7, 1)),
    13: ((1, 6), (6, 5), (5, 1)),
    15: ((1, 7), (7, 6), (6, 1)),
    19: ((2, 3), (3, 7), (7, 2)),
    26: ((3, 5), (5, 4), (4, 3)),
    28: ((3, 4), (4, 7), (7, 3)),
    33: ((4, 5), (5, 7), (7, 4)),
    35: ((5, 6), (6, 7), (7, 5)),
}
K7_RIM = ((1, 5), (5, 3), (3, 1))


def test_pinned_k7_system_exact(k7_system):
    assert set(k7_system.cycles) == set(K7_ORIENTED)
    for cid, arcs in K7_ORIENTED.items():
        assert k7_system.cycles[cid].arcs == arcs
    assert k7_system.rim.id == 7 and k7_system.rim.arcs == K7_RIM
    assert len(k7_system.segments()) == 15


def test_pinned_k7_system_verifies(k7_system):
    rep = verify_system(k7_system)
    assert rep.ok, rep.lines()


def test_orient_cycles_flips_consistently():
    from topolayers.verify import verify_raw

    rings = {1: [1, 2, 3], 2: [1, 3, 4], 3: [1, 2, 4], 4: [2, 3, 4]}
    cycles, rim = orient_cycles(rings, rim_id=4)
    raw = {cid: c.arcs for cid, c in cycles.items()}
    assert verify_raw(4, raw, (rim.id, rim.arcs)).ok


def test_orient_cycles_rejects_bad_coverage():
    rings = {1: [1, 2, 3], 2: [1, 3, 4]}
    with pytest.raises(PlanarizationError):
        orient_cycles(rings, rim_id=2)


def test_hamiltonian_rim_pinned(k7, k7_system):
    ring = hamiltonian_rim(k7_system, k7, load_fixture("k7")["hamiltonian"])
    assert ring == [1, 6, 5, 4, 3, 2, 7]
    inner, outer = split_regions(Drawing.from_system(k7, k7_system), ring)
    assert inner == {15, 19, 28, 33, 35}
    assert outer == {1, 5, 13, 26, k7_system.rim.id}


def test_hamiltonian_rim_search_unpinned(k7, k7_system):
    ring = hamiltonian_rim(k7_system, k7)
    assert sorted(ring) == list(range(1, 8))
    inner, outer = split_regions(Drawing.from_system(k7, k7_system), ring)
    assert inner and inner | outer == {*k7_system.cycles, k7_system.rim.id}


@pytest.mark.parametrize(
    "pin_ring,message",
    [
        ([1, 2, 3], "pinned ring does not list 1..7 once each"),
        ([1, 2, 3, 2, 5, 6, 7], "pinned ring does not list 1..7 once each"),
        ([1, 2, 4, 3, 5, 6, 7], "pinned ring pair (2,4) is not an edge of the planar subgraph"),
    ],
    ids=["short", "repeated-vertex", "pair-off-the-system"],
)
def test_hamiltonian_rim_refuses_a_bad_pinned_ring(k7, k7_system, pin_ring, message):
    with pytest.raises(PlanarizationError) as exc:
        hamiltonian_rim(k7_system, k7, pin_ring)
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_unpinned_planarization_is_maximal_planar(n):
    g = complete_graph(n)
    sys_ = select_planar_cycle_system(g)
    assert len(sys_.segments()) == 3 * n - 6
    rep = verify_system(sys_)
    assert rep.ok, rep.lines()


def test_gf2_sum_equals_rim(k7_system):
    assert k7_system.gf2_cycle_sum() == k7_system.rim.segments


def test_pinned_system_needs_the_pool(k7):
    assert len(select_planar_cycle_system(k7).segments()) == 15


# The planar stage's shortcuts against the loops they replaced: the same
# kept graph in the same adjacency order, the same faces, and the same
# Hamiltonian ring or the same refusal.  The ring's inner faces, found by
# flood fill, are the cycles the GF(2) solver sums to it.


@st.composite
def nonseparable_graphs(draw):
    """A cycle grown by open ears (each two-connected), edges in a drawn order."""
    k = draw(st.integers(3, 6))
    pairs = {tuple(sorted((i, i % k + 1))) for i in range(1, k + 1)}
    n = k
    for _ in range(draw(st.integers(0, 10))):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        inner = draw(st.integers(0, 2))
        path = [a, *range(n + 1, n + inner + 1), b]
        n += inner
        pairs.update(tuple(sorted(p)) for p in zip(path, path[1:]))
    order = draw(st.permutations(sorted(pairs)))
    return parse_graph("".join(f"{u} {v}\n" for u, v in order))


def _networkx_corpus():
    graphs = [(f"K{n}", complete_graph(n)) for n in range(4, 11)]
    named = [(f"Q{d}", nx.hypercube_graph(d)) for d in (3, 4, 5)]
    named += [
        ("petersen", nx.petersen_graph()),
        ("K5,5", nx.complete_bipartite_graph(5, 5)),
        ("K6,6", nx.complete_bipartite_graph(6, 6)),
    ]
    for d, n in ((3, 12), (4, 16), (5, 20), (6, 20), (5, 30), (8, 20)):
        named += [(f"rr{d}_{n}_s{s}", nx.random_regular_graph(d, n, seed=s)) for s in range(2)]
    graphs += [(name, graph_from_networkx(G)) for name, G in named]
    return [pytest.param(g, id=name) for name, g in graphs]


def _rim_outcome(search, sys_, g):
    try:
        return search(sys_, g)
    except PlanarizationError as exc:
        return str(exc)


def _assert_sides_match_gf2(g, sys_, ring):
    """The flood fill's inner faces are the cycles that sum to the ring."""
    inner, outer = split_regions(Drawing.from_system(g, sys_), ring)
    target = {seg(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
    assert inner == set(_solve_gf2_subset(sys_, target))
    assert sys_.rim.id in outer


def _assert_planar_stage_matches_loops(g):
    kept = _greedy_planar_subgraph(g)
    ref = greedy_planar_subgraph_ref(g)
    assert [(v, list(nb)) for v, nb in kept.adj.items()] == [
        (v, list(nb)) for v, nb in ref.adj.items()
    ]
    faces = embedding_faces_ref(ref)
    assert embedding_faces_ref(kept) == faces
    try:
        sys_ = select_planar_cycle_system(g)
    except PlanarizationError:
        return
    want = {i: ring_cycle(i, list(r)).arcs for i, r in enumerate(faces, start=1)}
    assert {c.id: c.arcs for c in sys_.members()} == want
    got, ref = _rim_outcome(hamiltonian_rim, sys_, g), _rim_outcome(hamiltonian_rim_ref, sys_, g)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got == ref[0]
        _assert_sides_match_gf2(g, sys_, got)


@settings(max_examples=80, deadline=None)
@given(nonseparable_graphs())
def test_planar_stage_matches_loops_on_drawn_graphs(g):
    _assert_planar_stage_matches_loops(g)


@pytest.mark.parametrize("g", _networkx_corpus())
def test_planar_stage_matches_loops_on_generated_graphs(g):
    _assert_planar_stage_matches_loops(g)


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_pinned_ring_sides_match_gf2(which):
    pin = load_fixture(which)
    g = complete_graph(int(which[1:]))
    sys_ = select_planar_cycle_system(g, pin["system"])
    _assert_sides_match_gf2(g, sys_, hamiltonian_rim(sys_, g, pin.get("hamiltonian")))


def _is_plane_rotation(rot) -> bool:
    """Euler's formula for the faces traced from a rotation system.

    With F the faces of the plane drawing (the traced faces, with the
    outer faces of the C_e components that have edges counted once),
    V - E + F = 1 + C holds exactly when every component is embedded in
    the sphere.
    """
    darts = {(a, b) for a, ns in rot.items() for b in ns}
    if any((b, a) not in darts for a, b in darts) or any(
        len(set(ns)) != len(ns) for ns in rot.values()
    ):
        return False
    G = nx.Graph(list(darts))
    G.add_nodes_from(rot)
    todo, traced = set(darts), 0
    while todo:
        start = a, b = todo.pop()
        while True:
            nb = rot[b]
            a, b = b, nb[(nb.index(a) + 1) % len(nb)]
            if (a, b) == start:
                break
            todo.remove((a, b))
        traced += 1
    comps = list(nx.connected_components(G))
    with_edges = sum(1 for c in comps if len(c) > 1)
    faces = traced - with_edges + 1 if with_edges else 1
    return G.number_of_nodes() - G.number_of_edges() + faces == 1 + len(comps)


def _accepts_checked(g, insert):
    """Whether the rotation is plane after each fast accept of the greedy loop."""
    checks = []

    def checked(rot, u, v):
        ok = insert(rot, u, v)
        if ok:
            checks.append(_is_plane_rotation(rot))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_insert_in_shared_face", checked)
        _greedy_planar_subgraph(g)
    return checks


@settings(max_examples=60, deadline=None)
@given(nonseparable_graphs())
def test_fast_accepts_keep_a_plane_rotation_on_drawn_graphs(g):
    assert all(_accepts_checked(g, _insert_in_shared_face))


@pytest.mark.parametrize("g", _networkx_corpus())
def test_fast_accepts_keep_a_plane_rotation(g):
    checks = _accepts_checked(g, _insert_in_shared_face)
    assert checks and all(checks)


def _wrong_angle(rot, u, v):
    """A mutant: inserts as the package does, then moves u one angle on at v."""
    if not _insert_in_shared_face(rot, u, v):
        return False
    rv = rot[v]
    i = rv.index(u)
    j = (i + 1) % len(rv)
    rv[i], rv[j] = rv[j], rv[i]
    return True


@pytest.mark.parametrize("g", [complete_graph(8), graph_from_networkx(nx.hypercube_graph(4))])
def test_plane_rotation_check_catches_a_wrong_angle(g):
    assert not all(_accepts_checked(g, _wrong_angle))


def test_hamiltonian_search_budget_exhausts():
    g = graph_from_networkx(nx.hypercube_graph(5))
    sys_ = select_planar_cycle_system(g)
    with pytest.raises(PlanarizationError, match="^Hamiltonian ring search budget exhausted$"):
        hamiltonian_rim(sys_, g, budget=10)
    assert len(hamiltonian_rim(sys_, g)) == 32
