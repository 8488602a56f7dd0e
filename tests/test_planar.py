from __future__ import annotations

import contextlib
import json
import sys

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    _solve_gf2_subset,
    embedding_faces_ref,
    graph_from_networkx,
    greedy_planar_subgraph_ref,
    hamiltonian_rim_recursive_ref,
    hamiltonian_rim_ref,
    lr_rotation_ref,
)
from topolayers import planar
from topolayers.cli import main
from topolayers.document import decomposition_to_document, verify_document
from topolayers.cycles import ring_cycle, seg
from topolayers.graphs import (
    Graph,
    complete_graph,
    edge_between,
    format_graph,
    parse_graph,
    validate_nonseparable,
)
from topolayers.layering import decompose, split_regions
from topolayers.planar import (
    PlanarizationError,
    _greedy_planar_subgraph,
    _insert_in_shared_face,
    _lr_rotation,
    _orient_cycles,
    hamiltonian_rim,
    select_planar_cycle_system,
)
from topolayers.fixtures import load_fixture
from topolayers.routing import Drawing
from topolayers.verify import check_layer_rings, verify_raw, verify_system

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
    rings = {1: [1, 2, 3], 2: [1, 3, 4], 3: [1, 2, 4], 4: [2, 3, 4]}
    cycles, rim = _orient_cycles(rings, rim_id=4)
    raw = {cid: c.arcs for cid, c in cycles.items()}
    assert verify_raw(4, raw, (rim.id, rim.arcs)).ok


def test_orient_cycles_rejects_bad_coverage():
    rings = {1: [1, 2, 3], 2: [1, 3, 4]}
    with pytest.raises(PlanarizationError):
        _orient_cycles(rings, rim_id=2)


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
        ([1, 2, 4, 3, 5, 6, 7], "pinned ring pair (2,4) is not an edge of the first layer"),
    ],
    ids=["short", "repeated-vertex", "pair-off-the-system"],
)
def test_hamiltonian_rim_refuses_a_bad_pinned_ring(k7, k7_system, pin_ring, message):
    with pytest.raises(PlanarizationError) as exc:
        hamiltonian_rim(k7_system, k7, pin_ring)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "ring",
    [[1, 2, 3], [1, 2, 3, 2, 5, 6, 7], [1, 2, 4, 3, 5, 6, 7]],
    ids=["short", "repeated-vertex", "pair-off-the-system"],
)
def test_a_pinned_ring_and_a_layer_ring_fail_one_rule(k7, k7_system, ring):
    with pytest.raises(PlanarizationError) as exc:
        hamiltonian_rim(k7_system, k7, ring)
    first = [edge_between(k7, *s) for s in k7_system.segments()]
    report = check_layer_rings(7, k7.edges, [(1, None), (2, ring)], first)
    prefix = "layer 2: "
    assert not report.ok and report.details[0].startswith(prefix)
    assert str(exc.value) == "pinned " + report.details[0][len(prefix):]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_unpinned_planarization_is_maximal_planar(n):
    g = complete_graph(n)
    sys_ = select_planar_cycle_system(g)
    assert len(sys_.segments()) == 3 * n - 6
    rep = verify_system(sys_)
    assert rep.ok, rep.lines()


def test_gf2_sum_equals_rim(k7_system):
    assert verify_system(k7_system).checks["gf2-sum"].ok


def test_pinned_system_needs_the_pool(k7):
    assert len(select_planar_cycle_system(k7).segments()) == 15


# K7 on the torus: triangles (i, i+1, i+3) and (i, i+2, i+3) mod 7, shifted
# to 1..7.  They cover every edge twice and orient coherently, so only
# Euler (7 - 21 + 14 = 0) tells them from a sphere.
K7_TORUS = [
    [i % 7 + 1, (i + j) % 7 + 1, (i + 3) % 7 + 1] for i in range(7) for j in (1, 2)
]
K7_TORUS_PIN = {"cycles": [t for t in K7_TORUS if t != [1, 2, 4]], "rim": [1, 2, 4]}
K7_TORUS_REFUSAL = "euler check failed: 7 - 21 + 14 = 0 != 2"


def test_toroidal_pin_is_refused_by_the_euler_check(k7):
    cycles, rim = _orient_cycles(
        dict(enumerate(K7_TORUS_PIN["cycles"] + [K7_TORUS_PIN["rim"]], start=1)), rim_id=14
    )
    raw = {cid: c.arcs for cid, c in cycles.items()}
    failing = [name for name, r in verify_raw(7, raw, (rim.id, rim.arcs)).checks.items() if not r.ok]
    assert failing == ["euler"]
    with pytest.raises(PlanarizationError) as exc:
        select_planar_cycle_system(k7, K7_TORUS_PIN)
    assert str(exc.value) == K7_TORUS_REFUSAL


# K6 on the projective plane: the hemi-icosahedron's ten triangles cover
# every edge twice, but no orientation makes each edge's two traversals
# opposite.  The flood fill orients what it reaches and leaves the rest to
# the verifier, whose Euler check (6 - 15 + 10 = 1) fails first.
K6_PROJECTIVE_PIN = {
    "cycles": [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
        [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3],
    ],
    "rim": [6, 2, 4],
}
K6_PROJECTIVE_REFUSAL = "euler check failed: 6 - 15 + 10 = 1 != 2"

# K7's pin with its first cycle listed again, reversed, and with its rim
# listed among the cycles too.  Either repeat would collapse into one
# member of the system.
_K7_PIN = load_fixture("k7")["system"]
K7_CYCLE_TWICE_PIN = {"cycles": _K7_PIN["cycles"] + [_K7_PIN["cycles"][0][::-1]], "rim": _K7_PIN["rim"]}
K7_RIM_AS_CYCLE_PIN = {"cycles": _K7_PIN["cycles"] + [_K7_PIN["rim"]], "rim": _K7_PIN["rim"]}


@pytest.mark.parametrize(
    "g,pin,message",
    [
        (complete_graph(6), K6_PROJECTIVE_PIN, K6_PROJECTIVE_REFUSAL),
        (complete_graph(7), K7_CYCLE_TWICE_PIN, "pinned ring [3, 2, 1] is listed twice"),
        (complete_graph(7), K7_RIM_AS_CYCLE_PIN, "pinned ring [1, 3, 5] is listed twice"),
        # two K4 surfaces cover their edges twice each, but the flood
        # fill from the rim never reaches the first
        (
            complete_graph(8),
            {
                "cycles": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5, 6, 7], [5, 6, 8], [5, 7, 8]],
                "rim": [6, 7, 8],
            },
            "cycle system is not edge-connected",
        ),
        # Q3 numbered in sorted order: v1 = 000 and v4 = 011 are not
        # adjacent, so 1-2-4 is no cycle of the graph, and a pinned
        # segment is always an edge
        (
            graph_from_networkx(nx.hypercube_graph(3)),
            {"cycles": [[1, 2, 4, 3]], "rim": [1, 2, 4]},
            "pinned ring [1, 2, 4] is not an isometric cycle of the graph",
        ),
    ],
    ids=["projective-plane", "cycle-twice", "rim-as-cycle", "two-tetrahedra", "q3-non-edge"],
)
def test_a_bad_pin_is_refused_by_name(g, pin, message):
    with pytest.raises(PlanarizationError) as exc:
        select_planar_cycle_system(g, pin)
    assert str(exc.value) == message


@pytest.mark.parametrize("command", ["decompose", "planarize"])
def test_cli_refuses_a_non_orientable_pin(tmp_path, command):
    graph, pin = tmp_path / "k6.txt", tmp_path / "pin.json"
    graph.write_text(format_graph(complete_graph(6)))
    pin.write_text(json.dumps({"system": K6_PROJECTIVE_PIN}))
    args = [command, str(graph), "--pin", str(pin)]
    if command == "decompose":
        args += ["-o", str(tmp_path / "out.json")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output == f"error: {K6_PROJECTIVE_REFUSAL}\n"


# The planar stage's shortcuts against the loops they replaced: the same
# kept graph, embedded as networkx embeds it, the same faces where it is
# biconnected, and the same Hamiltonian ring or the same refusal, from the
# unpruned search and from the pruned one as it recursed before it kept an
# explicit stack.  The ring's inner faces, found by flood fill, are the
# cycles the GF(2) solver sums to it.


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


def _cyclic(ns):
    """A rotation's neighbour list from its smallest entry."""
    i = ns.index(min(ns)) if ns else 0
    return ns[i:] + ns[:i]


def _assert_planar_stage_matches_loops(g):
    ref = greedy_planar_subgraph_ref(g)
    if nx.has_bridges(ref) or any(True for _ in nx.articulation_points(ref)):
        with pytest.raises(PlanarizationError) as exc:
            _greedy_planar_subgraph(g)
        assert str(exc.value) == _oracle_refusal(ref)
        return
    rot = _greedy_planar_subgraph(g)
    assert rot[0] == []
    assert [(v, set(ns)) for v, ns in enumerate(rot)][1:] == [(v, set(nb)) for v, nb in ref.adj.items()]
    # the final kernel call is the embedding networkx's test gives ref
    emb = nx.check_planarity(ref)[1].get_data()
    assert [_cyclic(ns) for ns in rot[1:]] == [_cyclic(emb.get(v, [])) for v in ref]
    try:
        sys_ = select_planar_cycle_system(g)
    except PlanarizationError:
        return
    if nx.is_biconnected(ref):
        faces = embedding_faces_ref(ref)
        want = {i: ring_cycle(i, list(r)).arcs for i, r in enumerate(faces, start=1)}
        assert {c.id: c.arcs for c in sys_.members()} == want
    got, ref = _rim_outcome(hamiltonian_rim, sys_, g), _rim_outcome(hamiltonian_rim_ref, sys_, g)
    assert got == _rim_outcome(hamiltonian_rim_recursive_ref, sys_, g)
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


# The greedy loop's on-line blocks against networkx: after every edge, the
# same decision as networkx's planarity test, and the blocks of
# `biconnected_components` of the kept graph, each with a plane rotation
# and an adjacency (sorted by vertex) that list exactly its edges.


@st.composite
def gnp_graphs(draw):
    """A G(n, p) draw on 2 to 12 vertices, isolated and disconnected ones
    included, with at least one edge, its edges in a drawn order."""
    n = draw(st.integers(2, 12))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    G = nx.gnp_random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))
    assume(G.number_of_edges())
    order = draw(st.permutations(sorted(G.edges())))
    return Graph(n, {i: (u + 1, v + 1) for i, (u, v) in enumerate(order, start=1)})


@st.composite
def cactus_graphs(draw):
    """K4s glued at cut vertices or standing apart, pendant paths, and a
    few extra edges, in a drawn order: the extra edges close block-cut
    paths through several K4 blocks, and a K4 built apart is re-rooted
    when an edge joins it to the rest."""
    pairs, n = set(), 0
    for _ in range(draw(st.integers(1, 4))):
        ring = [draw(st.integers(1, n))] if n and draw(st.booleans()) else []
        ring += range(n + 1, n + 5 - len(ring))
        n = max(n, *ring)
        pairs.update((min(a, b), max(a, b)) for a in ring for b in ring if a != b)
    for _ in range(draw(st.integers(0, 3))):
        path = [draw(st.integers(1, n)), *range(n + 1, n + draw(st.integers(1, 3)) + 1)]
        n = path[-1]
        pairs.update(zip(path, path[1:]))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        pairs.add((min(a, b), max(a, b)))
    order = draw(st.permutations(sorted(pairs)))
    return Graph(n, dict(enumerate(order, start=1)))


def _assert_blocks_follow_networkx(g):
    blocks = planar._Blocks(g.n)
    kept = nx.Graph()
    for _, (u, v) in sorted(g.edges.items()):
        kept.add_edge(u, v)
        planar_ = nx.check_planarity(kept)[0]
        assert blocks.add(u, v) == planar_
        if not planar_:
            kept.remove_edge(u, v)
        live = [(vs, r, a) for vs, r, a in zip(blocks.verts, blocks.rot, blocks.adj) if vs is not None]
        assert sorted(sorted(vs) for vs, _, _ in live) == sorted(
            sorted(c) for c in nx.biconnected_components(kept)
        )
        for vs, rot, adj in live:
            assert _is_plane_rotation(rot)
            edges = {frozenset(e) for e in kept.subgraph(vs).edges()}
            assert {frozenset((vs[a], vs[b])) for a, ns in enumerate(rot) for b in ns} == edges
            assert [[vs[b] for b in ns] for ns in adj] == [sorted(vs[b] for b in ns) for ns in rot]


@settings(max_examples=150, deadline=None)
@given(st.one_of(nonseparable_graphs(), gnp_graphs(), cactus_graphs()))
def test_blocks_follow_networkx_after_every_edge(g):
    _assert_blocks_follow_networkx(g)
    _assert_planar_stage_matches_loops(g)


def test_blocks_merge_two_k4s_through_a_re_rooted_tree():
    """Two K4s joined by (4, 6): 6's K4, rooted at 5, is re-rooted at 6.
    Then (1, 8) closes the path K4 - bridge - K4 into one block, spliced
    without a kernel call."""
    k4 = lambda vs: [(a, b) for a in vs for b in vs if a < b]
    edges = k4([1, 2, 3, 4]) + k4([5, 6, 7, 8]) + [(4, 6), (1, 8)]
    g = Graph(8, dict(enumerate(edges, start=1)))
    _assert_blocks_follow_networkx(g)
    per_edge = _kernel_calls_per_edge(g)
    assert per_edge[-2:] == [(True, 0), (False, 0)]
    blocks = planar._Blocks(8)
    for u, v in edges[:-1]:
        blocks.add(u, v)
    assert blocks.parent[5] == 6 and blocks.parent[6] == 4
    blocks.add(1, 8)
    assert [sorted(vs) for vs in blocks.verts if vs is not None] == [list(range(1, 9))]


def _oracle_refusal(kept):
    """The planar stage's refusal of a kept subgraph that is not
    biconnected: its smallest bridge, or else its smallest cut vertex."""
    bridges = sorted(tuple(sorted(e)) for e in nx.bridges(kept))
    if bridges:
        return BRIDGE_TEMPLATE % bridges[0]
    return CUT_VERTEX_TEMPLATE % min(nx.articulation_points(kept))


@settings(max_examples=200, deadline=None)
@given(nonseparable_graphs())
def test_faces_traced_from_the_kernel_match_networkx(g):
    """Where the kept subgraph is biconnected, every face of the traced
    rotation starts where networkx's half-edges start it; elsewhere the
    stage refuses g naming the smallest bridge or cut vertex."""
    kept = greedy_planar_subgraph_ref(g)
    if nx.is_biconnected(kept):
        faces = embedding_faces_ref(kept)
        want = {i: ring_cycle(i, list(r)).arcs for i, r in enumerate(faces, start=1)}
        sys_ = select_planar_cycle_system(g)
        assert {c.id: c.arcs for c in sys_.members()} == want
        return
    with pytest.raises(PlanarizationError) as exc:
        select_planar_cycle_system(g)
    assert str(exc.value) == _oracle_refusal(kept)


@pytest.mark.parametrize("which", ["k7", "k8", "k10"])
def test_pinned_ring_sides_match_gf2(which):
    pin = load_fixture(which)
    g = complete_graph(int(which[1:]))
    sys_ = select_planar_cycle_system(g, pin["system"])
    _assert_sides_match_gf2(g, sys_, hamiltonian_rim(sys_, g, pin.get("hamiltonian")))


def _is_plane_rotation(rot) -> bool:
    """Euler's formula for the faces traced from a rotation system, a
    list of each vertex's neighbours indexed by vertex id.

    With F the faces of the plane drawing (the traced faces, with the
    outer faces of the C_e components that have edges counted once),
    V - E + F = 1 + C holds exactly when every component is embedded in
    the sphere.
    """
    darts = {(a, b) for a, ns in enumerate(rot) for b in ns}
    if any((b, a) not in darts for a, b in darts) or any(
        len(set(ns)) != len(ns) for ns in rot
    ):
        return False
    G = nx.Graph(list(darts))
    G.add_nodes_from(range(len(rot)))
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
        # a refusal for a bridge or a cut vertex comes after the loop
        with contextlib.suppress(PlanarizationError):
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


def test_hamiltonian_search_budget_exhausts(monkeypatch):
    g = graph_from_networkx(nx.hypercube_graph(5))
    sys_ = select_planar_cycle_system(g)
    with monkeypatch.context() as patch:
        patch.setattr(planar, "RING_SEARCH_BUDGET", 10)
        with pytest.raises(PlanarizationError, match="^Hamiltonian ring search budget exhausted$"):
            hamiltonian_rim(sys_, g)
    assert len(hamiltonian_rim(sys_, g)) == 32


# Petersen's search ends after 11 steps and Q5's finds its ring at step
# 3476, so the budgets either side of those pin the step count exactly.
@pytest.mark.parametrize("budget", [10, 11, 100, 1000, 3475, 3476])
@pytest.mark.parametrize(
    "G", [nx.hypercube_graph(5), nx.petersen_graph()], ids=["Q5", "petersen"]
)
def test_hamiltonian_search_counts_steps_as_the_recursion_did(G, budget, monkeypatch):
    g = graph_from_networkx(G)
    sys_ = select_planar_cycle_system(g)
    monkeypatch.setattr(planar, "RING_SEARCH_BUDGET", budget)
    recursive = lambda s, h: hamiltonian_rim_recursive_ref(s, h, budget)
    assert _rim_outcome(hamiltonian_rim, sys_, g) == _rim_outcome(recursive, sys_, g)


def test_hamiltonian_ring_longer_than_the_recursion_limit():
    """The prism C600 x K2 is planar and nonseparable; its ring has 1200
    vertices, past the depth a recursive search reaches."""
    d = decompose(graph_from_networkx(nx.circular_ladder_graph(600), name="prism600"))
    assert len(d.layers) == 1
    assert verify_document(decomposition_to_document(d)).ok


# The left-right kernel against networkx's planarity test: the same
# decision, and for a planar graph a rotation system listing exactly each
# vertex's neighbours that traces a plane drawing.


def _adjacency(k, pairs):
    """Neighbour lists of vertices 0..k-1, as the kernel reads them."""
    adj = [[] for _ in range(k)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _assert_kernel_matches_networkx(adj, rot):
    G = nx.Graph()
    G.add_nodes_from(range(len(adj)))
    G.add_edges_from((u, v) for u, ns in enumerate(adj) for v in ns)
    assert (rot is not None) == nx.check_planarity(G)[0]
    if rot is not None:
        assert len(rot) == len(adj)
        assert all(sorted(r) == sorted(ns) for r, ns in zip(rot, adj))
        assert _is_plane_rotation(rot)


@st.composite
def simple_graphs(draw):
    """Any simple graph on up to 12 vertices, isolated and disconnected
    ones included, its edges in a drawn order.  The vertices are drawn
    in an order too, and the i-th of that order is vertex i, so the
    drawn order is the order the kernel's search starts from them."""
    vertices = draw(st.permutations(range(1, draw(st.integers(0, 12)) + 1)))
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [(index[u], index[v]) for u in vertices for v in vertices if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * len(vertices))) if pairs else []
    return _adjacency(len(vertices), [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges])


@settings(max_examples=400, deadline=None)
@given(simple_graphs())
def test_kernel_matches_networkx_on_drawn_graphs(adj):
    _assert_kernel_matches_networkx(adj, _lr_rotation(adj))


@pytest.mark.parametrize("g", _networkx_corpus())
def test_kernel_matches_networkx_on_generated_graphs(g):
    adj = _adjacency(g.n + 1, g.edges.values())
    _assert_kernel_matches_networkx(adj, _lr_rotation(adj))


def _kernel_calls(g):
    """Each adjacency the planar stage tests, with the kernel's answer:
    the greedy loop's calls, then the final embedding unless the kept
    graph is refused for a bridge or a cut vertex."""
    calls = []

    def recorded(adj):
        rot = _lr_rotation(adj)
        snapshot = None if rot is None else [list(ns) for ns in rot]
        calls.append(([list(ns) for ns in adj], snapshot))
        return rot

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_lr_rotation", recorded)
        with contextlib.suppress(PlanarizationError):
            _greedy_planar_subgraph(g)
    return calls


def _benchmark_graphs():
    """K10-K16 and the benchmark's sparse family: random regular graphs
    (networkx seeds 0-2) and the hypercubes Q4, Q5."""
    graphs = [(f"K{n}", complete_graph(n)) for n in (10, 12, 14, 16)]
    for d, n in ((4, 16), (5, 20), (6, 20), (5, 30), (8, 20)):
        graphs += [
            (f"rr{d}_{n}_s{s}", graph_from_networkx(nx.random_regular_graph(d, n, seed=s)))
            for s in range(3)
        ]
    graphs += [(f"Q{d}", graph_from_networkx(nx.hypercube_graph(d))) for d in (4, 5)]
    return [pytest.param(g, id=name) for name, g in graphs]


@pytest.mark.parametrize("g", _benchmark_graphs())
def test_kernel_matches_networkx_on_every_greedy_test(g):
    calls = _kernel_calls(g)
    assert calls
    for adj, rot in calls:
        _assert_kernel_matches_networkx(adj, rot)


# Kernel calls per benchmark input, the final embedding included where
# the kept graph is not refused (for a bridge, on REFUSED).
KERNEL_CALLS = {
    "K10": 26, "K12": 42, "K14": 62, "K16": 86,
    "rr4_16_s0": 8, "rr4_16_s1": 9, "rr4_16_s2": 8,
    "rr5_20_s0": 18, "rr5_20_s1": 17, "rr5_20_s2": 18,
    "rr6_20_s0": 24, "rr6_20_s1": 23, "rr6_20_s2": 24,
    "rr5_30_s0": 28, "rr5_30_s1": 29, "rr5_30_s2": 28,
    "rr8_20_s0": 44, "rr8_20_s1": 43, "rr8_20_s2": 39,
    "Q4": 6, "Q5": 23,
}
REFUSED = {"rr4_16_s1", "rr5_20_s2", "rr5_30_s0", "rr5_30_s1", "rr5_30_s2"}


def test_kernel_calls_per_benchmark_input():
    calls = {p.id: _kernel_calls(p.values[0]) for p in _benchmark_graphs()}
    assert {name: len(c) for name, c in calls.items()} == KERNEL_CALLS
    complete = sum(n for name, n in KERNEL_CALLS.items() if name.startswith("K"))
    assert complete <= 216
    assert sum(KERNEL_CALLS.values()) - complete <= 517 - 100
    # the loop tests one block plus one edge, where no vertex is isolated;
    # only the final embedding reads the whole kept graph, slot 0 and all
    for p in _benchmark_graphs():
        g, loop = p.values[0], calls[p.id]
        refused = False
        try:
            _greedy_planar_subgraph(g)
        except PlanarizationError:
            refused = True
        assert refused == (p.id in REFUSED)
        if not refused:
            (*loop, (final, _)) = loop
            assert len(final) == g.n + 1
        assert all(ns for adj, _ in loop for ns in adj)


def _kernel_calls_per_edge(g):
    """For each edge in edge-id order: whether it joined two components of
    the kept graph, and how many kernel calls the loop made for it."""
    calls = []

    def counted(adj):
        calls.append(adj)
        return _lr_rotation(adj)

    blocks = planar._Blocks(g.n)
    kept = nx.Graph()
    kept.add_nodes_from(g.vertices)
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_lr_rotation", counted)
        for _, (u, v) in sorted(g.edges.items()):
            joins, before = not nx.has_path(kept, u, v), len(calls)
            if blocks.add(u, v):
                kept.add_edge(u, v)
            out.append((joins, len(calls) - before))
    return out


@pytest.mark.parametrize("g", _benchmark_graphs())
def test_no_kernel_call_for_an_edge_that_joins_two_components(g):
    per_edge = _kernel_calls_per_edge(g)
    assert any(joins for joins, _ in per_edge)
    assert all(n == 0 for joins, n in per_edge if joins)


def _deep_graph(n, planar_end):
    """A cycle 1..n whose depth-first search from 1 runs n - 1 deep before
    it reaches a K5 on n..n+4 (less one edge when `planar_end`)."""
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    k5 = [(a, b) for a in range(n, n + 5) for b in range(a + 1, n + 5)]
    return _adjacency(n + 5, pairs + k5[planar_end:])


@pytest.mark.parametrize("planar_end", [True, False], ids=["planar", "k5"])
def test_kernel_runs_deeper_than_the_recursion_limit(planar_end):
    limit = sys.getrecursionlimit()
    adj = _deep_graph(3001, planar_end)
    rot = _lr_rotation(adj)
    assert (rot is not None) == planar_end
    if planar_end:
        assert _is_plane_rotation(rot)
    assert sys.getrecursionlimit() == limit


# The kernel against the tuple-keyed kernel it replaced, which takes and
# returns dicts keyed by vertex: the same answer exactly, None or each
# vertex's clockwise neighbours.  The networkx comparisons above check
# only the decision and that the rotation is plane, while the final
# embedding, and so every document, depends on the exact rotation.


def _assert_kernel_matches_oracle(adj, rot):
    want = lr_rotation_ref(dict(enumerate(adj)))
    assert (None if rot is None else dict(enumerate(rot))) == want


@settings(max_examples=400, deadline=None)
@given(simple_graphs())
def test_kernel_matches_the_oracle_on_drawn_graphs(adj):
    _assert_kernel_matches_oracle(adj, _lr_rotation(adj))


@pytest.mark.parametrize("g", _networkx_corpus())
def test_kernel_matches_the_oracle_on_generated_graphs(g):
    adj = _adjacency(g.n + 1, g.edges.values())
    _assert_kernel_matches_oracle(adj, _lr_rotation(adj))


@pytest.mark.parametrize("g", _benchmark_graphs())
def test_kernel_matches_the_oracle_on_every_greedy_test(g):
    for adj, rot in _kernel_calls(g):
        _assert_kernel_matches_oracle(adj, rot)


@pytest.mark.parametrize("planar_end", [True, False], ids=["planar", "k5"])
def test_kernel_matches_the_oracle_deeper_than_the_recursion_limit(planar_end):
    adj = _deep_graph(3001, planar_end)
    _assert_kernel_matches_oracle(adj, _lr_rotation(adj))


def test_unpinned_decompose_runs_no_networkx_planarity_test(k10, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the planar stage ran networkx's planarity test")

    monkeypatch.setattr(nx, "check_planarity", refused)
    for g in (k10, graph_from_networkx(nx.random_regular_graph(6, 20, seed=0))):
        assert len(decompose(g).layers) >= 2


def test_fast_accepts_leave_the_prism_few_kernel_calls():
    """C600 x K2 is planar: nearly every edge shares a face with the
    kept graph, so testing each of its 1800 edges shows here by count.
    One call is the final embedding of the kept graph."""
    g = graph_from_networkx(nx.circular_ladder_graph(600))
    assert len(g.edges) == 1800
    assert len(_kernel_calls(g)) <= 10


# rr4_16_s1 of the sparse benchmark corpus (networkx's random 4-regular
# graph on 16 vertices, seed 1, relabelled 1..16), written out so that no
# networkx release can change it.  Its greedy planar subgraph has the
# bridges (1,16) and (9,14).
RR4_16_S1 = (
    "1 5\n1 8\n1 9\n1 16\n2 10\n2 11\n2 12\n2 15\n3 4\n3 5\n3 7\n3 9\n"
    "4 8\n4 10\n4 13\n5 8\n5 15\n6 11\n6 12\n6 13\n6 16\n7 11\n7 13\n7 16\n"
    "8 12\n9 14\n9 15\n10 14\n10 15\n11 16\n12 14\n13 14\n"
)
BRIDGE_TEMPLATE = "the planar subgraph has a bridge (%d,%d), so its faces are not simple cycles"
CUT_VERTEX_TEMPLATE = "the planar subgraph has a cut vertex v%d, so its faces are not simple cycles"
BRIDGE_MESSAGE = BRIDGE_TEMPLATE % (1, 16)


def test_a_bridge_of_the_planar_subgraph_is_named():
    g = parse_graph(RR4_16_S1)
    assert len(g.edges) == 32 and validate_nonseparable(g).ok
    kept = greedy_planar_subgraph_ref(g)
    assert sorted(tuple(sorted(e)) for e in nx.bridges(kept)) == [(1, 16), (9, 14)]
    with pytest.raises(PlanarizationError) as exc:
        select_planar_cycle_system(g)
    assert str(exc.value) == BRIDGE_MESSAGE


def test_a_cut_vertex_of_the_planar_subgraph_is_named():
    # The greedy subgraph refuses (5,9), the last edge that ties the
    # triangle 1-8-9 to the rest, so v1 is a cut vertex and no edge a bridge.
    edges = [(1, 2), (1, 3), (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 6)]
    edges += [(3, 4), (3, 7), (4, 5), (5, 6), (6, 7), (5, 9), (8, 9)]
    g = parse_graph("".join(f"{u} {v}\n" for u, v in edges))
    with pytest.raises(PlanarizationError) as exc:
        select_planar_cycle_system(g)
    assert str(exc.value) == CUT_VERTEX_TEMPLATE % 1


def test_cli_refuses_a_bridge(tmp_path):
    p = tmp_path / "rr4_16_s1.txt"
    p.write_text(RR4_16_S1)
    res = CliRunner().invoke(main, ["decompose", str(p), "-o", str(tmp_path / "out.json")])
    assert res.exit_code == 2, res.output
    assert f"error: {BRIDGE_MESSAGE}" in res.output
