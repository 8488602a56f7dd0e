from __future__ import annotations

from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolayers.cycles import (
    Cycle,
    canonical_ring,
    enumerate_isometric_cycles,
    normalize_ring,
    ring_cycle,
    ring_from_segments,
    seg,
    walk,
)
from topolayers.graphs import complete_graph, parse_graph

from oracles import boundary_ring_ref, connection_path_ref, graph_from_networkx


def _isometric_oracle(g):
    """Independent recount: every simple cycle whose pairwise cycle
    distances match graph distances."""
    G = nx.Graph(list(g.edges.values()))
    dist = dict(nx.all_pairs_shortest_path_length(G))
    found = set()
    for cyc in nx.simple_cycles(G):
        k = len(cyc)
        ok = True
        for i, j in combinations(range(k), 2):
            along = min(j - i, k - (j - i))
            if along != dist[cyc[i]][cyc[j]]:
                ok = False
                break
        if ok:
            found.add(normalize_ring(list(cyc)))
    return found


def test_cycle_arc_chaining_checked():
    with pytest.raises(ValueError):
        Cycle(1, ((1, 2), (3, 1)))


def test_ring_cycle_and_reverse():
    c = ring_cycle(4, [1, 5, 3])
    assert c.arcs == ((1, 5), (5, 3), (3, 1))
    assert c.reversed().arcs == ((1, 3), (3, 5), (5, 1))
    assert c.segments == c.reversed().segments


def test_canonical_ring_starts_at_min_toward_smaller():
    assert canonical_ring([6, 1, 3, 2, 7]) == [1, 3, 2, 7, 6]
    assert canonical_ring([1, 6, 5, 4, 3, 2, 7]) == [1, 6, 5, 4, 3, 2, 7]
    assert normalize_ring([3, 1, 2]) == normalize_ring([2, 3, 1])


def test_isometric_counts_complete_graphs():
    for n, want in ((4, 4), (7, 35), (8, 56)):
        pool = enumerate_isometric_cycles(complete_graph(n))
        assert len(pool) == want
        assert all(len(c.arcs) == 3 for c in pool)


def test_isometric_ids_are_lexicographic():
    pool = enumerate_isometric_cycles(complete_graph(7))
    assert pool[0].vertices == (1, 2, 3)
    assert pool[-1].vertices == (5, 6, 7)
    assert [c.id for c in pool] == list(range(1, 36))


def test_isometric_oracle_cube():
    # 3-cube: six quadrilateral faces plus four antipodal hexagons
    edges = "1 2\n2 3\n3 4\n4 1\n5 6\n6 7\n7 8\n8 5\n1 5\n2 6\n3 7\n4 8\n"
    g = parse_graph(edges)
    pool = enumerate_isometric_cycles(g)
    got = {normalize_ring(list(c.vertices)) for c in pool}
    assert got == _isometric_oracle(g)
    assert sorted(len(r) for r in got) == [4] * 6 + [6] * 4


def test_isometric_oracle_k33():
    g = parse_graph("1 4\n1 5\n1 6\n2 4\n2 5\n2 6\n3 4\n3 5\n3 6\n")
    pool = enumerate_isometric_cycles(g)
    got = {normalize_ring(list(c.vertices)) for c in pool}
    assert got == _isometric_oracle(g)


def test_isometric_oracle_petersen():
    # diameter 2 and girth 5: the twelve pentagons, nothing longer
    g = graph_from_networkx(nx.petersen_graph())
    pool = enumerate_isometric_cycles(g)
    got = {normalize_ring(list(c.vertices)) for c in pool}
    assert got == _isometric_oracle(g)
    assert sorted(len(r) for r in got) == [5] * 12


def _ring_segs(vs):
    return [seg(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _path_segs(vs):
    return [seg(a, b) for a, b in zip(vs, vs[1:])]


@st.composite
def segment_shapes(draw):
    """(kind, segments, natural ends) for the shapes walks meet."""
    kind = draw(st.sampled_from(["ring", "path", "two_rings", "pendant", "broken_path"]))
    vs = draw(st.lists(st.integers(1, 99), min_size=16, max_size=16, unique=True))
    k = draw(st.integers(3, 7))
    if kind == "ring":
        segs = _ring_segs(vs[:k])
        ends = (vs[0], vs[1])
    elif kind == "path":
        segs = _path_segs(vs[: k - 1])
        ends = (vs[0], vs[k - 2])
    elif kind == "two_rings":
        segs = _ring_segs(vs[:k]) + _ring_segs(vs[k : 2 * k])
        ends = (vs[0], vs[k])
    elif kind == "pendant":
        at = draw(st.integers(0, k - 1))
        branch = [vs[at]] + vs[k : k + draw(st.integers(1, 3))]
        segs = _ring_segs(vs[:k]) + _path_segs(branch)
        ends = (vs[0], branch[-1])
    else:
        segs = _path_segs(vs[:k])
        del segs[draw(st.integers(0, len(segs) - 1))]
        ends = (vs[0], vs[k - 1])
    return kind, draw(st.permutations(segs)), ends


@settings(max_examples=400, deadline=None)
@given(segment_shapes(), st.data())
def test_walkers_match_seed_loops(shape, data):
    kind, segs, ends = shape
    ring = ring_from_segments(set(segs))
    assert ring == boundary_ring_ref(set(segs))
    assert (ring is not None) == (kind == "ring")
    path = walk(segs, *ends)
    assert path == connection_path_ref(segs, *ends)
    if kind in ("path", "broken_path"):
        assert (path is not None) == (kind == "path")
    verts = sorted({v for s in segs for v in s} | set(ends))
    start, stop = data.draw(st.permutations(verts))[:2]
    assert walk(segs, start, stop) == connection_path_ref(segs, start, stop)
