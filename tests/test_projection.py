from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolayers.graphs import complete_graph, edge_between
from topolayers.projection import (
    ProjectionError,
    basis_from_ring,
    chords_cross,
    select_noncrossing,
)

from oracles import (
    brute_force_max_noncrossing,
    chords_cross_ref,
    crossing_counts,
    project_chord_ref,
)

HAM = [1, 6, 5, 4, 3, 2, 7]

# Frozen chord projections on the K7 Hamiltonian basis, keyed by chord
# edge id, as sets of ring-edge ids.
K7_PROJECTIONS = {
    3: {5, 16, 19},
    8: {7, 12},
    9: {7, 12, 16},
    10: {5, 6, 11},
    14: {12, 16, 19},
    17: {16, 19},
}
K7_COUNTS = {3: 3, 8: 1, 9: 3, 10: 1, 14: 3, 17: 1}


@pytest.fixture(scope="module")
def k7_basis():
    return basis_from_ring(HAM)


@pytest.fixture(scope="module")
def k7_chords():
    g = complete_graph(7)
    ring_edges = {
        edge_between(g, HAM[i], HAM[(i + 1) % 7]) for i in range(7)
    }
    sys_edges = ring_edges | {
        edge_between(g, u, v)
        for u, v in [(1, 2), (1, 3), (1, 5), (3, 5), (6, 7), (5, 7), (4, 7), (3, 7)]
    }
    return {eid: uv for eid, uv in g.edges.items() if eid not in sys_edges}


def test_k7_projections_exact(k7_basis, k7_chords):
    assert set(k7_chords) == set(K7_PROJECTIONS)
    for eid, want in K7_PROJECTIONS.items():
        assert project_chord_ref(HAM, k7_chords[eid], complete_graph(7)) == frozenset(want)


def test_k7_crossing_counts(k7_basis, k7_chords):
    assert crossing_counts(k7_basis, k7_chords) == K7_COUNTS
    got = {
        eid: sum(chords_cross(k7_basis, uv, k7_chords[o]) for o in k7_chords if o != eid)
        for eid, uv in k7_chords.items()
    }
    assert got == K7_COUNTS


def test_select_noncrossing_k7(k7_basis, k7_chords):
    kept, removed = select_noncrossing(k7_basis, k7_chords)
    assert kept == [8, 10, 17]
    assert removed == [3, 9, 14]
    for a in kept:
        for b in kept:
            if a < b:
                assert not chords_cross(k7_basis, k7_chords[a], k7_chords[b])


def test_brute_force_matches_cardinality(k7_basis, k7_chords):
    best = brute_force_max_noncrossing(k7_basis, k7_chords)
    kept, _ = select_noncrossing(k7_basis, k7_chords)
    assert len(best) == len(kept) == 3
    assert best == [3, 8, 17]


def test_projection_tie_breaks_lex_smaller():
    # both arcs of (1,3) have length 2; sorted label list decides
    p = project_chord_ref([1, 2, 3, 4], (1, 3))
    assert p in (frozenset({-1, -2}), frozenset({-3, -4}))
    assert p == min(
        (frozenset({-1, -2}), frozenset({-3, -4})), key=lambda s: sorted(s)
    )


def test_projection_errors():
    basis = basis_from_ring([1, 2, 3, 4, 5])
    off_ring = "chord endpoint v9 is not on the basis ring"
    with pytest.raises(ProjectionError, match=off_ring):
        chords_cross(basis, (1, 9), (2, 4))
    with pytest.raises(ProjectionError, match=off_ring):
        select_noncrossing(basis, {1: (2, 4), 2: (1, 9)})
    with pytest.raises(ProjectionError, match="degenerate chord"):
        chords_cross(basis, (1, 3), (2, 2))
    with pytest.raises(ProjectionError, match="degenerate chord"):
        select_noncrossing(basis, {1: (2, 2), 2: (1, 3)})


def test_shared_endpoint_never_crosses():
    basis = basis_from_ring([1, 2, 3, 4, 5, 6])
    assert not chords_cross(basis, (1, 3), (1, 4))
    assert not chords_cross(basis, (2, 6), (2, 4))


@st.composite
def ring_and_chord_pair(draw):
    """A ring of 3..20 vertices and two chords of it.  As often as not the
    second shares an end with the first, or is diametral on an even ring,
    and then the first may be diametral too."""
    k = draw(st.integers(3, 20))
    ring = draw(st.permutations(list(range(1, k + 1))))
    i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["any", "shared", "diametral"]))
    if kind == "shared":
        x = draw(st.sampled_from([i, j]))
        y = draw(st.integers(0, k - 1).filter(lambda y: y != x))
    elif kind == "diametral" and k % 2 == 0:
        x = draw(st.integers(0, k - 1))
        y = (x + k // 2) % k
        if draw(st.booleans()):
            j = (i + k // 2) % k
    else:
        x, y = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    return ring, (ring[i], ring[j]), (ring[x], ring[y])


@settings(max_examples=500, deadline=None)
@given(ring_and_chord_pair())
def test_chords_cross_matches_labelled_projection(case):
    ring, c1, c2 = case
    assert chords_cross(basis_from_ring(ring), c1, c2) == chords_cross_ref(ring, c1, c2)

