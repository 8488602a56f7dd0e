from __future__ import annotations

import pytest

from topolayers.cycles import enumerate_isometric_cycles
from topolayers.graphs import complete_graph
from topolayers.planar import (
    PlanarizationError,
    hamiltonian_rim,
    orient_cycles,
    select_planar_cycle_system,
)
from topolayers.fixtures import load_fixture
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
    ring, inside, outside = hamiltonian_rim(
        k7_system, k7, load_fixture("k7")["hamiltonian"]
    )
    assert ring == [1, 6, 5, 4, 3, 2, 7]
    assert sorted(inside) == [15, 19, 28, 33, 35]
    assert sorted(outside) == [1, 5, 13, 26]


def test_hamiltonian_rim_search_unpinned(k7, k7_system):
    ring, inside, outside = hamiltonian_rim(k7_system, k7)
    assert len(ring) == 7 and sorted(inside + outside) == sorted(k7_system.cycles)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_unpinned_planarization_is_maximal_planar(n):
    g = complete_graph(n)
    pool = enumerate_isometric_cycles(g)
    sys_ = select_planar_cycle_system(g, pool)
    assert len(sys_.segments()) == 3 * n - 6
    rep = verify_system(sys_)
    assert rep.ok, rep.lines()


def test_gf2_sum_equals_rim(k7_system):
    assert k7_system.gf2_cycle_sum() == k7_system.rim.segments


def test_pinned_system_needs_the_pool(k7):
    with pytest.raises(PlanarizationError, match="pool"):
        select_planar_cycle_system(k7, None, load_fixture("k7")["system"])
    assert len(select_planar_cycle_system(k7, None).segments()) == 15
