from __future__ import annotations

from topolayers.verify import (
    check_connection_realization,
    check_edge_partition,
    check_euler,
    check_face_trace,
    check_gf2_sum,
    check_graph_edges,
    check_layer_rings,
    check_maclane,
    check_orientation,
    check_walks,
    trace_faces,
    verify_raw,
    verify_system,
)

# K4 drawn on the sphere: 4 oriented triangles, no rim.
K4_CYCLES = {
    1: ((1, 2), (2, 3), (3, 1)),
    2: ((1, 3), (3, 4), (4, 1)),
    3: ((1, 4), (4, 2), (2, 1)),
    4: ((2, 4), (4, 3), (3, 2)),
}


def test_k4_sphere_passes_everything():
    rep = verify_raw(4, K4_CYCLES)
    assert rep.ok, rep.lines()


def test_drop_one_cycle_fails_maclane():
    cycles = {cid: K4_CYCLES[cid] for cid in (1, 2, 3)}
    res = check_maclane(cycles)
    assert not res.ok
    assert any("(2,3)" in d or "(2, 3)" in d.replace(" ", "") for d in res.details)


def test_euler_counts_imaginary_vertices(k7_decomposition):
    sys_ = k7_decomposition.layers[1].system
    assert check_euler(
        {cid: c.arcs for cid, c in sys_.cycles.items()},
        (sys_.rim.id, sys_.rim.arcs) if sys_.rim else None,
    ).ok


def test_remove_edge_fails_euler():
    cycles = dict(K4_CYCLES)
    cycles[4] = ((2, 4), (4, 3), (3, 2), (2, 4))  # malformed on purpose
    assert not check_walks(cycles).ok


def test_gf2_sum_detects_mismatch(k7_system):
    cycles = {cid: c.arcs for cid, c in k7_system.cycles.items()}
    rim = (k7_system.rim.id, k7_system.rim.arcs)
    assert check_gf2_sum(cycles, rim).ok
    del cycles[19]
    assert not check_gf2_sum(cycles, rim).ok


def test_orientation_detects_same_direction():
    cycles = dict(K4_CYCLES)
    cycles[1] = ((2, 1), (1, 3), (3, 2))  # reversed: now agrees with c2 on (1,3)
    assert not check_orientation(cycles).ok


def test_trace_faces_triangle():
    rotation = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    assert len(trace_faces(rotation)) == 2


def test_trace_faces_k7_layer1(k7_system):
    cycles = {cid: c.arcs for cid, c in k7_system.cycles.items()}
    rim = (k7_system.rim.id, k7_system.rim.arcs)
    assert check_face_trace(cycles, rim).ok


def test_face_trace_counts_k8(k8_decomposition):
    sys_ = k8_decomposition.layers[0].system
    assert len(sys_.cycles) + 1 == 12  # 11 cycles + rim
    assert verify_system(sys_).ok


def test_edge_partition_checker():
    assert check_edge_partition([1, 2, 3], [[1, 2], [3]]).ok
    assert not check_edge_partition([1, 2, 3], [[1, 2], [2, 3]]).ok
    assert not check_edge_partition([1, 2, 3], [[1]]).ok
    assert not check_edge_partition([1], [[1, 9]]).ok


def test_connection_realization_unrouted_chord_fails(k7_decomposition):
    d = k7_decomposition
    final = {cid: c.arcs for cid, c in d.layers[-1].system.cycles.items()}
    if d.layers[-1].system.rim is not None:
        rim = d.layers[-1].system.rim
        final[rim.id] = rim.arcs
    assert check_connection_realization(7, d.chords, d.sequences, final).ok
    broken = dict(d.sequences)
    some = next(iter(broken))
    del broken[some]
    assert not check_connection_realization(7, d.chords, broken, final).ok


def test_graph_edges_checker():
    edges = [[1, 1, 2], [2, 2, 3], [3, 1, 3]]
    assert check_graph_edges(3, edges, [[3, 1, 3]]).ok
    assert not check_graph_edges(3, edges + [[4, 3, 4]], []).ok
    assert not check_graph_edges(3, edges + [[4, 3, 3]], []).ok
    assert not check_graph_edges(3, edges + [[3, 2, 1]], []).ok
    assert not check_graph_edges(3, edges + [[4, 2, 1]], []).ok
    assert not check_graph_edges(3, edges, [[3, 3, 1]]).ok
    assert not check_graph_edges(3, edges, [[9, 1, 3]]).ok


def test_layer_rings_checker():
    # K4: layer 1 is the 4-cycle 1-2-3-4 plus (1,3); layer 2 holds (2,4).
    edges = {1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (1, 4), 5: (1, 3), 6: (2, 4)}
    first = [1, 2, 3, 4, 5]
    assert check_layer_rings(4, edges, [(1, None), (2, [1, 2, 3, 4])], first).ok
    assert check_layer_rings(4, edges, [(1, None), (2, None)], first).ok
    assert not check_layer_rings(4, edges, [(1, [1, 2, 3, 4]), (2, None)], first).ok
    assert not check_layer_rings(4, edges, [(1, None), (2, [1, 2, 3])], first).ok
    assert not check_layer_rings(4, edges, [(1, None), (2, [1, 2, 3, 3])], first).ok
    assert not check_layer_rings(4, edges, [(1, None), (2, [1, 2, 4, 3])], first).ok
