from __future__ import annotations

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import check_connection_realization_ref, verify_document_ref, verify_raw_ref
from topolayers import verify
from topolayers.document import decomposition_to_document, verify_document
from topolayers.graphs import complete_graph
from topolayers.layering import decompose
from topolayers.verify import (
    check_edge_partition,
    check_face_trace,
    check_graph_edges,
    check_layer_rings,
    trace_faces,
    verify_raw,
    verify_system,
)

from test_document import DIGESTED

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
    res = verify_raw(4, cycles).checks["maclane"]
    assert not res.ok
    assert any("(2,3)" in d or "(2, 3)" in d.replace(" ", "") for d in res.details)


def test_euler_counts_imaginary_vertices(k7_decomposition):
    sys_ = k7_decomposition.layers[1].system
    assert verify_system(sys_).checks["euler"].ok


def test_remove_edge_fails_euler():
    cycles = dict(K4_CYCLES)
    cycles[4] = ((2, 4), (4, 3), (3, 2), (2, 4))  # malformed on purpose
    assert not verify_raw(4, cycles).checks["walks"].ok


def test_gf2_sum_detects_mismatch(k7_system):
    cycles = {cid: c.arcs for cid, c in k7_system.cycles.items()}
    rim = (k7_system.rim.id, k7_system.rim.arcs)
    assert verify_raw(7, cycles, rim).checks["gf2-sum"].ok
    del cycles[19]
    assert not verify_raw(7, cycles, rim).checks["gf2-sum"].ok


def test_orientation_detects_same_direction():
    cycles = dict(K4_CYCLES)
    cycles[1] = ((2, 1), (1, 3), (3, 2))  # reversed: now agrees with c2 on (1,3)
    assert not verify_raw(4, cycles).checks["orientation"].ok


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


def test_connection_realization_unrouted_chord_fails(k7_document):
    doc = copy.deepcopy(k7_document)
    assert verify_document(doc).checks["connection-realization"].ok
    some = next(iter(doc["sequences"]))
    del doc["sequences"][some]
    check = verify_document(doc).checks["connection-realization"]
    assert not check.ok
    assert check.details == [f"e{some}: chord has no realized connection"]


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


def _layer_systems(doc):
    """(n, cycles, rim) of each layer, with arcs as the JSON lists."""
    out = []
    for layer in doc["layers"]:
        sj = layer["system"]
        cycles = {c["id"]: c["arcs"] for c in sj["cycles"]}
        rim = None if sj["rim"] is None else (sj["rim"]["id"], sj["rim"]["arcs"])
        out.append((sj["n"], cycles, rim))
    return out


def _as_pairs(checks):
    return {name: (r.ok, r.details) for name, r in checks.items()}


def _oracle_pairs(checks, oracle):
    """The package's results under the oracle's own check names."""
    return {name: (checks[name].ok, checks[name].details) for name in oracle}


def test_maclane_details_list_member_ids():
    cycles = {cid: K4_CYCLES[cid] for cid in (1, 2, 3)}
    assert verify_raw(4, cycles).checks["maclane"].details == [
        "edge (2,3) on 1 members: [1]",
        "edge (2,4) on 1 members: [3]",
        "edge (3,4) on 1 members: [2]",
    ]
    assert _as_pairs(verify_raw(4, cycles).checks) == _as_pairs(verify_raw_ref(4, cycles))


def test_self_loop_at_imaginary_vertex_is_one_segment():
    # Read K4 with n = 3, so v4 is imaginary: three segments meet it.
    assert verify_raw(3, K4_CYCLES).checks["imaginary-degree"].details == ["v4: degree 3 != 4"]
    looped = dict(K4_CYCLES)
    looped[2] = ((1, 3), (3, 4), (4, 4), (4, 1))
    checks = verify_raw(3, looped).checks
    assert checks["imaginary-degree"].ok
    assert checks["walks"].details == ["c2: revisits a vertex", "c2: self-loop arc"]
    assert _as_pairs(verify_raw(3, looped).checks) == _as_pairs(verify_raw_ref(3, looped))


@pytest.mark.parametrize(
    "fixture",
    ["k7_decomposition", "k8_decomposition", "k10_decomposition", "k12_unpinned_decomposition"],
)
def test_verify_raw_matches_oracle_on_every_layer(fixture, request):
    doc = decomposition_to_document(request.getfixturevalue(fixture))
    report = _as_pairs(verify_document(doc).checks)
    for k, (n, cycles, rim) in enumerate(_layer_systems(doc), start=1):
        want = _as_pairs(verify_raw_ref(n, cycles, rim))
        assert _as_pairs(verify_raw(n, cycles, rim).checks) == want
        assert {name: report[f"layer-{k}/{name}"] for name in want} == want


def _merge_across(members, w, u):
    """Delete segment (w, u) by joining the two members on its sides."""
    i = next(p for p, (_, arcs) in enumerate(members) if (w, u) in arcs)
    j = next(p for p, (_, arcs) in enumerate(members) if (u, w) in arcs)
    a, b = members[i][1], members[j][1]
    x, y = a.index((w, u)), b.index((u, w))
    merged = a[x + 1:] + a[:x] + b[y + 1:] + b[:y]
    keep, drop = (j, i) if j == len(members) - 1 else (i, j)
    out = list(members)
    out[keep] = (members[keep][0], merged)
    del out[drop]
    return out


def _split(members, has_rim):
    """(cycles, rim) from members listed with the rim last."""
    if has_rim and members:
        *body, rim = members
        return dict(body), rim
    return dict(members), None


MUTATIONS = [
    "reverse", "drop", "duplicate", "delete-arc", "self-loop", "spur", "imaginary-degree-3",
    "pinch",
]


@pytest.fixture(scope="module")
def mutable_layers(k7_decomposition, k8_decomposition):
    return [
        system
        for d in (k7_decomposition, k8_decomposition)
        for system in _layer_systems(decomposition_to_document(d))
    ]


def _pinch(data, members):
    """Rename a vertex to one that shares no member and no neighbour with
    it: walks, double cover and orientation still pass, and the rotation
    at the kept vertex splits into two fans.  (members, kept vertex)."""
    nbrs: dict = {}
    on: dict = {}
    for cid, arcs in members:
        for a, b in arcs:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
            on.setdefault(a, set()).add(cid)
    pairs = [
        (x, y)
        for x in sorted(nbrs)
        for y in sorted(nbrs)
        if x != y and not on[x] & on[y] and not nbrs[x] & (nbrs[y] | {y})
    ]
    assume(pairs)
    x, y = data.draw(st.sampled_from(pairs))
    pinched = [
        (cid, [(y if a == x else a, y if b == x else b) for a, b in arcs]) for cid, arcs in members
    ]
    return pinched, y


def _mutate(data, mutation, n, cycles, rim):
    """One drawn mutation of a system: (cycles, rim, w), where w is the
    imaginary vertex an "imaginary-degree-3" merge leaves with three
    segments, or the vertex a "pinch" splits into fans, else None."""
    members = [(cid, [tuple(a) for a in arcs]) for cid, arcs in sorted(cycles.items())]
    if rim is not None:
        members.append((rim[0], [tuple(a) for a in rim[1]]))
    m = data.draw(st.integers(0, len(members) - 1))
    cid, arcs = members[m]
    at = data.draw(st.integers(0, len(arcs) - 1))
    w = None
    if mutation == "reverse":
        members[m] = (cid, [(b, a) for a, b in reversed(arcs)])
    elif mutation == "drop":
        del members[m]
    elif mutation == "duplicate":
        members.insert(0, (max(c for c, _ in members) + 1, list(arcs)))
    elif mutation == "delete-arc":
        members[m] = (cid, arcs[:at] + arcs[at + 1:])
    elif mutation == "self-loop":
        v = arcs[at][0]
        members[m] = (cid, arcs[:at] + [(v, v)] + arcs[at:])
    elif mutation == "spur":
        # out to a new vertex and back: one member holds a segment twice
        v = arcs[at][0]
        x = max(w for _, a in members for arc in a for w in arc) + 1
        members[m] = (cid, arcs[:at] + [(v, x), (x, v)] + arcs[at:])
    elif mutation == "pinch":
        members, w = _pinch(data, members)
    else:
        imaginary = sorted({v for _, a in members for arc in a for v in arc if v > n})
        assume(imaginary)
        w = data.draw(st.sampled_from(imaginary))
        u = next(b for _, a in members for x, b in a if x == w)
        members = _merge_across(members, w, u)
    return (*_split(members, rim is not None), w)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(MUTATIONS))
def test_verify_raw_matches_oracle_on_mutated_systems(mutable_layers, data, mutation):
    n, cycles, rim = data.draw(st.sampled_from(mutable_layers))
    cycles, rim, w = _mutate(data, mutation, n, cycles, rim)
    if mutation == "imaginary-degree-3":
        rep = verify_raw(n, cycles, rim)
        assert f"v{w}: degree 3 != 4" in rep.checks["imaginary-degree"].details
    if mutation == "pinch":
        rep = verify_raw(n, cycles, rim)
        assert rep.checks["face-trace-agreement"].details == [
            f"v{w}: neighbourhood splits into several fans"
        ]
    want = _as_pairs(verify_raw_ref(n, cycles, rim))
    assert _as_pairs(verify_raw(n, cycles, rim).checks) == want
    traced = want["face-trace-agreement"]
    if traced[1] != ["skipped: structural checks failed"]:
        result = check_face_trace(cycles, rim)
        assert (result.ok, result.details) == traced


def _gf2_direct(cycles, rim):
    """`_gf2_sum` itself, on the members in `verify_raw`'s order, rim last."""
    members = sorted(cycles.items()) + ([] if rim is None else [rim])
    return verify._gf2_sum(members, rim is not None)


@pytest.mark.parametrize("which", ["k7", "k8", "k10", 12, 13, 14, 15, 16])
def test_gf2_sum_shortcut_matches_the_sum_on_every_layer(which, request):
    """Past walks and maclane, `verify_raw` passes `gf2-sum` without
    summing; the sum itself agrees on every layer of these documents."""
    if isinstance(which, str):
        d = request.getfixturevalue(f"{which}_decomposition")
    elif which % 2 == 0:  # conftest decomposes these once
        d = request.getfixturevalue(f"k{which}_unpinned_decomposition")
    else:
        d = decompose(complete_graph(which))
    for n, cycles, rim in _layer_systems(decomposition_to_document(d)):
        got, want = verify_raw(n, cycles, rim).checks["gf2-sum"], _gf2_direct(cycles, rim)
        assert want.ok and (got.ok, got.details) == (want.ok, want.details)


GF2_MUTATIONS = ["drop-arc", "reverse-arc", "duplicate-arc", "swap-members", "drop-member", "spur"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(GF2_MUTATIONS))
def test_gf2_sum_shortcut_matches_the_sum_on_mutated_systems(mutable_layers, data, mutation):
    n, cycles, rim = data.draw(st.sampled_from(mutable_layers))
    members = [(cid, [tuple(a) for a in arcs]) for cid, arcs in sorted(cycles.items())]
    if rim is not None:
        members.append((rim[0], [tuple(a) for a in rim[1]]))
    m = data.draw(st.integers(0, len(members) - 1))
    cid, arcs = members[m]
    at = data.draw(st.integers(0, len(arcs) - 1))
    if mutation == "drop-arc":
        members[m] = (cid, arcs[:at] + arcs[at + 1:])
    elif mutation == "reverse-arc":
        members[m] = (cid, arcs[:at] + [arcs[at][::-1]] + arcs[at + 1:])
    elif mutation == "duplicate-arc":
        members[m] = (cid, arcs[:at + 1] + arcs[at:])
    elif mutation == "swap-members":
        o = data.draw(st.integers(0, len(members) - 1))
        assume(o != m)
        members[m], members[o] = (cid, members[o][1]), (members[o][0], arcs)
    elif mutation == "drop-member":
        del members[m]
    else:
        # out to a new vertex and back: maclane passes, walks does not
        v, x = arcs[at][0], max(w for _, a in members for arc in a for w in arc) + 1
        members[m] = (cid, arcs[:at] + [(v, x), (x, v)] + arcs[at:])
    cycles, rim = _split(members, rim is not None)
    got, want = verify_raw(n, cycles, rim).checks["gf2-sum"], _gf2_direct(cycles, rim)
    assert (got.ok, got.details) == (want.ok, want.details)


# verify_document reads each layer's arcs once and each chord's
# connection from its carrier path; the oracle converts every layer
# twice and walks the raw carrier rows itself.


@pytest.mark.parametrize("fixture", DIGESTED)
def test_verify_document_matches_oracle_on_digested_documents(fixture, request):
    doc = decomposition_to_document(request.getfixturevalue(fixture))
    want = verify_document_ref(doc).checks
    assert _oracle_pairs(verify_document(doc).checks, want) == _as_pairs(want)


@pytest.mark.parametrize("fixture", DIGESTED)
def test_carrier_table_passes_on_digested_documents(fixture, request):
    doc = decomposition_to_document(request.getfixturevalue(fixture))
    assert verify_document(doc).checks["carrier-table"] == verify.CheckResult(True)


@pytest.fixture(scope="module")
def mutable_documents(k7_decomposition, k8_decomposition):
    return [decomposition_to_document(d) for d in (k7_decomposition, k8_decomposition)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(MUTATIONS))
def test_verify_document_matches_oracle_on_mutated_layers(mutable_documents, data, mutation):
    doc = copy.deepcopy(data.draw(st.sampled_from(mutable_documents)))
    layer = data.draw(st.sampled_from(doc["layers"]))
    sj = layer["system"]
    rim = None if sj["rim"] is None else (sj["rim"]["id"], sj["rim"]["arcs"])
    cycles, rim, _ = _mutate(data, mutation, sj["n"], {c["id"]: c["arcs"] for c in sj["cycles"]}, rim)
    sj["cycles"] = [{"id": cid, "arcs": [list(a) for a in arcs]} for cid, arcs in cycles.items()]
    sj["rim"] = None if rim is None else {"id": rim[0], "arcs": [list(a) for a in rim[1]]}
    want = verify_document_ref(doc).checks
    report = verify_document(doc)
    assert _oracle_pairs(report.checks, want) == _as_pairs(want)
    # the connection check no longer reads the final layer's segments; the
    # carrier-table and imaginary-degree checks still reject whatever the
    # segment walk of the old rule rejects
    _, final_cycles, final_rim = _layer_systems(doc)[-1]
    if final_rim is not None:
        final_cycles = {**final_cycles, final_rim[0]: final_rim[1]}
    chords = {eid: (u, v) for eid, u, v in doc["chords"]}
    sequences = {int(k): v for k, v in doc["sequences"].items()}
    old_rule = check_connection_realization_ref(doc["graph"]["n"], chords, sequences, final_cycles)
    assert old_rule.ok or not report.ok


@st.composite
def _sphere_faces(draw, first):
    """The faces of a random plane graph on vertices first.., each a simple
    cycle: a polygon, then drawn edge subdivisions and face chords."""
    k = draw(st.integers(3, 6))
    ring = list(range(first, first + k))
    arcs = list(zip(ring, ring[1:] + ring[:1]))
    faces = [arcs, [(b, a) for a, b in reversed(arcs)]]
    fresh = first + k
    for _ in range(draw(st.integers(0, 8))):
        f = draw(st.integers(0, len(faces) - 1))
        face = faces[f]
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(face))
            split = {(a, b): [(a, fresh), (fresh, b)], (b, a): [(b, fresh), (fresh, a)]}
            faces = [[x for arc in g for x in split.get(arc, [arc])] for g in faces]
            fresh += 1
            continue
        i, j = sorted(draw(st.lists(st.integers(0, len(face) - 1), min_size=2, max_size=2)))
        u, v = face[i][0], face[j][0]
        if j - i < 2 or j - i > len(face) - 2:
            continue  # the same or adjacent vertices
        if any({u, v} == {a, b} for g in faces for a, b in g):
            continue  # already an edge
        faces[f] = face[i:j] + [(v, u)]
        faces.append(face[j:] + face[:i] + [(u, v)])
    return faces


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pinch=st.booleans())
def test_face_trace_equals_the_closure_check_past_the_gate(data, pinch):
    """Past the walks, double cover and orientation checks, re-tracing the
    faces decides nothing the rotation closure has not: two random plane
    systems, the second optionally pinched onto the first at a vertex."""
    faces = data.draw(_sphere_faces(1)) + data.draw(_sphere_faces(100))
    if pinch:
        x = data.draw(st.sampled_from(sorted({a for f in faces for a, _ in f if a >= 100})))
        y = data.draw(st.sampled_from(sorted({a for f in faces for a, _ in f if a < 100})))
        faces = [[(y if a == x else a, y if b == x else b) for a, b in f] for f in faces]
    cycles = dict(enumerate(faces, start=1))
    rep = verify_raw(200, cycles)
    assert all(rep.checks[k].ok for k in ("walks", "maclane", "orientation")), rep.lines()
    closure = rep.checks["face-trace-agreement"]
    result = check_face_trace(cycles)
    assert (result.ok, result.details) == (closure.ok, closure.details)
    assert closure.ok is not pinch


def test_verify_document_does_not_retrace_faces(
    monkeypatch, k7_decomposition, k12_unpinned_decomposition
):
    def retraced(*args, **kwargs):
        raise AssertionError("verify_document re-traced the faces")

    monkeypatch.setattr(verify, "trace_faces", retraced)
    monkeypatch.setattr(verify, "check_face_trace", retraced)
    for d in (k7_decomposition, k12_unpinned_decomposition):
        assert verify_document(decomposition_to_document(d)).ok
