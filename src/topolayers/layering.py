"""Layer construction: regions, stripping, and the decomposition loop.

Layer 1 is the maximal planar subgraph.  Its Hamiltonian ring splits the
faces in two: one flood fill from the rim face, stopped at ring segments,
finds the outer side, and every other face is inner (split_regions).
Each further layer re-projects the remaining chords on the ring, routes
what it can inside, then outside, then through any channel of conjugate
faces that avoids the connections already drawn in the same layer; what
is left opens the next layer with a fresh ban set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

from .cycles import Cycle, Segment, canonical_ring, ring_from_segments, seg
from .graphs import Graph, edge_between, validate_nonseparable
from .planar import (
    CycleSystem,
    hamiltonian_rim,
    select_planar_cycle_system,
)
from .projection import basis_from_ring, select_noncrossing
from .routing import (
    Drawing,
    carrier_path,
    imaginary_sequence,
    insert_connection,
    route_from_conjugates,
    shortest_route,
)


class DecompositionError(ValueError):
    pass


@dataclass
class Layer:
    index: int
    realized: List[int]  # original edge ids drawn in this layer
    system: CycleSystem  # drawing snapshot at the end of the layer
    ring: Optional[List[int]] = None  # basis ring used (layers >= 2)


@dataclass
class Decomposition:
    g: Graph
    strategy: str
    layers: List[Layer]
    chords: Dict[int, Tuple[int, int]]  # edge id -> endpoints, for routed chords
    sequences: Dict[int, List[int]]  # edge id -> imaginary vertices, from min end
    drawing: Drawing = field(repr=False, default=None)


def layer_edge_partition(d: Decomposition) -> Dict[int, List[int]]:
    return {layer.index: sorted(layer.realized) for layer in d.layers}


def _boundary_ring(faces: Sequence[Cycle]) -> Optional[List[int]]:
    acc: Set[Segment] = set()
    for c in faces:
        acc.symmetric_difference_update(c.segments)
    return ring_from_segments(acc)


def _flood(
    drawing: Drawing, start: int, faces: Container[int], cut: Set[Segment]
) -> Set[int]:
    """The faces of `faces` reachable from face `start`, stepping between
    faces that share a segment not in `cut`."""
    seen = {start}
    stack = [start]
    while stack:
        for s in drawing.faces[stack.pop()].segments - cut:
            for fid in drawing.segment_faces[s]:
                if fid not in seen and fid in faces:
                    seen.add(fid)
                    stack.append(fid)
    return seen


def strip_imaginary_region(
    drawing: Drawing, chord: Tuple[int, int]
) -> Tuple[List[int], List[int]]:
    """Faces free of imaginary vertices that can host the chord.

    The rim face is excluded; links whose shared edge touches a chord
    endpoint are cut, since a route cannot cross there anyway.  Of the
    components whose boundary ring holds both endpoints, the one with the
    lexicographically smallest boundary is returned as (face ids,
    boundary ring).
    """
    cands = {
        fid
        for fid in drawing.faces
        if fid != drawing.rim_id and not drawing.has_imaginary(fid)
    }
    u, v = chord
    cut = {s for s in drawing.segment_faces if u in s or v in s}
    hits = []
    seen: Set[int] = set()
    for fid in sorted(cands):
        if fid in seen:
            continue
        members = _flood(drawing, fid, cands, cut)
        seen |= members
        ring = _boundary_ring([drawing.faces[f] for f in members])
        if ring is not None and u in ring and v in ring:
            hits.append((sorted(members), ring))
    if not hits:
        raise DecompositionError(f"no residual region can host chord ({u},{v})")
    return min(hits, key=lambda t: sorted(seg(a, b) for a, b in zip(t[1], t[1][1:] + t[1][:1])))


def split_regions(drawing: Drawing, ring: Sequence[int]) -> Tuple[Set[int], Set[int]]:
    """Tag faces inner/outer of the Hamiltonian ring; tags survive splits.

    The ring is a closed curve on the sphere, so the outer faces are those
    reached from the rim face without crossing a ring segment, and the
    rest are inner.  Returns (inner, outer) face ids.
    """
    cut = {seg(a, b) for a, b in zip(ring, [*ring[1:], ring[0]])}
    outer = _flood(drawing, drawing.rim_id, drawing.faces, cut)
    inner = set(drawing.faces) - outer
    boundary = _boundary_ring([drawing.faces[fid] for fid in inner])
    if boundary is None or canonical_ring(boundary) != canonical_ring(list(ring)):
        raise DecompositionError("the faces inside the Hamiltonian ring do not sum to it")
    for fid in drawing.faces:
        drawing.side[fid] = "inner" if fid in inner else "outer"
    return inner, outer


def expanded_ring(drawing: Drawing, ring: Sequence[int]) -> List[int]:
    """The ring as it currently runs, with subdivision vertices included."""
    out: List[int] = []
    for i in range(len(ring)):
        a, b = ring[i], ring[(i + 1) % len(ring)]
        eid = edge_between(drawing.g, a, b)
        path = carrier_path(drawing, ("edge", eid), (a, b))
        if path is None:
            raise DecompositionError(f"ring edge e{eid} is not a path")
        out.extend(path[:-1])
    return out


def _side_faces(drawing: Drawing, side: str) -> Set[int]:
    return {fid for fid, s in drawing.side.items() if s == side}


def _route_greedy(
    drawing: Drawing, pool: Dict[int, Tuple[int, int]], side: Optional[str]
) -> List[int]:
    """Route chords shortest-first until none fits; returns routed edge ids.

    Each pass routes in the faces tagged `side` as they are at that pass,
    or in every face when side is None.  A chord's route is kept across
    passes until an insertion touches a face its query saw: a route face,
    or a face sharing a segment with one.  Faces elsewhere keep their
    segments, neighbours and tag, and newly banned segments lie only on
    new faces, so a kept route is what a fresh query would return.
    """
    done: List[int] = []
    routes: Dict[int, Tuple[Optional[List[int]], Set[int]]] = {}
    while True:
        best = None
        faces = None if side is None else _side_faces(drawing, side)
        for eid in sorted(set(pool) - set(done)):
            if eid not in routes:
                seen: Set[int] = set()
                u, v = pool[eid]
                routes[eid] = (shortest_route(drawing, u, v, faces, seen), seen)
            r = routes[eid][0]
            if r is not None and (best is None or len(r) < len(best[1])):
                best = (eid, r)
        if best is None:
            return done
        eid, r = best
        dirty = set(r)
        for fid in r:
            for s in drawing.faces[fid].segments:
                dirty |= drawing.segment_faces[s]
        insert_connection(drawing, *pool[eid], r)
        done.append(eid)
        routes = {k: q for k, q in routes.items() if k != eid and q[1].isdisjoint(dirty)}


def _replay_layer(
    drawing: Drawing, entries: object, remaining: Dict[int, Tuple[int, int]]
) -> List[int]:
    """Insert one layer of a pinned route log, in its order; returns edge ids.

    An entry is {"chord": [s, t], "crossings": [[w, a, b], ...]}: the
    chord's own rows of the document's imaginary table, imaginary vertex w
    on conjugate edge (a, b), in route order from s.
    """
    if type(entries) is not list:
        raise DecompositionError(f"malformed plan layer {entries!r}: expected a list")
    by_pair = {seg(*uv): eid for eid, uv in remaining.items()}
    routed: List[int] = []
    for entry in entries:
        fields = entry if type(entry) is dict else {}
        chord, rows = fields.get("chord"), fields.get("crossings")
        if not (_ints(chord, 2) and type(rows) is list and all(_ints(r, 3) for r in rows)):
            raise DecompositionError(
                f"malformed plan entry {entry!r}: expected a chord [s, t] "
                "and crossings [[w, a, b], ...]"
            )
        s, t = chord
        eid = by_pair.pop(seg(s, t), None)
        if eid is None:
            raise DecompositionError(f"planned chord ({s},{t}) is not pending")
        ids = [w for w, _, _ in rows]
        if ids:
            if ids[0] < drawing.next_vertex_id or ids != list(range(ids[0], ids[-1] + 1)):
                raise DecompositionError(
                    f"planned chord ({s},{t}): crossing ids {ids} are not consecutive "
                    f"unused ids (the next free id is {drawing.next_vertex_id})"
                )
            drawing.next_vertex_id = ids[0]
        route = route_from_conjugates(drawing, s, t, [r[1:] for r in rows])
        insert_connection(drawing, s, t, route)
        del remaining[eid]
        routed.append(eid)
    return routed


def _ints(x: object, size: Optional[int] = None) -> bool:
    """x is a list of ints, of the given length when given."""
    return type(x) is list and size in (None, len(x)) and all(type(v) is int for v in x)


# Drawing layers a decomposition may open before it gives up.
_MAX_LAYERS = 16

# The pin's outer shape; a key that is absent or null leaves its stage unpinned.
_PIN_FIELDS = {"system": dict, "hamiltonian": list, "plan": dict}


def _check_pin(pin: object) -> None:
    """Raise DecompositionError unless the pin has the shape its stages read.

    The plan's entries are checked as they are replayed (_replay_layer).
    """
    if type(pin) is not dict:
        raise DecompositionError(f"malformed pin: expected an object, got {type(pin).__name__}")
    for key, kind in _PIN_FIELDS.items():
        if pin.get(key) is not None and type(pin[key]) is not kind:
            raise DecompositionError(
                f"malformed pin: {key!r} must be "
                f"{'an object' if kind is dict else 'a list'}, got {type(pin[key]).__name__}"
            )
    system = pin.get("system")
    if system is not None:
        cycles = system.get("cycles")
        if not (type(cycles) is list and all(map(_ints, cycles))):
            raise DecompositionError(
                "malformed pin: 'system.cycles' must be a list of integer lists"
            )
        if not _ints(system.get("rim")):
            raise DecompositionError("malformed pin: 'system.rim' must be a list of integers")
        if not (system["rim"] and all(cycles)):
            raise DecompositionError("malformed pin: a ring of 'system' is empty")
    if not _ints(pin.get("hamiltonian") or []):
        raise DecompositionError("malformed pin: 'hamiltonian' must hold integers only")


def decompose(
    g: Graph, strategy: str = "thickness", pin: Optional[dict] = None
) -> Decomposition:
    """Full layered drawing of a nonseparable graph.

    A pin may fix the planar `system`, the `hamiltonian` ring and a `plan`,
    a route log replayed for the layers it lists (see _replay_layer).
    """
    if strategy not in ("thickness", "inner-only"):
        raise DecompositionError(f"unknown strategy {strategy!r}")
    report = validate_nonseparable(g)
    if not report.ok:
        raise DecompositionError(
            "input is not nonseparable: " + "; ".join(report.problems())
        )
    if pin is not None:
        _check_pin(pin)
    pin = pin or {}
    sys_ = select_planar_cycle_system(g, pin.get("system"))
    ring = hamiltonian_rim(sys_, g, pin.get("hamiltonian"))
    drawing = Drawing.from_system(g, sys_)
    split_regions(drawing, ring)

    region_eids = sorted(edge_between(g, *s) for s in sys_.segments())
    chords = {
        eid: uv for eid, uv in g.edges.items() if eid not in set(region_eids)
    }
    layers = [Layer(1, realized=region_eids, system=sys_)]
    remaining = dict(chords)

    # pinned route logs record thickness-style schedules; the inner-only
    # strategy always schedules generically.  The log is copied, so the
    # caller's pin is left as it was.
    plan = pin.get("plan") or {}
    if type(plan.get("layers", [])) is not list:
        raise DecompositionError('malformed plan: expected {"layers": [[entry, ...], ...]}')
    planned = list(plan.get("layers", [])) if strategy == "thickness" else []
    layer_index = 1
    while remaining:
        layer_index += 1
        if layer_index > _MAX_LAYERS:
            raise DecompositionError("layer budget exhausted")
        drawing.banned.clear()
        if planned:
            routed = _replay_layer(drawing, planned.pop(0), remaining)
        else:
            routed = []
            ring_now = expanded_ring(drawing, ring)
            basis = basis_from_ring(ring_now)
            sides = ["inner"] if strategy == "inner-only" else ["inner", "outer"]
            for side in sides:
                cand = {eid: remaining[eid] for eid in sorted(remaining)}
                if not cand:
                    break
                kept, _ = select_noncrossing(basis, cand)
                pool_k = {eid: cand[eid] for eid in kept}
                done = _route_greedy(drawing, pool_k, side)
                for eid in done:
                    del remaining[eid]
                routed.extend(done)
            if strategy == "thickness":
                done = _route_greedy(
                    drawing, {eid: remaining[eid] for eid in sorted(remaining)}, None
                )
                for eid in done:
                    del remaining[eid]
                routed.extend(done)
        if not routed:
            raise DecompositionError(
                f"no remaining chord is routable in layer {layer_index}"
            )
        layers.append(
            Layer(
                layer_index,
                realized=sorted(routed),
                system=drawing.snapshot(),
                ring=list(ring),
            )
        )
    sequences = {
        eid: imaginary_sequence(drawing, uv) for eid, uv in chords.items()
    }
    return Decomposition(
        g=g,
        strategy=strategy,
        layers=layers,
        chords=chords,
        sequences=sequences,
        drawing=drawing,
    )


__all__ = [
    "DecompositionError",
    "Layer",
    "Decomposition",
    "decompose",
    "layer_edge_partition",
    "split_regions",
    "strip_imaginary_region",
    "expanded_ring",
]
