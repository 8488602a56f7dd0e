"""Layer construction: regions and the decomposition loop.

Layer 1 is the maximal planar subgraph.  When layer 2 opens, layer 1's
Hamiltonian ring is found and splits the faces in two: one flood fill
from the rim face, stopped at ring segments, finds the outer side, and
every other face is inner (split_regions).  Each further layer, with a
fresh ban set, replays its entry of a pinned route log or runs its
strategy's passes (_PASSES): `thickness` routes the chords kept
non-crossing on the ring inside, then outside, then any chord through
conjugate faces that avoid the layer's connections; `inner-only` routes
inside only.  What is left opens the next layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cycles import Segment, seg
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


def _flood(drawing: Drawing, start: int, cut: Set[Segment]) -> Set[int]:
    """The faces reachable from face `start`, stepping between faces that
    share a segment not in `cut`."""
    seen = {start}
    stack = [start]
    while stack:
        for fid in drawing.neighbours(stack.pop(), cut):
            if fid not in seen:
                seen.add(fid)
                stack.append(fid)
    return seen


def split_regions(drawing: Drawing, ring: Sequence[int]) -> Tuple[Set[int], Set[int]]:
    """Tag faces inner/outer of the Hamiltonian ring; tags survive splits.

    The ring is a closed curve on the sphere, so the outer faces are those
    reached from the rim face without crossing a ring segment, and the
    rest are inner.  A simple cycle's dual edges form a bond, so that one
    flood reaches exactly one side.  Returns (inner, outer) face ids.
    """
    cut = {seg(a, b) for a, b in zip(ring, [*ring[1:], ring[0]])}
    outer = _flood(drawing, drawing.rim_id, cut)
    inner = set(drawing.faces) - outer
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


def _route_greedy(
    drawing: Drawing, pool: Dict[int, Tuple[int, int]], side: Optional[str]
) -> List[int]:
    """Route chords shortest-first until none fits; returns routed edge ids.

    Each pass routes in the faces tagged `side` as they are at that pass,
    or in every face when side is None.  Each round inserts the route of
    the chord with the fewest route faces, the lowest edge id on a tie:
    what querying every pending chord afresh would pick.  Most of those
    queries are spared by one lemma.  An insertion changes only its route
    faces: each splits into two halves that keep its tag and whose ids are
    above every older id, and only the segment between them is banned.
    Unless one of those faces has a neighbour on two or more of its
    segments, two faces that share a single segment afterwards have
    parents that did, or are one face's halves, joined only by the banned
    segment; so every later route maps face by face onto an older route
    walk of the same length.  Then no chord's shortest route gets
    shorter, a chord with no route still has none, and a route that
    avoids the split faces is still the one a fresh query returns: no
    route is shorter, and one through a new face sorts after it at the
    first new face.  So three things are kept.

    - Each chord's route, until an insertion splits one of its faces.  A
      round starts from the best kept route and queries, without a bound,
      each chord with none; a route longer than the best is kept but does
      not become the best.
    - Each route's length, as the chord's floor.  A chord is not queried
      while its floor rules out beating the best: at least its length, or
      one more when the chord's id is lower.
    - The flood of each query that found no route: every face its target
      faces reach over usable links, a closed union of components.  A
      chord whose target faces all lie in one kept flood that holds none
      of its source faces has no route, nor has one with the two sides
      swapped, and is not queried.  A flood is kept until an insertion
      splits one of its faces: no new link leaves it, since a new link
      from one of its faces would map onto an old link to a split face,
      which the closed flood would then hold.

    An insertion whose route face has a neighbour on two segments may
    open a link no older route walk has, so it clears all three.
    """
    done: List[int] = []
    pending = sorted(pool)
    routes: Dict[int, List[int]] = {}  # edge id -> its kept route
    floors: Dict[int, int] = {}  # edge id -> no route has fewer faces
    floods: List[Set[int]] = []  # the faces of each failed query
    # an insertion replaces its route faces by halves that keep their tag
    faces = None if side is None else {fid for fid, s in drawing.side.items() if s == side}
    while True:
        best = min(((len(r), eid) for eid, r in routes.items()), default=None)
        for eid in pending:
            if eid in routes:
                continue  # the best route, or no better than it
            # with no floor, all that is known is that a route has a face
            if best is not None and floors.get(eid, 1) >= best[0] + (eid < best[1]):
                continue
            u, v = pool[eid]
            if floods:
                sources, targets = drawing.faces_at(u, faces), drawing.faces_at(v, faces)
                if any(
                    (targets <= f and f.isdisjoint(sources))
                    or (sources <= f and f.isdisjoint(targets))
                    for f in floods
                ):
                    continue
            seen: Set[int] = set()
            r = shortest_route(drawing, u, v, faces, seen)
            if r is None:
                # seen holds the flood and the faces at u, which it never reached
                floods.append(seen - drawing.faces_at(u, faces))
                continue
            routes[eid] = r
            floors[eid] = len(r)
            if best is None or (len(r), eid) < best:
                best = (len(r), eid)
        if best is None:
            return done
        eid = best[1]
        r = routes.pop(eid)
        doubled = any(len(nbs) > len(set(nbs)) for nbs in map(drawing.neighbours, r))
        first = drawing.next_cycle_id
        insert_connection(drawing, *pool[eid], r)
        if faces is not None:
            faces.difference_update(r)
            faces.update(range(first, drawing.next_cycle_id))
        done.append(eid)
        pending.remove(eid)
        if doubled:
            routes, floors, floods = {}, {}, []
        else:
            split = set(r)
            routes = {k: q for k, q in routes.items() if split.isdisjoint(q)}
            floods = [f for f in floods if f.isdisjoint(split)]


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

# Each strategy's routing passes per unplanned layer.  A side pass routes, in
# that side's faces, the chords that do not cross on the expanded ring; the
# None pass routes every remaining chord in any face.
_PASSES = {"thickness": ("inner", "outer", None), "inner-only": ("inner",)}

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
    a route log replayed for the layers it lists (see _replay_layer).  A
    pinned ring is checked on every input; an unpinned one is searched for
    only when layer 2 opens, so a planar input is one ringless layer.
    """
    if strategy not in _PASSES:
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
    ring = pin.get("hamiltonian")
    if ring is not None:  # checked even when no second layer opens
        ring = hamiltonian_rim(sys_, g, ring)
    drawing = Drawing.from_system(g, sys_)

    planar = {edge_between(g, *s) for s in sys_.segments()}
    chords = {eid: uv for eid, uv in g.edges.items() if eid not in planar}
    layers = [Layer(1, realized=sorted(planar), system=sys_)]
    remaining = dict(chords)

    # pinned route logs record thickness-style schedules; the inner-only
    # strategy always schedules generically.  The log is copied, so the
    # caller's pin is left as it was.
    plan = pin.get("plan") or {}
    if type(plan.get("layers", [])) is not list:
        raise DecompositionError('malformed plan: expected {"layers": [[entry, ...], ...]}')
    planned = list(plan.get("layers", [])) if strategy == "thickness" else []
    while remaining:
        if len(layers) == _MAX_LAYERS:
            raise DecompositionError("layer budget exhausted")
        if len(layers) == 1:  # layer 2 opens on a drawing of layer 1 alone
            if ring is None:
                ring = hamiltonian_rim(sys_, g)
            split_regions(drawing, ring)
        drawing.clear_bans()
        if planned:
            routed = _replay_layer(drawing, planned.pop(0), remaining)
        else:
            routed = []
            basis = basis_from_ring(expanded_ring(drawing, ring))
            for side in _PASSES[strategy]:
                if not remaining:
                    break
                pool = {eid: remaining[eid] for eid in sorted(remaining)}
                if side is not None:
                    kept, _ = select_noncrossing(basis, pool)
                    pool = {eid: pool[eid] for eid in kept}
                for eid in _route_greedy(drawing, pool, side):
                    del remaining[eid]
                    routed.append(eid)
        if not routed:
            raise DecompositionError(f"no remaining chord is routable in layer {len(layers) + 1}")
        layers.append(Layer(len(layers) + 1, sorted(routed), drawing.snapshot(), list(ring)))
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
    "split_regions",
    "expanded_ring",
]
