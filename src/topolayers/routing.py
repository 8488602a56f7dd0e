"""Chord routing through the mixed cycle graph.

A chord that cannot be drawn without crossings is routed as a sequence of
conjugate faces; every conjugate edge crossed receives a fresh imaginary
vertex that subdivides it, and every face along the route splits in two.
The drawing is kept as a sphere: the faces of the current system plus the
rim face, each a simple oriented cycle, every edge on exactly two faces.

A Drawing indexes its faces by segment and by vertex, and
`insert_connection` keeps both indexes in step as faces split.  It also
caches each face's conjugate links, sorted and unfiltered, in `links`;
adding or removing a face drops the entries of every face that shares a
segment with it, so an entry always equals a fresh computation.  A route
query reads the cached lists in place and applies the filter during the
search: it tests each link against its face set, the ban set and the
chord's endpoints as it reaches that link, copies no list, and stops once
the search has reached the nearest face holding the source vertex, so it
never builds the whole mixed cycle graph.

`shortest_route` can report in `seen` every face whose links it read,
with the faces holding the chord's endpoints.  Its answer depends on
nothing else, so a caller that routes many chords keeps a route until an
insertion removes, or changes a neighbour of, one of those faces.

Each subdivided graph edge and each realized chord is recovered from the
segments that carry it by `carrier_path`, which walks them with
`cycles.walk`.  The drawing keeps those segments grouped by carrier in
`carried`, so a walk never scans the whole carrier table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cycles import Cycle, Segment, seg, walk
from .graphs import Graph, edge_between
from .planar import CycleSystem

Carrier = Tuple[str, object]  # ("edge", edge id) or ("conn", (u, v))


class RoutingError(ValueError):
    pass


@dataclass
class Drawing:
    g: Graph
    faces: Dict[int, Cycle]
    rim_id: Optional[int]  # id of the face playing the drawing rim, if intact
    carrier: Dict[Segment, Carrier]
    side: Dict[int, str] = field(default_factory=dict)  # "inner" / "outer"
    banned: Set[Segment] = field(default_factory=set)
    next_cycle_id: int = 0
    next_vertex_id: int = 0
    routed: List[Tuple[int, int]] = field(default_factory=list)
    imaginary: Dict[int, dict] = field(default_factory=dict)
    # Face ids on each segment and at each vertex.  Built from `faces`
    # here; insert_connection, the only code that changes faces, keeps
    # them in step through _add_face and _remove_face.
    segment_faces: Dict[Segment, Set[int]] = field(init=False, repr=False, compare=False)
    vertex_faces: Dict[int, Set[int]] = field(init=False, repr=False, compare=False)
    # Conjugate links of each face, sorted and unfiltered, filled on
    # demand by _cached_links.  An entry depends only on the face and
    # the faces sharing its segments, so _add_face and _remove_face drop
    # the entries of those faces.
    links: Dict[int, List[Tuple[int, Segment]]] = field(init=False, repr=False, compare=False)
    # The segments each carrier key holds: `carrier` inverted, kept in
    # step by _carry and _uncarry.
    carried: Dict[Carrier, Set[Segment]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.segment_faces = {}
        self.vertex_faces = {}
        self.links = {}
        self.carried = {}
        for fid, c in self.faces.items():
            self._index(fid, c)
        for s, key in self.carrier.items():
            self.carried.setdefault(key, set()).add(s)

    def _index(self, fid: int, c: Cycle) -> None:
        for s in c.segments:
            self.segment_faces.setdefault(s, set()).add(fid)
        for v in c.vertices:
            self.vertex_faces.setdefault(v, set()).add(fid)

    def _forget_links(self, c: Cycle) -> None:
        """Drop the cached links of c and of every face sharing a segment with it."""
        for s in c.segments:
            for fid in self.segment_faces[s]:
                self.links.pop(fid, None)

    def _add_face(self, c: Cycle) -> None:
        self.faces[c.id] = c
        self._index(c.id, c)
        self._forget_links(c)

    def _remove_face(self, fid: int) -> None:
        c = self.faces.pop(fid)
        self._forget_links(c)
        for index, keys in ((self.segment_faces, c.segments), (self.vertex_faces, c.vertices)):
            for key in keys:
                index[key].discard(fid)
                if not index[key]:
                    del index[key]

    def _carry(self, s: Segment, key: Carrier) -> None:
        self.carrier[s] = key
        self.carried.setdefault(key, set()).add(s)

    def _uncarry(self, s: Segment) -> Carrier:
        key = self.carrier.pop(s)
        self.carried[key].discard(s)
        return key

    @classmethod
    def from_system(cls, g: Graph, sys_: CycleSystem) -> "Drawing":
        faces = dict(sys_.cycles)
        rim_id = None
        if sys_.rim is not None:
            faces[sys_.rim.id] = sys_.rim
            rim_id = sys_.rim.id
        carrier: Dict[Segment, Carrier] = {}
        for c in faces.values():
            for a, b in c.arcs:
                s = seg(a, b)
                eid = edge_between(g, *s)
                if eid is None:
                    raise RoutingError(f"drawing edge ({s[0]},{s[1]}) is not a graph edge")
                carrier[s] = ("edge", eid)
        return cls(
            g=g,
            faces=faces,
            rim_id=rim_id,
            carrier=carrier,
            next_cycle_id=max(faces) + 1,
            next_vertex_id=g.n + 1,
        )

    def snapshot(self) -> CycleSystem:
        faces = dict(self.faces)
        rim = faces.pop(self.rim_id) if self.rim_id is not None else None
        return CycleSystem(n=self.g.n, cycles=faces, rim=rim)


def conjugate_edge(c1: Cycle, c2: Cycle) -> Segment:
    """The single shared edge of two conjugate cycles."""
    shared = c1.segments & c2.segments
    if len(shared) != 1:
        raise RoutingError(
            f"c{c1.id} and c{c2.id} share {len(shared)} edges, not conjugate"
        )
    return next(iter(shared))


@dataclass
class MixedCycleGraph:
    """Cycle nodes joined by unbanned conjugate edges, plus vertex incidences."""

    links: Dict[int, List[Tuple[int, Segment]]]
    vertex_faces: Dict[int, List[int]]


def _cached_links(drawing: Drawing, fid: int) -> List[Tuple[int, Segment]]:
    """Sorted (face, shared edge) for each face conjugate to face fid.

    An edge counts when exactly two faces hold it and it is the only edge
    the two faces share.  The list is the drawing's cached one, unfiltered:
    callers test each link with `_usable` and must not change it.
    """
    links = drawing.links.get(fid)
    if links is None:
        face = drawing.faces[fid]
        links = []
        for s in face.segments:
            who = drawing.segment_faces[s]
            if len(who) != 2:
                continue
            a, b = who
            nb = a if b == fid else b
            if len(face.segments & drawing.faces[nb].segments) == 1:
                links.append((nb, s))
        links.sort()
        drawing.links[fid] = links
    return links


def _usable(
    nb: int,
    s: Segment,
    face_ids: Optional[Set[int]],
    banned: Set[Segment],
    avoid: Tuple[int, ...],
) -> bool:
    """A cached link to face nb over edge s may be crossed.

    Only faces in face_ids count (every face when None), and the edge must
    be unbanned and touch no vertex in `avoid`.  The face the link leaves
    is in face_ids already: every drawing edge lies on exactly two faces,
    so only the other face needs the test.
    """
    return (
        (face_ids is None or nb in face_ids)
        and s not in banned
        and s[0] not in avoid
        and s[1] not in avoid
    )


def build_mixed_cycle_graph(
    drawing: Drawing,
    face_ids: Optional[Set[int]] = None,
    banned: Optional[Set[Segment]] = None,
    avoid_vertices: Sequence[int] = (),
) -> MixedCycleGraph:
    """The whole mixed cycle graph over face_ids (every face when None).

    `shortest_route` reads the same links face by face instead.
    """
    ids = set(drawing.faces) if face_ids is None else set(face_ids)
    if banned is None:
        banned = drawing.banned
    avoid = tuple(avoid_vertices)
    links = {
        fid: [(nb, s) for nb, s in _cached_links(drawing, fid) if _usable(nb, s, ids, banned, avoid)]
        for fid in ids
    }
    vertex_faces: Dict[int, List[int]] = {}
    for v, fids in drawing.vertex_faces.items():
        here = sorted(f for f in fids if f in ids)
        if here:
            vertex_faces[v] = here
    return MixedCycleGraph(links=links, vertex_faces=vertex_faces)


def shortest_route(
    drawing: Drawing,
    s: int,
    t: int,
    face_ids: Optional[Set[int]] = None,
    seen: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Fewest faces from a face holding s to a face holding t.

    Conjugate links over banned edges or edges touching s/t are unusable.
    Ties resolve to the lexicographically smallest face-id sequence.
    Returns None when the chord cannot be routed in the given face set.
    face_ids is only read.  When given, `seen` receives the counted faces
    holding s or t and every face whose links the search read: the answer
    depends on these alone.
    """
    if s == t:
        raise RoutingError("degenerate chord")
    if seg(s, t) in drawing.carrier:
        raise RoutingError(f"({s},{t}) is already an edge of the drawing")
    ids = face_ids if face_ids is None or isinstance(face_ids, set) else set(face_ids)
    sources = {f for f in drawing.vertex_faces.get(s, ()) if ids is None or f in ids}
    targets = {f for f in drawing.vertex_faces.get(t, ()) if ids is None or f in ids}
    if seen is None:
        seen = set()
    seen |= sources
    seen |= targets
    if not sources or not targets:
        return None
    banned = drawing.banned
    avoid = (s, t)

    # Backward BFS from the target faces, then a greedy lex-smallest
    # forward walk.  The walk reads distances up to that of the nearest
    # source face only, so the search stops once that level is complete.
    level = 0 if sources & targets else None
    dist = {fid: 0 for fid in targets}
    q = deque(sorted(targets))
    while q:
        fid = q.popleft()
        d = dist[fid]
        if level is not None and d >= level:
            break
        seen.add(fid)
        for nb, sg in _cached_links(drawing, fid):
            if nb not in dist and _usable(nb, sg, ids, banned, avoid):
                dist[nb] = d + 1
                q.append(nb)
                if level is None and nb in sources:
                    level = d + 1
    if level is None:
        return None
    cur = min(fid for fid in sources if dist.get(fid) == level)
    route = [cur]
    while dist[cur] > 0:
        d = dist[cur] - 1
        seen.add(cur)
        cur = min(
            nb
            for nb, sg in _cached_links(drawing, cur)
            if dist.get(nb) == d and _usable(nb, sg, ids, banned, avoid)
        )
        route.append(cur)
    return route


def route_from_conjugates(
    drawing: Drawing, s: int, t: int, conjugates: Sequence[Tuple[int, int]]
) -> List[int]:
    """The face route from s to t across the given conjugate edges, in order.

    A pinned route log stores each chord's route as this chain.  With no
    conjugate edge, the route is the one face holding both ends.
    """
    if not conjugates:
        both = sorted(
            drawing.vertex_faces.get(s, set()) & drawing.vertex_faces.get(t, set())
        )
        if len(both) != 1:
            raise RoutingError(
                f"pinned zero-crossing route for ({s},{t}) is ambiguous: {both}"
            )
        return both
    route: List[int] = []
    for a, b in conjugates:
        sg = seg(a, b)
        who = sorted(drawing.segment_faces.get(sg, ()))
        if len(who) != 2:
            raise RoutingError(f"pinned conjugate ({a},{b}) lies on {len(who)} faces")
        if not route:
            first = [f for f in who if s in drawing.faces[f].vertices]
            if len(first) != 1:
                raise RoutingError(
                    f"pinned route for ({s},{t}): cannot anchor at v{s}"
                )
            route.append(first[0])
        if route[-1] not in who:
            raise RoutingError(
                f"pinned route for ({s},{t}): conjugate ({a},{b}) does not "
                f"continue from c{route[-1]}"
            )
        route.append(who[0] if who[1] == route[-1] else who[1])
    if t not in drawing.faces[route[-1]].vertices:
        raise RoutingError(f"pinned route for ({s},{t}) does not reach v{t}")
    return route


@dataclass
class InsertionRecord:
    chord: Tuple[int, int]
    route: List[int]
    imaginary_ids: List[int]


def insert_connection(drawing: Drawing, s: int, t: int, route: Sequence[int]) -> InsertionRecord:
    """Realize chord (s,t) along a face route, splitting every route face.

    Each conjugate edge along the route gets a fresh imaginary vertex of
    degree 4; each route face splits into two at its entry/exit pair.
    """
    route = list(route)
    if not route:
        raise RoutingError("empty route")
    if s == t:
        raise RoutingError("degenerate chord")
    if seg(s, t) in drawing.carrier:
        raise RoutingError(f"({s},{t}) is already an edge of the drawing")
    if len(set(route)) != len(route):
        raise RoutingError("route revisits a face")
    if s not in drawing.faces[route[0]].vertices:
        raise RoutingError(f"v{s} is not on the first route face c{route[0]}")
    if t not in drawing.faces[route[-1]].vertices:
        raise RoutingError(f"v{t} is not on the last route face c{route[-1]}")
    conjs = [
        conjugate_edge(drawing.faces[a], drawing.faces[b])
        for a, b in zip(route, route[1:])
    ]
    for cs in conjs:
        if cs in drawing.banned:
            raise RoutingError(f"conjugate edge ({cs[0]},{cs[1]}) is banned")
        if s in cs or t in cs:
            raise RoutingError("degenerate crossing")

    chord_key = seg(s, t)
    ws = []
    for cs in conjs:
        w = drawing.next_vertex_id
        drawing.next_vertex_id += 1
        ws.append(w)
        drawing.imaginary[w] = {
            "host": cs,
            "carrier": drawing.carrier[cs],
            "chord": chord_key,
        }
    work = {fid: list(drawing.faces[fid].arcs) for fid in route}
    for i, cs in enumerate(conjs):
        w = ws[i]
        for fid in (route[i], route[i + 1]):
            arcs = work[fid]
            for k, (a, b) in enumerate(arcs):
                if seg(a, b) == cs:
                    arcs[k : k + 1] = [(a, w), (w, b)]
                    break
            else:
                raise RoutingError("conjugate edge missing from route face")
        ck = drawing._uncarry(cs)
        drawing._carry(seg(cs[0], w), ck)
        drawing._carry(seg(w, cs[1]), ck)
        drawing.banned.discard(cs)

    for k, fid in enumerate(route):
        entry = s if k == 0 else ws[k - 1]
        exit_ = ws[k] if k < len(ws) else t
        if entry == exit_:
            raise RoutingError("degenerate crossing")
        arcs = work[fid]
        verts = [a for a, _ in arcs]
        arcs = arcs[verts.index(entry):] + arcs[: verts.index(entry)]
        j = [a for a, _ in arcs].index(exit_)
        path1, path2 = arcs[:j], arcs[j:]
        a_id = drawing.next_cycle_id
        b_id = drawing.next_cycle_id + 1
        drawing.next_cycle_id += 2
        drawing._add_face(Cycle(a_id, tuple(path1) + ((exit_, entry),)))
        drawing._add_face(Cycle(b_id, ((entry, exit_),) + tuple(path2)))
        tag = drawing.side.get(fid)
        if tag is not None:
            drawing.side[a_id] = tag
            drawing.side[b_id] = tag
        drawing._remove_face(fid)
        drawing.side.pop(fid, None)
        if drawing.rim_id == fid:
            drawing.rim_id = None
        drawing._carry(seg(entry, exit_), ("conn", chord_key))
        drawing.banned.add(seg(entry, exit_))
    drawing.routed.append((s, t))
    return InsertionRecord(chord=(s, t), route=route, imaginary_ids=ws)


def carrier_path(
    drawing: Drawing, key: Carrier, ends: Tuple[int, int]
) -> Optional[List[int]]:
    """Vertices along the segments carried by key, from ends[0] to ends[1].

    None when those segments do not form that one path.
    """
    return walk(drawing.carried.get(key, ()), *ends)


def connection_path(drawing: Drawing, chord: Tuple[int, int]) -> List[int]:
    """Vertices along the realized chord from its smaller endpoint.

    Includes crossings inserted by later layers, since subdivided
    connection arcs inherit the chord as their carrier.
    """
    key = seg(*chord)
    path = carrier_path(drawing, ("conn", key), key)
    if path is None:
        raise RoutingError(f"connection of ({key[0]},{key[1]}) is not a path")
    return path


def imaginary_sequence(drawing: Drawing, chord: Tuple[int, int]) -> List[int]:
    """Imaginary vertices crossed by the chord, ordered from min(u,v)."""
    return connection_path(drawing, chord)[1:-1]


__all__ = [
    "Drawing",
    "MixedCycleGraph",
    "InsertionRecord",
    "RoutingError",
    "conjugate_edge",
    "build_mixed_cycle_graph",
    "shortest_route",
    "route_from_conjugates",
    "insert_connection",
    "carrier_path",
    "connection_path",
    "imaginary_sequence",
]
