"""Chord routing through the mixed cycle graph.

A chord that cannot be drawn without crossings is routed as a sequence of
conjugate faces; every conjugate edge crossed receives a fresh imaginary
vertex that subdivides it, and every face along the route splits in two.
The drawing is kept as a sphere: the faces of the current system plus the
rim face, each a simple oriented cycle, every edge on exactly two faces.

A Drawing numbers each segment when it is created and keeps its face
index in tables indexed by that id: two face slots per segment, each
face's segment ids aligned with its arcs, and a ban flag per segment.
`insert_connection` keeps them in step: `Drawing._split_face` splits
each route face in place, moving each of its segment slots to the half
that takes the segment over.  The drawing also caches each face's
conjugate links, sorted (face, segment id) pairs, unfiltered, in
`links`; splitting a face drops its entry and those of the faces
sharing a segment with it, once each, so an entry always equals a fresh
computation.  A
route query labels faces by distance in a list indexed by face id.  It
reads the cached lists in place, tests each link's ban flag as it
reaches it, and stops once the search has reached the nearest face
holding the source vertex, so it never builds the whole mixed cycle
graph.  It neither copies the ban flags nor flags the segments at the
chord's ends: a link over such a segment could never change its answer
(see `shortest_route`).  Code outside this module reads the tables only
through Drawing's methods.

`shortest_route` can report in `seen` every face whose links it read,
with the faces holding the chord's endpoints.  Its answer depends on
nothing else, so a caller that routes many chords keeps a route until an
insertion removes, or changes a neighbour of, one of those faces.  Given
a `limit`, the search stops before it reads the links of any face at
distance limit - 2 from the target side, and answers None when no route
has fewer than `limit` faces; `layering._route_greedy` asks each chord
only for a route that beats the best one of its round.  An unbounded
search that finds no route has read a closed union of components of the
usable links.  `_route_greedy` keeps that flood as one set and answers a
later chord with no search when all its target faces lie in one kept
flood that holds none of its source faces, or the same with the sides
swapped.

Each subdivided graph edge and each realized chord is recovered from the
segments that carry it by `carrier_path`, which walks them with
`cycles.walk`.  The drawing keeps those segments grouped by carrier in
`carried`, so a walk never scans the whole carrier table.
"""

from __future__ import annotations

from bisect import bisect_left
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
    # Built from the faces, each of whose segments must be a graph edge,
    # so no face vertex is above g.n: each segment's carrier, its edge;
    # the side tags ("inner" / "outer") `split_regions` writes; the
    # imaginary vertices `insert_connection` adds; and the next free
    # vertex id, above g.n.
    carrier: Dict[Segment, Carrier] = field(init=False)
    side: Dict[int, str] = field(init=False)
    imaginary: Dict[int, dict] = field(init=False)
    next_vertex_id: int = field(init=False)
    # Segment ids, given once when a segment is created and never reused:
    # `seg_id` maps each live segment to its id, `seg_ends[sid]` is the
    # segment, and `seg_faces[2*sid : 2*sid + 2]` holds the ids of the at
    # most two faces on it, -1 for an empty slot.  `banned[sid]` flags a
    # segment no route may cross.
    seg_id: Dict[Segment, int] = field(init=False, repr=False, compare=False)
    seg_ends: List[Segment] = field(init=False, repr=False, compare=False)
    seg_faces: List[int] = field(init=False, repr=False, compare=False)
    banned: bytearray = field(init=False, repr=False, compare=False)
    # Indexed by face id: the face's segment ids, aligned with its arcs,
    # or None for a face no longer drawn.
    face_segs: List[Optional[List[int]]] = field(init=False, repr=False, compare=False)
    # Face ids at each vertex.  insert_connection, the only code that
    # changes faces, keeps this and the tables above in step through
    # _split_face.
    vertex_faces: Dict[int, Set[int]] = field(init=False, repr=False, compare=False)
    # Indexed by face id: the face's conjugate links as sorted (face,
    # segment id) pairs, unfiltered, or None until _cached_links fills
    # it.  An entry depends only on the face and the faces sharing its
    # segments, so _split_face drops the entries of those faces.
    links: List[Optional[List[Tuple[int, int]]]] = field(init=False, repr=False, compare=False)
    # The segments each carrier key holds: `carrier` inverted, kept in
    # step by _carry and _uncarry.
    carried: Dict[Carrier, Set[Segment]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.carrier = {}
        self.side = {}
        self.imaginary = {}
        self.next_vertex_id = self.g.n + 1
        self.seg_id = {}
        self.seg_ends = []
        self.seg_faces = []
        self.banned = bytearray()
        self.face_segs = [None] * (max(self.faces, default=-1) + 1)
        self.links = list(self.face_segs)
        self.vertex_faces = {}
        self.carried = {}
        sf = self.seg_faces
        for c in self.faces.values():
            sids = []
            for a, b in c.arcs:
                sid = self.seg_id.get(seg(a, b))
                if sid is None:
                    sid = self._new_segment(a, b)
                    x, y = self.seg_ends[sid]
                    eid = edge_between(self.g, x, y)
                    if eid is None:
                        raise RoutingError(f"drawing edge ({x},{y}) is not a graph edge")
                    key = ("edge", eid)
                    self.carrier[x, y] = key
                    self.carried[key] = {(x, y)}
                k = 2 * sid if sf[2 * sid] < 0 else 2 * sid + 1
                if sf[k] >= 0:
                    x, y = self.seg_ends[sid]
                    raise RoutingError(f"segment ({x},{y}) would lie on three faces")
                sf[k] = c.id
                sids.append(sid)
                self.vertex_faces.setdefault(a, set()).add(c.id)
            self.face_segs[c.id] = sids

    @property
    def next_cycle_id(self) -> int:
        """The next free face id, above every face id ever drawn."""
        return len(self.face_segs)

    def _new_segment(self, a: int, b: int) -> int:
        s = seg(a, b)
        sid = len(self.seg_ends)
        self.seg_id[s] = sid
        self.seg_ends.append(s)
        self.seg_faces += (-1, -1)
        self.banned.append(0)
        return sid

    def _split_face(
        self,
        fid: int,
        entry: int,
        exit_: int,
        cuts: Dict[int, Tuple[int, int, int]],
        key: Carrier,
    ) -> None:
        """Split face fid in two by a new segment from entry to exit_.

        `cuts` maps each segment id a new vertex w subdivides to (w, lo,
        hi), lo and hi running from its smaller and its larger end to w;
        entry and exit_ are vertices of the face or such new vertices.
        One pass over the face's arcs subdivides its cut segments, empties
        their slots, finds entry and exit_, and drops the cached links of
        fid and of each face sharing a segment with it, the only ones a
        split changes.  A second moves each arc's slot and its tail's
        `vertex_faces` entry to its half: the next face id runs from entry
        to exit_, the one after back.  Both halves keep fid's side tag,
        fid stops being the rim, and the new segment is carried by `key`
        and banned.
        """
        c = self.faces.pop(fid)
        sf, links, vf = self.seg_faces, self.links, self.vertex_faces
        arcs: List[Tuple[int, int]] = []
        sids: List[int] = []
        i = j = 0
        for (a, b), sid in zip(c.arcs, self.face_segs[fid]):
            k = 2 * sid
            for other in sf[k], sf[k + 1]:
                if other >= 0:
                    links[other] = None
            if a == entry:
                i = len(arcs)
            elif a == exit_:
                j = len(arcs)
            cut = cuts.get(sid)
            if cut is None:
                arcs.append((a, b))
                sids.append(sid)
                continue
            w, lo, hi = cut
            sf[k] = sf[k + 1] = -1
            if w == entry:
                i = len(arcs) + 1
            elif w == exit_:
                j = len(arcs) + 1
            if w not in vf:
                vf[w] = set()
            arcs += (a, w), (w, b)
            sids += (lo, hi) if a < b else (hi, lo)
        self.face_segs[fid] = None
        # from entry round to it again: the first j arcs run to exit_
        arcs, sids, j = arcs[i:] + arcs[:i], sids[i:] + sids[:i], (j - i) % len(arcs)
        a_id = self.next_cycle_id
        b_id = a_id + 1
        self.face_segs += None, None
        links += None, None
        for half, part in (a_id, range(j)), (b_id, range(j, len(arcs))):
            for x in part:
                # a kept segment's slot holds fid; a new one fills its first free slot
                k = 2 * sids[x]
                if sf[k] != fid and sf[k] >= 0:
                    k += 1
                sf[k] = half
                here = vf[arcs[x][0]]
                here.discard(fid)
                here.add(half)
        vf[entry].add(b_id)
        vf[exit_].add(a_id)
        conn = self._new_segment(entry, exit_)
        sf[2 * conn] = a_id
        sf[2 * conn + 1] = b_id
        self.face_segs[a_id] = sids[:j] + [conn]
        self.face_segs[b_id] = [conn] + sids[j:]
        self.faces[a_id] = Cycle(a_id, tuple(arcs[:j]) + ((exit_, entry),))
        self.faces[b_id] = Cycle(b_id, ((entry, exit_),) + tuple(arcs[j:]))
        tag = self.side.pop(fid, None)
        if tag is not None:
            self.side[a_id] = self.side[b_id] = tag
        if self.rim_id == fid:
            self.rim_id = None
        self._carry(self.seg_ends[conn], key)
        self.banned[conn] = 1

    def faces_at(self, v: int, ids: Optional[Set[int]] = None) -> Set[int]:
        """Ids of the faces holding vertex v, only those in `ids` when given."""
        here = self.vertex_faces.get(v, set())
        return set(here) if ids is None else here & ids

    def neighbours(self, fid: int, cut: Set[Segment] = frozenset()) -> List[int]:
        """The faces across each segment of face fid that is not in `cut`."""
        sf, ends = self.seg_faces, self.seg_ends
        out = []
        for sid in self.face_segs[fid]:
            if ends[sid] not in cut:
                a = sf[2 * sid]
                other = sf[2 * sid + 1] if a == fid else a
                if other >= 0:
                    out.append(other)
        return out

    def _faces_on(self, s: Segment) -> List[int]:
        """Sorted ids of the faces on segment s."""
        sid = self.seg_id.get(s)
        if sid is None:
            return []
        return sorted(f for f in self.seg_faces[2 * sid : 2 * sid + 2] if f >= 0)

    def _conjugate(self, a: int, b: int) -> int:
        """The id of the single segment that faces a and b share."""
        sf = self.seg_faces
        shared = [sid for sid in self.face_segs[a] if b in (sf[2 * sid], sf[2 * sid + 1])]
        if len(shared) != 1:
            raise RoutingError(f"c{a} and c{b} share {len(shared)} edges, not conjugate")
        return shared[0]

    def clear_bans(self) -> None:
        """Let routes cross every segment again, as a new layer starts."""
        self.banned = bytearray(len(self.seg_ends))

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
        return cls(g=g, faces=faces, rim_id=rim_id)

    def snapshot(self) -> CycleSystem:
        faces = dict(self.faces)
        rim = faces.pop(self.rim_id) if self.rim_id is not None else None
        return CycleSystem(n=self.g.n, cycles=faces, rim=rim)


@dataclass
class MixedCycleGraph:
    """Cycle nodes joined by unbanned conjugate edges, plus vertex incidences."""

    links: Dict[int, List[Tuple[int, Segment]]]
    vertex_faces: Dict[int, List[int]]


def _cached_links(drawing: Drawing, fid: int) -> List[Tuple[int, int]]:
    """Sorted (face, segment id) for each face conjugate to face fid.

    A segment counts when two faces hold it and the other face occurs on
    no other segment of fid: the two faces share that segment alone.  The
    list is the drawing's cached one, unfiltered: callers test each link
    themselves and must not change it.
    """
    links = drawing.links[fid]
    if links is None:
        sf = drawing.seg_faces
        across = [
            (sf[2 * sid + 1] if sf[2 * sid] == fid else sf[2 * sid], sid)
            for sid in drawing.face_segs[fid]
        ]
        across.sort()
        # sorted, a face's pairs are adjacent: keep a pair while its face
        # is new, drop it when the next pair repeats the face.  Empty
        # slots (-1) sort first, and start as the face already seen.
        links = []
        last = -1
        for p in across:
            if p[0] != last:
                links.append(p)
                last = p[0]
            elif links and links[-1][0] == last:
                links.pop()
        drawing.links[fid] = links
    return links


def build_mixed_cycle_graph(
    drawing: Drawing,
    face_ids: Optional[Set[int]] = None,
    avoid_vertices: Sequence[int] = (),
) -> MixedCycleGraph:
    """The whole mixed cycle graph over face_ids (every face when None).

    `shortest_route` reads the same links face by face instead.
    """
    ids = set(drawing.faces) if face_ids is None else set(face_ids)
    avoid = set(avoid_vertices)
    banned, ends = drawing.banned, drawing.seg_ends
    links = {
        fid: [
            (nb, ends[sid])
            for nb, sid in _cached_links(drawing, fid)
            if nb in ids and not banned[sid] and avoid.isdisjoint(ends[sid])
        ]
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
    limit: Optional[int] = None,
) -> Optional[List[int]]:
    """Fewest faces from a face holding s to a face holding t.

    Conjugate links over banned edges or edges touching s/t are unusable.
    Ties resolve to the lexicographically smallest face-id sequence.
    Returns None when the chord cannot be routed in the given face set,
    or, with a `limit`, when no route has fewer than `limit` faces: then
    the search stops before it reads the links of any face at distance
    limit - 2 from t, since every face nearer has been labelled and none
    holds s.  A route it returns is the one an unbounded search returns.
    face_ids is only read.  When given, `seen` receives the counted faces
    holding s or t and every face whose links the search read: the answer
    depends on these alone.
    """
    if s == t:
        raise RoutingError("degenerate chord")
    if seg(s, t) in drawing.carrier:
        raise RoutingError(f"({s},{t}) is already an edge of the drawing")
    ids = face_ids if face_ids is None or isinstance(face_ids, set) else set(face_ids)
    sources = drawing.faces_at(s, ids)
    targets = drawing.faces_at(t, ids)
    if seen is None:
        seen = set()
    seen |= sources
    seen |= targets
    if not sources or not targets or (limit is not None and limit < 2):
        return None
    banned, cache = drawing.banned, drawing.links

    # Backward BFS from the target faces, then a greedy lex-smallest
    # forward walk.  The walk reads distances up to that of the nearest
    # source face only, so the search stops once that level is complete,
    # or at the `horizon` a bounded search may not read.
    # A link over an edge at s or t joins two faces that both hold that
    # vertex.  At t both are targets, at distance 0 from the start, so
    # neither search step crosses it.  At s both are sources: the BFS
    # stops before it reads a source's links, and the walk starts at a
    # source and steps only to faces nearer t, none of them a source.
    # So testing the ban flag is enough.
    level = 0 if sources & targets else None
    horizon = None if limit is None else limit - 2
    dist = [-1] * drawing.next_cycle_id
    q = sorted(targets)
    for fid in q:
        dist[fid] = 0
    for fid in q:
        d = dist[fid]
        if d == level or d == horizon:
            break
        links = cache[fid]
        if links is None:
            links = _cached_links(drawing, fid)
        for nb, sid in links:
            if dist[nb] < 0 and not banned[sid] and (ids is None or nb in ids):
                dist[nb] = d + 1
                q.append(nb)
                if level is None and nb in sources:
                    level = d + 1
    # q runs in order of distance; the faces before the first one at the
    # distance the search stopped at had their links read
    stop = horizon if level is None else level
    seen.update(q if stop is None else q[: bisect_left(q, stop, key=dist.__getitem__)])
    if level is None:
        return None
    cur = min(fid for fid in sources if dist[fid] == level)
    route = [cur]
    while dist[cur] > 0:
        d = dist[cur] - 1
        seen.add(cur)
        # the links are sorted by face id, so the first fit is the smallest
        cur = next(
            nb
            for nb, sid in _cached_links(drawing, cur)
            if dist[nb] == d and not banned[sid] and (ids is None or nb in ids)
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
        who = drawing._faces_on(seg(a, b))
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
    degree 4 that subdivides it.  Then each route face splits into two at
    its entry/exit pair (`Drawing._split_face`), which also subdivides
    its crossed edges and drops each neighbour's cached links once.
    Those halves, which keep the split face's side tag, are the only
    faces it issues ids to.
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
    faces = drawing.faces
    missing = [fid for fid in route if fid not in faces]
    if missing:
        raise RoutingError(f"route face c{missing[0]} is not in the drawing")
    if s not in faces[route[0]].vertices:
        raise RoutingError(f"v{s} is not on the first route face c{route[0]}")
    if t not in faces[route[-1]].vertices:
        raise RoutingError(f"v{t} is not on the last route face c{route[-1]}")
    conjs = [drawing._conjugate(a, b) for a, b in zip(route, route[1:])]
    ends = drawing.seg_ends
    for sid in conjs:
        cs = ends[sid]
        if drawing.banned[sid]:
            raise RoutingError(f"conjugate edge ({cs[0]},{cs[1]}) is banned")
        if s in cs or t in cs:
            raise RoutingError("degenerate crossing")

    chord_key = seg(s, t)
    ws = []
    cuts: Dict[int, Tuple[int, int, int]] = {}
    for sid in conjs:
        x, y = cs = ends[sid]
        w = drawing.next_vertex_id
        drawing.next_vertex_id += 1
        ws.append(w)
        drawing.imaginary[w] = {
            "host": cs,
            "carrier": drawing.carrier[cs],
            "chord": chord_key,
        }
        lo, hi = drawing._new_segment(x, w), drawing._new_segment(w, y)
        cuts[sid] = (w, lo, hi)
        ck = drawing._uncarry(cs)
        drawing._carry(ends[lo], ck)
        drawing._carry(ends[hi], ck)
        # its two faces empty its slots as they split
        del drawing.seg_id[cs]
    for k, fid in enumerate(route):
        entry = s if k == 0 else ws[k - 1]
        exit_ = ws[k] if k < len(ws) else t
        if entry == exit_:
            raise RoutingError("degenerate crossing")
        drawing._split_face(fid, entry, exit_, cuts, ("conn", chord_key))
    return InsertionRecord(chord=(s, t), route=route, imaginary_ids=ws)


def carrier_path(
    drawing: Drawing, key: Carrier, ends: Tuple[int, int]
) -> Optional[List[int]]:
    """Vertices along the segments carried by key, from ends[0] to ends[1].

    None when those segments do not form that one path.
    """
    return walk(drawing.carried.get(key, ()), *ends)


def imaginary_sequence(drawing: Drawing, chord: Tuple[int, int]) -> List[int]:
    """Imaginary vertices crossed by the realized chord, ordered from its
    smaller endpoint.

    Includes crossings inserted by later layers, since subdivided
    connection arcs inherit the chord as their carrier.
    """
    key = seg(*chord)
    path = carrier_path(drawing, ("conn", key), key)
    if path is None:
        raise RoutingError(f"connection of ({key[0]},{key[1]}) is not a path")
    return path[1:-1]


__all__ = [
    "Drawing",
    "MixedCycleGraph",
    "InsertionRecord",
    "RoutingError",
    "build_mixed_cycle_graph",
    "shortest_route",
    "route_from_conjugates",
    "insert_connection",
    "carrier_path",
    "imaginary_sequence",
]
