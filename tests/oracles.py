"""Loop versions of chord selection, routing and segment walks, kept as
test references, and helpers the package no longer ships.

`project_chord_ref` projects a chord onto the shorter arc of labelled
ring edges, and `chords_cross_ref` decides a crossing by the proper
intersection of two projections: `projection` did both before it moved
to ring positions.  `crossing_counts` counts each chord's crossings pair
by pair, and `brute_force_max_noncrossing` finds a maximum non-crossing
chord subset exhaustively; both moved here from `projection`, where
nothing called them, and both decide crossings with `chords_cross_ref`.
These recompute everything on every query: `select_noncrossing_ref`
recounts all pairwise crossings after each removal, and
`shortest_route_ref` builds the whole mixed cycle graph from the face
dictionary and runs a full breadth-first search.  `boundary_ring_ref`
turns a region's segment set into its ring; the package no longer does
(`layering.split_regions` compares segment sets).  `connection_path_ref`
is the chord walk that `cycles.walk` replaced.
`route_greedy_ref` re-queries every pending chord after each insertion,
and `cached_links_count_ref` counts each pair's face among all of a
face's pairs, as the link cache did before it scanned them once.
`greedy_planar_subgraph_ref` runs a full planarity test for every edge,
and `hamiltonian_rim_ref` is the unpruned depth-first search that copies
its path at every step; it keeps the first ring that `_solve_gf2_subset`,
a GF(2) elimination over the system cycles, writes as a sum of them, and
returns that ring with its summands (inside) and the other cycles
(outside).  `hamiltonian_rim_recursive_ref` is the pruned search as it
recursed once per path vertex, before `planar.hamiltonian_rim` kept an
explicit stack.  `lr_rotation_ref` is the left-right planarity kernel
as it kept every per-edge quantity in dicts keyed by (tail, head)
tuples, before `planar._lr_rotation` moved to integer ids and to lists
indexed by vertex id; it still takes and returns dicts keyed by vertex,
so tests compare the two through `dict(enumerate(...))`, and it still
refuses a graph of more than 3k - 6 edges before its search.
`strip_imaginary_region_ref` finds the residual regions of a drawing's
faces free of imaginary vertices by union-find, and each region's ring
with `boundary_ring_ref`; the package's flood-fill version of it had no
caller and is gone.
`tutte_positions_ref` places a ringless layer 1's interior vertices by
the dense pivoting solve `render` ran before it eliminated vertices from
layer 1's graph; the two must agree to far below the SVG's 0.01 px.
`imaginary_positions_ref` relaxes every
connection-hosted crossing marker of the document, whichever layer is
drawn, on the paths of the shared carrier reader
(`document.carrier_paths`).  `shortest_route_copying_ref` copies a filtered list of each
face's links through `conjugate_links_ref` instead of testing the cached
links in place, and `serialize_ref` is the canonical document text as
`json.dumps` writes it.  `nonseparable_ref` is the input gate by brute
force: a cut vertex or bridge is one whose removal leaves more
components.  `isometric_cycles_ref` is the isometric-cycle pool as
networkx found it, before `cycles.enumerate_isometric_cycles` paired
shortest paths: every simple cycle up to length 2*diam+1, kept when all
its vertex pairs are as far apart in the graph as along it.  `verify_raw_ref` runs each per-layer verifier check the
way it was written before `verify.verify_raw` shared one segment table:
every check copies the arcs and walks them again, and face tracing
(`trace_faces_ref`, from every dart in sorted order) rotates each face
to its smallest arc before comparing.  `verify_document_ref` converts
every layer's arcs twice, looks for each of 1..n on layer 1's arcs in
turn, and its carrier and connection checks (`check_carrier_table_ref`,
`check_connections_ref`) walk the raw carrier rows themselves.
The package versions must return exactly what these return.
`check_connection_realization_ref` is the connection check as it was
before it read carrier paths: each sequence walked over the final
layer's segments, with the degree of each vertex on it.  The carrier-table
and imaginary-degree checks together must still reject every document
it rejects.
`graph_from_networkx` builds test inputs the way the benchmark corpus
does.  `TupleDrawing` is `routing.Drawing` as it indexed faces by
segment tuple, with dicts of sets and a set of banned segments;
`shortest_route_tuple_ref`, `insert_connection_tuple_ref` and
`conjugate_edge` are the search, insertion and shared-edge lookup that
ran on it, before the drawing moved to integer segment ids.  The other
references read a drawing's faces only, and rebuild its segment and
vertex indexes with `face_indexes`; `banned_segments` names the segments
its ban flags mark.
"""

from __future__ import annotations

import copy
import json
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from topolayers.cycles import Cycle, Segment, canonical_ring, ring_cycle, seg
from topolayers.document import _check_cycle_ids, carrier_paths
from topolayers.graphs import Graph, edge_between, parse_graph
from topolayers.layering import DecompositionError
from topolayers.planar import CycleSystem, PlanarizationError
from topolayers.projection import ProjectionError
from topolayers.render import RenderError
from topolayers.routing import Carrier, InsertionRecord, RoutingError, insert_connection
from topolayers.verify import (
    CheckResult,
    VerificationReport,
    check_edge_partition,
    check_graph_edges,
    check_layer_rings,
)


def project_chord_ref(
    ring: Sequence[int], chord: Tuple[int, int], g: Optional[Graph] = None
) -> frozenset:
    """Labels of the shorter ring arc between the chord's ends.

    Ring edge i, (ring[i], ring[i+1]), is labelled by its edge id in g
    when g is given and has it, else by -(i + 1).  Equal arcs tie-break
    to the lexicographically smaller sorted label list.
    """
    k = len(ring)
    labels = []
    for i in range(k):
        eid = edge_between(g, ring[i], ring[(i + 1) % k]) if g is not None else None
        labels.append(eid if eid is not None else -(i + 1))
    pos = {v: i for i, v in enumerate(ring)}
    u, v = chord
    if u not in pos or v not in pos:
        missing = u if u not in pos else v
        raise ProjectionError(f"chord endpoint v{missing} is not on the basis ring")
    if u == v:
        raise ProjectionError("degenerate chord")
    i, j = sorted((pos[u], pos[v]))
    arc1 = [labels[t] for t in range(i, j)]
    arc2 = [labels[t % k] for t in range(j, i + k)]
    if len(arc1) != len(arc2):
        pick = arc1 if len(arc1) < len(arc2) else arc2
    else:
        pick = arc1 if sorted(arc1) <= sorted(arc2) else arc2
    return frozenset(pick)


def chords_cross_ref(ring: Sequence[int], c1: Tuple[int, int], c2: Tuple[int, int]) -> bool:
    """The two chords' projections intersect properly: they meet, and
    neither contains the other."""
    p1, p2 = project_chord_ref(ring, c1), project_chord_ref(ring, c2)
    inter = p1 & p2
    return bool(inter) and inter != p1 and inter != p2


def crossing_counts(
    basis: Dict[int, int], chords: Dict[int, Tuple[int, int]]
) -> Dict[int, int]:
    """Number of crossings per chord (keyed like the input)."""
    counts = {cid: 0 for cid in chords}
    for a, b in combinations(sorted(chords), 2):
        if chords_cross_ref(list(basis), chords[a], chords[b]):
            counts[a] += 1
            counts[b] += 1
    return counts


def brute_force_max_noncrossing(
    basis: Dict[int, int], chords: Dict[int, Tuple[int, int]]
) -> List[int]:
    """Exhaustive maximum non-crossing subset (reference oracle, <= 20 chords).

    Among maximum subsets, the lexicographically smallest sorted id list
    wins.
    """
    ids = sorted(chords)
    if len(ids) > 20:
        raise ProjectionError("brute force limited to 20 chords")
    conflict = {
        cid: {
            oid
            for oid in ids
            if oid != cid and chords_cross_ref(list(basis), chords[cid], chords[oid])
        }
        for cid in ids
    }
    best: List[int] = []

    def grow(i: int, cur: List[int], banned: set) -> None:
        nonlocal best
        if len(cur) + (len(ids) - i) < len(best):
            return
        if i == len(ids):
            if len(cur) > len(best) or (len(cur) == len(best) and cur < best):
                best = list(cur)
            return
        cid = ids[i]
        if cid not in banned:
            grow(i + 1, cur + [cid], banned | conflict[cid])
        grow(i + 1, cur, banned)

    grow(0, [], set())
    return best


def select_noncrossing_ref(basis, chords: Dict[int, Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    alive = dict(chords)
    removed: List[int] = []
    while True:
        counts = crossing_counts(basis, alive)
        worst = max(counts.values(), default=0)
        if worst == 0:
            break
        victim = min(
            (cid for cid in alive if counts[cid] == worst),
            key=lambda cid: (-len(project_chord_ref(list(basis), alive[cid])), cid),
        )
        removed.append(victim)
        del alive[victim]
    return sorted(alive), removed


def mixed_cycle_graph_ref(
    drawing,
    face_ids: Optional[Set[int]] = None,
    banned: Optional[Set[Segment]] = None,
    avoid_vertices: Sequence[int] = (),
):
    """(links, vertex_faces) built from the face dictionary alone."""
    if face_ids is None:
        face_ids = set(drawing.faces)
    if banned is None:
        banned = banned_segments(drawing)
    avoid = set(avoid_vertices)
    by_seg: Dict[Segment, List[int]] = {}
    for fid in sorted(face_ids):
        for s in drawing.faces[fid].segments:
            by_seg.setdefault(s, []).append(fid)
    links: Dict[int, List[Tuple[int, Segment]]] = {fid: [] for fid in face_ids}
    for s, who in by_seg.items():
        if len(who) != 2 or s in banned or s[0] in avoid or s[1] in avoid:
            continue
        a, b = who
        if len(drawing.faces[a].segments & drawing.faces[b].segments) != 1:
            continue
        links[a].append((b, s))
        links[b].append((a, s))
    for fid in links:
        links[fid].sort()
    vertex_faces: Dict[int, List[int]] = {}
    for fid in sorted(face_ids):
        for v in drawing.faces[fid].vertices:
            vertex_faces.setdefault(v, []).append(fid)
    return links, vertex_faces


def shortest_route_ref(drawing, s: int, t: int, face_ids: Optional[Set[int]] = None) -> Optional[List[int]]:
    if s == t:
        raise RoutingError("degenerate chord")
    if seg(s, t) in drawing.carrier:
        raise RoutingError(f"({s},{t}) is already an edge of the drawing")
    links, vertex_faces = mixed_cycle_graph_ref(drawing, face_ids, avoid_vertices=(s, t))
    sources = vertex_faces.get(s, [])
    targets = set(vertex_faces.get(t, []))
    if not sources or not targets:
        return None
    dist = {fid: 0 for fid in targets}
    q = deque(sorted(targets))
    while q:
        fid = q.popleft()
        for nb, _ in links[fid]:
            if nb not in dist:
                dist[nb] = dist[fid] + 1
                q.append(nb)
    reachable = [fid for fid in sources if fid in dist]
    if not reachable:
        return None
    best = min(dist[fid] for fid in reachable)
    cur = min(fid for fid in reachable if dist[fid] == best)
    route = [cur]
    while dist[cur] > 0:
        cur = min(nb for nb, _ in links[cur] if dist.get(nb) == dist[cur] - 1)
        route.append(cur)
    return route


def conjugate_links_ref(
    drawing,
    by_seg: Dict[Segment, Set[int]],
    fid: int,
    face_ids: Optional[Set[int]],
    banned: Set[Segment],
    avoid: Sequence[int],
) -> List[Tuple[int, Segment]]:
    """A fresh filtered list of face fid's sorted conjugate links, as
    routing built one for every face a query read before it filtered the
    cached lists in place.  `by_seg` is `face_indexes(drawing)[0]`; the
    drawing's own tables and link cache are left alone."""
    face = drawing.faces[fid]
    links = []
    for s in face.segments:
        who = by_seg[s]
        if len(who) != 2:
            continue
        a, b = who
        nb = a if b == fid else b
        if len(face.segments & drawing.faces[nb].segments) == 1:
            links.append((nb, s))
    links.sort()
    return [
        (nb, s)
        for nb, s in links
        if (face_ids is None or nb in face_ids)
        and s not in banned
        and s[0] not in avoid
        and s[1] not in avoid
    ]


def cached_links_count_ref(drawing, fid: int) -> List[Tuple[int, int]]:
    """Face fid's sorted (face, segment id) links as `routing._cached_links`
    built them before its one scan: a pair is kept when `list.count`
    finds its face once among all the pairs.  The cache is left alone."""
    sf = drawing.seg_faces
    across = sorted(
        (sf[2 * sid + 1] if sf[2 * sid] == fid else sf[2 * sid], sid)
        for sid in drawing.face_segs[fid]
    )
    nbs = [nb for nb, _ in across]
    return [p for p in across if p[0] >= 0 and nbs.count(p[0]) == 1]


def shortest_route_copying_ref(
    drawing,
    s: int,
    t: int,
    face_ids: Optional[Set[int]] = None,
    seen: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """`shortest_route` as it was when each face's links were copied
    through `conjugate_links_ref`, with the same early stop and `seen`."""
    if s == t:
        raise RoutingError("degenerate chord")
    if seg(s, t) in drawing.carrier:
        raise RoutingError(f"({s},{t}) is already an edge of the drawing")
    ids = None if face_ids is None else set(face_ids)
    by_seg, by_vertex = face_indexes(drawing)
    banned = banned_segments(drawing)
    sources = {f for f in by_vertex.get(s, ()) if ids is None or f in ids}
    targets = {f for f in by_vertex.get(t, ()) if ids is None or f in ids}
    if seen is None:
        seen = set()
    seen |= sources
    seen |= targets
    if not sources or not targets:
        return None
    links: Dict[int, List[Tuple[int, Segment]]] = {}

    def links_of(fid: int) -> List[Tuple[int, Segment]]:
        if fid not in links:
            links[fid] = conjugate_links_ref(drawing, by_seg, fid, ids, banned, (s, t))
            seen.add(fid)
        return links[fid]

    level = 0 if sources & targets else None
    dist = {fid: 0 for fid in targets}
    q = deque(sorted(targets))
    while q:
        fid = q.popleft()
        if level is not None and dist[fid] >= level:
            break
        for nb, _ in links_of(fid):
            if nb not in dist:
                dist[nb] = dist[fid] + 1
                q.append(nb)
                if level is None and nb in sources:
                    level = dist[nb]
    if level is None:
        return None
    cur = min(fid for fid in sources if dist.get(fid) == level)
    route = [cur]
    while dist[cur] > 0:
        cur = min(nb for nb, _ in links_of(cur) if dist.get(nb) == dist[cur] - 1)
        route.append(cur)
    return route


def route_greedy_ref(drawing, pool: Dict[int, Tuple[int, int]], side: Optional[str]) -> List[int]:
    """Shortest-first routing with no memo: every round re-queries every
    pending chord, each query on the whole mixed cycle graph, and inserts
    the route of the smallest (length, edge id)."""
    done: List[int] = []
    while True:
        best = None
        faces = None if side is None else {f for f, t in drawing.side.items() if t == side}
        for eid in sorted(set(pool) - set(done)):
            u, v = pool[eid]
            r = shortest_route_ref(drawing, u, v, faces)
            if r is not None and (best is None or len(r) < len(best[2])):
                best = (eid, (u, v), r)
        if best is None:
            return done
        eid, (u, v), r = best
        insert_connection(drawing, u, v, r)
        done.append(eid)


def banned_segments(drawing) -> Set[Segment]:
    """The segments a drawing's ban flags mark, by their ends."""
    return {drawing.seg_ends[sid] for sid, flag in enumerate(drawing.banned) if flag}


def face_indexes(drawing) -> Tuple[Dict[Segment, Set[int]], Dict[int, Set[int]]]:
    """Segment -> faces and vertex -> faces, rebuilt from drawing.faces."""
    by_seg: Dict[Segment, Set[int]] = {}
    by_vertex: Dict[int, Set[int]] = {}
    for fid, c in drawing.faces.items():
        for a, b in c.arcs:
            by_seg.setdefault(seg(a, b), set()).add(fid)
            by_vertex.setdefault(a, set()).add(fid)
    return by_seg, by_vertex


@dataclass
class TupleDrawing:
    """`routing.Drawing` as it indexed faces by segment tuple, before the
    segment-id tables: `segment_faces` and `vertex_faces` are dicts of
    sets, `links` a dict of (face, segment) lists and `banned` a set of
    segments.  `from_drawing` copies a drawing's state into one, so the
    tuple-keyed search and insertion below can run beside the package's."""

    g: Graph
    faces: Dict[int, Cycle]
    rim_id: Optional[int]
    carrier: Dict[Segment, Carrier]
    side: Dict[int, str] = field(default_factory=dict)
    banned: Set[Segment] = field(default_factory=set)
    next_cycle_id: int = 0
    next_vertex_id: int = 0
    imaginary: Dict[int, dict] = field(default_factory=dict)
    segment_faces: Dict[Segment, Set[int]] = field(init=False, repr=False, compare=False)
    vertex_faces: Dict[int, Set[int]] = field(init=False, repr=False, compare=False)
    links: Dict[int, List[Tuple[int, Segment]]] = field(init=False, repr=False, compare=False)
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

    @classmethod
    def from_drawing(cls, d) -> "TupleDrawing":
        return cls(
            g=d.g,
            faces=dict(d.faces),
            rim_id=d.rim_id,
            carrier=dict(d.carrier),
            side=dict(d.side),
            banned=banned_segments(d),
            next_cycle_id=d.next_cycle_id,
            next_vertex_id=d.next_vertex_id,
            imaginary=copy.deepcopy(d.imaginary),
        )

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


def conjugate_edge(c1: Cycle, c2: Cycle) -> Segment:
    """The single shared edge of two conjugate cycles."""
    shared = c1.segments & c2.segments
    if len(shared) != 1:
        raise RoutingError(
            f"c{c1.id} and c{c2.id} share {len(shared)} edges, not conjugate"
        )
    return next(iter(shared))


def _tuple_cached_links(drawing: TupleDrawing, fid: int) -> List[Tuple[int, Segment]]:
    """Sorted (face, shared edge) for each face conjugate to face fid.

    An edge counts when exactly two faces hold it and it is the only edge
    the two faces share.  The list is the drawing's cached one, unfiltered:
    callers test each link with `_tuple_usable` and must not change it.
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


def _tuple_usable(
    nb: int,
    s: Segment,
    face_ids: Optional[Set[int]],
    banned: Set[Segment],
    avoid: Tuple[int, ...],
) -> bool:
    """A cached link to face nb over edge s may be crossed."""
    return (
        (face_ids is None or nb in face_ids)
        and s not in banned
        and s[0] not in avoid
        and s[1] not in avoid
    )


def shortest_route_tuple_ref(
    drawing: TupleDrawing,
    s: int,
    t: int,
    face_ids: Optional[Set[int]] = None,
    seen: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """`routing.shortest_route` on a TupleDrawing, as it was before the
    segment-id tables."""
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

    level = 0 if sources & targets else None
    dist = {fid: 0 for fid in targets}
    q = deque(sorted(targets))
    while q:
        fid = q.popleft()
        d = dist[fid]
        if level is not None and d >= level:
            break
        seen.add(fid)
        for nb, sg in _tuple_cached_links(drawing, fid):
            if nb not in dist and _tuple_usable(nb, sg, ids, banned, avoid):
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
            for nb, sg in _tuple_cached_links(drawing, cur)
            if dist.get(nb) == d and _tuple_usable(nb, sg, ids, banned, avoid)
        )
        route.append(cur)
    return route


def insert_connection_tuple_ref(
    drawing: TupleDrawing, s: int, t: int, route: Sequence[int]
) -> InsertionRecord:
    """`routing.insert_connection` on a TupleDrawing, as it was before the
    segment-id tables: each route face's halves are added before the face
    is removed."""
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
    return InsertionRecord(chord=(s, t), route=route, imaginary_ids=ws)


def boundary_ring_ref(acc: Set[Segment]) -> Optional[List[int]]:
    """Canonical ring of a segment set (a region's symmetric difference)."""
    if not acc:
        return None
    adj: Dict[int, List[int]] = {}
    for a, b in acc:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(ns) != 2 for ns in adj.values()):
        return None
    start = min(adj)
    ring, prev, cur = [start], None, start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        step = nxt[0] if nxt else prev
        if step == start:
            break
        ring.append(step)
        prev, cur = cur, step
        if len(ring) > len(acc):
            return None
    return canonical_ring(ring) if len(ring) == len(acc) else None


def connection_path_ref(
    segs: Sequence[Segment], start: int, stop: int
) -> Optional[List[int]]:
    """Path from start to stop along segs; None wherever the chord walk
    raised (a KeyError when start held no segment, a RoutingError else)."""
    adj: Dict[int, List[int]] = {}
    for a, b in segs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not adj:
        return None
    path = [start]
    prev = None
    while path[-1] != stop:
        step = [w for w in adj.get(path[-1], ()) if w != prev]
        if len(step) != 1:
            return None
        prev = path[-1]
        path.append(step[0])
    return path


def greedy_planar_subgraph_ref(g) -> nx.Graph:
    """Maximal planar subgraph: each edge in edge-id order is added and
    kept only if a full planarity test still passes."""
    kept = nx.Graph()
    kept.add_nodes_from(g.vertices)
    for _, (u, v) in sorted(g.edges.items()):
        kept.add_edge(u, v)
        ok, _ = nx.check_planarity(kept)
        if not ok:
            kept.remove_edge(u, v)
    return kept


def embedding_faces_ref(kept: nx.Graph) -> List[List[int]]:
    """Faces of the planarity test's embedding of kept, in the order
    `select_planar_cycle_system` numbers them (shortest first)."""
    _, emb = nx.check_planarity(kept)
    faces = []
    seen_darts: Set[Tuple[int, int]] = set()
    for u, v in emb.edges:
        if (u, v) not in seen_darts:
            faces.append(emb.traverse_face(u, v, mark_half_edges=seen_darts))
    faces.sort(key=lambda r: (len(r), tuple(canonical_ring(list(r)))))
    return faces


def lr_rotation_ref(adj: Dict[int, List[int]]) -> Optional[Dict[int, List[int]]]:
    """Brandes' left-right planarity test (2009) on a simple graph, as
    `planar._lr_rotation` ran it on tuple-keyed dicts.

    `adj` lists each vertex's neighbours; their order fixes the
    depth-first search.  Returns each vertex's neighbours in clockwise
    order, a plane rotation system, or None when the graph is not planar.
    The phases are those of networkx's `LRPlanarity`: orientation (DFS
    heights, lowpoints, nesting depths), testing (a stack of conflict
    pairs), sign, and embedding.  Edges are (tail, head) tuples as the
    DFS orients them, and a conflict pair is a list [left low, left high,
    right low, right high] of return edges, an interval being empty when
    both its ends are None.  Every DFS keeps an explicit stack, so no
    depth of the graph reaches Python's recursion limit.
    """
    n = len(adj)
    if n > 2 and sum(map(len, adj.values())) > 2 * (3 * n - 6):
        return None
    height: Dict[int, int] = {}
    parent: Dict[int, Tuple[int, int]] = {}  # tree edge into each non-root
    lowpt: Dict[Tuple[int, int], int] = {}
    lowpt2: Dict[Tuple[int, int], int] = {}
    nesting: Dict[Tuple[int, int], int] = {}
    out: Dict[int, List[int]] = {v: [] for v in adj}
    roots = []
    # orientation: a tree edge's lowpoints are final once its head is
    # popped, a back edge's at once; then each updates its tail's tree edge
    for r in adj:
        if r in height:
            continue
        height[r] = 0
        roots.append(r)
        stack = [(r, iter(adj[r]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if not stack:
                    break
                vw = parent[v]
                v = vw[0]
            else:
                if (w, v) in lowpt:  # oriented from w already
                    continue
                vw = (v, w)
                out[v].append(w)
                lowpt2[vw] = height[v]
                if w not in height:
                    lowpt[vw] = height[v]
                    parent[w] = vw
                    height[w] = height[v] + 1
                    stack.append((w, iter(adj[w])))
                    continue
                lowpt[vw] = height[w]
            low, low2 = lowpt[vw], lowpt2[vw]
            nesting[vw] = 2 * low + (low2 < height[v])
            e = parent.get(v)
            if e is not None:
                if low < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], low2)
                    lowpt[e] = low
                elif low > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], low)
                else:
                    lowpt2[e] = min(lowpt2[e], low2)

    def conflicting(lo, hi, b) -> bool:
        return (lo is not None or hi is not None) and lowpt[hi] > lowpt[b]

    # testing: every return edge lands in a conflict pair whose two
    # intervals must lie on opposite sides; `ref` and `side` record each
    # edge's side relative to another's
    order = {v: sorted(ws, key=lambda w, v=v: nesting[v, w]) for v, ws in out.items()}
    S: List[list] = []
    bottom: Dict[Tuple[int, int], Optional[list]] = {}
    lowpt_edge: Dict[Tuple[int, int], Tuple[int, int]] = {}
    ref: Dict[Optional[Tuple[int, int]], Optional[Tuple[int, int]]] = {}
    side: Dict[Tuple[int, int], int] = {}
    for r in roots:
        stack = [(r, iter(order[r]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if not stack:
                    break
                # v is done: trim the back edges that end at its parent u
                ei = parent[v]
                v = u = ei[0]
                while S:
                    P = S[-1]
                    if P[0] is None and P[1] is None:
                        lowest = lowpt[P[2]]
                    elif P[2] is None and P[3] is None:
                        lowest = lowpt[P[0]]
                    else:
                        lowest = min(lowpt[P[0]], lowpt[P[2]])
                    if lowest != height[u]:
                        break
                    S.pop()
                    if P[0] is not None:
                        side[P[0]] = -1
                if S:
                    P = S[-1]
                    while P[1] is not None and P[1][1] == u:
                        P[1] = ref.get(P[1])
                    if P[1] is None and P[0] is not None:
                        ref[P[0]] = P[2]
                        side[P[0]] = -1
                        P[0] = None
                    while P[3] is not None and P[3][1] == u:
                        P[3] = ref.get(P[3])
                    if P[3] is None and P[2] is not None:
                        ref[P[2]] = P[0]
                        side[P[2]] = -1
                        P[2] = None
                if lowpt[ei] < height[u]:
                    hl, hr = S[-1][1], S[-1][3]
                    ref[ei] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr
            else:
                ei = (v, w)
                bottom[ei] = S[-1] if S else None
                if height[w] > height[v]:  # tree edge
                    stack.append((w, iter(order[w])))
                    continue
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
            if lowpt[ei] >= height[v]:
                continue
            e = parent[v]
            if ei[1] == order[v][0]:
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # merge the return edges of ei into P's right interval
            P = [None, None, None, None]
            while True:
                Q = S.pop()
                if Q[0] is not None or Q[1] is not None:
                    Q[:] = Q[2], Q[3], Q[0], Q[1]
                    if Q[0] is not None or Q[1] is not None:
                        return None
                if lowpt[Q[2]] > lowpt[e]:
                    if P[2] is None and P[3] is None:
                        P[3] = Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                else:
                    ref[Q[2]] = lowpt_edge[e]
                if (S[-1] if S else None) is bottom[ei]:
                    break
            # merge the conflicting return edges of ei's elder siblings
            while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
                Q = S.pop()
                if conflicting(Q[2], Q[3], ei):
                    Q[:] = Q[2], Q[3], Q[0], Q[1]
                    if conflicting(Q[2], Q[3], ei):
                        return None
                ref[P[2]] = Q[3]
                if Q[2] is not None:
                    P[2] = Q[2]
                if P[0] is None and P[1] is None:
                    P[1] = Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if any(x is not None for x in P):
                S.append(P)

    # sign: resolve each edge's side along its chain of references
    for v, ws in out.items():
        for w in ws:
            chain = [(v, w)]
            r = ref.pop(chain[0], None)
            while r is not None:
                chain.append(r)
                r = ref.pop(r, None)
            s = 1
            for x in reversed(chain):
                s = side[x] = side.get(x, 1) * s
            nesting[v, w] *= s
    # embedding: out-edges in signed nesting order, clockwise from the
    # leftmost; then each in-edge beside the tree edge its tail hangs from
    order = {v: sorted(ws, key=lambda w, v=v: nesting[v, w]) for v, ws in out.items()}
    rot = {v: list(ws) for v, ws in order.items()}
    left: Dict[int, int] = {}
    right: Dict[int, int] = {}
    for r in roots:
        stack = [(r, iter(order[r]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                continue
            rw = rot[w]
            if height[w] > height[v]:  # tree edge
                rw.insert(0, v)
                left[v] = right[v] = w
                stack.append((w, iter(order[w])))
            elif side.get((v, w), 1) == 1:
                rw.insert(rw.index(right[w]) + 1, v)
            else:
                rw.insert(rw.index(left[w]), v)
                left[w] = v
    return rot


def hamiltonian_rim_ref(sys_, g, budget: int = 200_000):
    """Unpinned Hamiltonian ring search: depth-first from vertex 1 over
    ascending neighbours, testing the first Hamiltonian cycle found for
    each second vertex against the GF(2) span of the system cycles."""
    ids = sorted(sys_.cycles)
    adj: Dict[int, List[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in sys_.segments():
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    tried = 0

    def extend(path: List[int], used: Set[int]) -> Optional[List[int]]:
        nonlocal tried
        tried += 1
        if tried > budget:
            raise PlanarizationError("Hamiltonian ring search budget exhausted")
        if len(path) == g.n:
            return path if path[0] in adj[path[-1]] else None
        for w in adj[path[-1]]:
            if w not in used:
                got = extend(path + [w], used | {w})
                if got is not None:
                    return got
        return None

    for second in adj[1]:
        found = extend([1, second], {1, second})
        if found is None:
            continue
        target = {seg(found[i], found[(i + 1) % len(found)]) for i in range(len(found))}
        inside = _solve_gf2_subset(sys_, target)
        if inside is not None:
            return canonical_ring(found), sorted(inside), [i for i in ids if i not in inside]
    raise PlanarizationError("no Hamiltonian ring found in the planar subgraph")


def hamiltonian_rim_recursive_ref(sys_, g, budget: int = 200_000) -> List[int]:
    """The unpinned pruned search of `planar.hamiltonian_rim` as a nested
    function that recurses once per path vertex, so a ring longer than
    the recursion limit raises RecursionError."""
    adj: Dict[int, List[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in sys_.segments():
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    free = {v: len(ns) for v, ns in adj.items()}
    path: List[int] = [1]
    used: Set[int] = {1}
    tried = 0

    def extend() -> Optional[List[int]]:
        nonlocal tried
        tried += 1
        if tried > budget:
            raise PlanarizationError("Hamiltonian ring search budget exhausted")
        end = path[-1]
        if len(path) == g.n:
            return list(path) if path[0] in adj[end] else None
        for x in adj[end]:
            free[x] -= 1
        short = [x for x in adj[end] if x not in used and free[x] < 2]
        steps = (short or adj[end]) if len(short) < 2 else []
        found = None
        for w in steps:
            if w not in used:
                path.append(w)
                used.add(w)
                found = extend()
                path.pop()
                used.discard(w)
                if found is not None:
                    break
        for x in adj[end]:
            free[x] += 1
        return found

    for second in adj[1]:
        path.append(second)
        used.add(second)
        found = extend()
        path.pop()
        used.discard(second)
        if found is not None:
            return canonical_ring(found)
    raise PlanarizationError("no Hamiltonian ring found in the planar subgraph")


def _solve_gf2_subset(
    sys_: CycleSystem, target: Set[Segment]
) -> Optional[List[int]]:
    """Cycle ids whose GF(2) edge-set sum equals target, if any."""
    cols = sorted(sys_.segments())
    col_ix = {s: i for i, s in enumerate(cols)}
    rows: List[Tuple[int, int]] = []  # (bitset, tag-bitset over cycle index)
    ids = sorted(sys_.cycles)
    for k, cid in enumerate(ids):
        bits = 0
        for s in sys_.cycles[cid].segments:
            bits |= 1 << col_ix[s]
        rows.append((bits, 1 << k))
    want = 0
    for s in target:
        if s not in col_ix:
            return None
        want |= 1 << col_ix[s]
    tags = 0
    work = list(rows)
    for col in range(len(cols)):
        pivot = None
        for i, (bits, _) in enumerate(work):
            if (bits >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        pb, pt = work.pop(pivot)
        if (want >> col) & 1:
            want ^= pb
            tags ^= pt
        work = [
            ((b ^ pb, t ^ pt) if (b >> col) & 1 else (b, t)) for b, t in work
        ]
    if want != 0:
        return None
    return [ids[k] for k in range(len(ids)) if (tags >> k) & 1]


def strip_imaginary_region_ref(
    drawing, chord: Tuple[int, int]
) -> Tuple[List[int], List[int]]:
    """Faces free of imaginary vertices that can host the chord, with the
    components of the candidate faces found by union-find over every
    segment of the drawing."""
    cands = {
        fid
        for fid in drawing.faces
        if fid != drawing.rim_id
        and not any(v > drawing.g.n for v in drawing.faces[fid].vertices)
    }
    u, v = chord
    parent = {fid: fid for fid in cands}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, fids in face_indexes(drawing)[0].items():
        who = [fid for fid in fids if fid in cands]
        if len(who) == 2 and u not in s and v not in s:
            a, b = find(who[0]), find(who[1])
            if a != b:
                parent[max(a, b)] = min(a, b)
    comps: Dict[int, List[int]] = {}
    for fid in cands:
        comps.setdefault(find(fid), []).append(fid)
    hits = []
    for members in comps.values():
        acc: Set[Segment] = set()
        for fid in members:
            acc.symmetric_difference_update(drawing.faces[fid].segments)
        ring = boundary_ring_ref(acc)
        if ring is not None and u in ring and v in ring:
            hits.append((sorted(members), ring))
    if not hits:
        raise DecompositionError(f"no residual region can host chord ({u},{v})")
    return min(hits, key=lambda t: sorted(seg(a, b) for a, b in zip(t[1], t[1][1:] + t[1][:1])))


def tutte_positions_ref(
    doc: dict, anchored: Dict[int, Tuple[float, float]]
) -> Dict[int, Tuple[float, float]]:
    """Each vertex not `anchored` at the average of its layer-1 neighbours,
    by the dense solve the renderer ran before it eliminated vertices from
    layer 1's graph: one Laplacian row per interior vertex, ending in the
    x and y sums of its anchored neighbours, then Gaussian elimination
    with partial pivoting."""
    system = doc["layers"][0]["system"]
    members = system["cycles"] + ([system["rim"]] if system["rim"] else [])
    interior = [v for v in range(1, doc["graph"]["n"] + 1) if v not in anchored]
    nbrs: Dict[int, Set[int]] = {v: set() for v in interior}
    for c in members:
        for a, b in c["arcs"]:
            if a != b:
                for x, y in ((a, b), (b, a)):
                    if x in nbrs:
                        nbrs[x].add(y)
    ix = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    rows = [[0.0] * (k + 2) for _ in interior]
    for v in interior:
        row = rows[ix[v]]
        row[ix[v]] = len(nbrs[v])
        for w in nbrs[v]:
            if w in ix:
                row[ix[w]] -= 1.0
            else:
                row[-2] += anchored[w][0]
                row[-1] += anchored[w][1]
    for col in range(k):
        p = max(range(col, k), key=lambda i: abs(rows[i][col]))
        rows[col], rows[p] = rows[p], rows[col]
        if rows[col][col] == 0:
            raise RenderError("layer-1 arcs leave interior vertices unconnected to the ring")
        for i in range(col + 1, k):
            f = rows[i][col] / rows[col][col]
            for j in range(col, k + 2):
                rows[i][j] -= f * rows[col][j]
    for i in reversed(range(k)):
        for c in (k, k + 1):
            acc = rows[i][c] - sum(rows[i][j] * rows[j][c] for j in range(i + 1, k))
            rows[i][c] = acc / rows[i][i]
    return {v: (row[k], row[k + 1]) for v, row in zip(interior, rows)}


def imaginary_positions_ref(
    doc: dict, pos: Dict[int, Tuple[float, float]]
) -> Dict[int, Tuple[float, float]]:
    paths = carrier_paths(doc, {eid: (u, v) for eid, u, v in doc["graph"]["edges"]})
    out: Dict[int, Tuple[float, float]] = {}
    pending: List[Tuple[int, int, int]] = []  # (vertex, path neighbours)
    for entry in doc["imaginary"]:
        w = entry["id"]
        kind, ref = entry["carrier"]
        key = (kind, ref if kind == "edge" else tuple(ref))
        path = paths.get(key)
        if path is None:
            raise RenderError(f"imaginary vertex {w} has a carrier with no path")
        if w not in path[1:-1]:
            raise RenderError(f"imaginary vertex {w} is not inside its carrier's path")
        i = path.index(w)
        if kind == "edge":
            t = i / (len(path) - 1)
            p, q = pos[path[0]], pos[path[-1]]
            out[w] = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        else:
            u, v = key[1]
            out[w] = ((pos[u][0] + pos[v][0]) / 2, (pos[u][1] + pos[v][1]) / 2)
            pending.append((w, path[i - 1], path[i + 1]))
    for _ in range(64):
        for w, a, b in pending:
            ps = [out[x] if x in out else pos[x] for x in (a, b)]
            out[w] = ((ps[0][0] + ps[1][0]) / 2, (ps[0][1] + ps[1][1]) / 2)
    return out


def serialize_ref(doc: object) -> str:
    """The canonical document text, by definition."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def graph_from_networkx(G: nx.Graph, name: str = "") -> Graph:
    """G relabelled 1..n in sorted node order; edge ids follow sorted pairs."""
    label = {v: i for i, v in enumerate(sorted(G.nodes()), start=1)}
    pairs = sorted(tuple(sorted((label[a], label[b]))) for a, b in G.edges())
    return parse_graph("".join(f"{u} {v}\n" for u, v in pairs), name=name)


def isometric_cycles_ref(g: Graph) -> List[Cycle]:
    """The isometric cycles of g, ids in (length, edge-id set) order, by
    listing every simple cycle no longer than 2*diam+1 and testing each
    of its vertex pairs."""
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges.values())
    dist = dict(nx.all_pairs_shortest_path_length(G))
    diam = max(max(d.values()) for d in dist.values())
    keyed = []
    for ring in nx.simple_cycles(G, length_bound=2 * diam + 1):
        k = len(ring)
        if k < 3 or any(
            dist[ring[i]].get(ring[j]) != min(j - i, k - (j - i))
            for i, j in combinations(range(k), 2)
        ):
            continue
        ring = canonical_ring(ring)
        eids = tuple(sorted(edge_between(g, ring[i], ring[(i + 1) % k]) for i in range(k)))
        keyed.append(((k, eids), ring))
    keyed.sort(key=lambda t: t[0])
    return [ring_cycle(i, ring) for i, (_, ring) in enumerate(keyed, start=1)]


def _components(vertices: Set[int], pairs: Sequence[Tuple[int, int]]) -> int:
    """Connected components of the graph on `vertices`, counted by BFS."""
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen: Set[int] = set()
    count = 0
    for root in sorted(vertices):
        if root in seen:
            continue
        count += 1
        seen.add(root)
        q = deque([root])
        while q:
            for w in adj[q.popleft()]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
    return count


def nonseparable_ref(g: Graph) -> Tuple[bool, int, List[int], List[int]]:
    """(connected, min degree, cut vertices, bridge ids) of g, each
    decided by deleting the vertex or edge and recounting components."""
    vs = set(g.vertices)
    pairs = list(g.edges.values())
    base = _components(vs, pairs)
    degree = {v: sum(v in uv for uv in pairs) for v in vs}
    cut = [
        v
        for v in sorted(vs)
        if _components(vs - {v}, [uv for uv in pairs if v not in uv]) > base
    ]
    bridges = [
        eid
        for eid in sorted(g.edges)
        if _components(vs, [uv for e, uv in g.edges.items() if e != eid]) > base
    ]
    return base == 1, min(degree.values()), cut, bridges


def _members_ref(cycles, rim) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    out = [(cid, tuple(map(tuple, arcs))) for cid, arcs in sorted(cycles.items())]
    if rim is not None:
        out.append((rim[0], tuple(map(tuple, rim[1]))))
    return out


def _walks_ref(cycles, rim) -> CheckResult:
    bad = []
    for cid, arcs in _members_ref(cycles, rim):
        if len(arcs) < 3:
            bad.append(f"c{cid}: only {len(arcs)} arcs")
            continue
        heads = [a for a, _ in arcs]
        for (a, b), (c, d) in zip(arcs, arcs[1:] + arcs[:1]):
            if b != c:
                bad.append(f"c{cid}: arcs break at ({a},{b})->({c},{d})")
                break
        else:
            if len(set(heads)) != len(heads):
                bad.append(f"c{cid}: revisits a vertex")
            if any(a == b for a, b in arcs):
                bad.append(f"c{cid}: self-loop arc")
            low = [a for a in heads if a < 1]
            if low:
                bad.append(f"c{cid}: vertex {min(low)} is below 1")
    return CheckResult(not bad, bad)


def _maclane_ref(cycles, rim) -> CheckResult:
    cov: Dict[Segment, List[int]] = {}
    for cid, arcs in _members_ref(cycles, rim):
        for a, b in arcs:
            cov.setdefault(seg(a, b), []).append(cid)
    bad = [
        f"edge ({s[0]},{s[1]}) on {len(who)} members: {who}"
        for s, who in sorted(cov.items())
        if len(who) != 2
    ]
    return CheckResult(not bad, bad)


def _gf2_sum_ref(cycles, rim) -> CheckResult:
    acc: Set[Segment] = set()
    for _, arcs in sorted(cycles.items()):
        acc.symmetric_difference_update(seg(a, b) for a, b in arcs)
    want = set() if rim is None else {seg(a, b) for a, b in rim[1]}
    if acc == want:
        return CheckResult(True)
    extra = sorted(acc - want)
    missing = sorted(want - acc)
    return CheckResult(False, [f"sum mismatch: extra {extra}, missing {missing}"])


def _euler_ref(cycles, rim) -> CheckResult:
    vs: Set[int] = set()
    es: Set[Segment] = set()
    for _, arcs in _members_ref(cycles, rim):
        for a, b in arcs:
            vs.update((a, b))
            es.add(seg(a, b))
    nf = len(cycles) + (1 if rim is not None else 0)
    lhs = len(vs) - len(es) + nf
    if lhs == 2:
        return CheckResult(True)
    return CheckResult(False, [f"{len(vs)} - {len(es)} + {nf} = {lhs} != 2"])


def _orientation_ref(cycles, rim) -> CheckResult:
    dirs: Dict[Segment, List[Tuple[int, int]]] = {}
    for _, arcs in _members_ref(cycles, rim):
        for a, b in arcs:
            dirs.setdefault(seg(a, b), []).append((a, b))
    bad = [
        f"edge ({s[0]},{s[1]}) traversed {ds}"
        for s, ds in sorted(dirs.items())
        if len(ds) == 2 and ds[0] == ds[1]
    ]
    return CheckResult(not bad, bad)


def _imaginary_degree_ref(n: int, cycles, rim) -> CheckResult:
    deg: Dict[int, Set[Segment]] = {}
    for _, arcs in _members_ref(cycles, rim):
        for a, b in arcs:
            for v in (a, b):
                if v > n:
                    deg.setdefault(v, set()).add(seg(a, b))
    bad = [
        f"v{v}: degree {len(ss)} != 4" for v, ss in sorted(deg.items()) if len(ss) != 4
    ]
    return CheckResult(not bad, bad)


def trace_faces_ref(rotation: Dict[int, List[int]]) -> List[Tuple[Tuple[int, int], ...]]:
    """Faces of a rotation system, traced from every dart in sorted order."""
    succ: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for v, ring in rotation.items():
        for i, u in enumerate(ring):
            succ[(v, u)] = (v, ring[(i + 1) % len(ring)])
    faces = []
    seen: Set[Tuple[int, int]] = set()
    for dart in sorted(succ):
        if dart in seen:
            continue
        walk = []
        d = dart
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = succ[(d[1], d[0])]
        faces.append(tuple(walk))
    return faces


def _norm_face_ref(arcs: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    k = min(range(len(arcs)), key=lambda i: arcs[i])
    return tuple(arcs[k:]) + tuple(arcs[:k])


def _face_trace_ref(cycles, rim) -> CheckResult:
    members = _members_ref(cycles, rim)
    after: Dict[int, Dict[int, int]] = {}
    bad: List[str] = []
    for cid, arcs in members:
        for (a, b), (_, d) in zip(arcs, arcs[1:] + arcs[:1]):
            tbl = after.setdefault(b, {})
            if a in tbl:
                bad.append(f"v{b}: two successors for dart from v{a}")
                return CheckResult(False, bad)
            tbl[a] = d
    rotation: Dict[int, List[int]] = {}
    for v, tbl in after.items():
        start = min(tbl)
        ring = [start]
        w = tbl[start]
        while w != start:
            if w not in tbl or len(ring) > len(tbl):
                bad.append(f"v{v}: rotation does not close up")
                return CheckResult(False, bad)
            ring.append(w)
            w = tbl[w]
        if len(ring) != len(tbl):
            bad.append(f"v{v}: neighbourhood splits into several fans")
            return CheckResult(False, bad)
        rotation[v] = ring
    traced = trace_faces_ref(rotation)
    want = {frozenset(_norm_face_ref(arcs)) for _, arcs in members}
    got = {frozenset(_norm_face_ref(f)) for f in traced}
    if want != got or len(traced) != len(members):
        bad.append(
            f"traced {len(traced)} faces, expected {len(members)}; "
            f"unmatched: {len(want ^ got)}"
        )
    return CheckResult(not bad, bad)


def verify_raw_ref(n: int, cycles, rim=None) -> Dict[str, CheckResult]:
    """The per-layer checks, each copying and walking the arcs itself."""
    checks = {
        "walks": _walks_ref(cycles, rim),
        "maclane": _maclane_ref(cycles, rim),
        "gf2-sum": _gf2_sum_ref(cycles, rim),
        "euler": _euler_ref(cycles, rim),
        "orientation": _orientation_ref(cycles, rim),
        "imaginary-degree": _imaginary_degree_ref(n, cycles, rim),
    }
    if all(checks[k].ok for k in ("walks", "maclane", "orientation")):
        checks["face-trace-agreement"] = _face_trace_ref(cycles, rim)
    else:
        checks["face-trace-agreement"] = CheckResult(
            False, ["skipped: structural checks failed"]
        )
    return checks


def _raw_system_ref(sj: dict):
    cycles = {c["id"]: tuple(tuple(a) for a in c["arcs"]) for c in sj["cycles"]}
    rim = None
    if sj.get("rim") is not None:
        rim = (sj["rim"]["id"], tuple(tuple(a) for a in sj["rim"]["arcs"]))
    return sj["n"], cycles, rim


def check_connection_realization_ref(
    n: int,
    chords: Dict[int, Tuple[int, int]],
    sequences: Dict[int, List[int]],
    final_cycles: Dict[int, Tuple[Tuple[int, int], ...]],
) -> CheckResult:
    """The connection check over the final layer's arcs, walked again."""
    segs: Set[Segment] = set()
    deg: Dict[int, Set[Segment]] = {}
    for arcs in final_cycles.values():
        for a, b in arcs:
            segs.add(seg(a, b))
            deg.setdefault(a, set()).add(seg(a, b))
            deg.setdefault(b, set()).add(seg(a, b))
    bad = []
    for eid, (u, v) in sorted(chords.items()):
        if eid not in sequences:
            bad.append(f"e{eid}: chord has no realized connection")
            continue
        path = [min(u, v)] + list(sequences[eid]) + [max(u, v)]
        for a, b in zip(path, path[1:]):
            if seg(a, b) not in segs:
                bad.append(f"e{eid}: connection segment ({a},{b}) missing")
        for w in sequences[eid]:
            if w <= n:
                bad.append(f"e{eid}: crossing vertex v{w} is not imaginary")
            elif len(deg.get(w, ())) != 4:
                bad.append(f"e{eid}: imaginary v{w} has degree {len(deg.get(w, ()))}")
    return CheckResult(not bad, bad)


def _carrier_path_ref(rows: List[Tuple[int, int]], start: int, stop: int) -> Optional[List[int]]:
    """The simple path from start to stop that uses every row exactly
    once, stepping to a neighbour not yet visited; None when there is no
    such path."""
    adj: Dict[int, List[int]] = {}
    for a, b in rows:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    path = [start]
    while path[-1] != stop:
        onward = [w for w in adj.get(path[-1], ()) if w not in path]
        if len(onward) != 1:
            return None
        path.append(onward[0])
    return path if len(path) == len(rows) + 1 else None


def check_connections_ref(doc: dict) -> CheckResult:
    """The connection check: each chord's sequence is the interior of the
    path its raw ("conn", ends) carrier rows walk, every vertex of it above
    n, and every sequence names a chord."""
    n = doc["graph"]["n"]
    rows: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for a, b, kind, ref in doc["carrier"]:
        if kind == "conn":
            rows.setdefault(tuple(ref), []).append((a, b))
    chords = {eid: (u, v) for eid, u, v in doc["chords"]}
    sequences = {int(k): list(v) for k, v in doc["sequences"].items()}
    bad = []
    for eid, (u, v) in sorted(chords.items()):
        if eid not in sequences:
            bad.append(f"e{eid}: chord has no realized connection")
            continue
        lo, hi = min(u, v), max(u, v)
        path = _carrier_path_ref(rows[lo, hi], lo, hi) if (lo, hi) in rows else None
        if path is None:
            bad.append(f"e{eid}: connection ({lo},{hi}) has no carrier path")
        elif path[1:-1] != sequences[eid]:
            bad.append(f"e{eid}: sequence is not the interior of its connection's path")
        for w in sequences[eid]:
            if w <= n:
                bad.append(f"e{eid}: crossing vertex v{w} is not imaginary")
    for eid in sorted(sequences):
        if eid not in chords:
            bad.append(f"e{eid}: sequence names no chord")
    return CheckResult(not bad, bad)


def check_carrier_table_ref(doc: dict) -> CheckResult:
    """The carrier-table check, its details in `verify_document`'s order:
    carrier rows against the final layer's segments; carrier refs and
    paths, each path walked from the raw rows; repeated entries and
    sequence vertices above n without one; each entry's chord and host;
    then the final layer's vertices above n against the entries."""
    n = doc["graph"]["n"]
    edges = {eid: (u, v) for eid, u, v in doc["graph"]["edges"]}
    chord_ids = {eid for eid, _, _ in doc["chords"]}
    plain = {eid for eid in edges if eid not in chord_ids}
    conns = {seg(u, v) for _, u, v in doc["chords"]}
    _, cycles, rim = _raw_system_ref(doc["layers"][-1]["system"])
    final = list(cycles.values()) + ([rim[1]] if rim is not None else [])
    table = {seg(a, b) for arcs in final for a, b in arcs}
    listed = [(a, b) for a, b, _, _ in doc["carrier"]]
    bad = [f"segment ({a},{b}) has no carrier row" for a, b in sorted(table - set(listed))]
    for a, b in sorted(set(listed)):
        if (a, b) not in table:
            bad.append(f"carrier row ({a},{b}) is not a segment of the final layer")
        elif listed.count((a, b)) > 1:
            bad.append(f"segment ({a},{b}) has {listed.count((a, b))} carrier rows")
    rows: Dict[tuple, List[Tuple[int, int]]] = {}
    for a, b, kind, ref in doc["carrier"]:
        rows.setdefault((kind, ref if kind == "edge" else tuple(ref)), []).append((a, b))
    entries = doc["imaginary"]
    entry_keys = [(kind, ref if kind == "edge" else tuple(ref)) for kind, ref in (e["carrier"] for e in entries)]
    keys = set(rows) | set(entry_keys)
    for e in sorted(ref for kind, ref in keys if kind == "edge" and ref not in plain):
        bad.append(f"carrier edge {e} is not a graph edge outside the chords")
    for u, v in sorted(ref for kind, ref in keys if kind == "conn" and ref not in conns):
        bad.append(f"carrier connection ({u},{v}) is not a chord's ends")
    paths = {}
    for (kind, ref), segs in rows.items():
        ends = edges.get(ref) if kind == "edge" else ref
        paths[kind, ref] = None if ends is None else _carrier_path_ref(segs, min(ends), max(ends))
    for kind, ref in sorted(paths):
        if paths[kind, ref] is None and ref in (plain if kind == "edge" else conns):
            name = f"edge {ref}" if kind == "edge" else f"connection ({ref[0]},{ref[1]})"
            bad.append(f"carrier {name} is not a path")
    ids = [e["id"] for e in entries]
    bad += [f"v{w}: {ids.count(w)} imaginary entries" for w in sorted(set(ids)) if ids.count(w) > 1]
    crossed = {w for sequence in doc["sequences"].values() for w in sequence}
    bad += [f"v{w}: no imaginary entry" for w in sorted(crossed - set(ids)) if w > n]
    for entry, key in zip(entries, entry_keys):
        w, (a, b), (u, v) = entry["id"], entry["host"], entry["chord"]
        holders = [str(eid) for eid, x, y in doc["chords"] if seg(x, y) == seg(u, v)]
        if not any(w in doc["sequences"].get(eid, []) for eid in holders):
            bad.append(f"v{w}: ({u},{v}) is not a chord whose sequence holds v{w}")
        path = paths.get(key) or []
        at = [path.index(x) if x in path else -1 for x in (a, w, b)]
        if -1 in at or not (at[0] < at[1] < at[2] or at[2] < at[1] < at[0]):
            bad.append(f"v{w}: host ({a},{b}) does not hold v{w} on its carrier's path")
    drawn = {v for s in table for v in s if v > n}
    bad += [f"v{w}: no imaginary entry" for w in sorted(drawn - set(ids) - crossed)]
    bad += [f"imaginary entry v{w} is not a vertex of the final layer" for w in sorted(set(ids) - drawn)]
    return CheckResult(not bad, bad)


def verify_document_ref(doc: dict) -> VerificationReport:
    """`verify_document` with every layer's system converted twice, every
    vertex 1..n looked for on layer 1's arcs in turn, and the carrier and
    connection checks walking the raw carrier rows themselves."""
    checks: Dict[str, CheckResult] = {}
    n = doc["graph"]["n"]
    bad = []
    for k, layer in enumerate(doc["layers"], start=1):
        ln, cycles, rim = _raw_system_ref(layer["system"])
        for name, res in verify_raw_ref(n, cycles, rim).items():
            checks[f"layer-{k}/{name}"] = res
        checks[f"layer-{k}/cycle-ids"] = _check_cycle_ids(layer["system"])
        if layer["index"] != k:
            bad.append(f"layer {k} has index {layer['index']}")
        if ln != n:
            bad.append(f"layer {k} has system n {ln}, not the graph's {n}")
    first = doc["layers"][0]["system"]
    arcs = [tuple(arc) for c in first["cycles"] + [first["rim"]] if c is not None for arc in c["arcs"]]
    for a, b in arcs:
        if not (1 <= a <= n and 1 <= b <= n):
            bad.append(f"layer 1 arc ({a},{b}) names a vertex outside 1..{n}")
    uncovered = [v for v in range(1, n + 1) if not any(v in arc for arc in arcs)]
    bad += [f"vertex {v} is on no layer-1 arc" for v in uncovered[:1]]
    checks["layer-indexes"] = CheckResult(not bad, bad)
    edges = doc["graph"]["edges"]
    checks["graph-edges"] = check_graph_edges(n, edges, doc["chords"])
    checks["edge-partition"] = check_edge_partition(
        [eid for eid, _, _ in edges], [layer["realized"] for layer in doc["layers"]]
    )
    checks["layer-rings"] = check_layer_rings(
        n,
        {eid: (u, v) for eid, u, v in edges},
        [(k, layer.get("ring")) for k, layer in enumerate(doc["layers"], start=1)],
        doc["layers"][0]["realized"],
    )
    if first["rim"] is None and not any(layer["ring"] for layer in doc["layers"]):
        details = checks["layer-rings"].details + ["no layer has a ring, and layer 1 has no rim"]
        checks["layer-rings"] = CheckResult(False, details)
    checks["carrier-table"] = check_carrier_table_ref(doc)
    checks["connection-realization"] = check_connections_ref(doc)
    return VerificationReport(checks)
