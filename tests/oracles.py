"""Loop versions of chord selection, routing and segment walks, kept as
test references.

These recompute everything on every query: `select_noncrossing_ref`
recounts all pairwise crossings after each removal, and
`shortest_route_ref` builds the whole mixed cycle graph from the face
dictionary and runs a full breadth-first search.  `boundary_ring_ref`
and `connection_path_ref` are the region-boundary and chord walks that
`cycles.ring_from_segments` and `cycles.walk` replaced.
`route_greedy_ref` re-queries every pending chord after each insertion.
The package versions must return exactly what these return.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from topolayers.cycles import Segment, canonical_ring, seg
from topolayers.projection import crossing_counts, project_chord
from topolayers.routing import RoutingError, insert_connection


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
            key=lambda cid: (-len(project_chord(basis, alive[cid])), cid),
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
        banned = drawing.banned
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


def route_greedy_ref(drawing, pool: Dict[int, Tuple[int, int]], side: Optional[str]) -> List[int]:
    """Shortest-first routing that re-queries every pending chord per pass,
    each query on the whole mixed cycle graph."""
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


def face_indexes(drawing) -> Tuple[Dict[Segment, Set[int]], Dict[int, Set[int]]]:
    """Segment -> faces and vertex -> faces, rebuilt from drawing.faces."""
    by_seg: Dict[Segment, Set[int]] = {}
    by_vertex: Dict[int, Set[int]] = {}
    for fid, c in drawing.faces.items():
        for a, b in c.arcs:
            by_seg.setdefault(seg(a, b), set()).add(fid)
            by_vertex.setdefault(a, set()).add(fid)
    return by_seg, by_vertex


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
