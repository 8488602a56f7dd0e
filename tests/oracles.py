"""Loop versions of chord selection, routing and segment walks, kept as
test references.

These recompute everything on every query: `select_noncrossing_ref`
recounts all pairwise crossings after each removal, and
`shortest_route_ref` builds the whole mixed cycle graph from the face
dictionary and runs a full breadth-first search.  `boundary_ring_ref`
and `connection_path_ref` are the region-boundary and chord walks that
`cycles.ring_from_segments` and `cycles.walk` replaced.
`route_greedy_ref` re-queries every pending chord after each insertion.
`greedy_planar_subgraph_ref` runs a full planarity test for every edge,
and `hamiltonian_rim_ref` is the unpruned depth-first search that copies
its path at every step; it keeps the first ring that `_solve_gf2_subset`,
a GF(2) elimination over the system cycles, writes as a sum of them, and
returns that ring with its summands (inside) and the other cycles
(outside).  `strip_imaginary_region_ref` finds the residual regions by
union-find.  `imaginary_positions_ref` relaxes every
connection-hosted crossing marker of the document, whichever layer is
drawn.  `shortest_route_copying_ref` copies a filtered list of each
face's links through `conjugate_links_ref` instead of testing the cached
links in place, and `serialize_ref` is the canonical document text as
`json.dumps` writes it.  `nonseparable_ref` is the input gate by brute
force: a cut vertex or bridge is one whose removal leaves more
components.  The package versions must return exactly what
these return.  `graph_from_networkx` builds test inputs the way the
benchmark corpus does.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from topolayers.cycles import Segment, canonical_ring, seg
from topolayers.graphs import Graph, parse_graph
from topolayers.layering import DecompositionError, _boundary_ring
from topolayers.planar import CycleSystem, PlanarizationError
from topolayers.projection import crossing_counts, project_chord
from topolayers.render import RenderError, _carrier_key, _carrier_paths
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


def conjugate_links_ref(
    drawing,
    fid: int,
    face_ids: Optional[Set[int]],
    banned: Set[Segment],
    avoid: Sequence[int],
) -> List[Tuple[int, Segment]]:
    """A fresh filtered list of face fid's sorted conjugate links, as
    routing built one for every face a query read before it filtered the
    cached lists in place.  It leaves the drawing's link cache alone."""
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
    return [
        (nb, s)
        for nb, s in links
        if (face_ids is None or nb in face_ids)
        and s not in banned
        and s[0] not in avoid
        and s[1] not in avoid
    ]


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
    sources = {f for f in drawing.vertex_faces.get(s, ()) if ids is None or f in ids}
    targets = {f for f in drawing.vertex_faces.get(t, ()) if ids is None or f in ids}
    if seen is None:
        seen = set()
    seen |= sources
    seen |= targets
    if not sources or not targets:
        return None
    links: Dict[int, List[Tuple[int, Segment]]] = {}

    def links_of(fid: int) -> List[Tuple[int, Segment]]:
        if fid not in links:
            links[fid] = conjugate_links_ref(drawing, fid, ids, drawing.banned, (s, t))
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
    drawing: Drawing, chord: Tuple[int, int]
) -> Tuple[List[int], List[int]]:
    """Faces free of imaginary vertices that can host the chord, with the
    components of the candidate faces found by union-find over every
    segment of the drawing."""
    cands = {
        fid
        for fid in drawing.faces
        if fid != drawing.rim_id and not drawing.has_imaginary(fid)
    }
    u, v = chord
    parent = {fid: fid for fid in cands}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, fids in drawing.segment_faces.items():
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
        ring = _boundary_ring([drawing.faces[fid] for fid in members])
        if ring is not None and u in ring and v in ring:
            hits.append((sorted(members), ring))
    if not hits:
        raise DecompositionError(f"no residual region can host chord ({u},{v})")
    return min(hits, key=lambda t: sorted(seg(a, b) for a, b in zip(t[1], t[1][1:] + t[1][:1])))


def imaginary_positions_ref(
    doc: dict, pos: Dict[int, Tuple[float, float]]
) -> Dict[int, Tuple[float, float]]:
    paths = _carrier_paths(doc)
    out: Dict[int, Tuple[float, float]] = {}
    pending: List[Tuple[int, int, int]] = []  # (vertex, path neighbours)
    for entry in doc["imaginary"]:
        w = entry["id"]
        kind, ref = entry["carrier"]
        key = _carrier_key(kind, ref)
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
