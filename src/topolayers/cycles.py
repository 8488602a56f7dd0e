"""Oriented cycles, segment walks and isometric-cycle enumeration.

A Cycle is a closed directed walk given by its arcs.  The candidate pool
for planarization consists of the isometric cycles of the input graph:
cycles on which the cycle metric agrees with the graph metric for every
vertex pair.  In a complete graph these are exactly the triangles.

`walk` turns a set of drawing segments back into an ordered vertex list:
a subdivided ring edge or a routed chord.  It is the one place the
package follows segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .graphs import Graph, edge_between

Arc = Tuple[int, int]
Segment = Tuple[int, int]  # undirected: (min, max)


def seg(a: int, b: int) -> Segment:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Cycle:
    id: int
    arcs: Tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.arcs:
            head = self.arcs[0][0]
            for a, b in self.arcs:
                if a != head:
                    raise ValueError(f"cycle c{self.id}: arcs do not chain at v{head}")
                head = b
            if head != self.arcs[0][0]:
                raise ValueError(f"cycle c{self.id}: arcs do not chain at v{head}")

    # Cached per instance: a Cycle is immutable, and routing reads these
    # on every conjugate-link lookup.
    @cached_property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(a for a, _ in self.arcs)

    @cached_property
    def segments(self) -> FrozenSet[Segment]:
        return frozenset(seg(a, b) for a, b in self.arcs)

    def reversed(self) -> "Cycle":
        return Cycle(self.id, tuple((b, a) for a, b in reversed(self.arcs)))


def ring_cycle(cid: int, ring: List[int]) -> Cycle:
    """Cycle from an ordered vertex ring."""
    arcs = tuple(
        (ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))
    )
    return Cycle(cid, arcs)


def canonical_ring(vs: List[int]) -> List[int]:
    """Rotate/reflect a vertex ring: start at min vertex, then smaller neighbor."""
    k = vs.index(min(vs))
    vs = vs[k:] + vs[:k]
    if len(vs) > 2 and vs[-1] < vs[1]:
        vs = [vs[0]] + vs[:0:-1]
    return vs


def walk(segs: Iterable[Segment], start: int, stop: int) -> Optional[List[int]]:
    """The simple path from start to stop along segs, or None.

    None when some vertex before stop has no onward segment, or more than
    one: the segments break or branch.
    """
    adj: Dict[int, List[int]] = {}
    for a, b in segs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    path, prev, cur = [start], None, start
    while cur != stop:
        nbrs = adj.get(cur, ())
        if len(nbrs) == 2:
            # the common case, a vertex inside the path: exactly one of
            # its two neighbours must be the one it was entered from
            a, b = nbrs
            if (a == prev) == (b == prev):
                return None
            prev, cur = cur, b if a == prev else a
        else:
            step = [w for w in nbrs if w != prev]
            if len(step) != 1:
                return None
            prev, cur = cur, step[0]
        path.append(cur)
    return path


def _distances(adj: List[List[int]], s: int) -> List[int]:
    """BFS distance from s to every vertex id; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


# A shortest path from s: its vertices, and a bitmask of them all but s.
_Path = Tuple[Tuple[int, ...], int]


def _is_isometric(ring: List[int], dist: List[List[int]]) -> bool:
    """Whether every vertex of ring is as far in the graph from the
    vertex k = len(ring) // 2 steps on as along the ring.

    That suffices: were some pair x, y nearer in the graph than along the
    ring, then so would x be to the antipode x' with y on a shortest arc
    from x to x', since d(x, x') <= d(x, y) + d(y, x').
    """
    k = len(ring) // 2
    return all(dist[ring[i]][ring[i - k]] == k for i in range(len(ring)))


def enumerate_isometric_cycles(g: Graph) -> List[Cycle]:
    """All isometric cycles, ids assigned in (length, lex edge-id set) order.

    On an isometric cycle whose least vertex is s, the two arcs from s to
    its antipode (even length 2k), or to the two ends of its antipodal
    edge (odd length 2k+1), are shortest paths of the graph through
    vertices above s.  So for each s the shortest paths from s are grown
    through vertices above s, each step one farther from s.  A candidate
    is two such paths to one vertex that meet nowhere else, or two
    disjoint ones to the ends of an edge at equal distance from s, and it
    is kept when the BFS distance tables show it isometric.  Each cycle
    is found once, from its least vertex.

    Paths are paired group by group, a group being the paths to one
    vertex with one second and one last-but-one vertex: on an isometric
    cycle each path's second vertex lies k from the other path's
    last-but-one vertex (and, odd, from the other path's end), so most
    pairs of groups are passed over unread.  The loops are iterative: no
    recursion on path length.
    """
    n = g.n
    adj: List[List[int]] = [[] for _ in range(n + 1)]
    for u, v in g.edges.values():
        adj[u].append(v)
        adj[v].append(u)
    dist = [_distances(adj, s) for s in range(n + 1)]  # row 0 unused
    found: List[List[int]] = []

    def _keep(ring: List[int]) -> None:
        if _is_isometric(ring, dist):
            found.append(canonical_ring(ring))

    for s in range(1, n + 1):
        ds = dist[s]
        # vertex -> every shortest path from s to it through vertices
        # above s; `order` lists the reached vertices by distance from s,
        # so a vertex's paths are complete before any is extended
        paths: Dict[int, List[_Path]] = {s: [((s,), 0)]}
        order = [s]
        for v in order:
            step = ds[v] + 1
            for w in adj[v]:
                if w > s and ds[w] == step:
                    if w not in paths:
                        paths[w] = []
                        order.append(w)
                    bit = 1 << w
                    paths[w].extend((p + (w,), m | bit) for p, m in paths[v])
        # the paths to each vertex by (vertex after s, vertex before the end)
        groups: Dict[int, List[Tuple[int, int, List[_Path]]]] = {}
        for t in order[1:]:
            by_ends: Dict[Tuple[int, int], List[_Path]] = {}
            for p, m in paths[t]:
                by_ends.setdefault((p[1], p[-2]), []).append((p, m))
            groups[t] = [(f, l, ps) for (f, l), ps in by_ends.items()]
        for t in order[1:]:
            k = ds[t]
            at_t = groups[t]
            bit = 1 << t
            for i, (f1, l1, ps) in enumerate(at_t):
                for f2, l2, qs in at_t[i + 1 :]:
                    if dist[f1][l2] == k and dist[f2][l1] == k:
                        for p, pm in ps:
                            for q, qm in qs:
                                if pm & qm == bit:
                                    _keep([*p, *q[-2:0:-1]])
            for b in adj[t]:
                if b > t and ds[b] == k and b in groups:
                    for f1, l1, ps in at_t:
                        if dist[f1][b] != k:
                            continue
                        for f2, l2, qs in groups[b]:
                            if dist[f2][t] == k and dist[f1][l2] == k and dist[f2][l1] == k:
                                for p, pm in ps:
                                    for q, qm in qs:
                                        if not pm & qm:
                                            _keep([*p, *q[:0:-1]])
    keyed = []
    for ring in found:
        eids = tuple(
            sorted(
                edge_between(g, ring[i], ring[(i + 1) % len(ring)])
                for i in range(len(ring))
            )
        )
        keyed.append(((len(ring), eids), ring))
    keyed.sort(key=lambda t: t[0])
    return [ring_cycle(i, ring) for i, (_, ring) in enumerate(keyed, start=1)]


__all__ = [
    "Arc",
    "Segment",
    "Cycle",
    "seg",
    "ring_cycle",
    "canonical_ring",
    "walk",
    "enumerate_isometric_cycles",
]
