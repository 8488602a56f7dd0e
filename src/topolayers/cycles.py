"""Oriented cycles, segment walks and isometric-cycle enumeration.

A Cycle is a closed directed walk given by its arcs.  The candidate pool
for planarization consists of the isometric cycles of the input graph:
cycles on which the cycle metric agrees with the graph metric for every
vertex pair.  In a complete graph these are exactly the triangles.

`walk` turns a set of drawing segments back into an ordered vertex list:
a subdivided ring edge, a routed chord or, through `ring_from_segments`,
a region boundary.  It is the one place the package follows segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx

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
        for (a, b), (c, d) in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            if b != c:
                raise ValueError(f"cycle c{self.id}: arcs do not chain at v{b}")

    # Cached per instance: a Cycle is immutable, and routing reads these
    # on every conjugate-link lookup.
    @cached_property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(a for a, _ in self.arcs)

    @cached_property
    def segments(self) -> FrozenSet[Segment]:
        return frozenset(seg(a, b) for a, b in self.arcs)

    def reversed(self, new_id: int | None = None) -> "Cycle":
        rev = tuple((b, a) for a, b in reversed(self.arcs))
        return Cycle(self.id if new_id is None else new_id, rev)


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


def normalize_ring(vs: List[int]) -> Tuple[int, ...]:
    """Orientation-normalized cyclic sequence (for comparisons)."""
    return tuple(canonical_ring(list(vs)))


def walk(segs: Iterable[Segment], start: int, stop: int) -> Optional[List[int]]:
    """The simple path from start to stop along segs, or None.

    None when some vertex before stop has no onward segment, or more than
    one: the segments break or branch.
    """
    adj: Dict[int, List[int]] = {}
    for a, b in segs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    path, prev = [start], None
    while path[-1] != stop:
        step = [w for w in adj.get(path[-1], ()) if w != prev]
        if len(step) != 1:
            return None
        prev = path[-1]
        path.append(step[0])
    return path


def ring_from_segments(segs: AbstractSet[Segment]) -> Optional[List[int]]:
    """Canonical vertex ring if segs form one simple closed curve, else None."""
    if not segs:
        return None
    a, b = min(segs)
    path = walk((s for s in segs if s != (a, b)), a, b)
    if path is None or len(path) != len(segs):
        return None
    return canonical_ring(path)


def _is_isometric(ring: List[int], dist: Dict[int, Dict[int, int]]) -> bool:
    k = len(ring)
    for i in range(k):
        for j in range(i + 1, k):
            on_cycle = min(j - i, k - (j - i))
            if dist[ring[i]].get(ring[j]) != on_cycle:
                return False
    return True


def enumerate_isometric_cycles(g: Graph) -> List[Cycle]:
    """All isometric cycles, ids assigned in (length, lex edge-id set) order.

    An isometric cycle is never longer than 2*diam(G)+1, which bounds the
    simple-cycle enumeration.
    """
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges.values())
    dist = dict(nx.all_pairs_shortest_path_length(G))
    diam = max(max(d.values()) for d in dist.values())
    found = []
    for ring in nx.simple_cycles(G, length_bound=2 * diam + 1):
        if len(ring) < 3:
            continue
        if _is_isometric(ring, dist):
            found.append(canonical_ring(ring))
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
    "normalize_ring",
    "walk",
    "ring_from_segments",
    "enumerate_isometric_cycles",
]
