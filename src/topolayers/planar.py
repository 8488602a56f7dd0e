"""Maximal planar subgraph as an oriented cycle system.

A CycleSystem is a sphere drawing given combinatorially: a set of facial
cycles plus one distinguished rim (the face everything else is drawn
inside of).  Every covered edge lies on exactly two members, traversed in
opposite directions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .cycles import Cycle, Segment, canonical_ring, ring_cycle, seg
from .graphs import Graph, edge_between


class PlanarizationError(ValueError):
    pass


@dataclass
class CycleSystem:
    n: int  # original vertex count; vertices above n are imaginary
    cycles: Dict[int, Cycle]
    rim: Optional[Cycle]  # None once the drawing closes up the whole sphere

    def members(self) -> List[Cycle]:
        out = sorted(self.cycles.values(), key=lambda c: c.id)
        if self.rim is not None:
            out.append(self.rim)
        return out

    def coverage(self) -> Dict[Segment, List[int]]:
        cov: Dict[Segment, List[int]] = {}
        for c in self.members():
            for s in (seg(a, b) for a, b in c.arcs):
                cov.setdefault(s, []).append(c.id)
        return cov

    def segments(self) -> Set[Segment]:
        return set(self.coverage())

    def vertices(self) -> Set[int]:
        vs: Set[int] = set()
        for c in self.members():
            vs.update(c.vertices)
        return vs

    def gf2_cycle_sum(self) -> FrozenSet[Segment]:
        """Symmetric difference of all cycle edge sets (rim excluded)."""
        acc: Set[Segment] = set()
        for c in self.cycles.values():
            acc.symmetric_difference_update(c.segments)
        return frozenset(acc)


def orient_cycles(
    rings: Dict[int, Sequence[int]], rim_id: int
) -> Tuple[Dict[int, Cycle], Cycle]:
    """Assign consistent orientations to a double cover given as vertex rings.

    The rim is oriented from its smallest vertex toward its larger
    neighbour; everything else is forced by the rule that a shared edge is
    traversed oppositely by its two faces.
    """
    cands = {cid: ring_cycle(cid, canonical_ring(list(vs))) for cid, vs in rings.items()}
    cov: Dict[Segment, List[int]] = {}
    for c in cands.values():
        for s in c.segments:
            cov.setdefault(s, []).append(c.id)
    for s, who in cov.items():
        if len(who) != 2:
            raise PlanarizationError(
                f"edge ({s[0]},{s[1]}) lies on {len(who)} cycles, expected 2"
            )
    # rim direction: min vertex toward its larger ring neighbor
    rim_ring = list(cands[rim_id].vertices)
    if rim_ring[1] < rim_ring[-1]:
        rim_ring = [rim_ring[0]] + rim_ring[:0:-1]
    cands[rim_id] = ring_cycle(rim_id, rim_ring)

    flip: Dict[int, bool] = {rim_id: False}
    q = deque([rim_id])
    arcs_of = {cid: set(c.arcs) for cid, c in cands.items()}
    while q:
        cid = q.popleft()
        for s in cands[cid].segments:
            other = [w for w in cov[s] if w != cid]
            oid = other[0] if other else cid
            if oid == cid or oid in flip:
                continue
            same_dir = (s in arcs_of[cid]) == (s in arcs_of[oid])
            # after flips the two traversal directions must differ
            flip[oid] = flip[cid] != same_dir
            q.append(oid)
    if len(flip) < len(cands):
        raise PlanarizationError("cycle system is not edge-connected")
    oriented = {
        cid: (c.reversed() if flip[cid] else c) for cid, c in cands.items()
    }
    # final consistency check
    dirs: Dict[Segment, List[Tuple[int, int]]] = {}
    for c in oriented.values():
        for a, b in c.arcs:
            dirs.setdefault(seg(a, b), []).append((a, b))
    for s, ds in dirs.items():
        if len(ds) != 2 or ds[0] == ds[1]:
            raise PlanarizationError(
                f"inconsistent orientation across edge ({s[0]},{s[1]})"
            )
    rim = oriented.pop(rim_id)
    return oriented, rim


def _check_euler(sys_: CycleSystem) -> None:
    nv = len(sys_.vertices())
    ne = len(sys_.segments())
    nf = len(sys_.cycles) + (1 if sys_.rim is not None else 0)
    if nv - ne + nf != 2:
        raise PlanarizationError(f"Euler check failed: {nv} - {ne} + {nf} != 2")


def select_planar_cycle_system(g: Graph, pin: Optional[dict] = None) -> CycleSystem:
    """Pick facial cycles of a maximal planar subgraph.

    With a pin (fixture mapping), the isometric cycles of g are
    enumerated, and the listed rings are taken verbatim from them and
    oriented.  Without one, no cycles are enumerated: edges are tried in
    edge-id order, and an edge whose ends share a face of the kept
    graph's current embedding (or that has an isolated end) is kept
    without a test, any other edge runs a full planarity test.  The
    embedding of the resulting maximal planar subgraph supplies the
    faces.
    """
    if pin is not None:
        # imported per call: tests and the benchmark's tracer replace it
        from .cycles import enumerate_isometric_cycles

        pool = {
            tuple(canonical_ring(list(c.vertices))): c
            for c in enumerate_isometric_cycles(g)
        }
        rings: Dict[int, Sequence[int]] = {}
        ids = []
        for vs in list(pin["cycles"]) + [pin["rim"]]:
            key = tuple(canonical_ring(list(vs)))
            if key not in pool:
                raise PlanarizationError(
                    f"pinned ring {list(vs)} is not an isometric cycle of the graph"
                )
            ids.append(pool[key].id)
            rings[pool[key].id] = vs
        cycles, rim = orient_cycles(rings, ids[-1])
    else:
        kept = _greedy_planar_subgraph(g)
        _, emb = nx.check_planarity(kept)
        faces = []
        seen_darts = set()
        for u, v in emb.edges:
            if (u, v) in seen_darts:
                continue
            ring = emb.traverse_face(u, v, mark_half_edges=seen_darts)
            faces.append(ring)
        faces.sort(key=lambda r: (len(r), tuple(canonical_ring(list(r)))))
        cycles = {cid: ring_cycle(cid, list(r)) for cid, r in enumerate(faces, start=1)}
        rim = cycles.pop(1)  # smallest face doubles as the rim; the sphere has no outside
    sys_ = CycleSystem(n=g.n, cycles=cycles, rim=rim)
    for s in sys_.segments():
        if edge_between(g, *s) is None:
            raise PlanarizationError(f"system uses non-edge ({s[0]},{s[1]})")
    _check_euler(sys_)
    if sys_.gf2_cycle_sum() != sys_.rim.segments:
        raise PlanarizationError("GF(2) sum of cycles does not equal the rim")
    return sys_


def _greedy_planar_subgraph(g: Graph) -> nx.Graph:
    """Maximal planar subgraph kept by trying the edges in edge-id order.

    `rot` is a planar rotation system of the kept graph: each vertex's
    neighbours in cyclic order.  An edge with an isolated end, or whose
    ends share a face of `rot`, is drawn into that face and kept without
    a test; it cannot break planarity.  Any other edge runs the full
    test, and an accepted one resets `rot` from the test's embedding.
    Kept edges enter `kept` in edge-id order either way and a refused one
    is removed again, so the adjacency order of `kept`, which the final
    embedding follows, is what testing every edge gives.
    """
    kept = nx.Graph()
    kept.add_nodes_from(g.vertices)
    rot: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for _, (u, v) in sorted(g.edges.items()):
        kept.add_edge(u, v)
        if _insert_in_shared_face(rot, u, v):
            continue
        ok, emb = nx.check_planarity(kept)
        if ok:
            rot = {w: list(emb.neighbors_cw_order(w)) for w in rot}
        else:
            kept.remove_edge(u, v)
    return kept


def _insert_in_shared_face(rot: Dict[int, List[int]], u: int, v: int) -> bool:
    """Draw the new edge (u, v) into `rot` if that keeps it planar.

    That holds when u or v is isolated, or when some face holds both.  A
    face is an orbit of the dart step (a, b) -> (b, c), c following a in
    the rotation of b.  The face entered at u through the angle before
    neighbour x receives v before x at u, and u after a at v, where (a, v)
    is its first dart into v; it splits in two.  Returns False, leaving
    `rot` as it was, when no face holds both ends.
    """
    ru, rv = rot[u], rot[v]
    if not ru or not rv:
        ru.append(v)
        rv.append(u)
        return True
    for x in ru:
        a, b = u, x
        while b != v:
            nb = rot[b]
            a, b = b, nb[(nb.index(a) + 1) % len(nb)]
            if a == u and b == x:
                break
        else:
            ru.insert(ru.index(x), v)
            rv.insert(rv.index(a) + 1, u)
            return True
    return False


def hamiltonian_rim(
    sys_: CycleSystem,
    g: Graph,
    pin_ring: Optional[Sequence[int]] = None,
    budget: int = 200_000,
) -> List[int]:
    """A Hamiltonian ring of the system's edges, in canonical order.

    A pinned ring must list 1..n once each, every cyclic pair an edge of
    the system; it is returned in canonical order.  Its two sides are read
    off the drawing afterwards (layering.split_regions): on the sphere,
    any cycle of the system bounds the faces on either side of it.

    Without a pin, a depth-first search from vertex 1 tries neighbours in
    ascending order and returns the first Hamiltonian cycle it reaches.
    It skips any step that leaves a vertex off the path with fewer than
    two neighbours outside the path's interior: such a vertex cannot lie
    on a closing cycle.  `budget` bounds the search steps taken, so it
    counts steps of this pruned search; past it the search raises.
    """
    segs = sys_.segments()
    if pin_ring is not None:
        ring = list(pin_ring)
        if sorted(ring) != list(range(1, g.n + 1)):
            raise PlanarizationError(f"pinned ring does not list 1..{g.n} once each")
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if seg(a, b) not in segs:
                raise PlanarizationError(
                    f"pinned ring pair ({a},{b}) is not an edge of the planar subgraph"
                )
        return canonical_ring(ring)
    adj: Dict[int, List[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in segs:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    # free[v]: neighbours of v not interior to the path.  A vertex off the
    # path needs two of them to lie on the closing cycle.
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
        # every step from here makes `end` interior
        for x in adj[end]:
            free[x] -= 1
        short = [x for x in adj[end] if x not in used and free[x] < 2]
        # a short vertex can only be the next end, so two end the branch
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

    # vertex 1 is an end of the path, never interior, so the search
    # starts from each second vertex in turn
    for second in adj[1]:
        path.append(second)
        used.add(second)
        found = extend()
        path.pop()
        used.discard(second)
        if found is not None:
            return canonical_ring(found)
    raise PlanarizationError("no Hamiltonian ring found in the planar subgraph")


__all__ = [
    "CycleSystem",
    "PlanarizationError",
    "orient_cycles",
    "select_planar_cycle_system",
    "hamiltonian_rim",
]
