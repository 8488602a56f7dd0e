"""Maximal planar subgraph as an oriented cycle system.

A CycleSystem is a sphere drawing given combinatorially: a set of facial
cycles plus one distinguished rim (the face everything else is drawn
inside of).  Every covered edge lies on exactly two members, traversed in
opposite directions.

Without a pin, the maximal planar subgraph is grown greedily.  Its
planarity tests and its final embedding, whose faces become the cycle
system, all run on `_lr_rotation`, an in-package left-right test on plain
adjacency lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .cycles import Cycle, Segment, canonical_ring, ring_cycle, seg
from .graphs import Graph, edge_between
from .verify import trace_faces


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

    def segments(self) -> Set[Segment]:
        return {s for c in self.members() for s in c.segments}

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
    without a test, any other edge runs the full left-right test of
    `_lr_rotation` (`_greedy_planar_subgraph`).  `trace_faces` traces
    the faces of the resulting subgraph's counter-clockwise rotation,
    each from its smallest vertex.  A face that walks both sides of an
    edge means the edge is a bridge; the smallest is named in the
    refusal.
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
        rot = _greedy_planar_subgraph(g)
        faces = trace_faces({v: ns[::-1] for v, ns in rot.items()})
        # a face walks both sides of an edge exactly when it is a bridge
        bridges = []
        for arcs in faces:
            walked = set()
            for a, b in arcs:
                s = seg(a, b)
                if s in walked:
                    bridges.append(s)
                walked.add(s)
        if bridges:
            a, b = min(bridges)
            raise PlanarizationError(
                f"the planar subgraph has a bridge ({a},{b}), so its faces are not simple cycles"
            )
        faces.sort(key=lambda arcs: (len(arcs), tuple(canonical_ring([a for a, _ in arcs]))))
        cycles = {cid: Cycle(cid, arcs) for cid, arcs in enumerate(faces, start=1)}
        rim = cycles.pop(1)  # smallest face doubles as the rim; the sphere has no outside
    sys_ = CycleSystem(n=g.n, cycles=cycles, rim=rim)
    for s in sys_.segments():
        if edge_between(g, *s) is None:
            raise PlanarizationError(f"system uses non-edge ({s[0]},{s[1]})")
    _check_euler(sys_)
    if sys_.gf2_cycle_sum() != sys_.rim.segments:
        raise PlanarizationError("GF(2) sum of cycles does not equal the rim")
    return sys_


def _greedy_planar_subgraph(g: Graph) -> Dict[int, List[int]]:
    """Clockwise rotation of the maximal planar subgraph kept by trying
    the edges in edge-id order.

    `rot` is a planar rotation system of the kept graph: each vertex's
    neighbours in cyclic order.  An edge with an isolated end, or whose
    ends share a face of `rot`, is drawn into that face and kept without
    a test; it cannot break planarity.  Any other edge runs the full
    left-right test of `_lr_rotation` on `adj`, the kept adjacency in
    edge-id order: a refused edge is dropped again, and an accepted one
    replaces `rot` with the test's embedding.  The returned rotation is
    one last test on the kept (low, high) pairs stably sorted by low end,
    the order networkx's `LRPlanarity` copies them in, so it is the
    embedding networkx's planarity test gives the kept graph.
    """
    adj: Dict[int, List[int]] = {v: [] for v in g.vertices}
    rot: Dict[int, List[int]] = {v: [] for v in g.vertices}
    pairs = []
    for _, (u, v) in sorted(g.edges.items()):
        adj[u].append(v)
        adj[v].append(u)
        if not _insert_in_shared_face(rot, u, v):
            tested = _lr_rotation(adj)
            if tested is None:
                adj[u].pop()
                adj[v].pop()
                continue
            rot = tested
        pairs.append((u, v))
    adj = {v: [] for v in g.vertices}
    for u, v in sorted(pairs, key=lambda p: p[0]):
        adj[u].append(v)
        adj[v].append(u)
    return _lr_rotation(adj)


def _lr_rotation(adj: Dict[int, List[int]]) -> Optional[Dict[int, List[int]]]:
    """Brandes' left-right planarity test (2009) on a simple graph.

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
        if len(ring) != g.n or sorted(ring) != list(range(1, g.n + 1)):
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
    # steps[i]: the untried successors of path[i], kept on an explicit
    # stack so that a ring may be longer than Python's recursion limit.
    # Vertex 1 is an end of the path, never interior, so every neighbour
    # of it is a step.
    steps: List[Iterator[int]] = [iter(adj[1])]
    tried = 0
    while steps:
        w = next((x for x in steps[-1] if x not in used), None)
        if w is None:
            steps.pop()
            if steps:
                end = path.pop()
                used.discard(end)
                for x in adj[end]:
                    free[x] += 1
            continue
        tried += 1
        if tried > budget:
            raise PlanarizationError("Hamiltonian ring search budget exhausted")
        if len(path) + 1 == g.n:
            if 1 in adj[w]:
                return canonical_ring([*path, w])
            continue
        path.append(w)
        used.add(w)
        # every step from here makes w interior
        for x in adj[w]:
            free[x] -= 1
        short = [x for x in adj[w] if x not in used and free[x] < 2]
        # a short vertex can only be the next end, so two end the branch
        steps.append(iter((short or adj[w]) if len(short) < 2 else ()))
    raise PlanarizationError("no Hamiltonian ring found in the planar subgraph")


__all__ = [
    "CycleSystem",
    "PlanarizationError",
    "orient_cycles",
    "select_planar_cycle_system",
    "hamiltonian_rim",
]
