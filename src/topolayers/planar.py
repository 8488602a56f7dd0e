"""Maximal planar subgraph as an oriented cycle system.

A CycleSystem is a sphere drawing given combinatorially: a set of facial
cycles plus one distinguished rim (the face everything else is drawn
inside of).  Every covered edge lies on exactly two members, traversed in
opposite directions.

Without a pin, the maximal planar subgraph is grown greedily, block by
block: the blocks of the kept graph are kept on-line, each with its own
rotation, and an edge is kept without a planarity test when it joins two
components or can be drawn into a face of the blocks it closes into one.
The remaining planarity tests, each on one block plus one edge, and the
final embedding of the whole kept graph, whose faces become the cycle
system, run on `_lr_rotation`, an in-package left-right test.  A pin's
rings are oriented by one flood fill.  Pinned or not, the system is
checked with the verifier's `verify_system`.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cycles import Cycle, Segment, canonical_ring, ring_cycle
from .graphs import Graph
from .verify import _ring_problems, segment_table, trace_faces, verify_system

RING_SEARCH_BUDGET = 200_000  # steps of `hamiltonian_rim`'s unpinned search


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


def _orient_cycles(
    rings: Dict[int, Sequence[int]], rim_id: int
) -> Tuple[Dict[int, Cycle], Cycle]:
    """Orient a double cover given as vertex rings by one flood fill.

    The rim is oriented from its smallest vertex toward its larger
    neighbour; everything else is forced by the rule that a shared edge is
    traversed oppositely by its two faces, read off the verifier's
    `segment_table` of the rings.  The fill needs every edge on exactly
    two rings and every ring reached, so those are refused here;
    whether the result is a consistent orientation is left to the
    verifier (`verify_system`), which the caller runs next.
    """
    cands = {cid: ring_cycle(cid, canonical_ring(list(vs))) for cid, vs in rings.items()}
    # rim direction: min vertex toward its larger ring neighbor
    rim_ring = list(cands[rim_id].vertices)
    if rim_ring[1] < rim_ring[-1]:
        rim_ring = [rim_ring[0]] + rim_ring[:0:-1]
    cands[rim_id] = ring_cycle(rim_id, rim_ring)
    table = segment_table([(cid, c.arcs) for cid, c in cands.items()])
    for (a, b), row in table.items():
        if len(row) != 2:
            raise PlanarizationError(f"edge ({a},{b}) lies on {len(row)} cycles, expected 2")

    flip: Dict[int, bool] = {rim_id: False}
    q = deque([rim_id])
    while q:
        cid = q.popleft()
        for s in cands[cid].segments:
            (c1, arc1), (c2, arc2) = table[s]
            # a ring that crosses s twice finds only itself there
            oid = c2 if c1 == cid else c1
            if oid == cid or oid in flip:
                continue
            # after flips the two traversal directions must differ
            flip[oid] = flip[cid] != (arc1 == arc2)
            q.append(oid)
    if len(flip) < len(cands):
        raise PlanarizationError("cycle system is not edge-connected")
    oriented = {
        cid: (c.reversed() if flip[cid] else c) for cid, c in cands.items()
    }
    rim = oriented.pop(rim_id)
    return oriented, rim


def select_planar_cycle_system(g: Graph, pin: Optional[dict] = None) -> CycleSystem:
    """Pick facial cycles of a maximal planar subgraph.

    With a pin (fixture mapping), the isometric cycles of g are
    enumerated, and the listed rings are taken verbatim from them and
    oriented (`_orient_cycles`); a pin that lists one ring twice, or its
    rim among its cycles too, is refused.  Without one, no cycles are
    enumerated: edges are tried in edge-id order and kept while the kept
    graph stays planar, block by block (`_greedy_planar_subgraph`).  A
    kept graph with a bridge or a cut vertex has faces that are not simple
    cycles, so it is refused naming the smallest bridge, or else the
    smallest cut vertex, read off its blocks.  Otherwise `trace_faces`
    traces the faces of the kept graph's counter-clockwise rotation, each
    from its smallest vertex.

    Either way, `verify_system` then checks the system itself; the first
    check it fails is named in the refusal with that check's first
    detail.
    """
    if pin is not None:
        # imported per call: tests and the benchmark's tracer replace it
        from .cycles import enumerate_isometric_cycles

        pool = {
            tuple(canonical_ring(list(c.vertices))): c
            for c in enumerate_isometric_cycles(g)
        }
        rings: Dict[int, Sequence[int]] = {}
        for vs in list(pin["cycles"]) + [pin["rim"]]:
            key = tuple(canonical_ring(list(vs)))
            if key not in pool:
                raise PlanarizationError(
                    f"pinned ring {list(vs)} is not an isometric cycle of the graph"
                )
            cid = pool[key].id
            if cid in rings:
                raise PlanarizationError(f"pinned ring {list(vs)} is listed twice")
            rings[cid] = vs
        cycles, rim = _orient_cycles(rings, cid)  # the rim is listed last
    else:
        rot = _greedy_planar_subgraph(g)
        faces = trace_faces({v: ns[::-1] for v, ns in enumerate(rot)})
        faces.sort(key=lambda arcs: (len(arcs), tuple(canonical_ring([a for a, _ in arcs]))))
        cycles = {cid: Cycle(cid, arcs) for cid, arcs in enumerate(faces, start=1)}
        rim = cycles.pop(1)  # smallest face doubles as the rim; the sphere has no outside
    sys_ = CycleSystem(n=g.n, cycles=cycles, rim=rim)
    for name, res in verify_system(sys_).checks.items():
        if not res.ok:
            raise PlanarizationError(f"{name} check failed: {res.details[0]}")
    return sys_


def _greedy_planar_subgraph(g: Graph) -> List[List[int]]:
    """Clockwise rotation of the maximal planar subgraph kept by trying
    the edges in edge-id order, indexed by vertex id (slot 0 empty).

    The loop keeps the blocks of the kept graph on-line (`_Blocks`), each
    with a plane rotation of its own, and decides each edge exactly, since
    a graph is planar iff each of its blocks is.  An edge with an isolated
    end, or whose ends lie in different components, becomes a bridge
    block.  An edge inside one block is drawn into a shared face of that
    block's rotation, or else `_lr_rotation` tests the block plus the
    edge.  An edge between different blocks of one component closes the
    blocks on its block-cut path into one block, which is planar iff each
    of them plus the edge between its two attachment vertices is: each of
    those is a minor of the whole.  A block whose attachment vertices
    share no face is tested so by the kernel and re-embedded from the
    test's rotation less that edge, where they do.  Then the blocks'
    rotations are spliced at each cut vertex and the edge is drawn into
    the merged face.  A refused edge leaves every block's edges as they
    were.

    A kept graph with a bridge (a single-edge block) or a cut vertex (a
    vertex in two or more blocks) is refused naming the smallest bridge,
    or else the smallest cut vertex, before anything is embedded.  The
    returned rotation is one last test on the kept (low, high) pairs
    stably sorted by low end, the order networkx's `LRPlanarity` copies
    them in, so it is the embedding networkx's planarity test gives the
    kept graph.
    """
    blocks = _Blocks(g.n)
    pairs = [(u, v) for _, (u, v) in sorted(g.edges.items()) if blocks.add(u, v)]
    live = [vs for vs in blocks.verts if vs is not None]
    bridges = [tuple(sorted(vs)) for vs in live if len(vs) == 2]
    if bridges:
        raise PlanarizationError(
            "the planar subgraph has a bridge (%d,%d), so its faces are not simple cycles"
            % min(bridges)
        )
    seen: Set[int] = set()
    cuts: Set[int] = set()
    for vs in live:
        for x in vs:
            (cuts if x in seen else seen).add(x)
    if cuts:
        raise PlanarizationError(
            f"the planar subgraph has a cut vertex v{min(cuts)}, so its faces are not simple cycles"
        )
    adj: List[List[int]] = [[] for _ in range(g.n + 1)]
    for u, v in sorted(pairs, key=lambda p: p[0]):
        adj[u].append(v)
        adj[v].append(u)
    return _lr_rotation(adj)


class _Blocks:
    """The blocks of a growing plane graph, each with its own rotation.

    Blocks are kept on-line over a rooted spanning forest (Westbrook and
    Tarjan 1992): `blk[x]` is the block holding the tree edge from x to
    its parent, -1 at a root, and `head[b]` is block b's vertex nearest
    the root, the one vertex of b whose tree edge lies outside it.  So
    stepping from x to `head[blk[x]]` climbs one block of the block-cut
    tree.  Block b numbers its vertices locally: `verts[b]` lists them
    and `index[b]` maps them back.  In those ids, `rot[b]` is its plane
    rotation and `adj[b]` its adjacency, each of whose lists is sorted by
    vertex, the order of edge ids in a graph read from sorted pairs: the
    kernel refuses sooner, and embeds with fewer later tests, reading
    that order than the rotation's.  A retired block's slots are None.  Two
    components are joined by re-rooting the smaller tree at its end of
    the new bridge, and blocks are merged into the largest of them, so
    every vertex is moved O(log n) times.
    """

    def __init__(self, n: int) -> None:
        self.parent = [-1] * (n + 1)
        self.depth = [0] * (n + 1)
        self.blk = [-1] * (n + 1)
        self.comp = list(range(n + 1))
        self.members: List[Optional[List[int]]] = [[v] for v in range(n + 1)]
        self.verts: List[Optional[List[int]]] = []
        self.index: List[Optional[Dict[int, int]]] = []
        self.rot: List[Optional[List[List[int]]]] = []
        self.adj: List[Optional[List[List[int]]]] = []
        self.head: List[int] = []

    def add(self, u: int, v: int) -> bool:
        """Keep the edge (u, v) if the graph stays planar; say whether it did."""
        if self.comp[u] != self.comp[v]:
            self._join(u, v)
            return True
        # one block holds both ends when their tree edges lie in it, or
        # when one end is the head of the other's block
        blk, head = self.blk, self.head
        bu, bv = blk[u], blk[v]
        b = bv if bu == bv or (bv >= 0 and head[bv] == u) else bu if bu >= 0 and head[bu] == v else -1
        if b >= 0:
            I = self.index[b]
            if not _insert_in_shared_face(self.rot[b], I[u], I[v]):
                tested = self._test(b, u, v)
                if tested is None:
                    return False
                self.rot[b] = tested
            self._link(b, u, v)
            return True
        # The blocks on the path plus (u, v) are planar iff each of them
        # plus the edge between its two attachment vertices is: each of
        # those is a minor of the whole, and the splice embeds the whole.
        chain, z = self._path(u, v)
        angles = []
        for b, a, c in chain:
            I = self.index[b]
            angle = _shared_face(self.rot[b], I[a], I[c])
            if angle is None:
                tested = self._test(b, a, c)
                if tested is None:
                    return False
                # without (a, c), the two faces beside it are one
                tested[I[a]].remove(I[c])
                tested[I[c]].remove(I[a])
                self.rot[b] = tested
                angle = _shared_face(tested, I[a], I[c])
            angles.append(angle)
        self._splice(chain, z, angles, u, v)
        return True

    def _test(self, b: int, a: int, c: int) -> Optional[List[List[int]]]:
        """The kernel's rotation of block b plus the edge (a, c), or None
        when that is not planar."""
        V, I, A = self.verts[b], self.index[b], self.adj[b]
        ia, ic = I[a], I[c]
        insort(A[ia], ic, key=V.__getitem__)
        insort(A[ic], ia, key=V.__getitem__)
        tested = _lr_rotation(A)
        A[ia].remove(ic)
        A[ic].remove(ia)
        return tested

    def _link(self, b: int, u: int, v: int) -> None:
        """Add the edge (u, v) to block b's adjacency."""
        V, I, A = self.verts[b], self.index[b], self.adj[b]
        insort(A[I[u]], I[v], key=V.__getitem__)
        insort(A[I[v]], I[u], key=V.__getitem__)

    def _path(self, u: int, v: int) -> Tuple[List[Tuple[int, int, int]], int]:
        """The blocks from u to v on the block-cut tree, each as (block,
        vertex it is entered at, vertex it is left at), and the vertex
        nearest the root of their union."""
        depth, blk, head = self.depth, self.blk, self.head
        x, y = u, v
        xs: List[int] = []
        ys: List[int] = []
        # climb the deeper side one block at a time to the first common
        # vertex; a root is never deeper, so it never climbs
        while x != y:
            if depth[x] >= depth[y]:
                xs.append(x)
                x = head[blk[x]]
            else:
                ys.append(y)
                y = head[blk[y]]
        chain = [(blk[a], a, c) for a, c in zip(xs, xs[1:] + [x])]
        down = [(blk[a], c, a) for a, c in zip(ys, ys[1:] + [x])][::-1]
        if xs and ys and blk[xs[-1]] == blk[ys[-1]]:
            # both sides climbed out of one block: the path crosses it
            chain[-1] = (chain[-1][0], xs[-1], ys[-1])
            del down[0]
        return chain + down, x

    def _join(self, u: int, v: int) -> None:
        """Add the bridge (u, v) between two components."""
        comp, members, parent, blk, depth, head = (
            self.comp, self.members, self.parent, self.blk, self.depth, self.head
        )
        if len(members[comp[u]]) < len(members[comp[v]]):
            u, v = v, u
        b = len(self.verts)
        self.verts.append([u, v])
        self.index.append({u: 0, v: 1})
        self.rot.append([[1], [0]])
        self.adj.append([[1], [0]])
        head.append(u)
        # re-root v's (smaller) tree at v, hung from u
        small = members[comp[v]]
        members[comp[v]] = None
        tree: Dict[int, List[Tuple[int, int]]] = {x: [] for x in small}
        for x in small:
            p = parent[x]
            if p >= 0:
                tree[x].append((p, blk[x]))
                tree[p].append((x, blk[x]))
        cu = comp[u]
        for x in small:
            comp[x] = cu
        members[cu].extend(small)
        parent[v], blk[v], depth[v] = u, b, depth[u] + 1
        topped = set()
        stack = [v]
        while stack:
            x = stack.pop()
            for y, c in tree[x]:
                if y != parent[x]:
                    parent[y], blk[y], depth[y] = x, c, depth[x] + 1
                    if c not in topped:  # a block is first met at its head
                        topped.add(c)
                        head[c] = x
                    stack.append(y)

    def _splice(
        self,
        chain: List[Tuple[int, int, int]],
        z: int,
        angles: List[Tuple[int, int]],
        u: int,
        v: int,
    ) -> None:
        """Merge the chain's blocks into the largest, s, and draw (u, v)
        into the face the merge makes.

        `angles[i]` is `_shared_face` of chain block i's two attachment
        vertices, in that block's local ids.  The other blocks are
        renumbered into s's tables outward from s, so each shares one
        vertex, its cut vertex, with what is merged already, and its other
        vertices are new.  At the cut vertex its adjacency list is merged
        in, and its rotation is opened into the angle where the face its
        neighbour on the chain passes, so that their two faces, each
        holding the two attachment vertices of its block, become one.
        """
        verts, index, rot, adj = self.verts, self.index, self.rot, self.adj
        s = max((b for b, _, _ in chain), key=lambda b: len(verts[b]))
        V, I, R, A = verts[s], index[s], rot[s], adj[s]
        k = next(i for i, (b, _, _) in enumerate(chain) if b == s)
        for i in [*range(k - 1, -1, -1), *range(k + 1, len(chain))]:
            b, entry, exit_ = chain[i]
            Vb = verts[b]
            cut = exit_ if i < k else entry
            for x in Vb:
                if x != cut:
                    I[x] = len(V)
                    V.append(x)
            m = [I[x] for x in Vb]
            ic, lc = I[cut], index[b][cut]
            A.extend([m[y] for y in ns] for x, ns in zip(Vb, adj[b]) if x != cut)
            A[ic] = sorted(A[ic] + [m[y] for y in adj[b][lc]], key=V.__getitem__)
            R.extend([m[y] for y in ns] for x, ns in zip(Vb, rot[b]) if x != cut)
            # the block before the cut vertex on the chain enters it from
            # p, the one after leaves it toward x, so the later block's
            # list, opened at x, goes in right after p
            mine = [m[y] for y in rot[b][lc]]
            if i < k:
                near = chain[i + 1][0]
                left, p = mine, m[angles[i][1]]
                right, x = R[ic], I[verts[near][angles[i + 1][0]]]
            else:
                near = chain[i - 1][0]
                left, p = R[ic], I[verts[near][angles[i - 1][1]]]
                right, x = mine, m[angles[i][0]]
            j, h = left.index(p) + 1, right.index(x)
            R[ic] = left[:j] + right[h:] + right[:h] + left[j:]
        _insert_in_shared_face(R, I[u], I[v])  # the merged face holds both
        self._link(s, u, v)
        self._retire(chain, s, z)

    def _retire(self, chain: List[Tuple[int, int, int]], s: int, z: int) -> None:
        """Point the tree edges of the chain's other blocks at s, whose
        head becomes z, and drop their tables."""
        verts, blk = self.verts, self.blk
        for b, _, _ in chain:
            if b != s:
                hb = self.head[b]
                for x in verts[b]:
                    if x != hb:
                        blk[x] = s
                verts[b] = self.index[b] = self.rot[b] = self.adj[b] = None
        self.head[s] = z


def _lr_rotation(adj: List[List[int]]) -> Optional[List[List[int]]]:
    """Brandes' left-right planarity test (2009) on a simple graph.

    `adj[v]` lists vertex v's neighbours, v in 0..k-1; their order fixes
    the depth-first search, which starts from each unvisited vertex in
    id order.  Returns each vertex's neighbours in clockwise order, a
    plane rotation system indexed the same way, or None when the graph
    is not planar.  The phases are those of networkx's `LRPlanarity`:
    orientation (DFS heights, lowpoints, nesting depths), testing (a
    stack of conflict pairs), sign, and embedding.  Each edge is
    numbered in the order the DFS orients it, and every per-edge
    quantity is a flat list indexed by that number.  The edge v-w met
    from v is already oriented exactly when w is a finished descendant
    (higher than v) or the tail of v's tree edge.  A conflict pair is a
    list [left low, left high, right low, right high] of return edges,
    -1 standing for no edge and an interval being empty when both its
    ends are -1.  `lowpt`, `ref` and `side` have one spare slot at index
    -1, where the writes keyed by no edge land; its lowpoint -1 is below
    every height, so an empty interval never conflicts.  Every DFS keeps
    an explicit stack, so no depth of the graph reaches Python's
    recursion limit.
    """
    k = len(adj)
    m = sum(map(len, adj)) // 2
    height = [-1] * k
    up = [-1] * k  # parent vertex and tree edge of each non-root
    parent = [-1] * k
    head = [0] * m
    lowpt, lowpt2, nesting = [0] * m + [-1], [0] * m, [0] * m
    out: List[List[int]] = [[] for _ in range(k)]
    roots = []
    oriented = 0  # edges so far, the next edge's id
    # orientation: a tree edge's lowpoints are final once its head is
    # popped, a back edge's at once; then each updates its tail's tree edge
    for r in range(k):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [(r, iter(adj[r]))]
        while stack:
            v, it = stack[-1]
            hv, uv = height[v], up[v]
            for w in it:
                hw = height[w]
                if hw > hv or w == uv:  # oriented from w already
                    continue
                vw, oriented = oriented, oriented + 1
                head[vw] = w
                out[v].append(vw)
                if hw < 0:
                    lowpt[vw] = lowpt2[vw] = hv
                    up[w], parent[w], height[w] = v, vw, hv + 1
                    stack.append((w, iter(adj[w])))
                    break
                lowpt[vw] = hw
                nesting[vw] = 2 * hw
                # v's tree edge pe: both its lowpoints are at most hv - 1,
                # so the back edge's second lowpoint (hv) never counts
                pe = parent[v]
                lp = lowpt[pe]
                if hw < lp:
                    lowpt2[pe], lowpt[pe] = lp, hw
                elif lp < hw < lowpt2[pe]:
                    lowpt2[pe] = hw
            else:
                stack.pop()
                if not stack:
                    break
                vw = parent[v]
                v = uv
                low, low2 = lowpt[vw], lowpt2[vw]
                nesting[vw] = 2 * low + (low2 < height[v])
                pe = parent[v]
                if pe >= 0:
                    if low < lowpt[pe]:
                        lowpt2[pe] = min(lowpt[pe], low2)
                        lowpt[pe] = low
                    elif low > lowpt[pe]:
                        lowpt2[pe] = min(lowpt2[pe], low)
                    else:
                        lowpt2[pe] = min(lowpt2[pe], low2)

    # testing: every return edge lands in a conflict pair whose two
    # intervals must lie on opposite sides; `ref` and `side` record each
    # edge's side relative to another's
    order = [sorted(es, key=nesting.__getitem__) for es in out]
    S: List[List[int]] = []
    bottom: List[Optional[List[int]]] = [None] * m
    lowpt_edge = [-1] * m
    ref = [-1] * (m + 1)
    side = [1] * (m + 1)
    for r in roots:
        stack = [(r, iter(order[r]))]
        while stack:
            v, it = stack[-1]
            ei = next(it, -1)
            if ei < 0:
                stack.pop()
                if not stack:
                    break
                # v is done: trim the back edges that end at its parent u
                ei = parent[v]
                v = u = up[v]
                hu = height[u]
                while S:
                    P = S[-1]
                    if P[0] == P[1] == -1:
                        lowest = lowpt[P[2]]
                    elif P[2] == P[3] == -1:
                        lowest = lowpt[P[0]]
                    else:
                        lowest = min(lowpt[P[0]], lowpt[P[2]])
                    if lowest != hu:
                        break
                    S.pop()
                    side[P[0]] = -1
                if S:
                    P = S[-1]
                    while P[1] >= 0 and head[P[1]] == u:
                        P[1] = ref[P[1]]
                    if P[1] < 0 and P[0] >= 0:
                        ref[P[0]] = P[2]
                        side[P[0]] = -1
                        P[0] = -1
                    while P[3] >= 0 and head[P[3]] == u:
                        P[3] = ref[P[3]]
                    if P[3] < 0 and P[2] >= 0:
                        ref[P[2]] = P[0]
                        side[P[2]] = -1
                        P[2] = -1
                if lowpt[ei] < hu:
                    hl, hr = S[-1][1], S[-1][3]
                    ref[ei] = hl if lowpt[hl] > lowpt[hr] else hr
            else:
                bottom[ei] = S[-1] if S else None
                w = head[ei]
                if parent[w] == ei:  # tree edge
                    stack.append((w, iter(order[w])))
                    continue
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
            lb = lowpt[ei]
            if lb >= height[v]:
                continue
            e = parent[v]
            if ei == order[v][0]:
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # merge the return edges of ei into P's right interval
            P = [-1, -1, -1, -1]
            while True:
                Q = S.pop()
                if Q[0] >= 0 or Q[1] >= 0:
                    Q[:] = Q[2], Q[3], Q[0], Q[1]
                    if Q[0] >= 0 or Q[1] >= 0:
                        return None
                if lowpt[Q[2]] > lowpt[e]:
                    if P[2] == P[3] == -1:
                        P[3] = Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                else:
                    ref[Q[2]] = lowpt_edge[e]
                if (S[-1] if S else None) is bottom[ei]:
                    break
            # merge the conflicting return edges of ei's elder siblings
            while lowpt[S[-1][1]] > lb or lowpt[S[-1][3]] > lb:
                Q = S.pop()
                if lowpt[Q[3]] > lb:
                    Q[:] = Q[2], Q[3], Q[0], Q[1]
                    if lowpt[Q[3]] > lb:
                        return None
                ref[P[2]] = Q[3]
                if Q[2] >= 0:
                    P[2] = Q[2]
                if P[0] == P[1] == -1:
                    P[1] = Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if max(P) >= 0:
                S.append(P)

    # sign: resolve each edge's side along its chain of references
    for e in range(m):
        chain = [e]
        r = ref[e]
        while r >= 0:
            chain.append(r)
            r = ref[r]
        s = 1
        for x in reversed(chain):
            s = side[x] = side[x] * s
            ref[x] = -1
        nesting[e] *= s
    # embedding: out-edges in signed nesting order, clockwise from the
    # leftmost; then each in-edge beside the tree edge its tail hangs from
    order = [sorted(es, key=nesting.__getitem__) for es in out]
    rot = [[head[e] for e in es] for es in order]
    left = [-1] * k
    right = [-1] * k
    for r in roots:
        stack = [(r, iter(order[r]))]
        while stack:
            v, it = stack[-1]
            for e in it:
                w = head[e]
                rw = rot[w]
                if parent[w] == e:  # tree edge
                    rw.insert(0, v)
                    left[v] = right[v] = w
                    stack.append((w, iter(order[w])))
                    break
                if side[e] == 1:
                    rw.insert(rw.index(right[w]) + 1, v)
                else:
                    rw.insert(rw.index(left[w]), v)
                    left[w] = v
            else:
                stack.pop()
    return rot


def _shared_face(rot: List[List[int]], u: int, v: int) -> Optional[Tuple[int, int]]:
    """A face of `rot` that holds both u and v, as (x, a): it leaves u
    toward x and enters v from a.  None when no face holds both.

    A face is an orbit of the dart step (a, b) -> (b, c), c following a
    in the rotation of b; the faces tried are those leaving u toward each
    of its neighbours in turn.
    """
    for x in rot[u]:
        a, b = u, x
        while b != v:
            nb = rot[b]
            a, b = b, nb[(nb.index(a) + 1) % len(nb)]
            if a == u and b == x:
                break
        else:
            return x, a
    return None


def _insert_in_shared_face(rot: List[List[int]], u: int, v: int) -> bool:
    """Draw the new edge (u, v) into a face of `rot` that holds both ends.

    The face found by `_shared_face`, leaving u toward x and entering v
    from a, receives v before x at u and u after a at v; it splits in
    two.  Returns False, leaving `rot` as it was, when no face holds both.
    """
    angle = _shared_face(rot, u, v)
    if angle is None:
        return False
    x, a = angle
    rot[u].insert(rot[u].index(x), v)
    rot[v].insert(rot[v].index(a) + 1, u)
    return True


def hamiltonian_rim(sys_: CycleSystem, g: Graph, pin_ring: Optional[Sequence[int]] = None) -> List[int]:
    """A Hamiltonian ring of the system's edges, in canonical order.

    `decompose` searches when a second layer opens.  A pinned ring must
    list 1..n once each, every cyclic pair an edge of the system (the
    verifier's `_ring_problems`); it is returned in canonical order.  Its
    two sides are read off the drawing afterwards (layering.split_regions):
    on the sphere, any cycle of the system bounds the faces on either side.

    Without a pin, a depth-first search from vertex 1 tries neighbours in
    ascending order and returns the first Hamiltonian cycle it reaches.
    It skips any step that leaves a vertex off the path with fewer than
    two neighbours outside the path's interior: such a vertex cannot lie
    on a closing cycle.  `RING_SEARCH_BUDGET` bounds the steps of this
    pruned search; past it the search raises.
    """
    segs = sys_.segments()
    if pin_ring is not None:
        ring = list(pin_ring)
        problems = _ring_problems(g.n, ring, segs)
        if problems:
            raise PlanarizationError(f"pinned {problems[0]}")
        return canonical_ring(ring)
    adj: List[List[int]] = [[] for _ in range(g.n + 1)]
    for a, b in segs:
        adj[a].append(b)
        adj[b].append(a)
    for ns in adj:
        ns.sort()
    # free[v]: neighbours of v not interior to the path.  A vertex off the
    # path needs two of them to lie on the closing cycle.
    free = [len(ns) for ns in adj]
    path: List[int] = [1]
    used = [False] * (g.n + 1)
    used[1] = True
    # steps[i] lists the successors of path[i] and nxt[i] indexes the
    # first one untried; an explicit stack, so that a ring may be longer
    # than Python's recursion limit.  Vertex 1 is an end of the path,
    # never interior, so every neighbour of it is a step.
    steps: List[Sequence[int]] = [adj[1]]
    nxt = [0]
    tried = 0
    while steps:
        top, i = steps[-1], nxt[-1]
        while i < len(top) and used[top[i]]:
            i += 1
        if i == len(top):
            steps.pop()
            nxt.pop()
            if steps:
                end = path.pop()
                used[end] = False
                for x in adj[end]:
                    free[x] += 1
            continue
        w = top[i]
        nxt[-1] = i + 1
        tried += 1
        if tried > RING_SEARCH_BUDGET:
            raise PlanarizationError("Hamiltonian ring search budget exhausted")
        if len(path) + 1 == g.n:
            if 1 in adj[w]:
                return canonical_ring([*path, w])
            continue
        path.append(w)
        used[w] = True
        # every step from here makes w interior; a neighbour off the path
        # left short of free neighbours can only be the next end, so two
        # end the branch
        short = 0
        for x in adj[w]:
            free[x] -= 1
            if free[x] < 2 and not used[x]:
                short += 1
                last = x
        steps.append(adj[w] if short == 0 else (last,) if short == 1 else ())
        nxt.append(0)
    raise PlanarizationError("no Hamiltonian ring found in the planar subgraph")


__all__ = [
    "CycleSystem",
    "PlanarizationError",
    "select_planar_cycle_system",
    "hamiltonian_rim",
]
