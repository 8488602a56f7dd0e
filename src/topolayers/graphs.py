"""Graph input, edge identities and the nonseparability gate.

Vertices are positive integers 1..n; edges get 1-based ids in input order.
Imaginary vertices introduced later by routing always receive ids above n,
so "is this vertex original" is just an id comparison.  The gate
(connected, minimum degree 3, no cut vertex, no bridge) is read off one
lowpoint depth-first search (Hopcroft-Tarjan 1973).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class GraphInputError(ValueError):
    """Raised for malformed edge-list input; message names the line."""


@dataclass
class Graph:
    n: int
    edges: Dict[int, Tuple[int, int]]  # edge id -> (u, v) with u < v
    name: str = ""
    _by_pair: Dict[Tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_pair = {uv: eid for eid, uv in self.edges.items()}

    @property
    def vertices(self) -> List[int]:
        return list(range(1, self.n + 1))


def parse_graph(text: str, name: str = "") -> Graph:
    """Parse an edge list: one "u v" pair per non-comment line.

    Lines starting with '#' and blank lines are skipped.  Edge ids are
    assigned in line order starting from 1.  Errors name the line, or the
    smallest vertex of 1..n that is on no edge.
    """
    edges: Dict[int, Tuple[int, int]] = {}
    seen: Dict[Tuple[int, int], int] = {}
    max_v = 0
    next_id = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(
                f"line {lineno}: expected two vertex ids, got {raw!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError(
                f"line {lineno}: vertex ids must be integers, got {raw!r}"
            ) from None
        if u <= 0 or v <= 0:
            raise GraphInputError(f"line {lineno}: vertex ids must be positive")
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop at v{u}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphInputError(
                f"line {lineno}: duplicate edge (v{pair[0]}, v{pair[1]}) "
                f"first seen as e{seen[pair]}"
            )
        seen[pair] = next_id
        edges[next_id] = pair
        next_id += 1
        max_v = max(max_v, u, v)
    if not edges:
        raise GraphInputError("no edges in input")
    used = {v for pair in edges.values() for v in pair}
    if len(used) < max_v:
        gap = next(v for v in range(1, len(used) + 2) if v not in used)
        raise GraphInputError(f"vertex ids must be 1..{max_v} with no gap: v{gap} is on no edge")
    return Graph(n=max_v, edges=edges, name=name)


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (edge-id order)."""
    lines = [f"{u} {v}" for _, (u, v) in sorted(g.edges.items())]
    return "\n".join(lines) + "\n"


def complete_graph(n: int, name: str = "") -> Graph:
    """K_n with edges in lexicographic order: e1=(1,2), e2=(1,3), ..."""
    edges: Dict[int, Tuple[int, int]] = {}
    eid = 1
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            edges[eid] = (u, v)
            eid += 1
    return Graph(n=n, edges=edges, name=name or f"K{n}")


def edge_between(g: Graph, u: int, v: int) -> Optional[int]:
    """Edge id joining u and v, or None."""
    return g._by_pair.get((min(u, v), max(u, v)))


@dataclass
class NonseparabilityReport:
    connected: bool
    min_degree: int
    cut_vertices: List[int]
    bridges: List[int]  # edge ids

    @property
    def ok(self) -> bool:
        return (
            self.connected
            and self.min_degree >= 3
            and not self.cut_vertices
            and not self.bridges
        )

    def problems(self) -> List[str]:
        out = []
        if not self.connected:
            out.append("graph is disconnected")
        if self.min_degree < 3:
            out.append(f"minimum degree {self.min_degree} < 3")
        for v in self.cut_vertices:
            out.append(f"cut vertex v{v}")
        for eid in self.bridges:
            out.append(f"bridge e{eid}")
        return out


def validate_nonseparable(g: Graph) -> NonseparabilityReport:
    """Check connectivity, min degree 3, and absence of cut vertices/bridges.

    One iterative lowpoint DFS per component of the graph on vertices
    1..n, over integer adjacency lists: a tree edge p-v whose subtree
    reaches no higher than p (low[v] >= disc[p]) makes p a cut vertex,
    unless p is a root, which is one when it has two tree children; one
    whose subtree cannot reach p itself (low[v] > disc[p]) is a bridge.
    Violations are reported, not raised; pipeline entry points decide.
    """
    n = g.n
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    for eid, (u, v) in g.edges.items():
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [0] * (n + 1)  # DFS discovery time, 0 while unvisited
    low = [0] * (n + 1)
    cut = [False] * (n + 1)
    bridges: List[int] = []
    components = 0
    clock = 0
    for root in range(1, n + 1):
        if disc[root]:
            continue
        components += 1
        clock += 1
        disc[root] = low[root] = clock
        root_children = 0
        # (vertex, id of the tree edge it was entered by, its unread edges)
        stack = [(root, 0, iter(adj[root]))]
        while stack:
            v, entered, unread = stack[-1]
            for w, eid in unread:
                if eid == entered:
                    continue
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                    continue
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, eid, iter(adj[w])))
                break
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    if p == root:
                        root_children += 1
                    else:
                        cut[p] = True
                    if low[v] > disc[p]:
                        bridges.append(entered)
        if root_children >= 2:
            cut[root] = True
    return NonseparabilityReport(
        connected=components == 1,
        min_degree=min(len(adj[v]) for v in range(1, n + 1)),
        cut_vertices=[v for v in range(1, n + 1) if cut[v]],
        bridges=sorted(bridges),
    )


__all__ = [
    "Graph",
    "GraphInputError",
    "NonseparabilityReport",
    "parse_graph",
    "format_graph",
    "complete_graph",
    "edge_between",
    "validate_nonseparable",
]
