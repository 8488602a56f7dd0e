"""Graph input, edge identities and the nonseparability gate.

Vertices are positive integers 1..n; edges get 1-based ids in input order.
Imaginary vertices introduced later by routing always receive ids above n,
so "is this vertex original" is just an id comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class GraphInputError(ValueError):
    """Raised for malformed edge-list input; message names the line."""


@dataclass
class Graph:
    n: int
    edges: Dict[int, Tuple[int, int]]  # edge id -> (u, v) with u < v
    name: str = ""
    _by_pair: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_pair:
            self._by_pair = {uv: eid for eid, uv in self.edges.items()}

    @property
    def vertices(self) -> List[int]:
        return list(range(1, self.n + 1))

    def degree(self, v: int) -> int:
        return sum(1 for u, w in self.edges.values() if v in (u, w))


def parse_graph(text: str, name: str = "") -> Graph:
    """Parse an edge list: one "u v" pair per non-comment line.

    Lines starting with '#' and blank lines are skipped.  Edge ids are
    assigned in line order starting from 1.  Errors name the line.
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


def _adjacency(g: Graph) -> Dict[int, List[Tuple[int, int]]]:
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in g.vertices}
    for eid, (u, v) in sorted(g.edges.items()):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def validate_nonseparable(g: Graph) -> NonseparabilityReport:
    """Check connectivity, min degree 3, and absence of cut vertices/bridges.

    Violations are reported, not raised; pipeline entry points decide.
    """
    adj = _adjacency(g)
    # connectivity
    seen = {1}
    q = deque([1])
    while q:
        u = q.popleft()
        for w, _ in adj[u]:
            if w not in seen:
                seen.add(w)
                q.append(w)
    connected = len(seen) == g.n
    min_degree = min(len(adj[v]) for v in g.vertices) if g.n else 0

    # cut vertices and bridges via iterative Tarjan lowpoint
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    cut: set = set()
    bridges: List[int] = []
    timer = 0
    for root in g.vertices:
        if root in disc:
            continue
        stack: List[Tuple[int, int, int, int]] = [(root, -1, -1, 0)]
        children = {root: 0}
        while stack:
            v, parent, pedge, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            if i < len(adj[v]):
                stack.append((v, parent, pedge, i + 1))
                w, eid = adj[v][i]
                if w not in disc:
                    children[v] = children.get(v, 0) + 1
                    children.setdefault(w, 0)
                    stack.append((w, v, eid, 0))
                elif eid != pedge:
                    low[v] = min(low[v], disc[w])
            else:
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append(pedge)
                    if parent != root and low[v] >= disc[parent]:
                        cut.add(parent)
        if children.get(root, 0) > 1:
            cut.add(root)
    return NonseparabilityReport(
        connected=connected,
        min_degree=min_degree,
        cut_vertices=sorted(cut),
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
