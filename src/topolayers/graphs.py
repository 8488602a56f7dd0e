"""Graph input, edge identities and the nonseparability gate.

Vertices are positive integers 1..n; edges get 1-based ids in input order.
Imaginary vertices introduced later by routing always receive ids above n,
so "is this vertex original" is just an id comparison.  The gate
(connected, minimum degree 3, no cut vertex, no bridge) is read off
networkx's connectivity and biconnected-component routines.
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

    networkx decides each part on the graph of vertices 1..n; a bridge is
    an edge that forms a biconnected component on its own.  Violations
    are reported, not raised; pipeline entry points decide.
    """
    import networkx as nx  # here, so `verify` and `render` never load it

    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges.values())
    bridges = [
        edge_between(g, *comp[0])
        for comp in nx.biconnected_component_edges(G)
        if len(comp) == 1
    ]
    return NonseparabilityReport(
        connected=nx.is_connected(G),
        min_degree=min(d for _, d in G.degree),
        cut_vertices=sorted(nx.articulation_points(G)),
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
