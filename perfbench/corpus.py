"""Benchmark inputs and the thickness lower bounds they are scored against.

Every input is an edge-list text, exactly what `topolayers decompose`
reads, so the timed operation starts from the same bytes a user supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import networkx as nx

COMPLETE_SIZES = (10, 12, 14, 16)
# (degree, vertices); three graphs each.
REGULAR_FAMILIES = ((4, 16), (5, 20), (6, 20), (5, 30), (8, 20))
REGULAR_PER_FAMILY = 3
HYPERCUBE_DIMS = (4, 5)
# Audit documents: (name, vertex count, pinned fixture or None).
AUDIT_DOCUMENTS = (
    ("K7-pinned", 7, "k7"),
    ("K8-pinned", 8, "k8"),
    ("K10-pinned", 10, "k10"),
    ("K12", 12, None),
    ("K14", 14, None),
    ("K16", 16, None),
)
PINNED_LAYERS = {"K7-pinned": 2, "K8-pinned": 2, "K10-pinned": 3}


@dataclass(frozen=True)
class Input:
    name: str
    text: str  # edge list, one "u v" per line
    n: int
    m: int
    lower_bound: int


def _edge_text(pairs: Sequence[Tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def _from_networkx(G: nx.Graph, name: str, bound: int) -> Input:
    """Relabel to 1..n in sorted node order; edge ids follow sorted pairs."""
    label = {v: i for i, v in enumerate(sorted(G.nodes()), start=1)}
    pairs = sorted(
        (min(label[a], label[b]), max(label[a], label[b])) for a, b in G.edges()
    )
    return Input(name, _edge_text(pairs), G.number_of_nodes(), len(pairs), bound)


def complete_thickness(n: int) -> int:
    """Thickness of K_n (Beineke-Harary 1965): floor((n+7)/6), but 3 for n = 9, 10."""
    return 3 if n in (9, 10) else (n + 7) // 6


def hypercube_thickness(d: int) -> int:
    """Thickness of the hypercube Q_d (Kleinert 1967): ceil((d+1)/4)."""
    return -(-(d + 1) // 4)


def euler_lower_bound(G: nx.Graph) -> int:
    """Euler's bound on thickness: ceil(m/(3n-6)), or ceil(m/(2n-4)) when
    G has no triangle; at least 2 when G is not planar."""
    n, m = G.number_of_nodes(), G.number_of_edges()
    if n < 3:
        return 1
    per_layer = 3 * n - 6 if any(nx.triangles(G).values()) else 2 * n - 4
    bound = max(1, -(-m // per_layer))
    return bound if nx.check_planarity(G)[0] else max(bound, 2)


def complete_inputs() -> List[Input]:
    out = []
    for n in COMPLETE_SIZES:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        out.append(Input(f"K{n}", _edge_text(pairs), n, len(pairs), complete_thickness(n)))
    return out


def sparse_inputs() -> List[Input]:
    """Random regular graphs drawn with networkx seeds 0, 1, 2, then Q4, Q5.

    The draw does not follow the benchmark seed.  Drawn from networkx
    seeds 3s, 3s+1, 3s+2 for benchmark seeds s = 0..9, the corpus
    decomposed between 4 and 9 of its 17 inputs, and its decomposed edge
    count ranged over 204-458: a spread between seeds that no regression
    bound could absorb.  The fixed draw keeps every refusal it shows.
    """
    out = []
    for d, n in REGULAR_FAMILIES:
        for s in range(REGULAR_PER_FAMILY):
            G = nx.random_regular_graph(d, n, seed=s)
            out.append(_from_networkx(G, f"rr{d}_{n}_s{s}", euler_lower_bound(G)))
    for dim in HYPERCUBE_DIMS:
        G = nx.hypercube_graph(dim)
        out.append(_from_networkx(G, f"Q{dim}", hypercube_thickness(dim)))
    return out


def manifest() -> dict:
    """Every workload's inputs by name, with vertex and edge counts and the
    lower bound each decomposition is scored against (inputs.json)."""

    def rows(inputs: List[Input]) -> List[dict]:
        return [{"name": i.name, "n": i.n, "m": i.m, "lower_bound": i.lower_bound} for i in inputs]

    audit = [
        {
            "name": name,
            "n": n,
            "m": n * (n - 1) // 2,
            "lower_bound": complete_thickness(n),
            "pin": fixture,
        }
        for name, n, fixture in AUDIT_DOCUMENTS
    ]
    return {
        "seed": "orders the inputs of each pass; no input depends on it",
        "complete": rows(complete_inputs()),
        "sparse": rows(sparse_inputs()),
        "audit": audit,
    }


if __name__ == "__main__":
    import json

    print(json.dumps(manifest(), indent=1))
