"""Chord projections on a coordinate basis and the crossing relation.

The coordinate basis is an ordered ring of vertices (usually a
Hamiltonian ring of the planar subgraph).  A chord projects onto the
shorter of the two rim arcs between its endpoints; two chords cross
exactly when their projections intersect properly (non-empty, neither
contains the other).

`select_noncrossing` projects each candidate once, builds the crossing
neighbour sets once, and on each removal updates only the victim's
neighbours; the ring positions of a basis are computed once per basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .graphs import Graph, edge_between


class ProjectionError(ValueError):
    pass


@dataclass(frozen=True)
class Basis:
    ring: Tuple[int, ...]
    labels: Tuple[int, ...]  # label of ring edge i = (ring[i], ring[i+1])

    @cached_property
    def pos(self) -> Dict[int, int]:
        return {v: i for i, v in enumerate(self.ring)}

    def __len__(self) -> int:
        return len(self.ring)


def basis_from_ring(ring: Sequence[int], g: Optional[Graph] = None) -> Basis:
    """Basis over a vertex ring; ring edges labelled by graph edge id when
    available, otherwise by position."""
    labels = []
    k = len(ring)
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        eid = edge_between(g, a, b) if g is not None else None
        labels.append(eid if eid is not None else -(i + 1))
    return Basis(tuple(ring), tuple(labels))


def project_chord(basis: Basis, chord: Tuple[int, int]) -> FrozenSet[int]:
    """Labels of the shorter rim arc between the chord endpoints.

    Equal arcs tie-break to the lexicographically smaller sorted label
    list.
    """
    pos = basis.pos
    u, v = chord
    if u not in pos or v not in pos:
        missing = u if u not in pos else v
        raise ProjectionError(f"chord endpoint v{missing} is not on the basis ring")
    if u == v:
        raise ProjectionError("degenerate chord")
    i, j = sorted((pos[u], pos[v]))
    k = len(basis)
    arc1 = [basis.labels[t] for t in range(i, j)]
    arc2 = [basis.labels[t % k] for t in range(j, i + k)]
    if len(arc1) != len(arc2):
        pick = arc1 if len(arc1) < len(arc2) else arc2
    else:
        pick = arc1 if sorted(arc1) <= sorted(arc2) else arc2
    return frozenset(pick)


def chords_cross(
    basis: Basis, c1: Tuple[int, int], c2: Tuple[int, int]
) -> bool:
    """Proper intersection of the two projections."""
    return _proper(project_chord(basis, c1), project_chord(basis, c2))


def _proper(p1: FrozenSet[int], p2: FrozenSet[int]) -> bool:
    inter = p1 & p2
    return bool(inter) and inter != p1 and inter != p2


def select_noncrossing(
    basis: Basis, chords: Dict[int, Tuple[int, int]]
) -> Tuple[List[int], List[int]]:
    """Iteratively drop the worst-crossing chord until none cross.

    Ties: larger crossing count, then larger projection, then smaller
    edge id.  Returns (kept ids sorted, removal order).
    """
    if len(chords) < 2:  # a lone chord crosses nothing and is not projected
        return sorted(chords), []
    proj = {cid: project_chord(basis, uv) for cid, uv in chords.items()}
    crosses: Dict[int, Set[int]] = {cid: set() for cid in chords}
    for a, b in combinations(sorted(chords), 2):
        if _proper(proj[a], proj[b]):
            crosses[a].add(b)
            crosses[b].add(a)
    removed: List[int] = []
    while True:
        worst = max(len(others) for others in crosses.values())
        if worst == 0:
            break
        victim = min(
            (cid for cid, others in crosses.items() if len(others) == worst),
            key=lambda cid: (-len(proj[cid]), cid),
        )
        removed.append(victim)
        for other in crosses.pop(victim):
            crosses[other].discard(victim)
    return sorted(crosses), removed


__all__ = [
    "Basis",
    "ProjectionError",
    "basis_from_ring",
    "project_chord",
    "chords_cross",
    "select_noncrossing",
]
