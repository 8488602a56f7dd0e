"""Chord positions on a coordinate basis and the crossing relation.

The coordinate basis is an ordered ring of vertices (in `decompose`, the
Hamiltonian ring of the first layer as it currently runs), held as the
map from each vertex to its ring position.  A chord is the ring positions
i < j of its ends and the length of the shorter arc between them,
min(j - i, k - (j - i)) on a ring of k vertices.  Two chords cross
exactly when their ends interleave strictly on the ring: one end of one
lies strictly inside the other's interval and its other end strictly
outside.  Chords that share an end never cross.

`select_noncrossing` places each candidate once, builds the crossing
neighbour sets once, and on each removal updates only the victim's
neighbours.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple


class ProjectionError(ValueError):
    pass


def basis_from_ring(ring: Sequence[int]) -> Dict[int, int]:
    """The basis of a ring of distinct vertices: vertex -> ring position."""
    return {v: i for i, v in enumerate(ring)}


def _span(pos: Dict[int, int], chord: Tuple[int, int]) -> Tuple[int, int, int]:
    """The chord's end positions i < j and its shorter arc's length."""
    u, v = chord
    if u not in pos or v not in pos:
        missing = u if u not in pos else v
        raise ProjectionError(f"chord endpoint v{missing} is not on the basis ring")
    if u == v:
        raise ProjectionError("degenerate chord")
    i, j = sorted((pos[u], pos[v]))
    return i, j, min(j - i, len(pos) - (j - i))


def _interleave(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def chords_cross(
    basis: Dict[int, int], c1: Tuple[int, int], c2: Tuple[int, int]
) -> bool:
    """The two chords' ends interleave strictly on the ring."""
    return _interleave(_span(basis, c1), _span(basis, c2))


def select_noncrossing(
    basis: Dict[int, int], chords: Dict[int, Tuple[int, int]]
) -> Tuple[List[int], List[int]]:
    """Iteratively drop the worst-crossing chord until none cross.

    Ties: larger crossing count, then longer shorter arc, then smaller
    edge id.  Returns (kept ids sorted, removal order).
    """
    if len(chords) < 2:  # a lone chord crosses nothing and is not placed
        return sorted(chords), []
    span = {cid: _span(basis, uv) for cid, uv in chords.items()}
    crosses: Dict[int, Set[int]] = {cid: set() for cid in chords}
    for a, b in combinations(sorted(chords), 2):
        if _interleave(span[a], span[b]):
            crosses[a].add(b)
            crosses[b].add(a)
    removed: List[int] = []
    while True:
        worst = max(len(others) for others in crosses.values())
        if worst == 0:
            break
        victim = min(
            (cid for cid, others in crosses.items() if len(others) == worst),
            key=lambda cid: (-span[cid][2], cid),
        )
        removed.append(victim)
        for other in crosses.pop(victim):
            crosses[other].discard(victim)
    return sorted(crosses), removed


__all__ = [
    "ProjectionError",
    "basis_from_ring",
    "chords_cross",
    "select_noncrossing",
]
