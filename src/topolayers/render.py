"""Deterministic SVG pictures of decomposition layers.

Geometry is a convenience projection only: ring vertices sit on a regular
polygon, interior original vertices at Tutte barycentric positions, and
every imaginary vertex on its carrier's path: spaced evenly along an edge
carrier, or relaxed between its path neighbours on a connection carrier
(`_imaginary_positions`).  Each drawn chord is a polyline through its
sequence, which must be the interior of its connection carrier's path.
No randomness, no timestamps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from .document import DocumentError, carrier_key, carrier_name, carrier_paths

SIZE = 600.0
MARGIN = 60.0


class RenderError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ring(layer: dict, n: int) -> List[int]:
    """The layer's ring, [] when it has none; its entries must be distinct
    vertices 1..n."""
    ring = layer.get("ring") or []
    for v in ring:
        if not 1 <= v <= n:
            raise RenderError(f"layer {layer['index']} ring names v{v}, outside 1..{n}")
    if len(set(ring)) != len(ring):
        raise RenderError(f"layer {layer['index']} ring repeats a vertex")
    return ring


def _solve(rows: List[List[float]]) -> List[Tuple[float, float]]:
    """Solve the square system whose rows end in two right-hand-side
    columns, by Gaussian elimination with partial pivoting; the rows are
    overwritten."""
    n = len(rows)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        if rows[k][k] == 0:
            raise RenderError("layer-1 arcs leave interior vertices unconnected to the ring")
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            for j in range(k, n + 2):
                rows[i][j] -= f * rows[k][j]
    for i in reversed(range(n)):
        for c in (n, n + 1):
            acc = rows[i][c] - sum(rows[i][j] * rows[j][c] for j in range(i + 1, n))
            rows[i][c] = acc / rows[i][i]
    return [(row[n], row[n + 1]) for row in rows]


def _base_positions(doc: dict) -> Dict[int, Tuple[float, float]]:
    layers = doc["layers"]
    n = doc["graph"]["n"]
    ring: Optional[List[int]] = None
    for layer in layers:
        if layer.get("ring"):
            ring = _ring(layer, n)
            break
    if ring is None:
        rim = layers[0]["system"].get("rim")
        if rim is None:
            raise RenderError("document has neither a ring nor a rim to anchor")
        ring = [a for a, _ in rim["arcs"]]
    system = layers[0]["system"]
    members = system["cycles"] + ([system["rim"]] if system["rim"] else [])
    arcs = [arc for c in members for arc in c["arcs"]]
    for a, b in arcs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise RenderError(f"layer 1 arc ({a},{b}) names a vertex outside 1..{n}")
    r = SIZE / 2 - MARGIN
    pos: Dict[int, Tuple[float, float]] = {}
    for i, v in enumerate(ring):
        ang = 2 * math.pi * i / len(ring) - math.pi / 2
        pos[v] = (SIZE / 2 + r * math.cos(ang), SIZE / 2 + r * math.sin(ang))
    # every vertex named is in 1..n, so one is missing below len(covered) + 2
    covered = set(pos).union(*arcs)
    if len(covered) < n:
        v = next(v for v in range(1, len(covered) + 2) if v not in covered)
        raise RenderError(f"vertex {v} is neither on the ring nor on a layer-1 arc")
    interior = [v for v in range(1, n + 1) if v not in pos]
    if interior:
        # Tutte: each interior vertex at the average of its layer-1 neighbours
        nbrs: Dict[int, List[int]] = {v: [] for v in interior}
        for a, b in arcs:
            if a in nbrs:
                nbrs[a].append(b)
            if b in nbrs:
                nbrs[b].append(a)
        ix = {v: i for i, v in enumerate(interior)}
        # one row per interior vertex: its Laplacian row, then the x and y
        # sums of its ring neighbours
        rows = [[0.0] * (len(interior) + 2) for _ in interior]
        for v in interior:
            row = rows[ix[v]]
            row[ix[v]] = len(set(nbrs[v]))
            for w in set(nbrs[v]):
                if w in ix:
                    row[ix[w]] -= 1.0
                else:
                    row[-2] += pos[w][0]
                    row[-1] += pos[w][1]
        pos.update(zip(interior, _solve(rows)))
    return pos


def _carrier_paths(doc: dict, edges: Dict[int, Tuple[int, int]]) -> Dict[tuple, List[int]]:
    """Each carrier's path (`document.carrier_paths`); RenderError when a
    carrier has none."""
    try:
        paths = carrier_paths(doc, edges)
    except DocumentError as exc:
        raise RenderError(str(exc)) from None
    for key, path in paths.items():
        if path is None:
            if key[0] == "edge" and key[1] not in edges:
                raise RenderError(f"carrier edge {key[1]} is not a graph edge")
            raise RenderError(f"carrier {carrier_name(key)} is not a path")
    return paths


def _imaginary_positions(
    doc: dict,
    paths: Dict[tuple, List[int]],
    pos: Dict[int, Tuple[float, float]],
    drawn: Set[int],
) -> Dict[int, Tuple[float, float]]:
    """Positions of the `drawn` crossing markers, on the carrier `paths`
    that `_carrier_paths` read.

    Markers are spaced along an edge host by subdivision order; a marker
    on a connection host relaxes to the midpoint of its path neighbours,
    in 64 sweeps over the steps in document order, so it sits on both
    polylines through it.  Every entry is checked, but only the drawn
    markers and the markers they read, transitively, are relaxed: no
    other marker is ever read by these, so each goes through the same
    float operations, in the same order, as in a sweep over all of them.
    """
    try:
        keys = [carrier_key(*entry["carrier"]) for entry in doc["imaginary"]]
    except DocumentError as exc:
        raise RenderError(str(exc)) from None
    n = doc["graph"]["n"]
    # each vertex's index on each carrier path; walk's paths are simple
    index_on = {key: {v: i for i, v in enumerate(path)} for key, path in paths.items()}
    out: Dict[int, Tuple[float, float]] = {}
    pending: List[Tuple[int, int, int]] = []  # (vertex, path neighbours)
    for entry, key in zip(doc["imaginary"], keys):
        w = entry["id"]
        kind = key[0]
        path = paths.get(key)
        if path is None:
            raise RenderError(f"imaginary vertex {w} has a carrier with no path")
        i = index_on[key].get(w, 0)
        if not 0 < i < len(path) - 1:
            raise RenderError(f"imaginary vertex {w} is not inside its carrier's path")
        u, v = (path[0], path[-1]) if kind == "edge" else key[1]
        if u not in pos or v not in pos:
            raise RenderError(f"carrier {carrier_name(key)} names a vertex outside 1..{n}")
        p, q = pos[u], pos[v]
        if kind == "edge":
            t = i / (len(path) - 1)
            out[w] = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        else:
            out[w] = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            pending.append((w, path[i - 1], path[i + 1]))
    reads: Dict[int, List[int]] = {}
    for w, a, b in pending:
        for x in (a, b):
            if x not in out and x not in pos:
                raise RenderError(f"imaginary vertex {w} has path neighbour {x}, not a vertex")
        reads.setdefault(w, []).extend((a, b))
    for w in drawn:
        if w not in out:
            raise RenderError(f"drawn sequence vertex {w} has no imaginary entry")
    needed, stack = set(drawn), list(drawn)
    while stack:
        for x in reads.get(stack.pop(), ()):
            if x not in needed:
                needed.add(x)
                stack.append(x)
    index = {v: k for k, v in enumerate(needed)}
    start = [out[v] if v in out else pos[v] for v in needed]
    xs = [p[0] for p in start]
    ys = [p[1] for p in start]
    steps = [(index[w], index[a], index[b]) for w, a, b in pending if w in needed]
    for _ in range(64):
        for k, i, j in steps:
            xs[k] = (xs[i] + xs[j]) / 2
            ys[k] = (ys[i] + ys[j]) / 2
    return {w: (xs[index[w]], ys[index[w]]) for w in drawn}


def render_svg(doc: dict, layer_index: int) -> str:
    indexes = [layer["index"] for layer in doc["layers"]]
    if indexes != list(range(1, len(indexes) + 1)):
        raise RenderError(f"layer indexes {indexes} are not 1..{len(indexes)} in order")
    if not 1 <= layer_index <= len(indexes):
        raise RenderError(f"document has no layer {layer_index}")
    layer = doc["layers"][layer_index - 1]
    pos = _base_positions(doc)
    edges = {eid: (u, v) for eid, u, v in doc["graph"]["edges"]}
    sequences = {int(k): v for k, v in doc["sequences"].items()}
    realized = [] if layer_index == 1 else layer["realized"]
    n = doc["graph"]["n"]
    for eid in realized:
        if eid not in edges:
            raise RenderError(f"layer {layer_index} realizes {eid}, which is not a graph edge")
    drawn = {w for eid in realized for w in sequences.get(eid, [])}
    paths = _carrier_paths(doc, edges)
    ipos = _imaginary_positions(doc, paths, pos, drawn)
    lines: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    polylines: List[List[Tuple[float, float]]] = []
    if layer_index == 1:
        segs = sorted(
            {
                tuple(sorted((a, b)))
                for c in layer["system"]["cycles"]
                + ([layer["system"]["rim"]] if layer["system"]["rim"] else [])
                for a, b in c["arcs"]
            }
        )
        for a, b in segs:
            lines.append((pos[a], pos[b]))
    else:
        ring = _ring(layer, n)
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            lines.append((pos[a], pos[b]))
        for eid in realized:
            u, v = edges[eid]
            if u not in pos or v not in pos:
                raise RenderError(f"edge {eid} ({u},{v}) names a vertex outside 1..{n}")
            sequence = sequences.get(eid, [])
            path = paths.get(("conn", (min(u, v), max(u, v))))
            if path is None or path[1:-1] != sequence:
                raise RenderError(
                    f"edge {eid}'s sequence is not the interior of its connection's path"
                )
            pts = [pos[min(u, v)]]
            pts.extend(ipos[w] for w in sequence)
            pts.append(pos[max(u, v)])
            polylines.append(pts)
    body: List[str] = []
    for (x1, y1), (x2, y2) in lines:
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="1.2"/>'
        )
    for pts in polylines:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="1.2"/>'
        )
    for v in sorted(pos):
        x, y = pos[v]
        body.append(f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="black"/>')
        body.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11">v{v}</text>'
        )
    for w in sorted(drawn):
        x, y = ipos[w]
        body.append(
            f'<circle class="imaginary" cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="crimson"/>'
        )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


__all__ = ["RenderError", "render_svg"]
