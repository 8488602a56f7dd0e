"""Deterministic SVG pictures of decomposition layers.

Geometry is a convenience projection only: ring vertices sit on a regular
polygon, interior original vertices at Tutte barycentric positions, and
every imaginary vertex on its carrier's path: spaced evenly along an edge
carrier, or relaxed between its path neighbours on a connection carrier
(`_imaginary_positions`).  Each drawn chord is a polyline through its
sequence.  Before drawing, `render_svg` runs the verifier's document
checks (`document.document_checks`) and refuses a document that fails
one, naming the check; so every ring, edge, carrier path and sequence it
draws has passed the checks `verify` makes of it.  No randomness, no
timestamps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from .document import DocumentError, document_checks

SIZE = 600.0
MARGIN = 60.0


class RenderError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.2f}"


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
    ring = next((layer["ring"] for layer in layers if layer.get("ring")), None)
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


def _imaginary_positions(
    doc: dict,
    paths: Dict[tuple, List[int]],
    places: List[Tuple[tuple, int]],
    pos: Dict[int, Tuple[float, float]],
    drawn: Set[int],
) -> Dict[int, Tuple[float, float]]:
    """Positions of the `drawn` crossing markers, on the carrier `paths`
    at the `places` that `document_checks` read.  Its carrier check puts
    each entry's vertex strictly inside its carrier's path, whose ends
    are graph vertices.

    Markers are spaced along an edge host by subdivision order; a marker
    on a connection host relaxes to the midpoint of its path neighbours,
    in 64 sweeps over the steps in document order, so it sits on both
    polylines through it.  Every entry's path neighbours are checked, but
    only the drawn markers and the markers they read, transitively, are
    placed and relaxed: no other marker is ever read by these, so each
    goes through the same float operations, in the same order, as in a
    sweep over all of them.
    """
    place_of: Dict[int, Tuple[tuple, int]] = {}
    pending: List[Tuple[int, int, int]] = []  # (vertex, path neighbours)
    for entry, place in zip(doc["imaginary"], places):
        w = entry["id"]
        place_of[w] = place
        key, i = place
        if key[0] == "conn":
            path = paths[key]
            pending.append((w, path[i - 1], path[i + 1]))
    reads: Dict[int, List[int]] = {}
    for w, a, b in pending:
        for x in (a, b):
            if x not in place_of and x not in pos:
                raise RenderError(f"imaginary vertex {w} has path neighbour {x}, not a vertex")
        reads.setdefault(w, []).extend((a, b))
    for w in drawn:
        if w not in place_of:
            raise RenderError(f"drawn sequence vertex {w} has no imaginary entry")
    needed, stack = set(drawn), list(drawn)
    while stack:
        for x in reads.get(stack.pop(), ()):
            if x not in needed:
                needed.add(x)
                stack.append(x)
    index = {v: k for k, v in enumerate(needed)}
    xs: List[float] = []
    ys: List[float] = []
    for v in needed:
        if v not in place_of:
            x, y = pos[v]
        else:
            key, i = place_of[v]
            path = paths[key]
            p, q = pos[path[0]], pos[path[-1]]
            if key[0] == "edge":
                t = i / (len(path) - 1)
                x, y = p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])
            else:
                x, y = (p[0] + q[0]) / 2, (p[1] + q[1]) / 2
        xs.append(x)
        ys.append(y)
    steps = [(index[w], index[a], index[b]) for w, a, b in pending if w in needed]
    for _ in range(64):
        for k, i, j in steps:
            xs[k] = (xs[i] + xs[j]) / 2
            ys[k] = (ys[i] + ys[j]) / 2
    return {w: (xs[index[w]], ys[index[w]]) for w in drawn}


def render_svg(doc: dict, layer_index: int) -> str:
    """Layer `layer_index` of a parsed document as SVG text.

    RenderError("<check>: <first detail>") names the first document check
    (`document_checks`) the document fails, whichever layer is asked for.
    """
    try:
        checks, edges, paths, places = document_checks(doc)
    except DocumentError as exc:
        raise RenderError(str(exc)) from None
    for name, result in checks.items():
        if not result.ok:
            raise RenderError(f"{name}: {result.details[0]}")
    if not 1 <= layer_index <= len(doc["layers"]):
        raise RenderError(f"document has no layer {layer_index}")
    layer = doc["layers"][layer_index - 1]
    pos = _base_positions(doc)
    # past the checks, the chords are the edges with a sequence, and each
    # sequence is the interior of its connection's path
    realized = [] if layer_index == 1 else layer["realized"]
    sequences = [doc["sequences"].get(str(eid)) for eid in realized]
    if None in sequences:
        eid = realized[sequences.index(None)]
        raise RenderError(f"layer {layer_index} realizes e{eid}, which is not a chord")
    drawn = {w for sequence in sequences for w in sequence}
    ipos = _imaginary_positions(doc, paths, places, pos, drawn)
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
        ring = layer["ring"] or []
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            lines.append((pos[a], pos[b]))
        for eid, sequence in zip(realized, sequences):
            u, v = edges[eid]
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
