"""Deterministic SVG pictures of decomposition layers.

Geometry is a convenience projection only: ring vertices sit on a regular
polygon, interior original vertices at Tutte barycentric positions
(`_base_positions`, by eliminating vertices from layer 1's graph), and
every imaginary vertex on its carrier's path: spaced evenly along an edge
carrier, or relaxed between its path neighbours on a connection carrier
(`_imaginary_positions`).  Each drawn chord is a polyline through its
sequence.  Before drawing, `render_svg` runs the verifier's document
checks (`document.document_checks`) and refuses a document that fails
one, naming the check; so every ring, rim, edge, carrier path, sequence
and imaginary entry it draws from has passed the checks `verify` makes
of it.  Render refuses a document by no rule of its own but four: a
layer index the document does not have; layer 1 failing `verify`'s walk
check (`layer-1/walks`); layer-1 arcs that leave interior vertices
unconnected to the ring, so Tutte's averages have no solution; and a
layer that realizes an edge which is not a chord, so has no sequence to
draw it by.  No randomness, no timestamps.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Set, Tuple

from .cycles import seg
from .document import _raw_system, document_checks
from .verify import _members, _walks

SIZE = 600.0
MARGIN = 60.0


class RenderError(ValueError):
    pass


def _base_positions(
    doc: dict,
) -> Tuple[Dict[int, Tuple[float, float]], List[Tuple[int, int]]]:
    """Each graph vertex's position, and layer 1's segments in order.

    The ring (the first layer's that has one, else layer 1's rim) sits on
    a regular polygon, and every other vertex at the average of its
    layer-1 neighbours (Tutte 1963), found from layer 1's own graph, not
    a matrix (Kron reduction).  The interior vertices leave one at a time,
    fewest remaining neighbours first, and each leaving vertex joins its
    neighbours with weights wa·wb/total, so every remaining vertex keeps
    its average.  They are placed in reverse order, each at the weighted
    average of the neighbours it had when it left; one left with none
    cannot reach the ring.  The document checks have made sure that a
    ring or rim exists and that layer 1's arcs name each of 1..n.
    """
    layers = doc["layers"]
    n = doc["graph"]["n"]
    system = layers[0]["system"]
    ring = next((layer["ring"] for layer in layers if layer["ring"]), None)
    if ring is None:
        ring = [a for a, _ in system["rim"]["arcs"]]
    members = system["cycles"] + ([system["rim"]] if system["rim"] else [])
    segs = sorted({seg(a, b) for c in members for a, b in c["arcs"]})
    r = SIZE / 2 - MARGIN
    pos: Dict[int, Tuple[float, float]] = {}
    for i, v in enumerate(ring):
        ang = 2 * math.pi * i / len(ring) - math.pi / 2
        pos[v] = (SIZE / 2 + r * math.cos(ang), SIZE / 2 + r * math.sin(ang))
    # interior vertex -> {neighbour: weight}, ring neighbours included
    nbrs: Dict[int, Dict[int, float]] = {v: {} for v in range(1, n + 1) if v not in pos}
    for a, b in segs:
        for x, y in ((a, b), (b, a)):
            if x in nbrs and x != y:
                nbrs[x][y] = 1.0
    heap = [(len(ws), v) for v, ws in nbrs.items()]
    heapq.heapify(heap)
    left: List[Tuple[int, Dict[int, float], float]] = []
    while heap:
        d, v = heapq.heappop(heap)
        if v not in nbrs or d != len(nbrs[v]):
            continue  # an entry from before v's neighbours changed
        ws = nbrs.pop(v)
        if not ws:
            raise RenderError("layer-1 arcs leave interior vertices unconnected to the ring")
        total = sum(ws.values())
        for a, wa in ws.items():
            if a in nbrs:
                row = nbrs[a]
                del row[v]
                for b, wb in ws.items():
                    if b != a:
                        row[b] = row.get(b, 0.0) + wa * wb / total
                heapq.heappush(heap, (len(row), a))
        left.append((v, ws, total))
    for v, ws, total in reversed(left):
        pos[v] = (
            sum(w * pos[a][0] for a, w in ws.items()) / total,
            sum(w * pos[a][1] for a, w in ws.items()) / total,
        )
    return pos, segs


def _imaginary_positions(
    doc: dict,
    paths: Dict[tuple, List[int]],
    places: List[Tuple[tuple, int]],
    pos: Dict[int, Tuple[float, float]],
    drawn: Set[int],
) -> Dict[int, Tuple[float, float]]:
    """Positions of the `drawn` crossing markers, on the carrier `paths`
    at the `places` that `document_checks` read.  Its checks put each
    entry's vertex strictly inside its carrier's path, whose ends are
    graph vertices and whose interior vertices, on a connection, are its
    chord's sequence, each with an entry; so every drawn vertex and every
    path neighbour is placed.

    Markers are spaced along an edge host by subdivision order; a marker
    on a connection host relaxes to the midpoint of its path neighbours,
    in 64 sweeps over the steps in document order, so it sits on both
    polylines through it.  Only the drawn markers and the markers they
    read, transitively, are placed and relaxed: no other marker is ever
    read by these, so each goes through the same float operations, in the
    same order, as in a sweep over all of them.
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
    reads = {w: (a, b) for w, a, b in pending}
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
            xs[k] = (xs[i] + xs[j]) * 0.5
            ys[k] = (ys[i] + ys[j]) * 0.5
    return {w: (xs[index[w]], ys[index[w]]) for w in drawn}


def render_svg(doc: dict, layer_index: int) -> str:
    """Layer `layer_index` of a parsed or freshly built document as SVG
    text.

    RenderError("<check>: <first detail>") names the first document check
    (`document_checks`) the document fails, or layer 1's walk check after
    the Tutte placement, whichever layer is asked for.
    """
    checks, edges, paths, places = document_checks(doc)
    for name, result in checks.items():
        if not result.ok:
            raise RenderError(f"{name}: {result.details[0]}")
    if not 1 <= layer_index <= len(doc["layers"]):
        raise RenderError(f"document has no layer {layer_index}")
    layer = doc["layers"][layer_index - 1]
    pos, segs = _base_positions(doc)
    walks = _walks(_members(*_raw_system(doc["layers"][0]["system"])))
    if not walks.ok:
        raise RenderError(f"layer-1/walks: {walks.details[0]}")
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
        lines.extend((pos[a], pos[b]) for a, b in segs)
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
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="black" stroke-width="1.2"/>'
        )
    for pts in polylines:
        coords = " ".join([f"{x:.2f},{y:.2f}" for x, y in pts])
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="1.2"/>'
        )
    for v in sorted(pos):
        x, y = pos[v]
        body.append(f'<circle class="vertex" cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
        body.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11">v{v}</text>'
        )
    for w in sorted(drawn):
        x, y = ipos[w]
        body.append(
            f'<circle class="imaginary" cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="crimson"/>'
        )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


__all__ = ["RenderError", "render_svg"]
