"""Independent checks on every emitted document, run outside the timed path.

Besides the package's own verifier, these re-derive from the raw document
the two claims a thickness witness rests on: the layers partition the
input's edges, and each layer's edges form a planar graph.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from topolayers import parse_document, serialize_document, verify_document


class CheckFailure(Exception):
    """An emitted document failed a check; names the input and the check."""

    def __init__(self, input_name: str, check: str, detail: str = "") -> None:
        self.input_name = input_name
        self.check = check
        super().__init__(f"{input_name}: check {check!r} failed" + (f": {detail}" if detail else ""))


def input_edges(text: str) -> List[Tuple[int, int]]:
    """Edges of an edge-list text, read without the package's parser."""
    out = []
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            u, v = map(int, line.split())
            out.append((min(u, v), max(u, v)))
    return out


def check_document(
    name: str, text: str, edges: List[Tuple[int, int]], layers: Optional[int] = None
) -> dict:
    """Run every check on a serialized document; return the parsed document.

    `edges` is the input edge list in id order; `layers`, when given, is
    the layer count the document must have.
    """
    doc = parse_document(text)
    if serialize_document(doc) != text:
        raise CheckFailure(name, "round-trip", "serialize(parse(doc)) differs from doc")
    got = [(u, v) for _, u, v in sorted(doc["graph"]["edges"])]
    if got != edges:
        raise CheckFailure(name, "input-graph", "document graph is not the input graph")
    report = verify_document(doc)
    if not report.ok:
        failed = sorted(k for k, r in report.checks.items() if not r.ok)
        raise CheckFailure(name, "verify", ", ".join(failed))
    ends = {eid: (u, v) for eid, u, v in doc["graph"]["edges"]}
    realized = [eid for layer in doc["layers"] for eid in layer["realized"]]
    if sorted(realized) != sorted(ends) or any(not layer["realized"] for layer in doc["layers"]):
        raise CheckFailure(name, "partition", "layers are not a partition of the edges into non-empty sets")
    for layer in doc["layers"]:
        G = nx.Graph()
        G.add_edges_from(ends[eid] for eid in layer["realized"])
        if not nx.check_planarity(G)[0]:
            raise CheckFailure(name, "layer-planarity", f"layer {layer['index']} is not planar")
    if layers is not None and len(doc["layers"]) != layers:
        raise CheckFailure(name, "layer-count", f"{len(doc['layers'])} layers, expected {layers}")
    return doc


def check_svg(name: str, layer: dict, svg: str) -> None:
    """A rendered layer is one SVG document with one polyline per chord
    realized in the layer (layers after the first)."""
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        raise CheckFailure(name, "render", f"layer {layer['index']} is not an SVG document")
    if layer["index"] > 1 and svg.count("<polyline ") != len(layer["realized"]):
        raise CheckFailure(name, "render", f"layer {layer['index']}: polylines do not match its chords")
