"""JSON interchange for decompositions.

The document is lossless for everything the checkers and the renderer
need: graph, per-layer systems, realized chords, imaginary vertices with
their hosts, and the final segment carriers.  Serialization is canonical
(sorted keys, fixed separators), so serialize -> parse -> serialize is
byte-identical.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .graphs import Graph
from .layering import Decomposition, Layer
from .planar import CycleSystem
from .verify import (
    CheckResult,
    VerificationReport,
    check_connection_realization,
    check_edge_partition,
    verify_raw,
)

FORMAT = "topolayers-decomposition"


class DocumentError(ValueError):
    pass


def _system_json(sys_: CycleSystem) -> dict:
    out = {
        "n": sys_.n,
        "cycles": [
            {"id": cid, "arcs": [list(a) for a in sys_.cycles[cid].arcs]}
            for cid in sorted(sys_.cycles)
        ],
        "rim": None,
    }
    if sys_.rim is not None:
        out["rim"] = {"id": sys_.rim.id, "arcs": [list(a) for a in sys_.rim.arcs]}
    return out


def decomposition_to_document(d: Decomposition) -> dict:
    imaginary = []
    for w in sorted(d.drawing.imaginary):
        info = d.drawing.imaginary[w]
        kind, ref = info["carrier"]
        imaginary.append(
            {
                "id": w,
                "host": list(info["host"]),
                "carrier": [kind, ref if kind == "edge" else list(ref)],
                "chord": list(info["chord"]),
            }
        )
    carrier = []
    for (a, b) in sorted(d.drawing.carrier):
        kind, ref = d.drawing.carrier[(a, b)]
        carrier.append([a, b, kind, ref if kind == "edge" else list(ref)])
    return {
        "format": FORMAT,
        "version": 1,
        "graph": {
            "name": d.g.name,
            "n": d.g.n,
            "edges": [[eid, u, v] for eid, (u, v) in sorted(d.g.edges.items())],
        },
        "strategy": d.strategy,
        "layers": [
            {
                "index": layer.index,
                "realized": sorted(layer.realized),
                "ring": list(layer.ring) if layer.ring else None,
                "system": _system_json(layer.system),
            }
            for layer in d.layers
        ],
        "chords": [[eid, u, v] for eid, (u, v) in sorted(d.chords.items())],
        "sequences": {str(eid): list(sq) for eid, sq in sorted(d.sequences.items())},
        "imaginary": imaginary,
        "carrier": carrier,
    }


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DocumentError(f"not a {FORMAT} document")
    for key in ("graph", "layers", "chords", "sequences", "imaginary", "carrier"):
        if key not in doc:
            raise DocumentError(f"document is missing {key!r}")
    return doc


def _raw_system(sj: dict):
    cycles = {c["id"]: tuple(tuple(a) for a in c["arcs"]) for c in sj["cycles"]}
    rim = None
    if sj.get("rim") is not None:
        rim = (sj["rim"]["id"], tuple(tuple(a) for a in sj["rim"]["arcs"]))
    return sj["n"], cycles, rim


def verify_document(doc: dict) -> VerificationReport:
    """Full re-check of a parsed document, layer by layer."""
    checks: Dict[str, CheckResult] = {}
    n = doc["graph"]["n"]
    for layer in doc["layers"]:
        ln, cycles, rim = _raw_system(layer["system"])
        sub = verify_raw(ln, cycles, rim)
        for name, res in sub.checks.items():
            checks[f"layer-{layer['index']}/{name}"] = res
    edge_ids = [eid for eid, _, _ in doc["graph"]["edges"]]
    checks["edge-partition"] = check_edge_partition(
        edge_ids, [layer["realized"] for layer in doc["layers"]]
    )
    chords = {eid: (u, v) for eid, u, v in doc["chords"]}
    sequences = {int(k): list(v) for k, v in doc["sequences"].items()}
    _, final_cycles, final_rim = _raw_system(doc["layers"][-1]["system"])
    if final_rim is not None:
        final_cycles = dict(final_cycles)
        final_cycles[final_rim[0]] = final_rim[1]
    checks["connection-realization"] = check_connection_realization(
        n, chords, sequences, final_cycles
    )
    return VerificationReport(checks)


__all__ = [
    "FORMAT",
    "DocumentError",
    "decomposition_to_document",
    "serialize_document",
    "parse_document",
    "verify_document",
]
