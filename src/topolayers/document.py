"""JSON interchange for decompositions.

The document is lossless for everything the checkers and the renderer
need: graph, per-layer systems, realized chords, imaginary vertices with
their hosts, and the final segment carriers.  Serialization is canonical:
the text is defined as json.dumps(doc, sort_keys=True, separators=(",",
": "), indent=1) plus a newline, so serialize -> parse -> serialize is
byte-identical.  With an indent json always runs its pure-Python
encoder, so `serialize_document` writes the same text with `_emit`, a
small recursive emitter that joins each list of ints, or of equal-length
int rows, in one go.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from typing import Dict, List, Optional

from .layering import Decomposition
from .planar import CycleSystem
from .verify import (
    CheckResult,
    VerificationReport,
    check_connection_realization,
    check_edge_partition,
    check_graph_edges,
    check_layer_rings,
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


_encode_str = json.encoder.encode_basestring_ascii


def _emit(x: object, indent: str) -> str:
    """x as json.dumps(x, sort_keys=True, separators=(",", ": "), indent=1)
    writes it at nesting `indent`, except that a dict key that is not a
    str raises TypeError.

    A list of ints (or of ints and strings, like a carrier row) is one
    join, and a list of equal-length int rows (the arcs, edges and chords
    that make up most of a document) is one %-template filled once.
    """
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is str:
        return _encode_str(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + " "
        sep = ",\n" + inner
        kinds = set(map(type, x))
        sizes = set(map(len, x)) if kinds == {list} else ()
        flat = list(chain.from_iterable(x)) if len(sizes) == 1 and 0 not in sizes else ()
        if kinds == {int}:
            body = sep.join(map(int.__repr__, x))
        elif kinds == {int, str}:
            body = sep.join([_encode_str(v) if type(v) is str else int.__repr__(v) for v in x])
        elif flat and set(map(type, flat)) == {int}:
            deep = sep + " "
            row = "[\n" + inner + " " + deep.join(["%d"] * len(x[0])) + "\n" + inner + "]"
            body = sep.join([row] * len(x)) % tuple(flat)
        else:
            body = sep.join([_emit(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise TypeError(f"document keys must be str, got {sorted(map(repr, x))}")
        inner = indent + " "
        items = [_encode_str(k) + ": " + _emit(x[k], inner) for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(x)


def serialize_document(doc: dict) -> str:
    """The canonical text: by definition json.dumps(doc, sort_keys=True,
    separators=(",", ": "), indent=1) plus a newline, written by `_emit`,
    since json writes indented text with its pure-Python encoder."""
    return _emit(doc, "") + "\n"


def _all(x: object, kind: type) -> bool:
    """x is a list whose items are all of exactly this type."""
    return type(x) is list and set(map(type, x)) <= {kind}


def _rows(x: object, size: Optional[int] = None) -> bool:
    """x is a list of lists of ints, each of the given length when given."""
    return (
        _all(x, list)
        and (size is None or set(map(len, x)) <= {size})
        and set(map(type, chain.from_iterable(x))) <= {int}
    )


def _carriers(pairs: List[object]) -> bool:
    """Each pair is ["edge", edge id] or ["conn", [u, v]]."""
    if not (_all(pairs, list) and set(map(len, pairs)) <= {2}):
        return False
    edge = [ref for kind, ref in pairs if kind == "edge"]
    conn = [ref for kind, ref in pairs if kind == "conn"]
    return len(edge) + len(conn) == len(pairs) and _all(edge, int) and _rows(conn, 2)


def _check_schema(doc: dict) -> None:
    """Raise DocumentError unless every part the readers index has its shape.

    One pass, with each long list checked by C-level maps, since every
    document `verify` and `render` read comes through here; the values
    themselves are the verifier's business.
    """

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise DocumentError(f"malformed {what}")

    graph = doc["graph"]
    need(type(graph) is dict and type(graph.get("n")) is int, "graph")
    need(_rows(graph.get("edges"), 3), "graph edges")
    layers = doc["layers"]
    need(_all(layers, dict) and len(layers) > 0, "layers: expected a non-empty list")
    for k, layer in enumerate(layers, start=1):
        ring = layer.get("ring")
        need(
            type(layer.get("index")) is int
            and _all(layer.get("realized"), int)
            and (ring is None or _all(ring, int)),
            f"layer {k}",
        )
        sj = layer.get("system")
        need(
            type(sj) is dict
            and type(sj.get("n")) is int
            and _all(sj.get("cycles"), dict)
            and "rim" in sj,
            f"system of layer {k}",
        )
        members = sj["cycles"] + ([] if sj["rim"] is None else [sj["rim"]])
        arcs = [c.get("arcs") for c in members]
        need(
            _all(members, dict)
            and _all([c.get("id") for c in members], int)
            and _all(arcs, list)
            and _rows(list(chain.from_iterable(arcs)), 2),
            f"cycle of layer {k}",
        )
    need(_rows(doc["chords"], 3), "chords")
    seqs = doc["sequences"]
    need(
        type(seqs) is dict
        and all(key.isascii() and key.isdigit() for key in seqs)
        and _rows(list(seqs.values())),
        "sequences",
    )
    imaginary = doc["imaginary"]
    need(
        _all(imaginary, dict)
        and _all([w.get("id") for w in imaginary], int)
        and _rows([w.get("host") for w in imaginary], 2)
        and _rows([w.get("chord") for w in imaginary], 2)
        and _carriers([w.get("carrier") for w in imaginary]),
        "imaginary entries",
    )
    carrier = doc["carrier"]
    need(
        _all(carrier, list)
        and set(map(len, carrier)) <= {4}
        and _rows([row[:2] for row in carrier], 2)
        and _carriers([row[2:] for row in carrier]),
        "carrier rows",
    )


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
    _check_schema(doc)
    return doc


def _check_cycle_ids(sj: dict) -> CheckResult:
    """No two members of a system, rim included, share an id; _raw_system
    keys the members by id and would silently keep only the last."""
    ids = Counter(c["id"] for c in sj["cycles"] + ([] if sj["rim"] is None else [sj["rim"]]))
    bad = [f"c{cid}: id used {k} times" for cid, k in sorted(ids.items()) if k > 1]
    return CheckResult(not bad, bad)


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
    # layers are named by position; layer k must also carry index k
    for k, layer in enumerate(doc["layers"], start=1):
        ln, cycles, rim = _raw_system(layer["system"])
        sub = verify_raw(ln, cycles, rim)
        for name, res in sub.checks.items():
            checks[f"layer-{k}/{name}"] = res
        checks[f"layer-{k}/cycle-ids"] = _check_cycle_ids(layer["system"])
    bad = [
        f"layer {k} has index {layer['index']}"
        for k, layer in enumerate(doc["layers"], start=1)
        if layer["index"] != k
    ]
    checks["layer-indexes"] = CheckResult(not bad, bad)
    edges = doc["graph"]["edges"]
    checks["graph-edges"] = check_graph_edges(n, edges, doc["chords"])
    edge_ids = [eid for eid, _, _ in edges]
    checks["edge-partition"] = check_edge_partition(
        edge_ids, [layer["realized"] for layer in doc["layers"]]
    )
    checks["layer-rings"] = check_layer_rings(
        n,
        {eid: (u, v) for eid, u, v in edges},
        [(k, layer.get("ring")) for k, layer in enumerate(doc["layers"], start=1)],
        doc["layers"][0]["realized"],
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
