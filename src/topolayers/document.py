"""JSON interchange for decompositions.

The document is lossless for everything the checkers and the renderer
need: graph, per-layer systems, realized chords, imaginary vertices with
their hosts, and the final segment carriers.  Serialization is canonical:
the text is defined as json.dumps(doc, sort_keys=True, separators=(",",
": "), indent=1) plus a newline, so serialize -> parse -> serialize is
byte-identical.  With an indent json always runs its pure-Python
encoder, so `serialize_document` writes the same text with `_emit`, a
small recursive emitter that joins each list of ints, or of equal-length
int rows, in one go.  The three long row lists, each system's cycles, the
imaginary entries and the carrier rows, are written from one cached
%-template per row shape (its kind, indent, and arc count or carrier
kind), filled with all the list's ints at once.  Each template is the
emitter's own text for a skeleton row whose int holes it writes as a raw
NUL, which no real str can produce; a list that does not fit its shape
exactly, down to every cell being an int and not a bool or float, is
written item by item instead.  Wherever a fast path takes a list it takes
a tuple too, as json writes both alike.

A built document (`decomposition_to_document`) shares the drawing's
immutable tuples instead of copying them: each cycle's arcs, the same
object in every layer that keeps the face, each imaginary entry's host,
chord and carrier, and each carrier row are tuples, where
`parse_document` gives lists.  Both forms write the same text and read
alike.  To edit a built document, edit a parsed copy.

`verify_document` and `render_svg` read a parsed document, whose shapes
`_check_schema` has proved, or a freshly built one, whose shapes the
builder fixes; so the carrier keys ("edge", ref) and ("conn", (ref[0],
ref[1])) test no shape again.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cycles import walk
from .layering import Decomposition
from .planar import CycleSystem
from .verify import (
    CheckResult,
    SegmentTable,
    VerificationReport,
    check_edge_partition,
    check_graph_edges,
    check_layer_rings,
    verify_raw,
)

FORMAT = "topolayers-decomposition"


class DocumentError(ValueError):
    pass


def _system_json(sys_: CycleSystem) -> dict:
    cycles = sys_.cycles
    rim = sys_.rim
    return {
        "n": sys_.n,
        "cycles": [{"id": cid, "arcs": cycles[cid].arcs} for cid in sorted(cycles)],
        "rim": None if rim is None else {"id": rim.id, "arcs": rim.arcs},
    }


def decomposition_to_document(d: Decomposition) -> dict:
    """The document of a decomposition, sharing the drawing's immutable
    tuples instead of copying them.

    Each cycle row's and the rim's `arcs` is its `Cycle`'s own tuple of
    arc tuples, so a face kept across layers is one object in every
    layer's row; each imaginary entry holds the drawing's own `host`,
    `chord` and `carrier` tuples, and each carrier row is the tuple
    (a, b, kind, ref).  Row dicts are one per layer, and graph edges,
    chords, rings, `realized` and sequences are fresh lists.

    The document writes the same text, and reads alike, as
    `parse_document` of that text, which holds lists where this holds
    tuples; `_check_schema`'s shape proof covers that parsed form.  To
    edit a built document, edit a parsed copy.
    """
    drawing = d.drawing
    imaginary = [
        {"id": w, "host": e["host"], "carrier": e["carrier"], "chord": e["chord"]}
        for w, e in sorted(drawing.imaginary.items())
    ]
    keys = drawing.carrier
    carrier = [s + keys[s] for s in sorted(keys)]  # (a, b) + (kind, ref)
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

# A hole in a row skeleton: `_emit` writes it as a raw NUL, which no str or
# number it writes can contain, since encode_basestring_ascii escapes every
# control character.
_HOLE = object()
_CYCLE_KEYS = frozenset(("arcs", "id"))
_IMAGINARY_KEYS = frozenset(("carrier", "chord", "host", "id"))
# A built document holds tuples where a parsed one holds lists; both write
# the same text, so every fast path takes either.
_ROWS = frozenset((list, tuple))


@lru_cache(maxsize=4096)
def _template(row: str, indent: str, shape: object) -> str:
    """The %-template `_emit` fills for one row of a known shape at this
    indent: the generic writer's own text for the row's skeleton, with
    each int hole as %d and every other % doubled.

    `shape` is the arc count of a cycle, or (kind, pair) of an imaginary
    entry's or a carrier row's carrier, pair telling a conn ref [u, v]
    from an edge id.  The text depends on the key alone, so a cached
    template never goes stale.
    """
    if row == "cycle":
        item: object = {"arcs": [[_HOLE, _HOLE]] * shape, "id": _HOLE}
    else:
        kind, pair = shape
        ref = [_HOLE, _HOLE] if pair else _HOLE
        if row == "imaginary":
            hole = [_HOLE, _HOLE]
            item = {"carrier": [kind, ref], "chord": hole, "host": hole, "id": _HOLE}
        else:
            item = [_HOLE, _HOLE, kind, ref]
    return _emit(item, indent).replace("%", "%%").replace("\0", "%d")


def _pairs(xs: list) -> bool:
    """Every item of xs is a list or tuple of two items."""
    return set(map(type, xs)) <= _ROWS and set(map(len, xs)) == {2}


def _carrier_shapes(kinds: list, refs: list) -> Optional[list]:
    """(kind, pair) of each carrier, pair telling a conn ref [u, v] from an
    edge id; None unless every kind is a str and every list or tuple ref a
    pair."""
    pair = [type(r) in _ROWS for r in refs]
    if set(map(type, kinds)) != {str} or set(map(len, compress(refs, pair))) - {2}:
        return None
    return list(zip(kinds, pair))


def _cycle_rows(x: list, vals: list) -> Optional[list]:
    """The shapes of a list of {"arcs", "id"} cycles, their cells added to
    vals in text order; None unless every arc list is non-empty pairs."""
    arcs = list(map(itemgetter("arcs"), x))
    if not set(map(type, arcs)) <= _ROWS or not all(arcs):
        return None
    if not _pairs(list(chain.from_iterable(arcs))):
        return None
    for a, cid in zip(arcs, map(itemgetter("id"), x)):
        vals += chain.from_iterable(a)
        vals.append(cid)
    return list(map(len, arcs))


def _imaginary_rows(x: list, vals: list) -> Optional[list]:
    """As `_cycle_rows`, for {"carrier": [kind, ref], "chord": [u, v],
    "host": [u, v], "id": w} entries."""
    carriers = list(map(itemgetter("carrier"), x))
    chords = list(map(itemgetter("chord"), x))
    hosts = list(map(itemgetter("host"), x))
    if not _pairs(carriers + chords + hosts):
        return None
    refs = list(map(itemgetter(1), carriers))
    shapes = _carrier_shapes(list(map(itemgetter(0), carriers)), refs)
    if shapes is None:
        return None
    for ref, chord, host, w in zip(refs, chords, hosts, map(itemgetter("id"), x)):
        vals += (*ref, *chord, *host, w) if type(ref) in _ROWS else (ref, *chord, *host, w)
    return shapes


def _carrier_rows(x: list, vals: list) -> Optional[list]:
    """As `_cycle_rows`, for [a, b, kind, ref] rows, lists or tuples."""
    if set(map(len, x)) != {4}:
        return None
    shapes = _carrier_shapes(list(map(itemgetter(2), x)), list(map(itemgetter(3), x)))
    if shapes is None:
        return None
    for a, b, _, ref in x:
        vals += (a, b, *ref) if type(ref) in _ROWS else (a, b, ref)
    return shapes


def _table(x: list, kinds: set, indent: str) -> Optional[str]:
    """The items of x, at this indent and joined as a list body, when x is
    a list of cycles, of imaginary entries or of carrier rows whose cells
    are all exactly int: one cached template per row, filled once.  None
    on any other list, which then takes the generic path."""
    vals: list = []
    if kinds <= _ROWS:
        row, shapes = "carrier", _carrier_rows(x, vals)
    elif kinds != {dict}:
        return None
    else:
        keys = set(map(frozenset, x))
        if keys == {_CYCLE_KEYS}:
            row, shapes = "cycle", _cycle_rows(x, vals)
        elif keys == {_IMAGINARY_KEYS}:
            row, shapes = "imaginary", _imaginary_rows(x, vals)
        else:
            return None
    if shapes is None or set(map(type, vals)) != {int}:
        return None
    rows = map(_template, repeat(row), repeat(indent), shapes)
    return (",\n" + indent).join(rows) % tuple(vals)


def _emit(x: object, indent: str) -> str:
    """x as json.dumps(x, sort_keys=True, separators=(",", ": "), indent=1)
    writes it at nesting `indent`, except that a dict key that is not a
    str raises TypeError.

    A list of ints (or of ints and strings) is one join, and a list of
    equal-length int rows (the arcs, edges and chords), each a list or a
    tuple, is one %-template filled once.  A list of cycles ({"arcs", "id"}), of imaginary entries
    ({"carrier", "chord", "host", "id"}) or of carrier rows
    ([a, b, kind, ref]) is joined from cached per-row templates (see
    `_template`) and filled once; any other key set, empty arcs, a row or
    pair of another length, or a cell whose type is not exactly int makes
    that list fall back to writing each item in turn.
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
        sizes = set(map(len, x)) if kinds <= _ROWS else ()
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
            body = _table(x, kinds, inner) or sep.join([_emit(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise TypeError(f"document keys must be str, got {sorted(map(repr, x))}")
        inner = indent + " "
        items = [_encode_str(k) + ": " + _emit(x[k], inner) for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if x is _HOLE:
        return "\0"
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


def _edge_key(key: str) -> bool:
    """key is an edge id as str(int) writes it: no sign, space or leading
    zero, so no two keys name one edge, and int(key) does not raise."""
    if not (key.isascii() and key.isdigit()):
        return False
    try:
        return key == str(int(key))
    except ValueError:  # more digits than the interpreter converts
        return False


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
            and "ring" in layer
            and (ring is None or _all(ring, int)),
            f"layer {k}",
        )
        sj = layer.get("system")
        need(
            type(sj) is dict
            and type(sj.get("n")) is int
            and _all(sj.get("cycles"), dict)
            and "rim" in sj
            and (sj["rim"] is None or type(sj["rim"]) is dict),
            f"system of layer {k}",
        )
        members = sj["cycles"] + ([] if sj["rim"] is None else [sj["rim"]])
        arcs = [c.get("arcs") for c in members]
        need(
            _all([c.get("id") for c in members], int)
            and _all(arcs, list)
            and _rows(list(chain.from_iterable(arcs)), 2),
            f"cycle of layer {k}",
        )
    need(_rows(doc["chords"], 3), "chords")
    seqs = doc["sequences"]
    need(
        type(seqs) is dict
        and all(map(_edge_key, seqs))
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
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an int past the interpreter's digit limit, or
        # nesting deeper than the decoder's recursion limit
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
    """(cycles, rim) of a system, arcs as the document lists them;
    verify_raw converts them."""
    cycles = {c["id"]: c["arcs"] for c in sj["cycles"]}
    rim = None if sj["rim"] is None else (sj["rim"]["id"], sj["rim"]["arcs"])
    return cycles, rim


def carrier_name(key: tuple) -> str:
    kind, ref = key
    return f"edge {ref}" if kind == "edge" else f"connection ({ref[0]},{ref[1]})"


def carrier_paths(
    doc: dict, ends_of: Dict[int, Tuple[int, int]]
) -> Dict[tuple, Optional[List[int]]]:
    """Each carrier's path, keyed ("edge", id) or ("conn", (u, v)) in the
    order of its first row: its rows walked from the smaller end of its
    edge (ends from `ends_of`) or connection to the larger.  None when the
    rows walk no such path or leave a row off it, or the edge has no ends."""
    groups: Dict[tuple, List[Tuple[int, int]]] = {}
    for a, b, kind, ref in doc["carrier"]:
        key = (kind, ref) if kind == "edge" else (kind, (ref[0], ref[1]))
        segs = groups.get(key)
        if segs is None:
            groups[key] = [(a, b)]
        else:
            segs.append((a, b))
    paths: Dict[tuple, Optional[List[int]]] = {}
    for (kind, ref), segs in groups.items():
        ends = ends_of.get(ref) if kind == "edge" else ref
        path = None if ends is None else walk(segs, min(ends), max(ends))
        paths[kind, ref] = path if path is not None and len(path) == len(segs) + 1 else None
    return paths


def _check_carriers(doc: dict, ends_of: dict, paths: dict) -> Tuple[CheckResult, List[tuple]]:
    """The half of `carrier-table` that reads no segment table: every
    carrier, of a row or of an imaginary entry, is a graph edge that is
    not a chord, or a chord's ends; each such carrier has a path
    (`carrier_paths`); no vertex has two imaginary entries; each entry's
    `chord` is the ends of a chord whose sequence holds the entry's
    vertex, and both ends of its `host` lie on its carrier's path, with
    the vertex between them.  Also each entry's place: its carrier key
    and its vertex's index on that path, -1 when off it.  Every vertex
    above n in a sequence has an entry."""
    chords = doc["chords"]
    plain = set(ends_of).difference([eid for eid, _, _ in chords])
    conns = {(u, v) if u < v else (v, u) for _, u, v in chords}
    entry_keys = [
        (kind, ref) if kind == "edge" else (kind, (ref[0], ref[1]))
        for kind, ref in map(itemgetter("carrier"), doc["imaginary"])
    ]
    keys = set(paths).union(entry_keys)
    edges = {ref for kind, ref in keys if kind == "edge"}
    ends = {ref for kind, ref in keys if kind == "conn"}
    bad = [f"carrier edge {e} is not a graph edge outside the chords" for e in sorted(edges - plain)]
    bad += [f"carrier connection ({u},{v}) is not a chord's ends" for u, v in sorted(ends - conns)]
    bad += [
        f"carrier {carrier_name(key)} is not a path"
        for key in sorted(key for key, path in paths.items() if path is None)
        if key[1] in (plain if key[0] == "edge" else conns)
    ]
    ids = Counter(map(itemgetter("id"), doc["imaginary"]))
    bad += [f"v{w}: {k} imaginary entries" for w, k in sorted(ids.items()) if k > 1]
    sequences = doc["sequences"]
    n = doc["graph"]["n"]
    crossed = set(chain.from_iterable(sequences.values())).difference(ids)
    bad += [f"v{w}: no imaginary entry" for w in sorted(crossed) if w > n]
    crossing: Dict[tuple, list] = {}  # chord ends -> the vertices its sequences hold
    for eid, u, v in chords:
        crossing.setdefault((u, v) if u < v else (v, u), []).extend(sequences.get(str(eid), ()))
    index_on: Dict[tuple, Dict[int, int]] = {}
    places = []
    for entry, key in zip(doc["imaginary"], entry_keys):
        w, (a, b), (u, v) = entry["id"], entry["host"], entry["chord"]
        if w not in crossing.get((u, v) if u < v else (v, u), ()):
            bad.append(f"v{w}: ({u},{v}) is not a chord whose sequence holds v{w}")
        at = index_on.get(key)
        if at is None:
            at = index_on[key] = {x: i for i, x in enumerate(paths.get(key) or ())}
        i, j, k = at.get(a, -1), at.get(b, -1), at.get(w, -1)
        if not (0 <= i < k < j or 0 <= j < k < i):
            bad.append(f"v{w}: host ({a},{b}) does not hold v{w} on its carrier's path")
        places.append((key, k))
    return CheckResult(not bad, bad), places


def _check_connections(doc: dict, paths: dict) -> CheckResult:
    """Each chord's sequence is the interior of its connection carrier's
    path, every vertex of it above n, and every sequence belongs to a
    chord."""
    n = doc["graph"]["n"]
    chords = {eid: (u, v) for eid, u, v in doc["chords"]}
    sequences = doc["sequences"]
    bad = []
    for eid, (u, v) in sorted(chords.items()):
        sequence = sequences.get(str(eid))
        if sequence is None:
            bad.append(f"e{eid}: chord has no realized connection")
            continue
        ends = (u, v) if u < v else (v, u)
        path = paths.get(("conn", ends))
        if path is None:
            bad.append(f"e{eid}: connection ({ends[0]},{ends[1]}) has no carrier path")
        elif path[1:-1] != sequence:
            bad.append(f"e{eid}: sequence is not the interior of its connection's path")
        bad += [f"e{eid}: crossing vertex v{w} is not imaginary" for w in sequence if w <= n]
    bad += [f"e{eid}: sequence names no chord" for eid in sorted(map(int, sequences)) if eid not in chords]
    return CheckResult(not bad, bad)


class DocumentChecks(NamedTuple):
    """What `document_checks` found and read."""

    checks: Dict[str, CheckResult]
    ends_of: Dict[int, Tuple[int, int]]  # edge id -> the graph edge's ends
    paths: Dict[tuple, Optional[List[int]]]  # carrier key -> `carrier_paths`
    places: List[tuple]  # per imaginary entry: (carrier key, index on its path)


def document_checks(doc: dict) -> DocumentChecks:
    """The checks of a parsed or freshly built document that read no
    segment table, in the order `render_svg` names the first that fails,
    with the graph's edge ends by id, the carrier paths (`carrier_paths`)
    and the imaginary entries' places on them that they read.

    Layers are named by position and read with the graph's n, so layer k
    must carry index k and that n, and layer 1's arcs, which place every
    vertex, name each of 1..n and no other vertex.  Some layer has a ring,
    or layer 1 a rim, to place layer 1 on.  Carriers come before
    connections, so that a broken carrier is named as one.
    """
    n = doc["graph"]["n"]
    layers = doc["layers"]
    bad = []
    for k, layer in enumerate(layers, start=1):
        if layer["index"] != k:
            bad.append(f"layer {k} has index {layer['index']}")
        if layer["system"]["n"] != n:
            bad.append(f"layer {k} has system n {layer['system']['n']}, not the graph's {n}")
    system = layers[0]["system"]
    members = system["cycles"] if system["rim"] is None else system["cycles"] + [system["rim"]]
    arcs = list(chain.from_iterable(map(itemgetter("arcs"), members)))
    named = set(chain.from_iterable(arcs))
    outside = {v for v in named if not 1 <= v <= n}
    for a, b in arcs:
        if a in outside or b in outside:
            bad.append(f"layer 1 arc ({a},{b}) names a vertex outside 1..{n}")
    if len(named) - len(outside) < n:
        # the k vertices named in 1..n miss one below k + 2: no scan of 1..n
        v = next(v for v in range(1, len(named) - len(outside) + 2) if v not in named)
        bad.append(f"vertex {v} is on no layer-1 arc")
    edges = doc["graph"]["edges"]
    ends_of = {eid: (u, v) for eid, u, v in edges}
    rings = check_layer_rings(
        n, ends_of, [(k, layer["ring"]) for k, layer in enumerate(layers, start=1)], layers[0]["realized"]
    )
    if system["rim"] is None and not any(layer["ring"] for layer in layers):
        rings = CheckResult(False, rings.details + ["no layer has a ring, and layer 1 has no rim"])
    paths = carrier_paths(doc, ends_of)
    carriers, places = _check_carriers(doc, ends_of, paths)
    checks = {
        "layer-indexes": CheckResult(not bad, bad),
        "graph-edges": check_graph_edges(n, edges, doc["chords"]),
        "edge-partition": check_edge_partition(list(ends_of), [layer["realized"] for layer in layers]),
        "layer-rings": rings,
        "carrier-table": carriers,
        "connection-realization": _check_connections(doc, paths),
    }
    return DocumentChecks(checks, ends_of, paths, places)


def _check_carrier_rows(doc: dict, table: SegmentTable) -> Tuple[List[str], List[str]]:
    """The half of `carrier-table` that reads the final layer's `table`:
    the details of its carrier rows, which must list each of its segments
    once, and of the imaginary entries, which must list each of its
    vertices above n and no other vertex (`_check_carriers` counts them,
    and names each sequence vertex that has none)."""
    listed = Counter([(a, b) for a, b, _, _ in doc["carrier"]])
    rows = [f"segment ({a},{b}) has no carrier row" for a, b in sorted(table.keys() - listed.keys())]
    for a, b in sorted(s for s, k in listed.items() if k > 1 or s not in table):
        if (a, b) in table:
            rows.append(f"segment ({a},{b}) has {listed[a, b]} carrier rows")
        else:
            rows.append(f"carrier row ({a},{b}) is not a segment of the final layer")
    n = doc["graph"]["n"]
    ids = set(map(itemgetter("id"), doc["imaginary"]))
    drawn = {v for v in chain.from_iterable(table) if v > n}
    crossed = set(chain.from_iterable(doc["sequences"].values()))
    entries = [f"v{w}: no imaginary entry" for w in sorted(drawn - ids - crossed)]
    entries += [f"imaginary entry v{w} is not a vertex of the final layer" for w in sorted(ids - drawn)]
    return rows, entries


def verify_document(doc: dict) -> VerificationReport:
    """Full re-check of a parsed or freshly built document: each layer's
    system (`verify_raw`), then `document_checks`, with the final layer's
    segments checked against the carrier rows and imaginary entries under
    `carrier-table`."""
    checks: Dict[str, CheckResult] = {}
    n = doc["graph"]["n"]
    for k, layer in enumerate(doc["layers"], start=1):
        sub = verify_raw(n, *_raw_system(layer["system"]))
        for name, res in sub.checks.items():
            checks[f"layer-{k}/{name}"] = res
        checks[f"layer-{k}/cycle-ids"] = _check_cycle_ids(layer["system"])
    checks.update(document_checks(doc).checks)
    # sub is the final layer's report; its segments are the final drawing's
    rows, entries = _check_carrier_rows(doc, sub._table)
    bad = rows + checks["carrier-table"].details + entries
    checks["carrier-table"] = CheckResult(not bad, bad)
    return VerificationReport(checks)


__all__ = [
    "FORMAT",
    "DocumentError",
    "decomposition_to_document",
    "serialize_document",
    "parse_document",
    "document_checks",
    "verify_document",
]
