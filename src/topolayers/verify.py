"""Independent invariant checkers for serialized cycle systems.

Everything here re-derives its facts from raw arc lists so that a bug in
the router cannot hide behind shared code: MacLane double cover, GF(2)
rim sum, Euler count, orientation coherence, imaginary degrees, and the
rotation at each vertex.

`verify_raw` reads a system's members' arcs as the caller holds them,
sorted by id with the rim last, and builds one segment table, segment ->
[(member id, arc), ...], in a single pass over the arcs.  The double
cover, orientation, Euler and imaginary-degree checks read that table;
the walk and rotation checks read the members.  `gf2-sum` is summed only
when `walks` or `maclane` fails.  Past both, each member is a closed walk
of at least 3 arcs with distinct heads, so it holds no segment twice, and
each segment has exactly two arc rows, so it lies on two distinct
members: the GF(2) sum of all members is empty, so the members other
than the rim sum to the rim (Mac Lane 1937).  The report keeps the
table, so a document's `carrier-table` check reads its final layer's
segments from there.  The face check runs once walks, double cover and
orientation pass; it rebuilds each vertex's rotation from the members'
dart successors and requires it to close into one cycle.  Re-tracing the
faces of those rotations would give back the members themselves (see
`check_face_trace`), so `verify_raw` stops there and never calls
`trace_faces`.  Each check has one implementation, and callers read it
by name from the report's `checks`.

The planar stage shares four things with this module: it traces the
faces of its final embedding with `trace_faces`, orients a pin's rings
by a flood fill over their `segment_table`, checks the system it built
with `verify_system` instead of keeping its own Euler and GF(2) checks,
and checks a pinned Hamiltonian ring by `check_layer_rings`'s rule,
`_ring_problems`.  This module imports nothing from the package, so
sharing them leaves the checkers independent of the producer.

The graph, partition and ring checks below are document checks: they
run in `document.document_checks`, the one set of checks that both
`verify_document` and the renderer run; the renderer also runs `_walks`
on layer 1, the one system it draws from.  Both read a parsed or freshly
built document, whose shapes `document._check_schema` has proved, so
the document checks key each carrier without testing its shape again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq
from typing import Dict, List, Optional, Sequence, Set, Tuple

Arc = Tuple[int, int]
RawMember = Tuple[int, Tuple[Arc, ...]]  # (id, arcs)
SegmentTable = Dict[Tuple[int, int], List[Tuple[int, Arc]]]


@dataclass
class CheckResult:
    ok: bool
    details: List[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    checks: Dict[str, CheckResult]
    # the segment table of the one system verify_raw checked
    _table: SegmentTable = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.checks.values())

    def lines(self) -> List[str]:
        out = []
        for name in sorted(self.checks):
            r = self.checks[name]
            out.append(f"{name}: {'pass' if r.ok else 'FAIL'}")
            for d in r.details[:10]:
                out.append(f"  - {d}")
        return out


def _seg(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _members(cycles: Dict[int, Tuple[Arc, ...]], rim) -> List[RawMember]:
    """The members by id, the rim last, with arcs as the caller holds them."""
    out = sorted(cycles.items())
    if rim is not None:
        out.append(rim)
    return out


def segment_table(members: Sequence[RawMember]) -> SegmentTable:
    """segment -> [(member id, arc), ...] in member order, arc order."""
    table: SegmentTable = {}
    for cid, arcs in members:
        for arc in arcs:
            a, b = arc
            s = (a, b) if a < b else (b, a)
            row = table.get(s)
            if row is None:
                table[s] = [(cid, arc)]
            else:
                row.append((cid, arc))
    return table


def _walks(members: Sequence[RawMember]) -> CheckResult:
    bad = []
    for cid, arcs in members:
        if len(arcs) < 3:
            bad.append(f"c{cid}: only {len(arcs)} arcs")
            continue
        heads, tails = zip(*arcs)
        nxt = heads[1:] + heads[:1]
        if tails != nxt:
            i = next(i for i, (b, c) in enumerate(zip(tails, nxt)) if b != c)
            (a, b), (c, d) = arcs[i], arcs[(i + 1) % len(arcs)]
            bad.append(f"c{cid}: arcs break at ({a},{b})->({c},{d})")
            continue
        if len(set(heads)) != len(heads):
            bad.append(f"c{cid}: revisits a vertex")
        if any(map(eq, heads, tails)):
            bad.append(f"c{cid}: self-loop arc")
        if min(heads) < 1:
            bad.append(f"c{cid}: vertex {min(heads)} is below 1")
    return CheckResult(not bad, bad)


def _maclane(table: SegmentTable) -> CheckResult:
    odd = sorted(s for s, row in table.items() if len(row) != 2)
    bad = [
        f"edge ({a},{b}) on {len(table[a, b])} members: {[cid for cid, _ in table[a, b]]}"
        for a, b in odd
    ]
    return CheckResult(not bad, bad)


def _gf2_sum(members: Sequence[RawMember], has_rim: bool) -> CheckResult:
    acc: Set[Tuple[int, int]] = set()
    for _, arcs in (members[:-1] if has_rim else members):
        acc.symmetric_difference_update({(a, b) if a < b else (b, a) for a, b in arcs})
    want = {_seg(a, b) for a, b in members[-1][1]} if has_rim else set()
    if acc == want:
        return CheckResult(True)
    extra = sorted(acc - want)
    missing = sorted(want - acc)
    return CheckResult(False, [f"sum mismatch: extra {extra}, missing {missing}"])


def _euler(table: SegmentTable, nf: int) -> CheckResult:
    nv = len({v for s in table for v in s})
    lhs = nv - len(table) + nf
    if lhs == 2:
        return CheckResult(True)
    return CheckResult(False, [f"{nv} - {len(table)} + {nf} = {lhs} != 2"])


def _orientation(table: SegmentTable) -> CheckResult:
    same = sorted(s for s, row in table.items() if len(row) == 2 and row[0][1] == row[1][1])
    bad = [f"edge ({a},{b}) traversed {[tuple(arc) for _, arc in table[a, b]]}" for a, b in same]
    return CheckResult(not bad, bad)


def _imaginary_degree(n: int, table: SegmentTable) -> CheckResult:
    """Each imaginary vertex (id > n) has 4 incident segments; a self-loop
    segment (v, v) is one incident segment of v."""
    deg: Dict[int, int] = {}
    for a, b in table:
        if a > n:
            deg[a] = deg.get(a, 0) + 1
        if b > n and b != a:
            deg[b] = deg.get(b, 0) + 1
    bad = [f"v{v}: degree {d} != 4" for v, d in sorted(deg.items()) if d != 4]
    return CheckResult(not bad, bad)


def trace_faces(rotation: Dict[int, List[int]]) -> List[Tuple[Arc, ...]]:
    """Orbits of next(d) = rotation-successor of the reversed dart.

    `rotation[v]` is the cyclic order of neighbours around v.  Each orbit
    is one face, returned as its arc sequence from whichever of its darts
    the rotation lists first, vertex by vertex in the rotation's order
    and then in each ring's order; the faces come in that order too.
    """
    succ: Dict[Arc, Arc] = {}
    for v, ring in rotation.items():
        for i, u in enumerate(ring):
            w = ring[(i + 1) % len(ring)]
            succ[(v, u)] = (v, w)
    faces = []
    seen: Set[Arc] = set()
    for dart in succ:
        if dart in seen:
            continue
        walk = []
        d = dart
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = succ[(d[1], d[0])]
        faces.append(tuple(walk))
    return faces


def _rotations(members: Sequence[RawMember]) -> Tuple[Dict[int, List[int]], List[str]]:
    """Each vertex's rotation, rebuilt from the members' dart successors,
    or the first vertex at which that fails.

    At each vertex the members dictate a successor map on incident darts;
    it must close into a single cyclic order (a disk neighbourhood).
    """
    after: Dict[int, Dict[int, int]] = {}  # at v: incoming-from u -> outgoing-to w
    for cid, arcs in members:
        for (a, b), (_, d) in zip(arcs, arcs[1:] + arcs[:1]):
            tbl = after.get(b)
            if tbl is None:
                tbl = after[b] = {}
            elif a in tbl:
                return {}, [f"v{b}: two successors for dart from v{a}"]
            tbl[a] = d
    rotation: Dict[int, List[int]] = {}
    for v, tbl in after.items():
        # The successor map "came from u -> continue to w" walks the faces
        # around v; chaining w := tbl[w] visits every neighbour once iff
        # the neighbourhood of v is a single disk.
        start = min(tbl)
        ring = [start]
        w = tbl[start]
        while w != start:
            if w not in tbl or len(ring) > len(tbl):
                return {}, [f"v{v}: rotation does not close up"]
            ring.append(w)
            w = tbl[w]
        if len(ring) != len(tbl):
            return {}, [f"v{v}: neighbourhood splits into several fans"]
        rotation[v] = ring
    return rotation, []


def check_face_trace(cycles, rim=None) -> CheckResult:
    """Rebuild vertex rotations from the members and re-trace the faces.

    Each vertex's rotation must close into a single cyclic order, and
    tracing must return exactly the member set.  `verify_raw` checks the
    rotations only: once walks, double cover and orientation pass, every
    arc lies in exactly one member, each vertex's successor map is a
    permutation of its neighbours, and tracing dart (a, b) steps to the
    arc after it in its own member, so the traced faces are the members.
    A direct caller's arcs need not chain like that, so this re-traces.
    """
    members = _members(cycles, rim)
    rotation, bad = _rotations(members)
    if bad:
        return CheckResult(False, bad)
    traced = trace_faces(rotation)
    want = {frozenset(map(tuple, arcs)) for _, arcs in members}
    got = {frozenset(f) for f in traced}
    if want != got or len(traced) != len(members):
        bad.append(
            f"traced {len(traced)} faces, expected {len(members)}; "
            f"unmatched: {len(want ^ got)}"
        )
    return CheckResult(not bad, bad)


def verify_raw(
    n: int,
    cycles: Dict[int, Tuple[Arc, ...]],
    rim: Optional[RawMember] = None,
) -> VerificationReport:
    members = _members(cycles, rim)
    table = segment_table(members)
    walks, maclane = _walks(members), _maclane(table)
    # past both, each segment lies on two distinct members (module docstring)
    covered = walks.ok and maclane.ok
    checks = {
        "walks": walks,
        "maclane": maclane,
        "gf2-sum": CheckResult(True) if covered else _gf2_sum(members, rim is not None),
        "euler": _euler(table, len(members)),
        "orientation": _orientation(table),
        "imaginary-degree": _imaginary_degree(n, table),
    }
    if all(checks[k].ok for k in ("walks", "maclane", "orientation")):
        # the faces these rotations trace are the members (check_face_trace)
        bad = _rotations(members)[1]
        checks["face-trace-agreement"] = CheckResult(not bad, bad)
    else:
        checks["face-trace-agreement"] = CheckResult(
            False, ["skipped: structural checks failed"]
        )
    return VerificationReport(checks, table)


def verify_system(sys_) -> VerificationReport:
    """Report for a CycleSystem (cycles + optional rim)."""
    cycles = {cid: c.arcs for cid, c in sys_.cycles.items()}
    rim = (sys_.rim.id, sys_.rim.arcs) if sys_.rim is not None else None
    return verify_raw(sys_.n, cycles, rim)


def check_edge_partition(
    edge_ids: Sequence[int], layers: Sequence[Sequence[int]]
) -> CheckResult:
    """Layers carry every original edge exactly once."""
    seen: Dict[int, int] = {}
    bad = []
    for i, layer in enumerate(layers, start=1):
        for eid in layer:
            if eid in seen:
                bad.append(f"e{eid} in layers {seen[eid]} and {i}")
            seen[eid] = i
    missing = sorted(set(edge_ids) - set(seen))
    extra = sorted(set(seen) - set(edge_ids))
    if missing:
        bad.append(f"missing edges {missing}")
    if extra:
        bad.append(f"unknown edges {extra}")
    return CheckResult(not bad, bad)


def check_graph_edges(
    n: int,
    edges: Sequence[Sequence[int]],
    chords: Sequence[Sequence[int]],
) -> CheckResult:
    """Graph edges are [id, u, v] rows with u != v in 1..n, unique ids and
    unique endpoint pairs; each chord row repeats the graph edge of its id,
    and no chord id is listed twice."""
    by_id: Dict[int, Tuple[int, int]] = {}
    pairs: Dict[Tuple[int, int], int] = {}
    bad = []
    for eid, u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            bad.append(f"e{eid}: ({u},{v}) names a vertex outside 1..{n}")
        elif u == v:
            bad.append(f"e{eid}: self-loop at v{u}")
        if eid in by_id:
            bad.append(f"e{eid}: id used twice")
        if _seg(u, v) in pairs:
            bad.append(f"e{eid}: same ends as e{pairs[_seg(u, v)]}")
        by_id[eid] = (u, v)
        pairs[_seg(u, v)] = eid
    listed: Set[int] = set()
    for eid, u, v in chords:
        if by_id.get(eid) != (u, v):
            bad.append(f"chord e{eid}: ({u},{v}) is not graph edge e{eid}")
        if eid in listed:
            bad.append(f"chord e{eid}: listed twice")
        listed.add(eid)
    return CheckResult(not bad, bad)


def _ring_problems(n: int, ring: Sequence[int], base_segments: Set[Tuple[int, int]]) -> List[str]:
    """Why `ring` is not a Hamiltonian ring of the first layer, whose
    segments are `base_segments`: it does not list 1..n once each, or else
    each cyclic pair of it that is not a segment."""
    if len(ring) != n or sorted(ring) != list(range(1, n + 1)):
        return [f"ring does not list 1..{n} once each"]
    return [
        f"ring pair ({a},{b}) is not an edge of the first layer"
        for a, b in zip(ring, ring[1:] + ring[:1])
        if _seg(a, b) not in base_segments
    ]


def check_layer_rings(
    n: int,
    edges: Dict[int, Tuple[int, int]],
    rings: Sequence[Tuple[int, Optional[Sequence[int]]]],
    first_realized: Sequence[int],
) -> CheckResult:
    """The first layer has no ring; every other (index, ring) with a ring
    lists 1..n once each, and each cyclic pair of it is an edge realized
    in the first layer."""
    base = {_seg(*edges[eid]) for eid in first_realized if eid in edges}
    bad = []
    for pos, (k, ring) in enumerate(rings):
        if ring is None:
            continue
        if pos == 0:
            bad.append(f"layer {k}: the first layer has a ring")
        else:
            bad.extend(f"layer {k}: {problem}" for problem in _ring_problems(n, ring, base))
    return CheckResult(not bad, bad)


__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_face_trace",
    "check_edge_partition",
    "check_graph_edges",
    "check_layer_rings",
    "segment_table",
    "trace_faces",
    "verify_raw",
    "verify_system",
]
