"""Independent invariant checkers for serialized cycle systems.

Everything here re-derives its facts from raw arc lists so that a bug in
the router cannot hide behind shared code: MacLane double cover, GF(2)
rim sum, Euler count, orientation coherence, imaginary degrees, and face
tracing from rebuilt rotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

Arc = Tuple[int, int]
RawMember = Tuple[int, Tuple[Arc, ...]]  # (id, arcs)


@dataclass
class CheckResult:
    ok: bool
    details: List[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    checks: Dict[str, CheckResult]

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
    out = [(cid, tuple(map(tuple, arcs))) for cid, arcs in sorted(cycles.items())]
    if rim is not None:
        out.append((rim[0], tuple(map(tuple, rim[1]))))
    return out


def check_walks(cycles, rim=None) -> CheckResult:
    """Each member is a closed simple walk of length >= 3."""
    bad = []
    for cid, arcs in _members(cycles, rim):
        if len(arcs) < 3:
            bad.append(f"c{cid}: only {len(arcs)} arcs")
            continue
        heads = [a for a, _ in arcs]
        for (a, b), (c, d) in zip(arcs, arcs[1:] + arcs[:1]):
            if b != c:
                bad.append(f"c{cid}: arcs break at ({a},{b})->({c},{d})")
                break
        else:
            if len(set(heads)) != len(heads):
                bad.append(f"c{cid}: revisits a vertex")
            if any(a == b for a, b in arcs):
                bad.append(f"c{cid}: self-loop arc")
    return CheckResult(not bad, bad)


def check_maclane(cycles, rim=None) -> CheckResult:
    """Every edge lies on exactly two members (double cover)."""
    cov: Dict[Tuple[int, int], List[int]] = {}
    for cid, arcs in _members(cycles, rim):
        for a, b in arcs:
            cov.setdefault(_seg(a, b), []).append(cid)
    bad = [
        f"edge ({s[0]},{s[1]}) on {len(who)} members: {who}"
        for s, who in sorted(cov.items())
        if len(who) != 2
    ]
    return CheckResult(not bad, bad)


def check_gf2_sum(cycles, rim=None) -> CheckResult:
    """XOR of cycle edge sets equals the rim edge set (empty without rim)."""
    acc: Set[Tuple[int, int]] = set()
    for _, arcs in sorted(cycles.items()):
        acc.symmetric_difference_update(_seg(a, b) for a, b in arcs)
    want = set() if rim is None else {_seg(a, b) for a, b in rim[1]}
    if acc == want:
        return CheckResult(True)
    extra = sorted(acc - want)
    missing = sorted(want - acc)
    return CheckResult(False, [f"sum mismatch: extra {extra}, missing {missing}"])


def check_euler(cycles, rim=None) -> CheckResult:
    vs: Set[int] = set()
    es: Set[Tuple[int, int]] = set()
    for _, arcs in _members(cycles, rim):
        for a, b in arcs:
            vs.update((a, b))
            es.add(_seg(a, b))
    nf = len(cycles) + (1 if rim is not None else 0)
    lhs = len(vs) - len(es) + nf
    if lhs == 2:
        return CheckResult(True)
    return CheckResult(False, [f"{len(vs)} - {len(es)} + {nf} = {lhs} != 2"])


def check_orientation(cycles, rim=None) -> CheckResult:
    """Shared edges must be traversed in opposite directions."""
    dirs: Dict[Tuple[int, int], List[Arc]] = {}
    for _, arcs in _members(cycles, rim):
        for a, b in arcs:
            dirs.setdefault(_seg(a, b), []).append((a, b))
    bad = [
        f"edge ({s[0]},{s[1]}) traversed {ds}"
        for s, ds in sorted(dirs.items())
        if len(ds) == 2 and ds[0] == ds[1]
    ]
    return CheckResult(not bad, bad)


def check_imaginary_degree(n: int, cycles, rim=None) -> CheckResult:
    """Imaginary vertices (id > n) have drawing degree exactly 4."""
    deg: Dict[int, Set[Tuple[int, int]]] = {}
    for _, arcs in _members(cycles, rim):
        for a, b in arcs:
            for v in (a, b):
                if v > n:
                    deg.setdefault(v, set()).add(_seg(a, b))
    bad = [
        f"v{v}: degree {len(ss)} != 4" for v, ss in sorted(deg.items()) if len(ss) != 4
    ]
    return CheckResult(not bad, bad)


def trace_faces(rotation: Dict[int, List[int]]) -> List[Tuple[Arc, ...]]:
    """Orbits of next(d) = rotation-successor of the reversed dart.

    `rotation[v]` is the cyclic order of neighbours around v.  Each orbit
    is one face, returned as its arc sequence.
    """
    succ: Dict[Arc, Arc] = {}
    for v, ring in rotation.items():
        for i, u in enumerate(ring):
            w = ring[(i + 1) % len(ring)]
            succ[(v, u)] = (v, w)
    faces = []
    seen: Set[Arc] = set()
    for dart in sorted(succ):
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


def check_face_trace(cycles, rim=None) -> CheckResult:
    """Rebuild vertex rotations from the members and re-trace the faces.

    At each vertex the faces dictate a successor map on incident darts;
    it must close into a single cyclic order (a disk neighbourhood), and
    tracing must return exactly the member set.
    """
    members = _members(cycles, rim)
    after: Dict[int, Dict[int, int]] = {}  # at v: incoming-from u -> outgoing-to w
    bad: List[str] = []
    for cid, arcs in members:
        for (a, b), (_, d) in zip(arcs, arcs[1:] + arcs[:1]):
            tbl = after.setdefault(b, {})
            if a in tbl:
                bad.append(f"v{b}: two successors for dart from v{a}")
                return CheckResult(False, bad)
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
                bad.append(f"v{v}: rotation does not close up")
                return CheckResult(False, bad)
            ring.append(w)
            w = tbl[w]
        if len(ring) != len(tbl):
            bad.append(f"v{v}: neighbourhood splits into several fans")
            return CheckResult(False, bad)
        rotation[v] = ring
    traced = trace_faces(rotation)
    want = {frozenset(_norm_face(arcs)) for _, arcs in members}
    got = {frozenset(_norm_face(f)) for f in traced}
    if want != got or len(traced) != len(members):
        bad.append(
            f"traced {len(traced)} faces, expected {len(members)}; "
            f"unmatched: {len(want ^ got)}"
        )
    return CheckResult(not bad, bad)


def _norm_face(arcs: Sequence[Arc]) -> Tuple[Arc, ...]:
    k = min(range(len(arcs)), key=lambda i: arcs[i])
    return tuple(arcs[k:]) + tuple(arcs[:k])


def verify_raw(
    n: int,
    cycles: Dict[int, Tuple[Arc, ...]],
    rim: Optional[RawMember] = None,
) -> VerificationReport:
    checks = {
        "walks": check_walks(cycles, rim),
        "maclane": check_maclane(cycles, rim),
        "gf2-sum": check_gf2_sum(cycles, rim),
        "euler": check_euler(cycles, rim),
        "orientation": check_orientation(cycles, rim),
        "imaginary-degree": check_imaginary_degree(n, cycles, rim),
    }
    if all(checks[k].ok for k in ("walks", "maclane", "orientation")):
        checks["face-trace-agreement"] = check_face_trace(cycles, rim)
    else:
        checks["face-trace-agreement"] = CheckResult(
            False, ["skipped: structural checks failed"]
        )
    return VerificationReport(checks)


def verify_system(sys_) -> VerificationReport:
    """Report for a CycleSystem (cycles + optional rim)."""
    cycles = {cid: c.arcs for cid, c in sys_.cycles.items()}
    rim = (sys_.rim.id, sys_.rim.arcs) if sys_.rim is not None else None
    return VerificationReport(verify_raw(sys_.n, cycles, rim).checks)


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
        elif sorted(ring) != list(range(1, n + 1)):
            bad.append(f"layer {k}: ring does not list 1..{n} once each")
        else:
            bad.extend(
                f"layer {k}: ring pair ({a},{b}) is not an edge of the first layer"
                for a, b in zip(ring, ring[1:] + ring[:1])
                if _seg(a, b) not in base
            )
    return CheckResult(not bad, bad)


def check_connection_realization(
    n: int,
    chords: Dict[int, Tuple[int, int]],
    sequences: Dict[int, List[int]],
    final_cycles: Dict[int, Tuple[Arc, ...]],
) -> CheckResult:
    """Each routed chord's connection is a path s -> ... -> t of drawing
    edges whose interior vertices are imaginary and of degree 4."""
    segs: Set[Tuple[int, int]] = set()
    deg: Dict[int, Set[Tuple[int, int]]] = {}
    for arcs in final_cycles.values():
        for a, b in arcs:
            segs.add(_seg(a, b))
            deg.setdefault(a, set()).add(_seg(a, b))
            deg.setdefault(b, set()).add(_seg(a, b))
    bad = []
    for eid, (u, v) in sorted(chords.items()):
        if eid not in sequences:
            bad.append(f"e{eid}: chord has no realized connection")
            continue
        path = [min(u, v)] + list(sequences[eid]) + [max(u, v)]
        for a, b in zip(path, path[1:]):
            if _seg(a, b) not in segs:
                bad.append(f"e{eid}: connection segment ({a},{b}) missing")
        for w in sequences[eid]:
            if w <= n:
                bad.append(f"e{eid}: crossing vertex v{w} is not imaginary")
            elif len(deg.get(w, ())) != 4:
                bad.append(f"e{eid}: imaginary v{w} has degree {len(deg.get(w, ()))}")
    return CheckResult(not bad, bad)


__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_walks",
    "check_maclane",
    "check_gf2_sum",
    "check_euler",
    "check_orientation",
    "check_imaginary_degree",
    "check_face_trace",
    "check_edge_partition",
    "check_graph_edges",
    "check_layer_rings",
    "check_connection_realization",
    "trace_faces",
    "verify_raw",
    "verify_system",
]
