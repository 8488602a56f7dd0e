from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from topolayers.cycles import canonical_ring
from topolayers.document import (
    decomposition_to_document,
    parse_document,
    serialize_document,
    verify_document,
)
from topolayers.graphs import complete_graph
from topolayers.planar import select_planar_cycle_system
from topolayers.projection import basis_from_ring, chords_cross
from topolayers.routing import Drawing, shortest_route, insert_connection
from topolayers.verify import verify_raw

SEED = 20260823


def _interleave_oracle(ring, c1, c2):
    """Chords of a ring cross iff their endpoints interleave strictly."""
    if set(c1) & set(c2):
        return False
    pos = {v: i for i, v in enumerate(ring)}
    u, v = sorted((pos[c1[0]], pos[c1[1]]))
    x, y = pos[c2[0]], pos[c2[1]]
    return (u < x < v) != (u < y < v)


def run_crossing_agreement(trials=1000):
    rng = random.Random(SEED)
    agree = 0
    for _ in range(trials):
        k = rng.randint(4, 12)
        ring = list(range(1, k + 1))
        rng.shuffle(ring)
        basis = basis_from_ring(ring)
        c1 = tuple(rng.sample(ring, 2))
        c2 = tuple(rng.sample(ring, 2))
        if chords_cross(basis, c1, c2) == _interleave_oracle(ring, c1, c2):
            agree += 1
    return agree, trials


def run_random_insertions(target=200):
    rng = random.Random(SEED)
    done = 0
    failures = []
    while done < target:
        n = rng.randint(5, 10)
        g = complete_graph(n)
        sys_ = select_planar_cycle_system(g)
        d = Drawing.from_system(g, sys_)
        chords = [uv for uv in g.edges.values() if uv not in sys_.segments()]
        rng.shuffle(chords)
        for s, t in chords:
            route = shortest_route(d, s, t)
            if route is None:
                d.clear_bans()
                route = shortest_route(d, s, t)
                if route is None:
                    continue
            insert_connection(d, s, t, route)
            done += 1
            snap = d.snapshot()
            cycles = {cid: c.arcs for cid, c in snap.cycles.items()}
            rim = (snap.rim.id, snap.rim.arcs) if snap.rim else None
            checks = verify_raw(n, cycles, rim).checks
            for name in ("maclane", "euler", "imaginary-degree"):
                if not checks[name].ok:
                    failures.append((n, (s, t), name))
            if done >= target:
                break
    return done, failures


def run_mutation_trials(doc, trials=100):
    rng = random.Random(SEED)
    text = serialize_document(doc)
    caught = 0
    for _ in range(trials):
        mutated = parse_document(text)
        layer = rng.choice(mutated["layers"])
        members = list(layer["system"]["cycles"])
        if layer["system"]["rim"] is not None:
            members.append(layer["system"]["rim"])
        cyc = rng.choice(members)
        i = rng.randrange(len(cyc["arcs"]))
        a, b = cyc["arcs"][i]
        others = [v for v in range(1, mutated["graph"]["n"] + 1) if v not in (a, b)]
        cyc["arcs"][i] = [a, rng.choice(others)]
        if not verify_document(mutated).ok:
            caught += 1
    return caught, trials


def test_crossing_oracle_agreement():
    agree, trials = run_crossing_agreement()
    assert agree == trials


def test_random_insertions_keep_invariants():
    done, failures = run_random_insertions()
    assert done >= 200
    assert not failures, failures[:5]


def test_mutation_detection(k7_decomposition):
    doc = decomposition_to_document(k7_decomposition)
    caught, trials = run_mutation_trials(doc)
    assert caught >= trials - 1, f"only {caught}/{trials} mutations detected"


@given(st.lists(st.integers(1, 50), min_size=3, max_size=12, unique=True))
def test_canonical_ring_rotation_invariant(ring):
    base = canonical_ring(list(ring))
    for k in range(len(ring)):
        rotated = ring[k:] + ring[:k]
        assert canonical_ring(list(rotated)) == base
        assert canonical_ring(list(reversed(rotated))) == base
        assert tuple(canonical_ring(list(rotated))) == tuple(canonical_ring(list(ring)))


@settings(max_examples=50)
@given(st.integers(4, 12), st.data())
def test_chords_cross_symmetric(k, data):
    ring = list(range(1, k + 1))
    basis = basis_from_ring(ring)
    c1 = tuple(data.draw(st.permutations(ring)))[:2]
    c2 = tuple(data.draw(st.permutations(ring)))[:2]
    assert chords_cross(basis, c1, c2) == chords_cross(basis, c2, c1)
    assert chords_cross(basis, c1, c2) == chords_cross(basis, tuple(reversed(c1)), c2)


def test_serialize_canonical_under_key_order(k7_document):
    text = serialize_document(k7_document)
    shuffled = json.loads(text)
    assert serialize_document(shuffled) == text
