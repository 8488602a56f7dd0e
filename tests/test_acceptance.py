"""Acceptance gate: ten criteria, one pass/fail line each (run with -s)."""

from __future__ import annotations

import time

import pytest

from topolayers.cycles import canonical_ring, enumerate_isometric_cycles
from topolayers.document import decomposition_to_document, verify_document
from topolayers.fixtures import load_fixture
from topolayers.graphs import complete_graph, edge_between
from topolayers.layering import decompose, split_regions
from topolayers.planar import hamiltonian_rim
from topolayers.projection import basis_from_ring, select_noncrossing
from topolayers.routing import Drawing, insert_connection, shortest_route
from topolayers.verify import verify_system

from oracles import (
    brute_force_max_noncrossing,
    crossing_counts,
    project_chord_ref,
    strip_imaginary_region_ref,
)
from test_properties import (
    run_crossing_agreement,
    run_mutation_trials,
    run_random_insertions,
)

HAM = [1, 6, 5, 4, 3, 2, 7]


def _criterion(n, label, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    print(f"criterion {n:2d} [{label}]: PASS")


def _k7_chords(g):
    return {eid: uv for eid, uv in g.edges.items() if eid in (3, 8, 9, 10, 14, 17)}


def test_criterion_1_isometric_cycle_counts():
    def run():
        for n, want in ((7, 35), (8, 56)):
            t0 = time.perf_counter()
            pool = enumerate_isometric_cycles(complete_graph(n))
            assert time.perf_counter() - t0 < 1.0
            assert len(pool) == want
            assert all(len(c.arcs) == 3 for c in pool)

    _criterion(1, "isometric cycle counts", run)


def test_criterion_2_pinned_k7_subgraph(k7, k7_system):
    def run():
        assert len(k7_system.segments()) == 15
        chords = {
            eid for eid, uv in k7.edges.items() if uv not in k7_system.segments()
        }
        assert chords == {3, 8, 9, 10, 14, 17}
        rep = verify_system(k7_system)
        assert rep.checks["maclane"].ok
        assert rep.checks["gf2-sum"].ok
        assert rep.checks["euler"].ok
        assert rep.ok

    _criterion(2, "pinned K7 planar subgraph", run)


def test_criterion_3_projections_and_counts(k7):
    def run():
        basis = basis_from_ring(HAM)
        chords = _k7_chords(k7)
        want = {
            3: {5, 16, 19},
            8: {7, 12},
            9: {7, 12, 16},
            10: {5, 6, 11},
            14: {12, 16, 19},
            17: {16, 19},
        }
        for eid, proj in want.items():
            assert project_chord_ref(HAM, chords[eid], k7) == frozenset(proj)
        assert crossing_counts(basis, chords) == {
            3: 3, 8: 1, 9: 3, 10: 1, 14: 3, 17: 1,
        }

    _criterion(3, "K7 projections and crossings", run)


def test_criterion_4_noncrossing_selection(k7):
    def run():
        basis = basis_from_ring(HAM)
        chords = _k7_chords(k7)
        kept, _ = select_noncrossing(basis, chords)
        best = brute_force_max_noncrossing(basis, chords)
        assert len(kept) == 3 and len(best) == 3
        assert crossing_counts(basis, {eid: chords[eid] for eid in kept}) == {
            eid: 0 for eid in kept
        }

    _criterion(4, "non-crossing chord selection", run)


def test_criterion_5_insertion_replay(k7, k7_system):
    def run():
        d = Drawing.from_system(k7, k7_system)
        ring = hamiltonian_rim(
            k7_system, k7, load_fixture("k7")["hamiltonian"]
        )
        split_regions(d, ring)
        inner = lambda: sorted(f for f, s in d.side.items() if s == "inner")
        expected = {(2, 4): 1, (2, 5): 2, (2, 6): 3}
        for step, (chord, n_imag) in enumerate(expected.items()):
            route = shortest_route(d, *chord, inner())
            before = set(d.faces)
            n_im = len(d.imaginary)
            insert_connection(d, *chord, route)
            assert len(d.faces) - len(before) == len(route)
            assert len(d.imaginary) - n_im == n_imag
            assert verify_system(d.snapshot()).ok
            if step == 0:
                assert d.imaginary[8]["host"] == (3, 7)
                new_rings = {
                    frozenset(d.faces[f].vertices)
                    for f in set(d.faces) - before
                }
                assert new_rings == {
                    frozenset({2, 3, 8}),
                    frozenset({2, 8, 7}),
                    frozenset({4, 7, 8}),
                    frozenset({4, 8, 3}),
                }

    _criterion(5, "K7 insertion replay", run)


def test_criterion_6_residual_rim(k7, k7_system):
    def run():
        d = Drawing.from_system(k7, k7_system)
        ring = hamiltonian_rim(
            k7_system, k7, load_fixture("k7")["hamiltonian"]
        )
        split_regions(d, ring)
        inner = lambda: sorted(f for f, s in d.side.items() if s == "inner")
        for chord in ((2, 4), (2, 5), (2, 6)):
            insert_connection(d, *chord, shortest_route(d, *chord, inner()))
        _, rim = strip_imaginary_region_ref(d, chord=(3, 6))
        assert canonical_ring(rim) == canonical_ring([6, 1, 3, 2, 7])

    _criterion(6, "K7 residual rim after stripping", run)


def test_criterion_7_k7_sequences(k7, k7_decomposition):
    def run():
        d = k7_decomposition
        got = {d.chords[eid]: seq for eid, seq in d.sequences.items()}
        assert got == {
            (1, 4): [23],
            (2, 4): [8],
            (2, 5): [9, 10],
            (2, 6): [11, 12, 13],
            (4, 6): [24, 25],
            (3, 6): [14, 15],
        }
        hosts = {
            23: 13, 8: 15, 9: 15, 10: 18, 11: 15, 12: 18,
            13: 20, 14: 1, 15: 6, 24: 13, 25: 4,
        }
        for w, eid in hosts.items():
            assert d.drawing.imaginary[w]["carrier"] == ("edge", eid)

    _criterion(7, "K7 imaginary sequences", run)


def test_criterion_8_k8_replay(k8_decomposition):
    def run():
        d = k8_decomposition
        counts = {eid: len(seq) for eid, seq in d.sequences.items()}
        assert counts == {
            24: 1, 4: 2, 3: 3, 9: 4, 11: 2,
            10: 3, 17: 1, 12: 2, 15: 3, 21: 7,
        }
        for layer in d.layers:
            assert verify_system(layer.system).ok
        assert d.layers[-1].system.rim is None

    _criterion(8, "K8 pinned replay", run)


def test_criterion_9_k10_decomposition(k10):
    def run():
        t0 = time.perf_counter()
        d = decompose(k10, strategy="thickness", pin=load_fixture("k10"))
        assert time.perf_counter() - t0 < 10.0
        assert len(d.layers) <= 3
        for layer in d.layers:
            rep = verify_system(layer.system)
            assert rep.ok, rep.lines()
        part = {layer.index: sorted(layer.realized) for layer in d.layers}
        covered = sorted(eid for ids in part.values() for eid in ids)
        assert covered == sorted(k10.edges) and len(covered) == 45
        assert verify_document(decomposition_to_document(d)).ok

    _criterion(9, "K10 three-layer decomposition", run)


def test_criterion_10_property_suites(k7_decomposition):
    def run():
        agree, trials = run_crossing_agreement(1000)
        assert agree == trials == 1000
        done, failures = run_random_insertions(200)
        assert done >= 200 and not failures
        doc = decomposition_to_document(k7_decomposition)
        caught, n = run_mutation_trials(doc, 100)
        assert caught >= 99

    _criterion(10, "property suites", run)
