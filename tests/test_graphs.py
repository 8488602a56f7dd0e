from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nonseparable_ref
from topolayers.graphs import (
    Graph,
    GraphInputError,
    complete_graph,
    edge_between,
    format_graph,
    parse_graph,
    validate_nonseparable,
)


def test_parse_basic():
    g = parse_graph("1 2\n2 3\n# comment\n\n3 1\n", name="tri")
    assert g.n == 3
    assert g.edges == {1: (1, 2), 2: (2, 3), 3: (1, 3)}
    assert g.name == "tri"


def test_parse_orders_endpoints():
    g = parse_graph("5 2\n")
    assert g.edges[1] == (2, 5)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1\n", "two vertex ids"),
        ("1 2 3\n", "two vertex ids"),
        ("a b\n", "integers"),
        ("0 1\n", "positive"),
        ("2 2\n", "self-loop"),
        ("1 2\n2 1\n", "duplicate"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphInputError, match=fragment):
        parse_graph(text)


def test_format_round_trip():
    g = complete_graph(5, name="K5")
    g2 = parse_graph(format_graph(g), name="K5")
    assert g2.edges == g.edges and g2.n == g.n


def test_complete_graph_counts():
    for n in (4, 7, 8, 10):
        g = complete_graph(n)
        assert len(g.edges) == n * (n - 1) // 2
        assert all(g.degree(v) == n - 1 for v in g.vertices)


def test_edge_between():
    g = complete_graph(4)
    assert g.edges[edge_between(g, 3, 1)] == (1, 3)
    g2 = parse_graph("1 2\n2 3\n3 1\n")
    assert edge_between(g2, 1, 3) == 3


def test_nonseparable_complete():
    for n in (4, 7, 10):
        assert validate_nonseparable(complete_graph(n)).ok


def test_nonseparable_rejects_cut_vertex():
    # two triangles glued at vertex 3
    g = parse_graph("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n")
    rep = validate_nonseparable(g)
    assert not rep.ok
    assert 3 in rep.cut_vertices


def test_nonseparable_rejects_bridge_and_low_degree():
    g = parse_graph("1 2\n")
    rep = validate_nonseparable(g)
    assert not rep.ok
    assert rep.bridges and rep.min_degree < 3


def test_nonseparable_rejects_disconnected():
    g = parse_graph("1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
    rep = validate_nonseparable(g)
    assert not rep.ok and not rep.connected


@st.composite
def small_graphs(draw):
    """Graphs on 1..n, n <= 10, edge ids in random order.  Sparse draws
    give isolated vertices, pendant edges and several components; a
    drawn complement gives dense graphs with a few edges missing."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picked = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=len(pairs)))
    if draw(st.booleans()):
        picked = set(range(len(pairs))) - picked
    chosen = [pairs[i] for i in sorted(picked)]
    ids = draw(st.permutations(range(1, len(chosen) + 1)))
    return Graph(n=n, edges=dict(zip(ids, chosen)))


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_nonseparable_matches_brute_force(g):
    rep = validate_nonseparable(g)
    assert (rep.connected, rep.min_degree, rep.cut_vertices, rep.bridges) == nonseparable_ref(g)
