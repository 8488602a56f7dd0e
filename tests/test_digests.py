"""Document and SVG digests pinned before refactors of the drawing code.

Speed work on projection and routing must not change any drawing.  The
sha256 of each serialized document below was recorded with the loop
versions of `select_noncrossing` and `shortest_route`; a mismatch means a
change moved a chord, a route or a tie-break.  The SVG digests of every
layer were recorded with the renderer's own carrier-path walk, before
path and ring walking moved into `cycles.walk`; a mismatch there means a
crossing marker or a polyline moved.  The hypercube digests and the
refusals of non-Hamiltonian inputs were recorded with a full planarity
test per edge and the unpruned Hamiltonian search, before the planar
stage's shortcuts.  The SVG digests of unpinned K14 and K16 and of the
hypercubes were recorded while every layer still relaxed all of the
document's crossing markers; K16 has 541 on connection hosts.  The
layer-1 SVG digests of the planar inputs, whose documents have no ring,
so that interior vertices take Tutte positions from a linear solve, were
recorded while numpy's solver ran it; those of the wheel W40 and the
prisms C50×K2 and C200×K2 while a dense Gaussian elimination with partial
pivoting did, before the renderer eliminated vertices from layer 1's
graph.  The inner-only digests were
recorded while `decompose` still spelled out each strategy's passes as
its own branch, and before pinned K10 carried a route log (the
inner-only strategy replays none, so they must not move with it).  The
documents and refusals of unpinned K10 and of the sparse benchmark's
random regular graphs were recorded while the left-right planarity
kernel still kept its per-edge state in dicts keyed by (tail, head)
tuples.  Unpinned K18 and K20 (5 and 6 layers), past the benchmark's
corpus, were recorded while the drawing still indexed its faces by
segment tuple, before it moved to integer segment ids.  The Herschel and
Tutte graphs, planar with no Hamiltonian cycle, were recorded once
`decompose` searched for a ring only when a second layer opened; before
that, both were refused for want of one.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import pytest

from oracles import graph_from_networkx
from topolayers import complete_graph, decompose, parse_graph
from topolayers.document import decomposition_to_document, serialize_document
from topolayers.fixtures import load_fixture
from topolayers.planar import PlanarizationError
from topolayers.render import render_svg

PINNED = {
    "k7": "7bd840f3737be921a286dc710677a5522af4e10068a9d9ad737a94a8751778ac",
    "k8": "6733fe519a5dee334c4e020b2d1e6a4e63a45544a34bdf29dbf7642f825ff8b6",
    "k10": "915f9bcd11d03fe4a41d06bc8fa2676145c3a1e1c21d98873abd7bd05394a6f2",
}
UNPINNED = {
    10: "3c3ea8d91655386dd6fccea755400582c0f9166e0f1bbc4c065718b64569797d",
    12: "5d5eaeffde3e2a9c2064559d5d23cbbd765999064371f66a3f4be22096c26191",
    14: "a9a86907049ee077bb73a0d405c791e8f49b393cef7ca1189113beee5b9c14dc",
    16: "6af1ff136de6f894528e09e5c93734398c9ba04d5dfaf5489d7dabb6613542bf",
    18: "c04868606e891c8726be9753dd478bb0d2fe348b25bacaf4ce313642e83564d0",
    20: "ae03bd5aca042aa8d4dc4aec503fe7015733c087cb780b8df01ea501bcd4ba08",
}
# strategy="inner-only": (fixture or None, n) -> sha256, with 5/6/7/6/9 layers.
INNER_ONLY = {
    ("k7", 7): "f83ac9ed43037815ab3b27e33e98d8a37d5522d7ded5bc7125cd2e1802dfa462",
    ("k8", 8): "c39b801c90bb95d3d08c04b6b97f74dda1d1735743c844c0ba3c13ac7c0fa0ec",
    ("k10", 10): "9decf9eadaccb934444a7f9b53894b6d1400bf803048c62cafb8d025c2fa097c",
    (None, 10): "b5ea769087b5e93c556f79a244d41942173bd0c6f3eead13f90793ab8edd85c5",
    (None, 12): "b5cb09c0d879199bcf87551630f2f7fbe8a196a5a00559c49fab803d9b4656a2",
}
HYPERCUBE = {
    4: "caf9dab3de46ab623dc1c842b89503ca9a60f0633f925797c39e1a3555e4ab39",
    5: "36b2af271bf5a3309d38885a0d0ed855a800e31ae1c80ddf6518e22f300e741d",
}
NO_RING = "no Hamiltonian ring found in the planar subgraph"
BRIDGE = "the planar subgraph has a bridge (%d,%d), so its faces are not simple cycles"


def _regular(d, n, seed):
    """The sparse benchmark's graph rr{d}_{n}_s{seed}; `graph_from_networkx`
    relabels it as perfbench/corpus.py does."""
    return lambda: nx.random_regular_graph(d, n, seed=seed)


REFUSED = {
    "petersen": (nx.petersen_graph, NO_RING),
    "K5,5": (lambda: nx.complete_bipartite_graph(5, 5), NO_RING),
    "K6,6": (lambda: nx.complete_bipartite_graph(6, 6), NO_RING),
    "rr4_16_s1": (_regular(4, 16, 1), BRIDGE % (1, 16)),
    "rr4_16_s2": (_regular(4, 16, 2), NO_RING),
    "rr5_20_s0": (_regular(5, 20, 0), NO_RING),
    "rr5_20_s2": (_regular(5, 20, 2), BRIDGE % (4, 13)),
    "rr5_30_s0": (_regular(5, 30, 0), BRIDGE % (2, 28)),
    "rr5_30_s1": (_regular(5, 30, 1), BRIDGE % (4, 16)),
    "rr5_30_s2": (_regular(5, 30, 2), BRIDGE % (3, 23)),
    "rr6_20_s1": (_regular(6, 20, 1), NO_RING),
    "rr6_20_s2": (_regular(6, 20, 2), NO_RING),
    "rr8_20_s0": (_regular(8, 20, 0), NO_RING),
    "rr8_20_s1": (_regular(8, 20, 1), NO_RING),
}
# Planar, nonseparable, and with no Hamiltonian cycle (Herschel 1882).
HERSCHEL = "".join(
    f"{u} {v}\n"
    for u, v in [
        (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 7), (2, 8), (3, 11),
        (4, 10), (5, 9), (5, 10), (6, 9), (6, 11), (7, 9), (7, 10), (8, 9), (8, 11),
    ]
)
# The sparse benchmark's graphs that decompose, named as the corpus names them.
SPARSE = {
    "rr4_16_s0": (_regular(4, 16, 0), "7d0cb36120daf63c3ecd214c8ddc03c68b6f61c35ade9adbefaee2df2e07c527"),
    "rr5_20_s1": (_regular(5, 20, 1), "2a963cdca69366939401e3a4256926158416e09bbfe6c9cd60889954accb92b6"),
    "rr6_20_s0": (_regular(6, 20, 0), "c60513d7ca877343365c8ceb5698ab833b07b7b41391a5e435defb66936031be"),
    "rr8_20_s2": (_regular(8, 20, 2), "baf135c3b178b142740c2e090d793ea1d6f3ac05c183a4ada3aec22e540d5343"),
}

SVG = {
    ("k7", 1): "b2ae7e2bd21201c20c3f88477cc386002666868d8b7769c4dc24865f5cca766a",
    ("k7", 2): "7a08966f54cb3a6f29e80f69683dbc3eda6e958a29f6f4660276e2ba332dcb9d",
    ("k8", 1): "09f0510097135179d09639ddab869cc5c83edef4f86e761f75019c7bfb87177a",
    ("k8", 2): "f24fe8a716caf95657688d148ca0175f0fb609c34b8226e6bc4c27b35231dc85",
    ("k10", 1): "7a0f4d1f3c6750a6bcaf8702db7d150ae6e07fd490d027c1e4c199809702af62",
    ("k10", 2): "5ef4c4e03a8031996cae7ac1cec07b55159fd71ad87f7bdab53ee4420e79abc6",
    ("k10", 3): "9961c6f7178b2fa41fc8d2ec86db8a218cc106a31efaca23388afa06c411a96b",
    ("k12_unpinned", 1): "8c7f9c15359f0f6d5894cc2151fa1751d0cc89fe5cd625f2e3384be9ebf11392",
    ("k12_unpinned", 2): "04a9d2f5286acad622db3e7dc6cafd9471211e9edc15469856898cf685ffe37e",
    ("k12_unpinned", 3): "59b2bc7f31742309e2ba40673d0d98d78038806209e6474ae79e0262db212bf2",
    ("k12_unpinned", 4): "7982d20cc19650428f6271f9a2f995751f8ad3526d3282ee0600028cdaf2c556",
    ("k14_unpinned", 1): "ed07b5a1daa71d5688d8a48aaa6cce22a24523a95eafa5a36637dbfbc9dab952",
    ("k14_unpinned", 2): "f26a30c01fb355650d8735b9492884d682f758206845828161033bdaf9c855dc",
    ("k14_unpinned", 3): "d817c729fc64fa4b83ca46ebb6b5fed60d615c3ffda618b13a1569d0acdc7c25",
    ("k14_unpinned", 4): "589f3f9eb778d70f77e44762ec5189837e90bcd470b3ed751f5e072f5fe7e631",
    ("k16_unpinned", 1): "43e3266809bcafd822cff02083617d2d8b7e709d47d9f35a31441ee6866af57f",
    ("k16_unpinned", 2): "3c4d5959f9acde400b72ffce15689e765b508d1ec1ac1bc7eafac11c2b87cdfe",
    ("k16_unpinned", 3): "78c4f2630d59e1390cfe0698f7d4183ed59c65b8ac08464e67bd8c19bfae30dd",
    ("k16_unpinned", 4): "780c64c8ab45f2bce4b9120b5328ffa482dff522c7cea80a4ae00701db2d290d",
    ("k16_unpinned", 5): "b42230cbc603d28447b38563ab05ed134103f23ad32f1fc8f168b9f1ccfe207c",
    ("q4", 1): "bc4131bc8133a538e251210eaca38d4b8f6bc5d1324a51df706427e6dc8e8c3a",
    ("q4", 2): "049ff1f80ea6de114742fdd98ec56b7e87a8f1c59caa42be8b12f49db5a8dc7e",
    ("q5", 1): "cec4e731ddfaeb954d15f6ea39d3211c349d365ac71117332e5d11c72e1793aa",
    ("q5", 2): "d2bfbe126dcd3b5cac15182df47b451d98eb61f9d2dd245f0a1666086f5a3343",
}

# Planar inputs: one ringless layer, drawn with Tutte positions.
PLANAR = {
    "k4": (lambda: complete_graph(4), "2d95326b78c68baf9e6be60e6ff2feaabb4293d7ddf6a13e2f82a31796cff88c"),
    "q3": (
        lambda: graph_from_networkx(nx.hypercube_graph(3)),
        "03e7e994ee48a0ed687bbc9f742b739020b6f253168a5bafae3dd2905a1fd586",
    ),
    "octahedron": (
        lambda: graph_from_networkx(nx.octahedral_graph()),
        "f3e646b425b8c1c52855bf6dc970f6f2a5b86b34b01144104bb203da498cac02",
    ),
    "icosahedron": (
        lambda: graph_from_networkx(nx.icosahedral_graph()),
        "75c52018760577dac9680f2ce24f2f14cc3836fb8561e76d2b453c7de8c2aa68",
    ),
    "dodecahedron": (
        lambda: graph_from_networkx(nx.dodecahedral_graph()),
        "213552711c778441f3c8e73622c737f3a062775364b063ad4ae4be4e3d3cb1c2",
    ),
    "w40": (
        lambda: graph_from_networkx(nx.wheel_graph(41)),
        "99ef3eb0fce4270dec58ea0166b5c4578463421e8471e4a8d50045adb65de530",
    ),
    "c50xk2": (
        lambda: graph_from_networkx(nx.circular_ladder_graph(50)),
        "00f471ee8613698bf22a915d418f9230053ded28751ea9e018e9f1fba94c1e53",
    ),
    "c200xk2": (
        lambda: graph_from_networkx(nx.circular_ladder_graph(200)),
        "c427d17647947b9297f11a0048462a07c8c5e7f8af2bb3d04c4d8c60a650751b",
    ),
    "herschel": (
        lambda: parse_graph(HERSCHEL),
        "41c36ec1c0ad8b3a72535dad4d5384e0de1ebd3d0f039bd0640e94f10a1660b1",
    ),
    "tutte": (
        lambda: graph_from_networkx(nx.tutte_graph()),
        "7f50db95ae58f2c763660af5e13995fb228b3ee00c818af4efa088a546e6f0e2",
    ),
}


def _digest(d) -> str:
    text = serialize_document(decomposition_to_document(d))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("which", sorted(PINNED))
def test_pinned_document_digest(which, request):
    assert _digest(request.getfixturevalue(f"{which}_decomposition")) == PINNED[which]


@pytest.mark.parametrize("n", sorted(UNPINNED))
def test_unpinned_complete_document_digest(n, request):
    assert _digest(request.getfixturevalue(f"k{n}_unpinned_decomposition")) == UNPINNED[n]


@pytest.mark.parametrize(
    "fixture,n", sorted(INNER_ONLY, key=lambda k: (k[0] is None, k[1]))
)
def test_inner_only_document_digest(fixture, n):
    pin = load_fixture(fixture) if fixture else None
    d = decompose(complete_graph(n, name=f"K{n}" if fixture else ""), "inner-only", pin)
    assert _digest(d) == INNER_ONLY[(fixture, n)]


@pytest.mark.parametrize("dim", sorted(HYPERCUBE))
def test_unpinned_hypercube_document_digest(dim, request):
    assert _digest(request.getfixturevalue(f"q{dim}_decomposition")) == HYPERCUBE[dim]


@pytest.mark.parametrize("which", sorted(REFUSED))
def test_unpinned_refusal_message(which):
    make, message = REFUSED[which]
    with pytest.raises(PlanarizationError) as exc:
        decompose(graph_from_networkx(make(), name=which))
    assert str(exc.value) == message


@pytest.mark.parametrize("which", sorted(SPARSE))
def test_sparse_document_digest(which):
    make, want = SPARSE[which]
    assert _digest(decompose(graph_from_networkx(make(), name=which))) == want


@pytest.mark.parametrize("which,layer", sorted(SVG))
def test_layer_svg_digest(which, layer, request):
    d = request.getfixturevalue(f"{which}_decomposition")
    svg = render_svg(decomposition_to_document(d), layer)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG[(which, layer)]


@pytest.mark.parametrize("which", sorted(PLANAR))
def test_planar_layer_svg_digest(which):
    make, want = PLANAR[which]
    doc = decomposition_to_document(decompose(make()))
    assert [layer.get("ring") for layer in doc["layers"]] == [None]
    svg = render_svg(doc, 1)
    assert hashlib.sha256(svg.encode()).hexdigest() == want
