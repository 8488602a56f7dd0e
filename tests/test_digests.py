"""Document digests pinned before the incremental selection and routing.

Speed work on projection and routing must not change any drawing.  The
sha256 of each serialized document below was recorded with the loop
versions of `select_noncrossing` and `shortest_route`; a mismatch means a
change moved a chord, a route or a tie-break.
"""

from __future__ import annotations

import hashlib

import pytest

from topolayers import complete_graph, decompose
from topolayers.document import decomposition_to_document, serialize_document

PINNED = {
    "k7": "7bd840f3737be921a286dc710677a5522af4e10068a9d9ad737a94a8751778ac",
    "k8": "6733fe519a5dee334c4e020b2d1e6a4e63a45544a34bdf29dbf7642f825ff8b6",
    "k10": "915f9bcd11d03fe4a41d06bc8fa2676145c3a1e1c21d98873abd7bd05394a6f2",
}
UNPINNED = {
    12: "5d5eaeffde3e2a9c2064559d5d23cbbd765999064371f66a3f4be22096c26191",
    14: "a9a86907049ee077bb73a0d405c791e8f49b393cef7ca1189113beee5b9c14dc",
    16: "6af1ff136de6f894528e09e5c93734398c9ba04d5dfaf5489d7dabb6613542bf",
}


def _digest(d) -> str:
    text = serialize_document(decomposition_to_document(d))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("which", sorted(PINNED))
def test_pinned_document_digest(which, request):
    assert _digest(request.getfixturevalue(f"{which}_decomposition")) == PINNED[which]


@pytest.mark.parametrize("n", sorted(UNPINNED))
def test_unpinned_complete_document_digest(n):
    assert _digest(decompose(complete_graph(n))) == UNPINNED[n]
