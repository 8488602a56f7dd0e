from __future__ import annotations

import networkx as nx
import pytest

from topolayers import (
    complete_graph,
    decompose,
    decomposition_to_document,
    select_planar_cycle_system,
)
from topolayers.fixtures import load_fixture

from oracles import graph_from_networkx


@pytest.fixture(scope="session")
def k7():
    return complete_graph(7, name="K7")


@pytest.fixture(scope="session")
def k8():
    return complete_graph(8, name="K8")


@pytest.fixture(scope="session")
def k10():
    return complete_graph(10, name="K10")


@pytest.fixture(scope="session")
def k7_system(k7):
    return select_planar_cycle_system(k7, load_fixture("k7")["system"])


@pytest.fixture(scope="session")
def k7_decomposition(k7):
    return decompose(k7, strategy="thickness", pin=load_fixture("k7"))


@pytest.fixture(scope="session")
def k8_decomposition(k8):
    return decompose(k8, strategy="thickness", pin=load_fixture("k8"))


@pytest.fixture(scope="session")
def k10_decomposition(k10):
    return decompose(k10, strategy="thickness", pin=load_fixture("k10"))


@pytest.fixture(scope="session")
def k7_document(k7_decomposition):
    return decomposition_to_document(k7_decomposition)


@pytest.fixture(scope="session")
def k10_unpinned_decomposition():
    return decompose(complete_graph(10))


@pytest.fixture(scope="session")
def k12_unpinned_decomposition():
    return decompose(complete_graph(12))


@pytest.fixture(scope="session")
def k14_unpinned_decomposition():
    return decompose(complete_graph(14))


@pytest.fixture(scope="session")
def k16_unpinned_decomposition():
    return decompose(complete_graph(16))


@pytest.fixture(scope="session")
def k18_unpinned_decomposition():
    return decompose(complete_graph(18))


@pytest.fixture(scope="session")
def k20_unpinned_decomposition():
    return decompose(complete_graph(20))


@pytest.fixture(scope="session")
def q4_decomposition():
    return decompose(graph_from_networkx(nx.hypercube_graph(4), name="Q4"))


@pytest.fixture(scope="session")
def q5_decomposition():
    return decompose(graph_from_networkx(nx.hypercube_graph(5), name="Q5"))
