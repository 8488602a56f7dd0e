"""Layered topological drawings of nonseparable graphs.

Builds a maximal planar subgraph as an oriented cycle system, projects the
remaining chords onto a Hamiltonian coordinate basis, routes them through
conjugate faces with imaginary crossing vertices, and emits a planar-layer
(thickness) decomposition with independent verification.
"""

from __future__ import annotations

from .cycles import Cycle, canonical_ring, enumerate_isometric_cycles, ring_cycle
from .document import (
    DocumentError,
    decomposition_to_document,
    parse_document,
    serialize_document,
    verify_document,
)
from .graphs import (
    Graph,
    GraphInputError,
    NonseparabilityReport,
    complete_graph,
    edge_between,
    format_graph,
    parse_graph,
    validate_nonseparable,
)
from .layering import (
    Decomposition,
    DecompositionError,
    Layer,
    decompose,
)
from .planar import (
    CycleSystem,
    PlanarizationError,
    hamiltonian_rim,
    select_planar_cycle_system,
)
from .projection import (
    ProjectionError,
    basis_from_ring,
    chords_cross,
    select_noncrossing,
)
from .render import RenderError, render_svg
from .routing import (
    Drawing,
    RoutingError,
    build_mixed_cycle_graph,
    imaginary_sequence,
    insert_connection,
    shortest_route,
)
from .verify import VerificationReport, trace_faces, verify_system

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "CycleSystem",
    "Decomposition",
    "DecompositionError",
    "DocumentError",
    "Drawing",
    "Graph",
    "GraphInputError",
    "Layer",
    "NonseparabilityReport",
    "PlanarizationError",
    "ProjectionError",
    "RenderError",
    "RoutingError",
    "VerificationReport",
    "basis_from_ring",
    "build_mixed_cycle_graph",
    "canonical_ring",
    "chords_cross",
    "complete_graph",
    "decompose",
    "decomposition_to_document",
    "edge_between",
    "enumerate_isometric_cycles",
    "format_graph",
    "hamiltonian_rim",
    "imaginary_sequence",
    "insert_connection",
    "parse_document",
    "parse_graph",
    "render_svg",
    "ring_cycle",
    "select_noncrossing",
    "select_planar_cycle_system",
    "serialize_document",
    "shortest_route",
    "trace_faces",
    "validate_nonseparable",
    "verify_document",
    "verify_system",
]
