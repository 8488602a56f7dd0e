"""Spans around calls into each package module, recorded from outside.

`Tracer.installed()` replaces public functions with timing wrappers in
the namespace where their caller looks them up (`layering` binds its
helpers at import, `decompose` imports `enumerate_isometric_cycles` when
called) and puts the originals back on exit.  No file of the package
changes, and an untraced run never touches these wrappers.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# (module to patch, attribute, span name).  The span name's prefix is the
# layer: the package module that defines the function.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("topolayers.layering", "validate_nonseparable", "graphs.validate_nonseparable"),
    ("topolayers.cycles", "enumerate_isometric_cycles", "cycles.enumerate_isometric_cycles"),
    ("topolayers.layering", "select_planar_cycle_system", "planar.select_planar_cycle_system"),
    ("topolayers.layering", "hamiltonian_rim", "planar.hamiltonian_rim"),
    ("topolayers.layering", "basis_from_ring", "projection.basis_from_ring"),
    ("topolayers.layering", "select_noncrossing", "projection.select_noncrossing"),
    ("topolayers.layering", "shortest_route", "routing.shortest_route"),
    ("topolayers.routing", "build_mixed_cycle_graph", "routing.build_mixed_cycle_graph"),
    ("topolayers.layering", "insert_connection", "routing.insert_connection"),
    ("topolayers.layering", "imaginary_sequence", "routing.imaginary_sequence"),
    ("topolayers.layering", "expanded_ring", "layering.expanded_ring"),
    ("topolayers.document", "verify_raw", "verify.verify_raw"),
    ("topolayers.verify", "check_face_trace", "verify.check_face_trace"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "input", "error")

    def __init__(self, name: str, parent: int, input_id: str) -> None:
        self.name = name
        self.parent = parent
        self.input = input_id
        self.start = self.end = 0.0
        self.error: Optional[str] = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Spans and counts for the calls made while an input is open."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._input: Optional[str] = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def input(self, input_id: str) -> Iterator[None]:
        """Record calls made inside the block, tagged with input_id."""
        self._input = input_id
        try:
            yield
        finally:
            self._input = None
            self._stack.clear()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """fn with a span around each call; on_result(args, kwargs, result)
        runs after the span has closed, to take counts from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._input is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self._input)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self._stack.pop()
            span.end = perf_counter()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, api) -> Iterator[None]:
        """Wrap the package's internal call sites and the entry points in
        `api` (the namespace the benchmark itself calls through)."""
        saved = []
        hooks = _count_hooks(self)
        try:
            for mod_name, attr, span in PATCHES:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(span, orig, hooks.get(span)))
            for attr, span in API_SPANS.items():
                orig = getattr(api, attr)
                saved.append((api, attr, orig))
                setattr(api, attr, self.wrap(span, orig, hooks.get(span)))
            yield
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def failure_layer(self, input_id: str) -> Optional[Tuple[str, str]]:
        """(layer, message) of the innermost span of input_id that raised."""
        for span in reversed(self.spans):
            if span.input == input_id and span.error is not None:
                return span.name.split(".")[0], span.error
        return None


# Entry points the benchmark calls through its own namespace.
API_SPANS = {
    "parse_graph": "graphs.parse_graph",
    "decompose": "layering.decompose",
    "decomposition_to_document": "document.decomposition_to_document",
    "serialize_document": "document.serialize_document",
    "parse_document": "document.parse_document",
    "verify_document": "verify.verify_document",
    "render_svg": "render.render_svg",
}


def _count_hooks(t: Tracer) -> Dict[str, Callable]:
    def cycles(args, kwargs, pool):
        t.count("cycles.pool", len(pool))

    def planar(args, kwargs, sys_):
        t.count("planar.kept_edges", len(sys_.segments()))
        t.count("planar.edges", len(args[0].edges))

    def projection(args, kwargs, result):
        t.count("projection.candidates", len(args[1]))
        t.count("projection.kept", len(result[0]))

    def insert(args, kwargs, record):
        t.count("routing.route_faces", len(record.route))
        t.count("routing.imaginary", len(record.imaginary_ids))

    def decompose(args, kwargs, d):
        t.count("layering.layers", len(d.layers))

    def text_bytes(args, kwargs, text):
        t.count("document.bytes", len(text))

    def parsed_bytes(args, kwargs, doc):
        t.count("document.bytes", len(args[0]))

    def verified(args, kwargs, report):
        if not report.ok:
            t.count("verify.fail")

    return {
        "cycles.enumerate_isometric_cycles": cycles,
        "planar.select_planar_cycle_system": planar,
        "projection.select_noncrossing": projection,
        "routing.insert_connection": insert,
        "layering.decompose": decompose,
        "document.serialize_document": text_bytes,
        "document.parse_document": parsed_bytes,
        "verify.verify_document": verified,
    }


def layer_metrics(
    t: Tracer, passes: int, failures: Dict[str, str], scale: Dict[str, float]
) -> Dict[str, float]:
    """Per-pass figures for each layer from the spans of `passes` passes.

    `failures` maps each failed attempt's key (the span input id) to its
    error; each failure is charged to the layer of the innermost span that
    raised.  Span times are converted to reference seconds with the
    `scale` of the attempt they belong to.
    """
    spans = t.spans
    c = t.counts
    per = 1.0 / passes
    took = [(s.end - s.start) * scale[s.input] for s in spans]

    def _sum(spans, *names: str) -> float:
        return sum(d for s, d in zip(spans, took) if s.name in names)

    child_s: Dict[int, float] = {}
    for s, d in zip(spans, took):
        if s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + d
    decompose_s = _sum(spans, "layering.decompose")
    decompose_self = sum(
        d - child_s.get(i, 0.0)
        for i, (s, d) in enumerate(zip(spans, took))
        if s.name == "layering.decompose"
    )
    n_calls: Dict[str, int] = {}
    for s in spans:
        n_calls[s.name] = n_calls.get(s.name, 0) + 1
    fails: Dict[str, int] = {}
    for key in failures:
        where = t.failure_layer(key)
        layer = where[0] if where else "benchmark"
        fails[layer] = fails.get(layer, 0) + 1
    route_calls = n_calls.get("routing.shortest_route", 0)
    inserts = n_calls.get("routing.insert_connection", 0)
    candidates = c.get("projection.candidates", 0)
    planar_edges = c.get("planar.edges", 0)
    cycles_planar = _sum(
        spans,
        "cycles.enumerate_isometric_cycles",
        "planar.select_planar_cycle_system",
        "planar.hamiltonian_rim",
    )
    projection_routing = _sum(
        spans,
        "projection.basis_from_ring",
        "projection.select_noncrossing",
        "routing.shortest_route",
        "routing.insert_connection",
        "routing.imaginary_sequence",
    )
    audit_s = _sum(spans, "document.parse_document", "verify.verify_document", "render.render_svg")
    return {
        "graphs.s": per * _sum(spans, "graphs.parse_graph", "graphs.validate_nonseparable"),
        "cycles.enumerate_s": per * _sum(spans, "cycles.enumerate_isometric_cycles"),
        "cycles.pool": per * c.get("cycles.pool", 0),
        "cycles.fail": per * fails.get("cycles", 0),
        "planar.select_s": per * _sum(spans, "planar.select_planar_cycle_system"),
        "planar.rim_s": per * _sum(spans, "planar.hamiltonian_rim"),
        "planar.fail": per * fails.get("planar", 0),
        "planar.kept_share": c.get("planar.kept_edges", 0) / planar_edges if planar_edges else 0.0,
        "projection.select_s": per * _sum(spans, "projection.select_noncrossing"),
        "projection.calls": per * n_calls.get("projection.select_noncrossing", 0),
        "projection.candidates": per * candidates,
        "projection.kept_ratio": c.get("projection.kept", 0) / candidates if candidates else 0.0,
        "projection.fail": per * fails.get("projection", 0),
        "routing.route_s": per * _sum(spans, "routing.shortest_route"),
        "routing.mcg_s": per * _sum(spans, "routing.build_mixed_cycle_graph"),
        "routing.route_calls": per * route_calls,
        "routing.insert_s": per * _sum(spans, "routing.insert_connection"),
        "routing.inserts": per * inserts,
        "routing.route_hit_ratio": inserts / route_calls if route_calls else 0.0,
        "routing.route_faces_mean": c.get("routing.route_faces", 0) / inserts if inserts else 0.0,
        "routing.imaginary": per * c.get("routing.imaginary", 0),
        "routing.fail": per * fails.get("routing", 0),
        "layering.decompose_s": per * decompose_s,
        "layering.self_s": per * decompose_self,
        "layering.ring_s": per * _sum(spans, "layering.expanded_ring"),
        "layering.sequence_s": per * _sum(spans, "routing.imaginary_sequence"),
        "layering.layers": per * c.get("layering.layers", 0),
        "layering.fail": per * fails.get("layering", 0),
        "document.build_s": per * _sum(spans, "document.decomposition_to_document"),
        "document.serialize_s": per * _sum(spans, "document.serialize_document"),
        "document.parse_s": per * _sum(spans, "document.parse_document"),
        "document.bytes": per * c.get("document.bytes", 0),
        "verify.document_s": per * _sum(spans, "verify.verify_document"),
        "verify.face_trace_s": per * _sum(spans, "verify.check_face_trace"),
        "verify.fail": per * (c.get("verify.fail", 0) + fails.get("verify", 0)),
        "render.svg_s": per * _sum(spans, "render.render_svg"),
        "render.layers": per * n_calls.get("render.render_svg", 0),
        "shares.cycles_planar": cycles_planar / decompose_s if decompose_s else 0.0,
        "shares.projection_routing": projection_routing / decompose_s if decompose_s else 0.0,
        "shares.render_verify": (
            _sum(spans, "verify.verify_document", "render.render_svg") / audit_s if audit_s else 0.0
        ),
    }
