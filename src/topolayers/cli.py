"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input/validation error.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

import click

from .cycles import enumerate_isometric_cycles
from .document import (
    DocumentError,
    decomposition_to_document,
    parse_document,
    serialize_document,
    verify_document,
)
from .fixtures import load_fixture
from .graphs import GraphInputError, parse_graph, validate_nonseparable
from .layering import DecompositionError, _check_pin, decompose
from .planar import PlanarizationError, select_planar_cycle_system
from .projection import ProjectionError
from .render import RenderError, render_svg
from .routing import RoutingError

_INPUT_ERRORS = (
    GraphInputError,
    PlanarizationError,
    ProjectionError,
    RoutingError,
    DecompositionError,
    DocumentError,
    RenderError,
    OSError,
)


@contextmanager
def _input_errors() -> Iterator[None]:
    """Report an input or validation error raised in the block; exit 2."""
    try:
        yield
    except _INPUT_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _read_graph(path: str):
    with open(path) as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    g = parse_graph(text, name=name)
    report = validate_nonseparable(g)
    if not report.ok:
        raise GraphInputError(
            "graph is not nonseparable: " + "; ".join(report.problems())
        )
    return g


def _read_pin(ref: Optional[str]) -> Optional[dict]:
    if ref is None:
        return None
    if os.path.exists(ref):
        with open(ref) as fh:
            try:
                pin = json.load(fh)
            except ValueError as exc:
                raise GraphInputError(f"pin {ref!r} is not JSON: {exc}") from None
    else:
        try:
            pin = load_fixture(ref)
        except FileNotFoundError:
            raise GraphInputError(
                f"pin {ref!r} is neither a file nor a packaged fixture"
            ) from None
    _check_pin(pin)
    return pin


@click.group()
def main() -> None:
    """Layered topological drawings of nonseparable graphs."""


@main.command()
@click.argument("input_path", metavar="IN")
def cycles(input_path: str) -> None:
    """List the isometric cycles of the graph in IN, one per line."""
    with _input_errors():
        g = _read_graph(input_path)
        pool = enumerate_isometric_cycles(g)
    for c in pool:
        click.echo(f"c{c.id}: " + " ".join(f"v{v}" for v in c.vertices))
    click.echo(f"total: {len(pool)}")


@main.command()
@click.argument("input_path", metavar="IN")
@click.option("--pin", "pin_spec", default=None, help="fixture file or packaged name")
def planarize(input_path: str, pin_spec: Optional[str]) -> None:
    """Print the maximal planar cycle system selected for IN."""
    with _input_errors():
        g = _read_graph(input_path)
        pin = _read_pin(pin_spec)
        sys_ = select_planar_cycle_system(g, (pin or {}).get("system"))
    for cid in sorted(sys_.cycles):
        arcs = " ".join(f"({a},{b})" for a, b in sys_.cycles[cid].arcs)
        click.echo(f"c{cid}: {arcs}")
    if sys_.rim is not None:
        arcs = " ".join(f"({a},{b})" for a, b in sys_.rim.arcs)
        click.echo(f"rim c{sys_.rim.id}: {arcs}")
    n_edges = len(sys_.segments())
    click.echo(f"edges: {n_edges} of {len(g.edges)}")


@main.command(name="decompose")
@click.argument("input_path", metavar="IN")
@click.option(
    "--strategy",
    type=click.Choice(["thickness", "inner-only"]),
    default="thickness",
    show_default=True,
)
@click.option("--pin", "pin_spec", default=None, help="fixture file or packaged name")
@click.option("-o", "out_path", required=True, help="output document path")
def decompose_cmd(input_path: str, strategy: str, pin_spec: Optional[str], out_path: str) -> None:
    """Decompose IN into planar layers and write a JSON document."""
    with _input_errors():
        g = _read_graph(input_path)
        pin = _read_pin(pin_spec)
        d = decompose(g, strategy=strategy, pin=pin)
        doc = decomposition_to_document(d)
        with open(out_path, "w") as fh:
            fh.write(serialize_document(doc))
    click.echo(f"{len(d.layers)} layers -> {out_path}")


@main.command()
@click.argument("doc_path", metavar="DOC")
def verify(doc_path: str) -> None:
    """Re-check every invariant of a decomposition document."""
    with _input_errors():
        with open(doc_path) as fh:
            doc = parse_document(fh.read())
    report = verify_document(doc)
    for line in report.lines():
        click.echo(line)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.argument("doc_path", metavar="DOC")
@click.option("--layer", "layer_index", type=int, required=True)
@click.option("-o", "out_path", required=True, help="output SVG path")
def render(doc_path: str, layer_index: int, out_path: str) -> None:
    """Render one layer of a decomposition document as SVG."""
    with _input_errors():
        with open(doc_path) as fh:
            doc = parse_document(fh.read())
        svg = render_svg(doc, layer_index)
        with open(out_path, "w") as fh:
            fh.write(svg)
    click.echo(f"layer {layer_index} -> {out_path}")


__all__ = ["main"]
