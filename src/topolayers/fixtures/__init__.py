"""Pinned fixtures: cycle systems and routing plans for the worked examples.

Each of k7, k8 and k10 pins the planar system, the Hamiltonian ring and a
plan: the route log of the pinned drawing (see `layering._replay_layer`).
"""

from __future__ import annotations

import json
from importlib import resources


def load_fixture(name: str) -> dict:
    """Load a packaged fixture by name (e.g. "k7", "k8", "k10")."""
    ref = resources.files(__package__) / f"{name.lower()}.json"
    if not ref.is_file():
        raise FileNotFoundError(f"no packaged fixture named {name!r}")
    return json.loads(ref.read_text())


__all__ = ["load_fixture"]
