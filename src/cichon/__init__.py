"""Tukey-order constellations of Cichon's diagram.

A symbolic derivation engine for the effect of finite-support ccc
iterations and submodel intersections on the diagram's eleven entries,
together with an exact brute-force oracle for finite relational systems.
"""

# forge and submodel register their replay checks in facts.REPLAY.  builtins
# (which parses every shipped model file) and cli load only when imported.
from . import cards, diagram, facts, finite, forge, submodel, systems, textfmt  # noqa: F401

__all__ = ["builtins", "cards", "cli", "diagram", "facts", "finite",
           "forge", "submodel", "systems", "textfmt"]
