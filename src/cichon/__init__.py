"""Tukey-order constellations of Cichon's diagram.

A symbolic derivation engine for the effect of finite-support ccc
iterations and submodel intersections on the diagram's eleven entries,
together with an exact brute-force oracle for finite relational systems.

Importing the package loads none of its modules; import the one you use.
"""

__all__ = ["builtins", "cards", "cli", "diagram", "facts", "finite",
           "forge", "submodel", "systems", "textfmt"]
