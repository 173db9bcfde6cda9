"""Additive coloring (lucky labeling) toolkit.

A labeling f: V -> {1..k} is an additive k-coloring when the neighborhood
sums f(N(u)) and f(N(v)) differ across every edge (u,v); the least such k is
the additive chromatic number. The package provides graph family generators
with closed-form values and certificate labelings, general lower/upper
bounds, an exact search solver, a big-M integer-programming exporter, and a
corpus sweep checking eta(G) <= chi(G).
"""

from .graph import (
    Graph,
    Labeling,
    connected_components,
    neighborhood_sum,
    twin_refined_partition,
    verify_additive_coloring,
)
from .graph6 import Graph6FormatError, parse_graph6, write_graph6
from .families import FamilySpec, certify, eta_formula, generate, parse_spec
from .bounds import BoundsReport, combined_bounds, multipartite_eta
from .solver import SolveResult, chromatic_exact, dsatur, eta_exact

__all__ = [
    "Graph",
    "Labeling",
    "BoundsReport",
    "FamilySpec",
    "Graph6FormatError",
    "SolveResult",
    "certify",
    "chromatic_exact",
    "combined_bounds",
    "connected_components",
    "dsatur",
    "eta_exact",
    "eta_formula",
    "generate",
    "multipartite_eta",
    "neighborhood_sum",
    "parse_graph6",
    "parse_spec",
    "twin_refined_partition",
    "verify_additive_coloring",
    "write_graph6",
]
