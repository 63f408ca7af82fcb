"""Exact workbench for tropical curves in Delzant polyhedral domains.

Validates curves, classifies their boundary points, computes tropical
multiplicities by two independent routes, and reports the topology of
the associated Lagrangians: surface types with node counts in dimension
two, first-homology orders and graph-manifold piece decompositions in
dimension three.
"""

from .curve import (Edge, TropicalCurve, betti_and_degree,
                    combinatorial_type, extend_curve, regularity_check,
                    split_at_edge, trivalent_trees, validate_curve)
from .domain import (Facet, Line, LineConfiguration, PolyhedralDomain,
                     check_even_primitive, classify_boundary_point,
                     corner_basis, suitability_check, validate_delzant,
                     wavefront)
from .errors import WorkbenchError
from .lattice import (SnfResult, cross, gcd_primitive, lattice_index, mixed,
                      smith_normal_form)
from .multiplicity import (EvaluationMatrix, enumerate_count, ev_matrix,
                           mixed_h_product, splitting_check)
from .topology import (LensParameters, PieceDecomposition, SurfaceReport,
                       ThreeManifoldReport, dual_vertex_delta, h1_order,
                       lens_parameters, piece_decomposition,
                       self_intersections, surface_report,
                       vertex_multiplicity)

__all__ = [
    "Edge", "TropicalCurve", "betti_and_degree", "combinatorial_type",
    "extend_curve", "regularity_check", "split_at_edge", "trivalent_trees",
    "validate_curve",
    "Facet", "Line", "LineConfiguration", "PolyhedralDomain",
    "check_even_primitive", "classify_boundary_point", "corner_basis",
    "suitability_check", "validate_delzant", "wavefront",
    "WorkbenchError",
    "SnfResult", "cross", "gcd_primitive", "lattice_index", "mixed",
    "smith_normal_form",
    "EvaluationMatrix", "enumerate_count", "ev_matrix", "mixed_h_product",
    "splitting_check",
    "LensParameters", "PieceDecomposition", "SurfaceReport",
    "ThreeManifoldReport", "dual_vertex_delta", "h1_order",
    "lens_parameters", "piece_decomposition", "self_intersections",
    "surface_report", "vertex_multiplicity",
]
