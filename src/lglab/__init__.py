"""Numerical laboratory for least-gradient Dirichlet problems on the weighted disk.

Boundary data is the affine function y + 1.  Level sets of solutions are
weighted geodesics between the matching boundary points; stacking them
recovers the solution field.  The catalog of weight fields exercises the
interesting regimes: tied routes, gap bands, and genuinely non-unique
solutions.
"""

from .analysis import (ExperimentReport, Quantity, SUITES, curvature_clearance,
                       disagreement_area, nonuniqueness_gap,
                       rectangle_submodularity_exhaustive, run_suite,
                       submodularity_check, three_diamonds_thresholds)
from .config import (RunConfig, load_config, parse_config, parse_layers,
                     serialize_config)
from .curves import LevelCurve, boundary_points, level_curve
from .oracle import grid_shortest_path
from .paths import Polyline, segment, weighted_length
from .shooting import shoot_two_point
from .snell import (H_of, SolverError, heavy_disk_arc_test, snell_chain,
                    snell_refract)
from .stacker import (ALL_MAXIMAL, ALL_MINIMAL, GridField, SolutionStack,
                      StackNestingError, SwitchPolicy, bv_energy, jump_set,
                      local_oscillation, midpoint_levels, stack, trace_error)
from .tracing import TotalInternalReflection, TraceError, trace_layered_ray
from .weights import (WeightField, catalog_describe, catalog_names,
                      make_weight)

__version__ = "0.1.0"

__all__ = [
    "ALL_MAXIMAL", "ALL_MINIMAL", "ExperimentReport", "GridField", "H_of",
    "LevelCurve", "Polyline", "Quantity", "RunConfig", "SUITES",
    "SolutionStack", "SolverError", "StackNestingError", "SwitchPolicy",
    "TotalInternalReflection", "TraceError", "WeightField",
    "boundary_points", "bv_energy", "catalog_describe", "catalog_names",
    "curvature_clearance", "disagreement_area", "grid_shortest_path",
    "heavy_disk_arc_test", "jump_set", "level_curve", "load_config",
    "local_oscillation", "make_weight", "midpoint_levels",
    "nonuniqueness_gap", "parse_config", "parse_layers",
    "rectangle_submodularity_exhaustive", "run_suite", "segment",
    "serialize_config", "shoot_two_point", "snell_chain", "snell_refract",
    "stack", "submodularity_check", "three_diamonds_thresholds",
    "trace_error", "trace_layered_ray", "weighted_length",
]
