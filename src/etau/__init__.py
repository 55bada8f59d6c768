"""Computable geometry of the homogeneous space E(-1, tau).

The space fibers over the hyperbolic plane with base curvature -1 and
bundle curvature tau; tau = 0 gives the product of the hyperbolic plane
with a line.  The package provides the two standard metric models and
the isometry between them, vertical lifts of disk isometries with their
strict shift bound, the rotational catenoid family with its height and
area comparisons, barrier boundary curves, height classification of
asymptotic curves, and a discrete fixed-boundary area minimizer.
"""

from .errors import DomainError, QuadratureError, UsageError
from .models import (
    AmbientSpace,
    conformal_factor,
    metric_cylinder,
    metric_halfspace,
    patch_area,
    pullback_metric,
    to_disk_jacobian,
    to_disk_model,
    to_halfspace_model,
)
from .numerics import QuadratureResult, ToleranceConfig, bisect_monotone, integrate
from .isometries import (
    LiftedIsometry,
    MobiusIsometry,
    bounded_lift,
    disk_rotation,
    hyperbolic_mobius,
    hyperbolic_translation,
    mobius_compose,
    rotation_lift,
    sampled_sup_shift,
    vertical_translation,
)
from .catenoid import (
    AreaComparison,
    CatenoidProfile,
    TruncatedCatenoid,
    asymptotic_height,
    asymptotic_height_supremum,
    compare_areas,
    connected_boundary_for_height,
    disk_area,
    disk_area_closed_form,
    find_crossover,
    neck_parameter_for_height,
    profile_height,
    truncation_radius,
)
from .barriers import (
    BoundaryCurve,
    TallRectangleBoundary,
    catenoid_asymptotic_circles,
    delta_for_slab,
    gamma_curves,
    place_rectangle,
    rectangle_boundary,
)
from .curves import (
    AsymptoticCurve,
    Classification,
    Verdict,
    classify,
    global_height,
    graph_curve,
    height_at,
    parallel_circles,
    radial_projection,
)
from .plateau import (
    SolveReport,
    SolverConfig,
    TriMesh,
    compare_connected_vs_disks,
    discrete_area,
    hyperbolic_ring_fractions,
    mesh_annulus,
    mesh_disk,
    minimize,
)

__all__ = [
    "DomainError", "QuadratureError", "UsageError",
    "AmbientSpace", "conformal_factor", "metric_cylinder", "metric_halfspace", "patch_area",
    "pullback_metric", "to_disk_jacobian", "to_disk_model", "to_halfspace_model",
    "QuadratureResult", "ToleranceConfig", "bisect_monotone", "integrate",
    "LiftedIsometry", "MobiusIsometry", "bounded_lift", "disk_rotation", "hyperbolic_mobius",
    "hyperbolic_translation", "mobius_compose", "rotation_lift", "sampled_sup_shift",
    "vertical_translation",
    "AreaComparison", "CatenoidProfile", "TruncatedCatenoid", "asymptotic_height",
    "asymptotic_height_supremum", "compare_areas", "connected_boundary_for_height", "disk_area",
    "disk_area_closed_form", "find_crossover", "neck_parameter_for_height", "profile_height",
    "truncation_radius",
    "BoundaryCurve", "TallRectangleBoundary", "catenoid_asymptotic_circles", "delta_for_slab",
    "gamma_curves", "place_rectangle", "rectangle_boundary",
    "AsymptoticCurve", "Classification", "Verdict", "classify", "global_height", "graph_curve",
    "height_at", "parallel_circles", "radial_projection",
    "SolveReport", "SolverConfig", "TriMesh", "compare_connected_vs_disks", "discrete_area",
    "hyperbolic_ring_fractions", "mesh_annulus", "mesh_disk", "minimize",
]

__version__ = "0.1.0"
