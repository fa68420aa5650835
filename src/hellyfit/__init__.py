"""Fit the largest rotated copy of a convex body inside an H-polytope.

The package has three layers:

* `geometry`, `lp`: primitives (polytopes, rotations, smallest enclosing
  balls, a randomized incremental linear-program solver for a handful of
  variables),
* `nets`, `solver`: finite rotation nets with a fit guarantee and the
  scale-maximization solvers built on them,
* `lab`: plane experiments showing why finitely many half-space tests cannot
  certify inflated isometric copies, the negative side of the story.

Fallbacks, escalations and refusals are also logged to the `hellyfit`
logger, which has only a `NullHandler` until the application adds one.
"""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .geometry import (
    Ball,
    Cap,
    CircleArcs,
    DegenerateGeometryError,
    DimensionMismatchError,
    HPolytope,
    HalfSpace,
    Placement,
    Rotation,
    SimilarityTransform,
    UnsupportedDimensionError,
    VPolytope,
    cap_measure_2d,
    cap_measure_mc,
    contains,
    miniball,
    normalize_to_unit_ball,
    random_rotation,
    regular_polygon,
    unit_square,
)
from .lp import (
    InfeasibleProblem,
    LpInstance,
    LpResult,
    UnboundedProblem,
    beta_fixed_rotation,
    build_beta_instance,
    chebyshev_inradius,
    fit_check,
    seidel_lp,
)
from .nets import (
    NET_LIMIT,
    NetTooLargeError,
    RotationNet,
    build_net_2d,
    build_net_sufficient,
    max_angle_2d,
    verify_net,
)
from .solver import (
    FitResult,
    SolveStats,
    alpha_reference,
    beta_brute,
    beta_direct,
    beta_msw,
    extract_basis,
)
from .lab import (
    CapBody,
    InflationResult,
    SearchFailure,
    TangentFamily,
    avoid_rotation,
    cap_body,
    inflation_search,
    lower_bound_demo,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
