"""Exact-arithmetic toolkit for joints of line configurations.

Everything runs over arbitrary-precision rationals: joint detection,
vanishing-polynomial interpolation, incidence-threshold pruning, the
derivative cascade, and the integer form of the extremal inequality.
"""

from .exact import Vector, format_rational, nullspace_vector, parse_rational, rank
from .geometry import (
    Configuration,
    JointSet,
    Line,
    Projection,
    configuration,
    direction_rank,
    find_joints,
    find_s_joints,
    incident,
    load_configuration,
    project_to_generic_flat,
    save_configuration,
)
from .constructions import grid, grid_plus_orphan, planar_bundle, random_config
from .polynomial import (
    Polynomial,
    fit_vanishing,
    min_fit_degree,
    monomial_basis,
    polynomial_from_text,
    polynomial_to_text,
    restrict_to_line,
    vanishes_on_line,
)
from .pipeline import (
    ProofTrace,
    PruneResult,
    bound_check,
    cascade,
    gradient_at_joints_check,
    prune,
    trace,
)
from .curves import (
    CurveConfiguration,
    ParamCurve,
    curve_joint,
    curve_prune,
    line_as_curve,
    restrict_to_curve,
    tangent_at,
)

__version__ = "0.1.0"
