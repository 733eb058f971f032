"""Faber rational functions and Zolotarev number bounds on pairs of
disjoint complex sets, with applications to singular value decay of
structured matrices and ADI shift selection."""

__version__ = "0.1.0"

from .adi import (
    ShiftSet,
    SylvesterProblem,
    adi_iterate,
    error_certificate,
    faber_shifts,
    fejer_shifts,
    leja_shifts,
    sylvester_problem,
)
from .bounds import (
    BoundValue,
    GeometryConstants,
    asymptotic_constant,
    zolotarev_lower,
    zolotarev_upper,
)
from .conformal import (
    AnnulusMap,
    ExteriorOf,
    mobius_two_disks,
    phi,
    psi_boundary,
    solve_annulus_map,
)
from .displacement import (
    cauchy_matrix,
    singular_value_bounds,
    singular_values,
    vandermonde_h,
    vandermonde_matrix,
)
from .errors import (
    EvaluationDomainError,
    FaberzolError,
    InvalidRegionError,
    MapNotResolvedError,
    NotDisjointError,
    QuadratureError,
    UncertifiedError,
)
from .faber import (
    BoundaryData,
    FaberContext,
    boundary_data,
    build_context,
    count_zeros,
    degree_context,
    degree_contexts,
    empirical_ratio,
    empirical_ratios,
    eval_Rn,
    eval_inv_rn,
    eval_rn,
)
from .geometry import (
    Disk,
    Polygon,
    Region,
    SmoothCurve,
    boundary_samples,
    contains_many,
    curve,
    disk,
    is_convex,
    polygon,
    random_points,
    rectangle,
    rotation,
)
from .quadrature import (
    BoundaryQuadrature,
    cauchy_boundary,
    cauchy_minus,
    cauchy_plus,
    cauchy_stabilized,
)
from .rational import BarycentricRational, aaa_fit, bary_eval, poles_zeros

__all__ = [name for name in dir() if not name.startswith("_")]
