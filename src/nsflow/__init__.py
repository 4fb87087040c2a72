"""nsflow: first-order approximation of event-selected nonsmooth flows.

The flow of a vector field that crosses finitely many event surfaces
transversally is piecewise differentiable; its directional derivative is a
continuous, positively homogeneous piecewise-linear map with one linear piece
per surface-crossing order.  This package evaluates that derivative in
polynomial time, builds its explicit per-piece and triangulated
representations, and cross-checks everything against exact and brute-force
oracles.
"""

from .bderiv import (
    BBlock,
    BResult,
    LinealitySplit,
    Triangulation,
    b_evaluate,
    b_evaluate_block,
    barycentric_evaluate,
    barycentric_piece,
    build_triangulation,
    lineality_split,
    saltation_matrix,
    saltation_single,
)
from .core import (
    CornerModel,
    Permutation,
    PiecewiseField,
    SignVector,
    SmoothField,
    ValidationReport,
    all_permutations,
    all_sign_vectors,
    corner_model_from_json,
    corner_model_to_json,
    sign_of,
    validate_corner,
)
from .errors import (
    CapExceeded,
    DegenerateDenominator,
    InvalidDelta,
    NotEventSelected,
    NsflowError,
    RankDeficient,
    SingularMass,
    StepTooLarge,
    TangentialCrossing,
)
from .flow import (
    BFlowDerivative,
    EventRecord,
    IntegrationResult,
    TrajectorySegment,
    flow_bderivative,
    integrate,
    variational,
)
from .sampled import rho_minus, rho_plus, sampled_flow, time_to_impact_sampled

__version__ = "0.1.0"

__all__ = [
    "BBlock",
    "BFlowDerivative",
    "BResult",
    "CapExceeded",
    "CornerModel",
    "DegenerateDenominator",
    "EventRecord",
    "IntegrationResult",
    "InvalidDelta",
    "LinealitySplit",
    "NotEventSelected",
    "NsflowError",
    "Permutation",
    "PiecewiseField",
    "RankDeficient",
    "SignVector",
    "SingularMass",
    "SmoothField",
    "StepTooLarge",
    "TangentialCrossing",
    "TrajectorySegment",
    "Triangulation",
    "ValidationReport",
    "all_permutations",
    "all_sign_vectors",
    "b_evaluate",
    "b_evaluate_block",
    "barycentric_evaluate",
    "barycentric_piece",
    "build_triangulation",
    "corner_model_from_json",
    "corner_model_to_json",
    "flow_bderivative",
    "integrate",
    "lineality_split",
    "rho_minus",
    "rho_plus",
    "saltation_matrix",
    "saltation_single",
    "sampled_flow",
    "sign_of",
    "time_to_impact_sampled",
    "validate_corner",
    "variational",
]
