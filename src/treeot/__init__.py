"""Exact quadratic optimal transport over locally finite metric trees.

Wasserstein-space machinery specialized to trees: displacement
interpolation, asymptotic measures and the exact asymptotic formula,
boundary flows with the ends-realizability criteria for complete
geodesics, and the perpendicular Radon transform with its inversion.
"""

from .errors import (
    ConstantGeodesic,
    DiagonalMass,
    EqualEnds,
    FlagInvalid,
    InconsistentData,
    LeafyTree,
    MalformedForRadon,
    MalformedTree,
    MarginalMismatch,
    NonFiniteValue,
    NonUnitMeasure,
    NotAntipodal,
    NotDiracBased,
    NotRealizable,
    OutOfInterval,
    PlanNotOptimal,
    SolverFailure,
    TreeOTError,
)
from .metric_tree import (
    MetricTree,
    TreeEnd,
    TreeGeodesic,
    TreePoint,
    ValidationReport,
    gromov_product,
    perpendicular,
    project_to_geodesic,
)
from .transport import (
    DiscreteMeasure,
    MonotonicityCertificate,
    TransportPlan,
    is_cyclically_monotone,
    wasserstein2,
)
from .dynamics import (
    DynamicalPlan,
    antagonist_pairs,
    dirac_interpolation,
    extend_from_dirac,
    interpolate,
    is_optimal_dynamical,
    lift,
    pushforward_at,
    supported_on_geodesic_test,
    validate_complete_plan,
)
from .boundary import (
    ConeMeasure,
    asymptotic_formula_check,
    asymptotic_measure,
    d_infinity,
    ray_from_asymptotic_measure,
    total_variation,
    w_infinity,
)
from .ends import (
    BoundaryMeasure,
    CombFamily,
    FlowTable,
    comb_generator,
    construct_geodesic,
    d0_transport,
    flow_table,
    is_antipodal,
    plan_traversal_masses,
    realizability_sum,
)
from .radon import (
    Flag,
    VertexFunction,
    combinatorial_radon,
    measure_radon_roundtrip,
    radon_invert,
    radon_measure,
)

__version__ = "0.1.0"
