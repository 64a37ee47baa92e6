"""Extend a vertex metric to a whole finite simplicial complex.

The library builds finite abstract complexes, computes the l1 path metric
between barycentric points, forms the bilinear extension of a vertex metric,
and combines the two into the corrected extension min(bilinear, 3C * path)
together with its double-difference and Gromov-product layer.  Brute-force
oracles and seeded probes keep every construction honest at desk scale.
"""

from .complexes import (
    Automorphism,
    BarycentricPoint,
    SimplicialComplex,
    Simplex,
    apply_automorphism,
    build_complex,
    common_simplex,
    make_automorphism,
    make_point,
    make_simplex,
    simplex_l1,
    vertex_point,
)
from .errors import (
    DisconnectedComplex,
    DuplicateVertex,
    EmptyIntersection,
    EmptySimplex,
    EndpointNotInCarrier,
    InternalConsistencyError,
    InvalidCarrier,
    InvalidConfiguration,
    InvalidParameters,
    MetricAxiomError,
    MetricExtError,
    MissingQIConstants,
    NegativeWeight,
    NotAnAutomorphism,
    NotATree,
    PointNotOnGrid,
    ResolutionTooCoarse,
    SuppliedConstantTooSmall,
    SupportNotASimplex,
    UnknownVertexInSimplex,
    WeightsNotNormalizable,
)
from .extension import (
    ExtendedMetric,
    SandwichResult,
    bilinear_extension,
    sandwich_check,
)
from .generators import GeneratorSpec, generate
from .oracle import (
    GridGraph,
    ScanViolation,
    build_grid,
    exhaustive_metric_scan,
    grid_oracle_path_distance,
    tree_gromov_oracle,
)
from .pathmetric import (
    Chain,
    PathResult,
    PathWitness,
    chain_lp,
    chain_solver_distance,
    l1_path_distance,
    lower_bounds,
    path_length,
    query_bounds,
    tripwire_log,
)
from .probes import (
    ProbeReport,
    RaySpec,
    WindowsResult,
    dd_convergence_probe,
    dd_divergence_probe,
    decay_probe,
    deepest_ray,
    equivalence_windows_check,
    make_ray,
)
from .vertexmetrics import (
    MetricViolation,
    QICheckResult,
    VertexMetric,
    WordMetricTable,
    double_difference,
    gromov_product,
    hyperbolicity_delta,
    metric_violations,
    minimal_linear_bound,
    qi_constants_check,
    sphere,
    transformed_word_metric,
    validate_vertex_metric,
    word_metric,
    word_vertex_metric,
)

__version__ = "0.1.0"
