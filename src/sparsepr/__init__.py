"""Sparsity-preserving solvers for l1-regularized personalized PageRank and
nonnegative M-matrix quadratics."""

from .problem import (
    Graph,
    MQuadratic,
    OptimalityReport,
    PageRankInstance,
    build_pagerank_quadratic,
    check_optimality,
    gradient,
    internal_volume,
    negative_tolerance,
    objective,
    pagerank_upper_bounds,
    validate_m_matrix,
    volume,
)
from .solvers import (
    Counters,
    Solution,
    SolverError,
    apgd,
    aspr,
    cdpr,
    ista_baseline,
    pgd,
)
from .oracle import (
    GeometryReport,
    OracleError,
    OracleSolution,
    dense_solve_active_set,
    random_graph_instance,
    random_m_matrix,
    subspace_solve,
    verify_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MQuadratic",
    "OptimalityReport",
    "PageRankInstance",
    "build_pagerank_quadratic",
    "check_optimality",
    "gradient",
    "internal_volume",
    "negative_tolerance",
    "objective",
    "pagerank_upper_bounds",
    "validate_m_matrix",
    "volume",
    "Counters",
    "Solution",
    "SolverError",
    "apgd",
    "aspr",
    "cdpr",
    "ista_baseline",
    "pgd",
    "GeometryReport",
    "OracleError",
    "OracleSolution",
    "dense_solve_active_set",
    "random_graph_instance",
    "random_m_matrix",
    "subspace_solve",
    "verify_geometry",
    "__version__",
]
