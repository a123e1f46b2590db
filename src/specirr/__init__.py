"""Spectral irregularity toolkit for small graphs.

Computes the gap between the adjacency spectral radius and the average
degree (the Collatz-Sinogowitz irregularity), evaluates the known
degree-based lower and upper bounds on it, verifies every bound
exhaustively over small-graph corpora, and searches for extremal graphs.
"""

from .graphs import (
    ENUMERATION_CAP,
    DegreeStats,
    Graph,
    RegularityClass,
    canonical_form,
    classify,
    classify_degree_multiset,
    complete,
    connected_components,
    cycle,
    degree_stats,
    enumerate_graphs,
    from_edges,
    is_connected,
    parse_graph6,
    path,
    prism,
    star,
    subdivide_edge,
    subdivided_prism,
    to_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    ORACLE_MAX_N,
    SpectralConvergenceError,
    SpectralResult,
    adjacency_spectral_radius,
    signless_laplacian_radius,
    spectral_oracle,
    spectral_runs,
    spectral_summary,
)
from .bounds import (
    BoundReport,
    LiuLiuCheck,
    bound_report,
    build_contexts,
    cg_degree_bound,
    cgs_bound,
    epsilon,
    hofmeister_lower,
    hong_shu_fang_upper,
    l_high,
    l_low,
    liu_liu_check,
    low_subregular_rho_upper,
    main_bound,
    nikiforov_bound,
    subregular_bounds,
    variance_sandwich,
    yu_lu_tian_lower,
)
from .harness import (
    SearchRecord,
    ViolationReport,
    bell_max_search,
    hong_search,
    l_monotonicity_grid,
    verify_corpus,
    verify_graphs,
)

__version__ = "0.1.0"
