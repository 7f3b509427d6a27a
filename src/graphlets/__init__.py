"""Exact and sampled counting of 3- and 4-vertex induced patterns.

The package counts all seventeen induced patterns on up to four vertices of
an undirected simple graph, exactly or from an edge sample, with per-pattern
variance estimates and confidence bounds, a per-edge (micro) counting
kernel, an adaptive sampling loop, and an extremal per-edge search.  See
docs/coefficients.md for the correction-coefficient table that the estimator
chain is built on.
"""

from .adaptive import AdaptiveConfig, AdaptiveResult, adaptive_estimate
from .estimate import (
    GraphletEstimate,
    SampleDesign,
    UnrestrictedAccumulator,
    accumulate,
    confidence_bounds,
    estimate_counts,
    exact_counts,
    gfd,
    ks_statistic,
    relative_error,
    sample_and_estimate,
    sample_edges,
    scaled_contributions,
)
from .extremal import ExtremalResult, max_per_edge
from .graph import (
    Graph,
    GraphParseError,
    from_edges,
    load_graph,
    parse_graph,
    resolve_edge,
    serialize,
)
from .local import EdgeLocal, VertexMarker, classify_edge, unrestricted_counts
from .micro import MicroEstimate, MicroKernel, micro_counts, univariate_stats
from .oracle import (
    OracleSizeError,
    brute_force_counts,
    brute_force_edge_counts,
    classify_induced,
)
from .patterns import (
    ALL_K3,
    ALL_K4,
    CONNECTED_K4,
    DISCONNECTED_K4,
    EDGE_COUNTS,
    NAMES,
    PATTERN_IDS,
    resolve_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "ALL_K3",
    "ALL_K4",
    "CONNECTED_K4",
    "DISCONNECTED_K4",
    "EDGE_COUNTS",
    "EdgeLocal",
    "ExtremalResult",
    "Graph",
    "GraphletEstimate",
    "GraphParseError",
    "MicroEstimate",
    "MicroKernel",
    "NAMES",
    "OracleSizeError",
    "PATTERN_IDS",
    "SampleDesign",
    "UnrestrictedAccumulator",
    "VertexMarker",
    "accumulate",
    "adaptive_estimate",
    "brute_force_counts",
    "brute_force_edge_counts",
    "classify_edge",
    "classify_induced",
    "confidence_bounds",
    "estimate_counts",
    "exact_counts",
    "from_edges",
    "gfd",
    "ks_statistic",
    "load_graph",
    "max_per_edge",
    "micro_counts",
    "parse_graph",
    "relative_error",
    "resolve_edge",
    "resolve_pattern",
    "sample_and_estimate",
    "sample_edges",
    "scaled_contributions",
    "serialize",
    "unrestricted_counts",
    "univariate_stats",
]
