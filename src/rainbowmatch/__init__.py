"""Exact tools for full rainbow matchings and V1-matchings.

The package decides, by complete search, whether an edge-coloured multigraph
has a matching using every colour exactly once, and equivalently whether the
corresponding 3-uniform hypergraph has a matching covering its colour class.
It ships the double-star counterexample family, a per-conjecture evaluation
report, and a bounded exhaustive hunter for small blocked 2-regular
instances.
"""

from .graphs import (
    ColouredMultigraph,
    ColourStats,
    Edge,
    InvalidInstanceError,
    bipartition,
    build_graph,
    colour_stats,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_bipartite,
    is_full_rainbow,
    max_degree,
    verify_matching,
)
from .hypergraphs import (
    DegreeStats,
    TripartiteHypergraph,
    as_coloured_graph,
    degree_stats,
    from_coloured_graph,
    has_v1_matching,
    hypergraph_from_json,
    hypergraph_to_json,
)
from .solver import (
    DEFAULT_BRUTE_LIMIT,
    BruteForceLimitError,
    SolveOutcome,
    brute_force_full_rainbow,
    find_full_rainbow_matching,
    max_rainbow_matching,
)
from .families import (
    STATEMENTS,
    ConjectureReport,
    StatementOutcome,
    conjecture_report,
    constant_defeater,
    cyclic_latin_square,
    double_star_family,
    hypergraph_family,
    report_to_json,
)
from .hunting import (
    AbsenceCertificate,
    HuntOutcome,
    SearchResult,
    SearchSpec,
    canonical_label,
    graph_from_cycle_colouring,
    hunt,
)

__version__ = "0.1.0"
