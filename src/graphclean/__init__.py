"""Exact toolkit for the graph cleaning (brush number) problem.

The package is organized around four layers:

* :mod:`graphclean.graphs` -- immutable graphs, product labelings,
  automorphisms and the edge-list file format,
* :mod:`graphclean.cleaning` -- brush configurations, cleaning sequences,
  simulation and the greedy cleanability test,
* :mod:`graphclean.solver` -- exact minimization (``solve`` over the
  subset DP, branch and bound and permutation brute force) plus the
  sandwich check for small product instances,
* :mod:`graphclean.constructions` -- closed-form optimal configurations
  for structured families and the two reductions between them.
"""

from .cleaning import (
    BrushConfig,
    CleaningSequence,
    CleaningStep,
    CleaningTrace,
    can_clean,
    minimal_config_for_sequence,
    parse_brush_config,
    parse_sequence,
    serialize_brush_config,
    serialize_sequence,
    simulate,
)
from .constructions import (
    BoundaryClassCounts,
    CliqueLayerReduction,
    TorusReduction,
    classify_boundary_pairs,
    clique_config,
    clique_sequence,
    combine_torus_rows,
    cycle_config,
    cycle_sequence,
    delete_clique_layer,
    km_pn_brush_number,
    km_pn_config,
    km_pn_config_odd,
    km_pn_sequence,
    path_config,
    path_sequence,
    reduce_torus,
    torus_brush_number,
    torus_config,
    torus_sequence,
)
from .errors import (
    GraphCleanError,
    InfeasibleStepError,
    InternalInconsistencyError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSequenceError,
    ParseError,
    PreconditionViolationError,
    TooLargeError,
)
from .graphs import (
    Graph,
    ProductLabeling,
    automorphisms,
    cartesian_product,
    graph_from_edges,
    is_connected,
    make_clique,
    make_cycle,
    make_path,
    parse_edge_list,
    serialize_edge_list,
)
from .solver import (
    BoxConjectureReport,
    SolveResult,
    brush_number_bnb,
    brush_number_dp,
    brute_force_permutations,
    check_box_conjecture,
    parity_lower_bound,
    solve,
)

__version__ = "0.1.0"
