"""Toolkit for the savings parameterization of weighted graph coloring.

Decide whether a weighted graph admits a proper coloring of weight at most
the vertex-weight sum minus k, shrink instances with certified reduction
rules, and generate or audit the extremal instances of the theory, all
cross-validated against brute-force oracles.
"""

from .errors import (
    ArityMismatch,
    ClaimViolation,
    DuplicateEdge,
    DwcError,
    FormatError,
    InstanceTooLarge,
    InvalidColoring,
    InvalidInterval,
    InvalidVertex,
    InvalidWeight,
    MalformedEdge,
    MalformedInstance,
    NonMaximalAntimatchingWitness,
    PreconditionViolated,
    TrivialBudget,
)
from .graph import (
    Coloring,
    DualInstance,
    WeightedGraph,
    build_graph,
    coloring_weight,
    complement,
    induced_subgraph,
    is_clique,
    is_proper,
    is_stable,
    is_universal,
)
from .matching import Antimatching, maximum_antimatching, maximum_matching
from .oracle import decide_dual_oracle, sigma_exact
from .fpt import (
    DPTable,
    DualAnswer,
    SolveStats,
    build_dp,
    extract_certificate,
    shortcut_certificate,
    solve_dual,
)
from .kernel import (
    ClaimReport,
    ClassPartition,
    KernelTrace,
    NeighborhoodClass,
    RuleApplication,
    audit_claims,
    canonical_no_instance,
    canonical_yes_instance,
    compute_classes,
    kernel_size_limit,
    kernelize,
    replay_log,
    truncate_classes,
)
from .instances import (
    IntervalAuditReport,
    IntervalRepresentation,
    SetCoverInstance,
    SplitAuditReport,
    SplitProfile,
    audit_interval_bounds,
    audit_split_bounds,
    bench_instance,
    gen_tight_general,
    gen_tight_interval,
    interval_kernel_limit,
    intervals_to_graph,
    maximal_cliques_ordered,
    random_instance,
    reduce_setcover,
    split_partition,
    vertex_clique_spans,
)
