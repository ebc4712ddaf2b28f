"""The package's public surface, pinned so that a cut or an accidental export
shows up as a one-line diff."""

import ast
from pathlib import Path
from types import ModuleType

import dwcolor

PUBLIC = [
    "Antimatching", "ArityMismatch", "ClaimReport", "ClaimViolation",
    "ClassPartition", "Coloring", "DPTable", "DualAnswer", "DualInstance",
    "DuplicateEdge", "DwcError", "FormatError", "InstanceTooLarge",
    "IntervalAuditReport", "IntervalRepresentation", "InvalidColoring",
    "InvalidInterval", "InvalidVertex", "InvalidWeight", "KernelTrace",
    "MalformedEdge", "MalformedInstance", "NeighborhoodClass",
    "NonMaximalAntimatchingWitness", "PreconditionViolated", "RuleApplication",
    "SetCoverInstance", "SolveStats", "SplitAuditReport", "SplitProfile",
    "TrivialBudget", "WeightedGraph", "audit_claims", "audit_interval_bounds",
    "audit_split_bounds", "bench_instance", "build_dp", "build_graph",
    "canonical_no_instance", "canonical_yes_instance", "coloring_weight",
    "complement", "compute_classes", "decide_dual_oracle", "extract_certificate",
    "gen_tight_general", "gen_tight_interval", "induced_subgraph",
    "interval_kernel_limit", "intervals_to_graph", "is_clique", "is_proper",
    "is_stable", "is_universal", "kernel_size_limit", "kernelize",
    "maximal_cliques_ordered", "maximum_antimatching", "maximum_matching",
    "random_instance", "reduce_setcover",
    "replay_log", "shortcut_certificate", "sigma_exact", "solve_dual",
    "split_partition", "truncate_classes", "vertex_clique_spans",
]


def test_public_names():
    names = sorted(
        name
        for name, value in vars(dwcolor).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC


def test_lower_layers_do_not_import_the_solver():
    """``DualInstance`` lives next to ``WeightedGraph``, so the modules the
    solver builds on never import it; ``fpt`` still exports the name, which
    the benchmark imports from there."""
    src = Path(dwcolor.__file__).parent
    for name in ("graph", "kernel", "formats", "instances"):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module] if node.module else [a.name for a in node.names]
                assert not {"fpt", "dwcolor.fpt"} & set(imported), name
    assert dwcolor.fpt.DualInstance is dwcolor.graph.DualInstance
