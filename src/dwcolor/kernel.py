"""Reduction rules with certified size bounds.

Two rules shrink an instance without changing the answer:

* delete any universal vertex (it is a singleton class in every coloring,
  so it contributes its own weight on both sides of the comparison);
* group the residual-clique vertices by their neighborhood among the
  antimatching-covered vertices, and inside each group keep only the
  |M| heaviest members (a swap argument shows the rest can always be
  recolored as singletons).

Given one maximum antimatching M they are one rule: keep the covered
vertices and the first |M| of each class of clique vertices with a covered
non-neighbor. A covered vertex is never universal (its partner is a
non-neighbor), and a clique vertex seeing every covered vertex sees every
vertex, so the universal vertices are exactly the clique vertices in no
class. M is computed on the input graph: universal vertices are isolated
in its complement, so M is also a maximum antimatching of the
universal-free graph, with the same pairs.

One application is already a fixpoint. It deletes only uncovered vertices,
so:

* M stays an antimatching of the kernel, since its pairs are untouched;
* M stays maximum, since deleting vertices never raises the matching
  number of the complement;
* no vertex becomes universal: a covered vertex keeps its partner, and a
  clique vertex keeps a non-neighbor, which is covered (the uncovered
  vertices form a clique) and therefore never deleted;
* the classes are unchanged and each now has at most |M| members.

With the antimatching shortcut this leaves at most (2^(k-1)+1)(k-1)
vertices: the covered set has at most 2(k-1) vertices, singleton "blind"
groups number at most the non-edges they blind, and the remaining groups
realize distinct proper neighborhoods in a set of at most k-1 designated
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ClaimViolation,
    InstanceTooLarge,
    NonMaximalAntimatchingWitness,
    PreconditionViolated,
)
from .graph import DualInstance, WeightedGraph, bits, build_graph, induced_subgraph
from .graph import is_clique, is_universal
from .matching import Antimatching, maximum_antimatching

RULE_UNIVERSAL = "delete_universal"
RULE_TRUNCATE = "truncate_class"

# Widest size bound computed: far above any graph a file can hold, and its
# decimal form stays below the 4300 digits Python converts to text. Without
# it a header k of 10^5 makes a bound no JSON can print, and one of 10^23
# makes 2^(k-1) take all memory.
MAX_BOUND_BITS = 4096


def check_bound_bits(bits: int, what: str) -> None:
    """Raise :class:`InstanceTooLarge` for a bound of more than
    ``MAX_BOUND_BITS`` bits, given an upper estimate of its width."""
    if bits > MAX_BOUND_BITS:
        raise InstanceTooLarge(f"{what} is wider than {MAX_BOUND_BITS} bits")


def kernel_size_limit(k: int) -> int:
    """Vertex bound guaranteed for reduced instances with parameter k >= 2."""
    check_bound_bits(k + (k - 1).bit_length(), f"kernel bound for k={k}")
    return (2 ** (k - 1) + 1) * (k - 1)


@dataclass(frozen=True)
class NeighborhoodClass:
    """Residual-clique vertices sharing one covered neighborhood, heaviest
    first; ``signature`` is its mask of covered neighbors."""

    vertices: tuple[int, ...]
    signature: int
    special: bool


@dataclass(frozen=True)
class ClassPartition:
    """Residual clique split into neighborhood classes, with the number of
    special pairs (some class sees neither endpoint) and normal pairs; ``k_s
    + k_n`` equals the number of pairs."""

    classes: tuple[NeighborhoodClass, ...]
    k_s: int
    k_n: int


@dataclass(frozen=True)
class RuleApplication:
    rule: str
    deleted: tuple[int, ...]  # original vertex ids


@dataclass(frozen=True)
class ClaimReport:
    """Counts backing the audited structure of a reduced instance."""

    antimatching_size: int
    class_count: int
    special_class_count: int
    normal_class_count: int
    special_pairs: int
    normal_pairs: int
    largest_class: int


@dataclass(frozen=True)
class KernelTrace:
    """Reduced instance plus the log needed to reproduce it.

    ``vertex_map[new_id] = original_id``; it is None when the reduction
    resolved the instance outright and ``reduced`` is one of the canonical
    instances (``verdict_shortcut`` then carries the answer). ``claims`` is
    :func:`audit_claims` of the class partition, taken before truncation;
    it is None exactly when ``verdict_shortcut`` is set.
    ``antimatching_size`` is the size of the input graph's maximum
    antimatching, which is also that of the universal-free graph.
    """

    reduced: DualInstance
    log: tuple[RuleApplication, ...]
    vertex_map: tuple[int, ...] | None
    verdict_shortcut: bool | None
    claims: ClaimReport | None
    antimatching_size: int


def canonical_yes_instance(k: int) -> DualInstance:
    """Two non-adjacent vertices of weight k: merging them saves exactly k."""
    return DualInstance(build_graph(2, [], [k, k]), k)


def canonical_no_instance(k: int) -> DualInstance:
    """A single vertex of weight 1: nothing can be saved."""
    return DualInstance(build_graph(1, [], [1]), k)


def compute_classes(g: WeightedGraph, m: Antimatching) -> ClassPartition:
    """Group the residual clique by neighborhood among covered vertices.

    This is the one place the residual clique is grouped, ranked and
    checked. Only clique vertices with a covered non-neighbor are grouped:
    the others are the universal vertices. Classes come in first-member
    order, keyed by their covered-neighbor masks, and each lists its vertices
    heaviest first with ties to the lower id, so :func:`truncate_classes`
    and ``fpt.build_dp`` keep prefixes of them. The uncovered vertices must
    induce a clique (:class:`PreconditionViolated` otherwise), and a class of
    two or more vertices seeing neither endpoint of a pair, or two classes
    missing one endpoint each, witness a larger antimatching and raise
    :class:`NonMaximalAntimatchingWitness`.
    """
    clique = m.residual_clique
    if not is_clique(g, clique):
        raise PreconditionViolated(
            "uncovered vertices do not induce a clique; antimatching not maximum"
        )
    covered = m.covered_mask
    # the clique ascends, so the groups come in first-member order
    groups: dict[int, list[int]] = {}
    for v in clique:
        sig = g.adjacency[v] & covered
        if sig != covered:
            groups.setdefault(sig, []).append(v)
    special: set[int] = set()  # the signatures of blind classes
    k_s = 0

    for x, y in m.pairs:
        miss_x = {sig for sig in groups if not sig >> x & 1}
        miss_y = {sig for sig in groups if not sig >> y & 1}
        blind = miss_x & miss_y
        for sig in blind:
            if len(groups[sig]) >= 2:
                raise NonMaximalAntimatchingWitness(
                    f"class {groups[sig]} sees neither endpoint of ({x},{y})"
                )
        if miss_x and miss_y and len(miss_x | miss_y) > 1:
            raise NonMaximalAntimatchingWitness(
                f"classes miss opposite endpoints of ({x},{y})"
            )
        # blind is now empty or one singleton class, the only one missing x or y
        special |= blind
        k_s += len(blind)

    # sorts keep equal keys in order, reversed too, so ties stay id-ascending
    classes = tuple(
        NeighborhoodClass(
            vertices=tuple(sorted(vs, key=g.weights.__getitem__, reverse=True)),
            signature=sig,
            special=sig in special,
        )
        for sig, vs in groups.items()
    )
    return ClassPartition(classes=classes, k_s=k_s, k_n=m.size - k_s)


def truncate_classes(
    g: WeightedGraph, m: Antimatching, part: ClassPartition
) -> tuple[WeightedGraph, tuple[int, ...], tuple[int, ...]]:
    """The kernel: the covered vertices plus the |M| heaviest vertices of
    each class, its first |M|; the clique vertices in no class, the
    universal ones, go as well.

    Returns the kernel, the class members it deletes (class by class,
    ascending within one) and the kept ids (``kept[new_id] = old_id``).
    Requires at least one pair, which a graph with a non-universal vertex
    has.
    """
    if m.size < 1:
        raise PreconditionViolated("truncation needs a non-empty antimatching")
    keep = list(bits(m.covered_mask))
    doomed: list[int] = []
    for cls in part.classes:
        keep += cls.vertices[: m.size]
        doomed += sorted(cls.vertices[m.size :])
    reduced, kept = induced_subgraph(g, keep)
    return reduced, tuple(doomed), kept


def kernelize(inst: DualInstance) -> KernelTrace:
    """Apply the kernel rule once, resolving trivial outcomes inline.

    Log the universal vertices; compute one maximum antimatching M of the
    input graph; with >= k pairs emit the canonical yes-instance, with none
    (every vertex universal) the canonical no-instance; otherwise audit the
    class partition and build the kernel with one rebuild of the graph. The
    result is a fixpoint of both rules: M stays a maximum antimatching, no
    vertex becomes universal and every class keeps at most |M| members (see
    the module docstring).
    """
    g, k = inst.graph, inst.k
    universal = tuple(v for v in range(g.n) if is_universal(g, v))
    log = [RuleApplication(RULE_UNIVERSAL, universal)] if universal else []

    am = maximum_antimatching(g)
    if am.size >= k:
        return KernelTrace(canonical_yes_instance(k), tuple(log), None, True, None, am.size)
    if am.size == 0:
        return KernelTrace(canonical_no_instance(k), tuple(log), None, False, None, am.size)

    part = compute_classes(g, am)
    claims = audit_claims(g, am, part)
    reduced, doomed, kept = truncate_classes(g, am, part)
    if doomed:
        log.append(RuleApplication(RULE_TRUNCATE, doomed))
    return KernelTrace(DualInstance(reduced, k), tuple(log), kept, None, claims, am.size)


def replay_log(g: WeightedGraph, log: tuple[RuleApplication, ...]) -> WeightedGraph:
    """Apply the logged deletions to the original graph."""
    gone = {v for app in log for v in app.deleted}
    return induced_subgraph(g, (v for v in range(g.n) if v not in gone))[0]


def audit_claims(
    g: WeightedGraph, m: Antimatching, part: ClassPartition
) -> ClaimReport:
    """Re-derive the class-structure facts used by the size bound.

    Checks, raising :class:`ClaimViolation` with the failed check's name:

    * ``class_partition``: signatures are distinct and a class is tagged
      special exactly when it is blind to some pair;
    * ``special_count``: blind singleton classes number at most the pairs
      that blind them;
    * ``normal_count``: remaining classes number at most 2^(normal pairs)-1.

    The maximality facts these counts rest on (no blind class of two or more
    vertices, no two classes missing opposite endpoints of a pair) are
    checked where ``part`` is built, by :func:`compute_classes`. The count
    bounds presuppose a maximum antimatching, as :func:`kernelize` computes.
    """
    sigs = {c.signature for c in part.classes}
    if len(sigs) != len(part.classes):
        raise ClaimViolation("class_partition", "duplicate neighborhood signature")

    special_classes = 0
    for cls in part.classes:
        sig = cls.signature
        blind = any(not sig >> x & 1 and not sig >> y & 1 for x, y in m.pairs)
        special_classes += blind
        if blind != cls.special:
            raise ClaimViolation("class_partition", "special tag inconsistent")

    normal_classes = len(part.classes) - special_classes
    if special_classes > part.k_s:
        raise ClaimViolation(
            "special_count", f"{special_classes} special classes > {part.k_s} pairs"
        )
    if normal_classes > 2**part.k_n - 1:
        raise ClaimViolation(
            "normal_count",
            f"{normal_classes} normal classes > 2^{part.k_n}-1",
        )

    return ClaimReport(
        antimatching_size=m.size,
        class_count=len(part.classes),
        special_class_count=special_classes,
        normal_class_count=normal_classes,
        special_pairs=part.k_s,
        normal_pairs=part.k_n,
        largest_class=max((len(c.vertices) for c in part.classes), default=0),
    )
