"""Reduction rules with certified size bounds.

Two rules shrink an instance without changing the answer:

* delete any universal vertex (it is a singleton class in every coloring,
  so it contributes its own weight on both sides of the comparison);
* group the residual-clique vertices by their neighborhood among the
  antimatching-covered vertices, and inside each group keep only the
  |M| heaviest members (a swap argument shows the rest can always be
  recolored as singletons).

Both rules rest on one maximum antimatching M of the universal-free graph,
and one round of them is already a fixpoint. Truncation deletes only
uncovered vertices, so:

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
from typing import Collection, Iterable, Sequence

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
    """Residual-clique vertices sharing one covered neighborhood, heaviest first."""

    vertices: tuple[int, ...]
    signature: frozenset[int]
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
    :func:`audit_claims` of the round's class partition, taken before
    truncation; it is None exactly when ``verdict_shortcut`` is set.
    ``antimatching_size`` is the size of the round's maximum antimatching,
    which is also that of the input graph: universal vertices are isolated
    in the complement.
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


def remove_universal_vertices(
    inst: DualInstance,
) -> tuple[DualInstance, tuple[int, ...]]:
    """Delete every universal vertex; k is unchanged.

    One scan suffices: deleting a universal vertex never changes whether
    another vertex is universal, since a vertex with a non-neighbor keeps
    it (that non-neighbor is not universal either). Deleted ids ascend.
    """
    g = inst.graph
    deleted = tuple(v for v in range(g.n) if is_universal(g, v))
    return DualInstance(_delete(g, deleted), inst.k), deleted


def _without(ids: Sequence[int], doomed: Iterable[int]) -> tuple[int, ...]:
    """``ids`` minus its entries at the positions ``doomed``, order kept.

    On ``range(g.n)`` this is the new-to-old id map of deleting ``doomed``
    from ``g`` (the one :func:`induced_subgraph` returns); on such a map it
    composes one more deletion onto it.
    """
    gone = set(doomed)
    return tuple(v for i, v in enumerate(ids) if i not in gone)


def _delete(g: WeightedGraph, doomed: Collection[int]) -> WeightedGraph:
    """``g`` without the vertices ``doomed``; ``g`` itself when none is."""
    if not doomed:
        return g
    reduced, _ = induced_subgraph(g, _without(range(g.n), doomed))
    return reduced


def compute_classes(g: WeightedGraph, m: Antimatching) -> ClassPartition:
    """Partition the residual clique by neighborhood among covered vertices.

    This is the one place the residual clique is grouped, ranked and
    checked. Classes come in first-member order, and each lists its vertices
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
        groups.setdefault(g.adjacency[v] & covered, []).append(v)
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

    # sorts keep equal keys in order, reversed too, so ties stay id-ascending;
    # a signature is the covered set less the class's covered non-neighbours,
    # which are few on dense grounds
    covered_set = frozenset(bits(covered))
    classes = tuple(
        NeighborhoodClass(
            vertices=tuple(sorted(vs, key=g.weights.__getitem__, reverse=True)),
            signature=covered_set.difference(bits(covered ^ sig)),
            special=sig in special,
        )
        for sig, vs in groups.items()
    )
    return ClassPartition(classes=classes, k_s=k_s, k_n=m.size - k_s)


def truncate_classes(
    g: WeightedGraph, m: Antimatching, part: ClassPartition
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Keep only the |M| heaviest vertices of each class, its first |M|.

    Requires at least one pair, which exhaustive universal-vertex deletion
    guarantees on non-empty graphs.
    """
    if m.size < 1:
        raise PreconditionViolated("truncation needs a non-empty antimatching")
    doomed = [v for cls in part.classes for v in sorted(cls.vertices[m.size :])]
    return _delete(g, doomed), tuple(doomed)


def kernelize(inst: DualInstance) -> KernelTrace:
    """Apply both rules once, resolving trivial outcomes inline.

    Delete every universal vertex; compute one maximum antimatching M; with
    >= k pairs emit the canonical yes-instance, on an empty graph the
    canonical no-instance; otherwise audit the class partition and truncate
    oversized classes. The result is a fixpoint of both rules: truncation
    keeps M a maximum antimatching, makes no vertex universal and leaves
    every class with at most |M| members (see the module docstring).
    """
    k = inst.k
    n = inst.graph.n
    inst, universal = remove_universal_vertices(inst)
    log = [RuleApplication(RULE_UNIVERSAL, universal)] if universal else []
    g = inst.graph

    am = maximum_antimatching(g)
    if am.size >= k:
        return KernelTrace(canonical_yes_instance(k), tuple(log), None, True, None, am.size)
    if g.n == 0:
        return KernelTrace(canonical_no_instance(k), tuple(log), None, False, None, am.size)

    part = compute_classes(g, am)
    claims = audit_claims(g, am, part)
    reduced, doomed = truncate_classes(g, am, part)
    ids = _without(range(n), universal)  # current id -> original id
    if doomed:
        log.append(RuleApplication(RULE_TRUNCATE, tuple(ids[v] for v in doomed)))
    return KernelTrace(
        DualInstance(reduced, k), tuple(log), _without(ids, doomed), None, claims, am.size
    )


def replay_log(g: WeightedGraph, log: tuple[RuleApplication, ...]) -> WeightedGraph:
    """Apply the logged deletions to the original graph."""
    return _delete(g, {v for app in log for v in app.deleted})


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
    bounds presuppose a graph with no universal vertex and a maximum
    antimatching, as produced by :func:`kernelize`.
    """
    sigs = {c.signature for c in part.classes}
    if len(sigs) != len(part.classes):
        raise ClaimViolation("class_partition", "duplicate neighborhood signature")

    special_classes = 0
    for cls in part.classes:
        blind = any(
            x not in cls.signature and y not in cls.signature for x, y in m.pairs
        )
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
