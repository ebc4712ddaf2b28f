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

from .errors import ClaimViolation, NonMaximalAntimatchingWitness, PreconditionViolated
from .fpt import DualInstance
from .graph import WeightedGraph, build_graph, induced_subgraph, is_universal
from .matching import Antimatching, maximum_antimatching

RULE_UNIVERSAL = "delete_universal"
RULE_TRUNCATE = "truncate_class"


def kernel_size_limit(k: int) -> int:
    """Vertex bound guaranteed for reduced instances with parameter k >= 2."""
    return (2 ** (k - 1) + 1) * (k - 1)


@dataclass(frozen=True)
class NeighborhoodClass:
    """Residual-clique vertices sharing one neighborhood among covered vertices."""

    vertices: tuple[int, ...]
    signature: frozenset[int]
    special: bool


@dataclass(frozen=True)
class ClassPartition:
    """Residual clique split into neighborhood classes, with non-edge tags.

    ``missing[i]`` is the endpoint of pair ``pairs[i]`` that some class fails
    to see (None when every class sees both endpoints); it is only set for
    normal pairs. ``k_s + k_n`` equals the number of pairs.
    """

    clique: tuple[int, ...]
    classes: tuple[NeighborhoodClass, ...]
    pairs: tuple[tuple[int, int], ...]
    special_pair: tuple[bool, ...]
    missing: tuple[int | None, ...]
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

    This is the one place the structural consequences of maximality are
    checked: a class of two or more vertices seeing neither endpoint of a
    pair, or two classes each missing opposite endpoints of one pair, both
    witness a larger antimatching and raise
    :class:`NonMaximalAntimatchingWitness`.
    """
    covered = m.covered_mask
    clique = m.residual_clique

    groups: dict[int, list[int]] = {}
    for v in clique:
        groups.setdefault(g.adjacency[v] & covered, []).append(v)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])

    pairs = tuple(tuple(sorted(p)) for p in m.pairs)
    special_pair = []
    missing: list[int | None] = []
    class_special = [False] * len(ordered)

    for x, y in pairs:
        bx, by = 1 << x, 1 << y
        miss_x = [i for i, (sig, _) in enumerate(ordered) if not sig & bx]
        miss_y = [i for i, (sig, _) in enumerate(ordered) if not sig & by]
        blind = set(miss_x) & set(miss_y)
        if blind:
            for i in blind:
                if len(ordered[i][1]) >= 2:
                    raise NonMaximalAntimatchingWitness(
                        f"class {ordered[i][1]} sees neither endpoint of ({x},{y})"
                    )
            if len(set(miss_x) | set(miss_y)) > len(blind) or len(blind) > 1:
                raise NonMaximalAntimatchingWitness(
                    f"conflicting blind spots on pair ({x},{y})"
                )
            for i in blind:
                class_special[i] = True
            special_pair.append(True)
            missing.append(None)
        else:
            if miss_x and miss_y:
                raise NonMaximalAntimatchingWitness(
                    f"classes miss opposite endpoints of ({x},{y})"
                )
            special_pair.append(False)
            if miss_x:
                missing.append(x)
            elif miss_y:
                missing.append(y)
            else:
                missing.append(None)

    classes = tuple(
        NeighborhoodClass(
            vertices=tuple(vs),
            signature=frozenset(u for u in range(g.n) if sig >> u & 1),
            special=class_special[i],
        )
        for i, (sig, vs) in enumerate(ordered)
    )
    k_s = sum(special_pair)
    return ClassPartition(
        clique=clique,
        classes=classes,
        pairs=pairs,
        special_pair=tuple(special_pair),
        missing=tuple(missing),
        k_s=k_s,
        k_n=len(pairs) - k_s,
    )


def truncate_classes(
    g: WeightedGraph, m: Antimatching, part: ClassPartition
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Keep only the |M| heaviest vertices of each oversized class.

    Ties break toward lower vertex ids. Requires at least one pair, which
    exhaustive universal-vertex deletion guarantees on non-empty graphs.
    """
    if m.size < 1:
        raise PreconditionViolated("truncation needs a non-empty antimatching")
    doomed: list[int] = []
    for cls in part.classes:
        if len(cls.vertices) > m.size:
            ranked = sorted(cls.vertices, key=lambda v: (-g.weights[v], v))
            doomed.extend(sorted(ranked[m.size :]))
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
    sigs = {frozenset(c.signature) for c in part.classes}
    if len(sigs) != len(part.classes):
        raise ClaimViolation("class_partition", "duplicate neighborhood signature")

    special_classes = 0
    for cls in part.classes:
        blind = any(
            x not in cls.signature and y not in cls.signature for x, y in part.pairs
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
