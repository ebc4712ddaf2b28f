"""Instance laboratory: recognizers, generators, reductions, bound audits.

Covers the graph classes with sharpened kernel guarantees (interval graphs
via their ordered maximal cliques, split graphs with bounded stable-side
non-degree), the set-cover reduction used to generate hard split instances,
the extremal constructions meeting the kernel bounds, and seeded random
instance families for tests and benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    ClaimViolation,
    InstanceTooLarge,
    InvalidInterval,
    InvalidWeight,
    MalformedInstance,
    PreconditionViolated,
    TrivialBudget,
)
from .graph import DualInstance, WeightedGraph, build_graph, complement
from .graph import is_clique, is_stable, is_universal
from .kernel import check_bound_bits, compute_classes, kernel_size_limit, kernelize
from .matching import maximum_antimatching


# Most vertices a command-line generator builds (random graphs and the
# extremal constructions, which grow cubically or exponentially in k).
MAX_GENERATED_N = 2048


def _require(ok: bool, check: str, message: str = "") -> None:
    """Raise :class:`ClaimViolation` ``check`` unless ``ok``; runs under ``python -O``."""
    if not ok:
        raise ClaimViolation(check, message)


def _check_at_least(low: int, **values: int) -> None:
    """Raise :class:`PreconditionViolated` unless every value is >= ``low``."""
    for name, value in values.items():
        if not value >= low:
            raise PreconditionViolated(f"{name}={value} must be >= {low}")


def _check_size(n: int, what: str) -> None:
    """Raise :class:`InstanceTooLarge` before building more than ``MAX_GENERATED_N`` vertices."""
    if n > MAX_GENERATED_N:
        raise InstanceTooLarge(f"{what} builds more than {MAX_GENERATED_N} vertices")


# ---------------------------------------------------------------------------
# split graphs


@dataclass(frozen=True)
class SplitProfile:
    """A (clique, stable) vertex partition with its non-degree bound.

    ``d`` is the largest number of stable-side non-neighbors any clique-side
    vertex has.
    """

    clique: tuple[int, ...]
    stable: tuple[int, ...]
    d: int


def split_partition(g: WeightedGraph) -> SplitProfile | None:
    """Recognize a split graph from its degree sequence, or return None.

    With degrees sorted non-increasingly and h the largest i with
    d_i >= i-1, the graph is split iff sum of the top h degrees equals
    h(h-1) plus the sum of the rest; the top h vertices (ties broken by
    ascending id) then form a largest possible clique side.
    """
    n = g.n
    if n == 0:
        return SplitProfile((), (), 0)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    d = [g.degree(v) for v in order]
    h = max(i + 1 for i in range(n) if d[i] >= i)
    if sum(d[:h]) != h * (h - 1) + sum(d[h:]):
        return None
    clique = tuple(sorted(order[:h]))
    stable = tuple(sorted(order[h:]))
    if not (is_clique(g, clique) and is_stable(g, stable)):
        raise ClaimViolation("split_certificate", "degree-sequence certificate failed")
    stable_mask = 0
    for v in stable:
        stable_mask |= 1 << v
    d_max = max(
        ((stable_mask & ~g.adjacency[v]).bit_count() for v in clique), default=0
    )
    return SplitProfile(clique, stable, d_max)


# ---------------------------------------------------------------------------
# interval graphs


@dataclass(frozen=True)
class IntervalRepresentation:
    """Closed integer intervals, one per vertex, with vertex weights."""

    intervals: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        for left, right in self.intervals:
            if left > right:
                raise InvalidInterval(f"[{left},{right}]")
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, int) or w < 1:
                raise InvalidWeight(f"weight {w!r} is not a positive integer")
        if len(self.intervals) != len(self.weights):
            raise InvalidWeight("one weight per interval required")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def restricted_to(self, keep: tuple[int, ...]) -> "IntervalRepresentation":
        return IntervalRepresentation(
            tuple(self.intervals[v] for v in keep),
            tuple(self.weights[v] for v in keep),
        )


def intervals_to_graph(rep: IntervalRepresentation) -> WeightedGraph:
    """Intersection graph: u ~ v iff max(l_u, l_v) <= min(r_u, r_v)."""
    iv = rep.intervals
    n = rep.n
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1])
    ]
    return build_graph(n, edges, list(rep.weights))


def maximal_cliques_ordered(rep: IntervalRepresentation) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques in left-to-right order.

    Every maximal clique of an interval graph is the set of intervals
    containing some left endpoint (the largest left endpoint among its
    members), so sweeping the distinct left endpoints and discarding
    dominated candidates yields exactly the maximal cliques, ordered so each
    vertex occupies a contiguous run.
    """
    if rep.n == 0:
        return ()
    candidates = []
    for t in sorted({l for l, _ in rep.intervals}):
        members = tuple(
            v for v, (l, r) in enumerate(rep.intervals) if l <= t <= r
        )
        candidates.append(frozenset(members))
    kept = [
        c
        for c in candidates
        if not any(c < other for other in candidates)
    ]
    out = []
    for c in kept:
        if not out or out[-1] != c:
            out.append(c)
    return tuple(tuple(sorted(c)) for c in out)


def vertex_clique_spans(
    cliques: tuple[tuple[int, ...], ...], n: int
) -> tuple[tuple[int, int], ...]:
    """For each vertex, the (first, last) clique index containing it.

    Raises :class:`ClaimViolation` if some vertex's clique memberships are
    not contiguous, i.e. the ordering fails the consecutive-ones property.
    """
    first = [None] * n
    last = [None] * n
    count = [0] * n
    for i, c in enumerate(cliques):
        for v in c:
            if first[v] is None:
                first[v] = i
            last[v] = i
            count[v] += 1
    spans = []
    for v in range(n):
        if first[v] is None:
            raise ClaimViolation("consecutive_ones", f"vertex {v} in no maximal clique")
        if last[v] - first[v] + 1 != count[v]:
            raise ClaimViolation(
                "consecutive_ones", f"vertex {v} occupies a non-contiguous clique range"
            )
        spans.append((first[v], last[v]))
    return tuple(spans)


@dataclass(frozen=True)
class IntervalAuditReport:
    p: int
    antimatching_size: int
    class_count: int | None
    class_limit: int | None
    kernel_size: int
    kernel_limit: int
    shortcut: bool


def interval_kernel_limit(k: int) -> int:
    check_bound_bits(3 * k.bit_length(), f"interval kernel bound for k={k}")
    return k**3 - 2 * k**2 + 2 * k - 1


def audit_interval_bounds(
    inst: DualInstance, rep: IntervalRepresentation
) -> IntervalAuditReport:
    """Assert the interval-specific bounds; raise :class:`ClaimViolation` on failure.

    Checks: the ordered maximal cliques number at most twice the maximum
    antimatching plus one (the plus-one is realized only at odd clique
    counts, e.g. three pairwise disjoint intervals have p=3 but a single
    disjoint non-edge pair); after reduction the kernel has at most
    k^3-2k^2+2k-1 vertices; and on the universal-free graph the neighborhood
    classes number at most floor((p+1)/2)*ceil((p+1)/2) - 1.
    """
    g = inst.graph
    if intervals_to_graph(rep) != g:
        raise PreconditionViolated("representation does not induce the given graph")
    cliques = maximal_cliques_ordered(rep)
    vertex_clique_spans(cliques, g.n)
    p = len(cliques)
    trace = kernelize(inst)
    am_size = trace.antimatching_size
    if p >= 2 and p > 2 * am_size + (p & 1):
        raise ClaimViolation("clique_count", f"p={p} > 2*{am_size} + parity")

    shortcut = trace.verdict_shortcut is not None
    kernel_size = trace.reduced.graph.n
    limit = interval_kernel_limit(inst.k)
    if not shortcut and kernel_size > limit:
        raise ClaimViolation("interval_kernel", f"{kernel_size} > {limit}")

    class_count = class_limit = None
    if not shortcut:
        # class bound holds once universal vertices are gone; truncation
        # keeps every class, and the reduced instance retains an induced
        # sub-representation
        sub = rep.restricted_to(trace.vertex_map)
        p_red = len(maximal_cliques_ordered(sub))
        class_count = trace.claims.class_count
        class_limit = ((p_red + 1) // 2) * ((p_red + 2) // 2) - 1
        if class_count > class_limit:
            raise ClaimViolation(
                "interval_classes", f"{class_count} classes > {class_limit}"
            )
    return IntervalAuditReport(
        p=p,
        antimatching_size=am_size,
        class_count=class_count,
        class_limit=class_limit,
        kernel_size=kernel_size,
        kernel_limit=limit,
        shortcut=shortcut,
    )


# ---------------------------------------------------------------------------
# set cover


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..universe-1, family of element subsets, budget."""

    universe: int
    family: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self) -> None:
        if not self.family:
            raise MalformedInstance("empty set family")
        for s in self.family:
            if not s:
                raise MalformedInstance("empty set in family")
            if any(not 0 <= e < self.universe for e in s):
                raise MalformedInstance("set element outside the universe")
        if self.budget < 1:
            raise MalformedInstance(f"budget {self.budget} must be >= 1")


def reduce_setcover(sc: SetCoverInstance) -> DualInstance:
    """Encode set cover as a savings decision on a split graph.

    One clique vertex per set (weight = budget), one stable vertex per
    element (weight = budget + 1), and a set-vertex is adjacent to an
    element-vertex exactly when the set does NOT contain the element, so an
    element can share a color only with a set covering it. The parameter is
    universe*(budget+1) - budget: reaching it forces all elements into at
    most ``budget`` set colors, i.e. a cover of that size.
    """
    if sc.budget > sc.universe:
        raise TrivialBudget(f"budget {sc.budget} > universe {sc.universe}")
    ns = len(sc.family)
    _check_size(ns + sc.universe, f"universe={sc.universe} with {ns} sets")
    k = sc.universe
    ell = sc.budget
    edges = [(a, b) for a in range(ns) for b in range(a + 1, ns)]
    for i, s in enumerate(sc.family):
        for e in range(k):
            if e not in s:
                edges.append((i, ns + e))
    weights = [ell] * ns + [ell + 1] * k
    g = build_graph(ns + k, edges, weights)
    return DualInstance(g, k * (ell + 1) - ell)


@dataclass(frozen=True)
class SplitAuditReport:
    d: int
    exponent: int
    kernel_size: int
    kernel_limit: int
    residual_clique: int | None
    remark_limit: int | None
    shortcut: bool


def audit_split_bounds(inst: DualInstance, profile: SplitProfile) -> SplitAuditReport:
    """Assert the split-specific kernel bounds for the given partition.

    The kernel must have at most k^d vertices (with d at least 2; smaller
    observed non-degrees still witness the d=2 class) and, like any graph
    whose residual clique is K, at most 2k-2+|K| vertices.
    """
    g = inst.graph
    cmask = 0
    for v in profile.clique:
        cmask |= 1 << v
    smask = 0
    for v in profile.stable:
        smask |= 1 << v
    if (
        cmask & smask
        or cmask | smask != (1 << g.n) - 1
        or not is_clique(g, profile.clique)
        or not is_stable(g, profile.stable)
    ):
        raise PreconditionViolated("profile is not a split partition of the graph")

    exponent = max(profile.d, 2)
    check_bound_bits(exponent * inst.k.bit_length(), f"split kernel bound k^{exponent}")
    trace = kernelize(inst)
    shortcut = trace.verdict_shortcut is not None
    size = trace.reduced.graph.n
    limit = inst.k**exponent
    if not shortcut and size > limit:
        raise ClaimViolation("split_kernel", f"{size} > {inst.k}^{exponent}")

    residual = remark = None
    if not shortcut:
        # the kernel keeps its antimatching, which stays maximum
        residual = size - 2 * trace.claims.antimatching_size
        remark = 2 * inst.k - 2 + residual
        if size > remark:
            raise ClaimViolation("clique_remark", f"{size} > 2k-2+{residual}")
    return SplitAuditReport(
        d=profile.d,
        exponent=exponent,
        kernel_size=size,
        kernel_limit=limit,
        residual_clique=residual,
        remark_limit=remark,
        shortcut=shortcut,
    )


# ---------------------------------------------------------------------------
# extremal constructions


def gen_tight_general(k: int) -> DualInstance:
    """Unit-weight instance with exactly (2^(k-1)+1)(k-1) vertices that the
    reduction rules cannot shrink.

    Layout: k-1 designated non-edge pairs (2j, 2j+1) whose vertex set is
    complete minus that matching; the lower endpoint of each pair is its
    "missing" vertex. The remaining vertices form a clique split into
    2^(k-1)-1 groups of k-1; the group for each non-empty subset of missing
    vertices is adjacent to everything except that subset. Every non-edge
    touches a missing vertex, so k-1 pairs are the best possible.
    """
    _check_at_least(2, k=k)
    # the size grows with k; evaluating it at most at k = 64 keeps a huge k cheap
    _check_size(kernel_size_limit(min(k, 64)), f"k={k}")
    t = k - 1
    n = 2 * t + ((1 << t) - 1) * t
    missing = [0] * n  # non-neighbour mask per vertex
    for j in range(t):
        missing[2 * j] = 1 << (2 * j + 1)
        missing[2 * j + 1] = 1 << (2 * j)
    first = 2 * t
    for mask in range(1, 1 << t):
        members = ((1 << t) - 1) << first
        blind = 0  # the group's missing vertices
        for j in range(t):
            if mask >> j & 1:
                blind |= 1 << (2 * j)
                missing[2 * j] |= members
        missing[first : first + t] = [blind] * t
        first += t
    g = complement(WeightedGraph(n, tuple(missing), (1,) * n))

    # construction self-checks
    _require(g.n == kernel_size_limit(k), "tight_size")
    _require(not any(is_universal(g, v) for v in range(g.n)), "tight_universal")
    am = maximum_antimatching(g)
    _require(am.size == t, "tight_antimatching", f"maximum antimatching {am.size} != {t}")
    part = compute_classes(g, am)
    _require(all(len(c.vertices) == t for c in part.classes), "tight_class_size")
    _require(len(part.classes) == (1 << t) - 1, "tight_class_count")
    return DualInstance(g, k)


def gen_tight_interval(k: int) -> tuple[DualInstance, IntervalRepresentation]:
    """Unit-weight interval instance with k^3-2k^2+2k-1 vertices and 2k-2
    ordered maximal cliques that the reduction rules cannot shrink.

    One vertex exclusive to each clique position, then k-1 copies of every
    span (i, j) with i in the left half, j in the right half, except the
    all-positions span (excluded: it would be universal). The exclusive
    vertices pair up into k-1 designated non-edges. Note the designated
    antimatching is not maximum for k >= 3: pairing leftover exclusive
    vertices with spans that avoid them yields 2k-3 disjoint non-edges, so
    solving-by-shortcut answers yes on this instance even though neither
    reduction rule applies to it.
    """
    _check_at_least(2, k=k)
    _check_size(interval_kernel_limit(k), f"k={k}")
    p = 2 * k - 2
    mid = (p + 1) // 2
    intervals: list[tuple[int, int]] = [(i, i) for i in range(1, p + 1)]
    for i in range(1, mid + 1):
        for j in range(mid, p + 1):
            if (i, j) == (1, p):
                continue
            intervals.extend([(i, j)] * (k - 1))
    rep = IntervalRepresentation(tuple(intervals), (1,) * len(intervals))
    g = intervals_to_graph(rep)
    inst = DualInstance(g, k)

    # construction self-checks
    _require(g.n == interval_kernel_limit(k), "tight_size")
    cliques = maximal_cliques_ordered(rep)
    _require(len(cliques) == p, "tight_clique_count")
    vertex_clique_spans(cliques, g.n)
    _require(not any(is_universal(g, v) for v in range(g.n)), "tight_universal")
    designated = tuple((2 * j, 2 * j + 1) for j in range(k - 1))
    _require(all(not g.has_edge(u, v) for u, v in designated), "tight_designated")
    # span groups all have k-1 members, so class truncation at size k-1 is idle
    groups: dict[tuple[int, int], int] = {}
    for v in range(p, g.n):
        groups[rep.intervals[v]] = groups.get(rep.intervals[v], 0) + 1
    _require(all(c == k - 1 for c in groups.values()), "tight_class_size")
    return inst, rep


# ---------------------------------------------------------------------------
# random families


def random_instance(
    n: int, p: float, k: int, seed: int, wmax: int = 4
) -> DualInstance:
    """Erdos-Renyi graph with uniform weights in 1..wmax; fully seed-determined."""
    _check_at_least(0, n=n)
    _check_at_least(1, k=k, wmax=wmax)
    if not 0.0 <= p <= 1.0:
        raise PreconditionViolated(f"p={p} must lie in [0, 1]")
    _check_size(n, f"n={n}")
    rng = random.Random(seed)
    draw = rng.random
    # one draw per pair in combinations order; row u holds the pairs (u, v > u)
    # as binary digits with bit v at index v, and column u the pairs (v < u, u)
    digits = "".join(["1" if draw() < p else "0" for _ in range(n * (n - 1) // 2)])
    rows, end = [], 0
    for u in range(n):
        start, end = end, end + n - 1 - u
        rows.append("0" * (u + 1) + digits[start:end])
    columns = ["".join(c) for c in zip(*rows)]
    adj = tuple(int(r[::-1], 2) | int(c[::-1], 2) for r, c in zip(rows, columns))
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    return DualInstance(WeightedGraph(n, adj, weights), k)


def bench_instance(n: int, k: int, seed: int, wmax: int = 5) -> DualInstance:
    """Dense instance whose maximum antimatching has exactly k-1 pairs.

    Start from the complete graph and remove a star forest of non-edges:
    k-1 centers, one pendant leaf each (forcing k-1 disjoint non-edges),
    plus a few random center spokes into the rest of the graph. Every
    non-edge touches a center, so no k disjoint non-edges exist and the
    solver must run its table instead of the shortcut.
    """
    _check_at_least(1, k=k, wmax=wmax)
    if n < 2 * (k - 1) + 1:
        raise PreconditionViolated("n too small for the requested parameter")
    rng = random.Random(seed)
    centers = list(range(k - 1))
    missing = [0] * n  # non-neighbor mask per vertex
    for j in centers:
        missing[j] |= 1 << (k - 1 + j)
        missing[k - 1 + j] |= 1 << j
    for u in range(2 * (k - 1), n):
        if rng.random() < 0.4 and centers:
            for c in rng.sample(centers, rng.randint(1, min(3, len(centers)))):
                missing[c] |= 1 << u
                missing[u] |= 1 << c
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    return DualInstance(complement(WeightedGraph(n, tuple(missing), weights)), k)
