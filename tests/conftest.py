"""Shared helpers: small named graphs, independent brute-force oracles and
random instance families.

The oracles here enumerate colorings, matchings or set covers directly and
never touch the package's dynamic programs, so they can vouch for them.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from dwcolor import (
    Antimatching,
    DualInstance,
    InstanceTooLarge,
    IntervalRepresentation,
    PreconditionViolated,
    SetCoverInstance,
    SplitProfile,
    WeightedGraph,
    build_graph,
    intervals_to_graph,
)
from dwcolor.graph import bits


def _check_at_least(low: int, **values: int) -> None:
    for name, value in values.items():
        if not value >= low:
            raise PreconditionViolated(f"{name}={value} must be >= {low}")


def path_graph(n: int, weights=None) -> WeightedGraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], weights or [1] * n)


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], weights or [1] * n)


def complete_graph(n: int, weights=None) -> WeightedGraph:
    edges = list(itertools.combinations(range(n), 2))
    return build_graph(n, edges, weights or [1] * n)


def star_graph(leaves: int) -> WeightedGraph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], [1] * (leaves + 1))


def petersen_graph() -> WeightedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes, [1] * 10)


def all_labeled_graphs(n: int, weights=None):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bm in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bm >> i & 1]
        yield build_graph(n, edges, weights or [1] * n)


def random_graph(rng: random.Random, n: int, p: float, wmax: int = 4) -> WeightedGraph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges, [rng.randint(1, wmax) for _ in range(n)])


def join(*parts: WeightedGraph) -> WeightedGraph:
    """The join of ``parts``: their disjoint union, numbered in order, plus
    every edge between two parts. A stable set lies inside one part, so the
    join's sigma is the sum of the parts' sigmas, at any size."""
    n = sum(p.n for p in parts)
    full = (1 << n) - 1
    adj: list[int] = []
    weights: list[int] = []
    for p in parts:
        offset = len(adj)
        others = full ^ ((1 << p.n) - 1) << offset
        adj.extend(others | a << offset for a in p.adjacency)
        weights.extend(p.weights)
    return WeightedGraph(n, tuple(adj), tuple(weights))


def _partitions(items: list[int]):
    """All set partitions, by placing each item into an existing or new block."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def sigma_partition_bruteforce(g: WeightedGraph) -> int:
    """Minimum coloring weight by enumerating all set partitions (n <= ~9)."""
    best = None
    for part in _partitions(list(range(g.n))):
        ok = True
        for block in part:
            for u, v in itertools.combinations(block, 2):
                if g.has_edge(u, v):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        weight = sum(max(g.weights[v] for v in block) for block in part)
        if best is None or weight < best:
            best = weight
    if g.n == 0:
        return 0
    return best


def chromatic_number_bruteforce(g: WeightedGraph) -> int:
    """Smallest r admitting a proper r-coloring, by backtracking."""
    if g.n == 0:
        return 0

    def colorable(r: int) -> bool:
        color = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            used = {color[u] for u in bits(g.adjacency[v]) if color[u] >= 0}
            for c in range(min(r, v + 1)):
                if c not in used:
                    color[v] = c
                    if place(v + 1):
                        return True
                    color[v] = -1
            return False

        return place(0)

    r = 1
    while not colorable(r):
        r += 1
    return r


def all_antimatchings_bruteforce(g: WeightedGraph) -> int:
    """Largest number of vertex-disjoint non-edges, by direct recursion."""
    non_edges = [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    ]

    def grow(idx: int, used: set[int]) -> int:
        best = 0
        for i in range(idx, len(non_edges)):
            u, v = non_edges[i]
            if u not in used and v not in used:
                best = max(best, 1 + grow(i + 1, used | {u, v}))
        return best

    return grow(0, set())


def absorb_heavy_graph() -> WeightedGraph:
    """Unit-weight graph on 627 vertices whose maximum antimatching covers
    t = 22 vertices, the table's width cap, while 605 clique vertices have
    covered non-neighbours among d = 16 of them, in 11 neighbourhood
    classes. Its sigma is 611: each special triple below shares one class
    and each normal pair another.

    Built from its non-edges: five special pairs (0-14, every third vertex a
    singleton blind to both ends of its pair), six normal pairs (15-26), and
    600 clique vertices, each missing one normal pair's lower end.
    """
    n = 627
    nonedges = []
    for i in range(5):
        a, b, s = 3 * i, 3 * i + 1, 3 * i + 2
        nonedges += [(a, b), (a, s), (b, s)]
    nonedges += [(15 + 2 * j, 16 + 2 * j) for j in range(6)]
    nonedges += [(15 + 2 * (u % 6), u) for u in range(27, n)]
    missing = [0] * n
    for u, v in nonedges:
        missing[u] |= 1 << v
        missing[v] |= 1 << u
    full = (1 << n) - 1
    adj = tuple(full ^ (m | 1 << v) for v, m in enumerate(missing))
    return WeightedGraph(n, adj, (1,) * n)


def subset_clique_graph(d: int, seed: int) -> WeightedGraph:
    """A stable set D = 0..d-1, a partner d + i missing only D's vertex i,
    and one vertex per non-empty subset S of D, missing exactly S; weights
    1-6 drawn from ``seed``. n = 2d + 2^d - 1, a maximum antimatching pairs
    each vertex of D with its partner (t = 2d), and the residual clique
    falls into 2^d - 1 neighbourhood classes, one per S.
    """
    n = 2 * d + (1 << d) - 1
    missing = [0] * n
    nonedges = list(itertools.combinations(range(d), 2))
    nonedges += [(i, d + i) for i in range(d)]
    nonedges += [(i, 2 * d + s - 1) for s in range(1, 1 << d) for i in bits(s)]
    for u, v in nonedges:
        missing[u] |= 1 << v
        missing[v] |= 1 << u
    full = (1 << n) - 1
    adj = tuple(full ^ (m | 1 << v) for v, m in enumerate(missing))
    rng = random.Random(seed)
    return WeightedGraph(n, adj, tuple(rng.randint(1, 6) for _ in range(n)))


def is_valid_antimatching(g: WeightedGraph, am: Antimatching) -> bool:
    """Pairs are vertex-disjoint non-edges of ``g``."""
    seen: set[int] = set()
    for u, v in am.pairs:
        if u == v or g.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def maximum_matching_bruteforce(g: WeightedGraph, cap: int = 12) -> int:
    """Exact maximum matching cardinality by exhaustive search."""
    if g.n > cap:
        raise InstanceTooLarge(f"n={g.n} exceeds cap {cap}")
    adj = g.adjacency

    @lru_cache(maxsize=None)
    def best(free: int) -> int:
        if not free:
            return 0
        low = free & -free
        u = low.bit_length() - 1
        free ^= low
        r = best(free)  # leave u unmatched
        avail = adj[u] & free
        while avail:
            b = avail & -avail
            r = max(r, 1 + best(free ^ b))
            avail ^= b
        return r

    result = best((1 << g.n) - 1)
    best.cache_clear()
    return result


def setcover_bruteforce(sc: SetCoverInstance, cap: int = 20) -> bool:
    """True iff at most ``budget`` family sets cover the universe."""
    if len(sc.family) > cap:
        raise InstanceTooLarge(f"family of {len(sc.family)} sets exceeds cap {cap}")
    need = frozenset(range(sc.universe))
    if sc.budget >= len(sc.family):
        return frozenset().union(*sc.family) == need
    for size in range(1, sc.budget + 1):
        for combo in itertools.combinations(sc.family, size):
            if frozenset().union(*combo) == need:
                return True
    return False


def serialize_setcover(sc: SetCoverInstance) -> str:
    lines = [f"p setcover {sc.universe} {len(sc.family)} {sc.budget}"]
    for i, s in enumerate(sc.family):
        lines.append(f"s {i + 1} " + " ".join(str(e + 1) for e in sorted(s)))
    return "\n".join(lines) + "\n"


def random_split_instance(
    clique_size: int, stable_size: int, d: int, k: int, seed: int, wmax: int = 4
) -> tuple[DualInstance, SplitProfile]:
    """Split graph where each clique vertex misses at most d stable vertices."""
    _check_at_least(0, clique_size=clique_size, stable_size=stable_size, d=d)
    _check_at_least(1, k=k, wmax=wmax)
    rng = random.Random(seed)
    n = clique_size + stable_size
    clique = list(range(clique_size))
    stable = list(range(clique_size, n))
    edges = list(itertools.combinations(clique, 2))
    for v in clique:
        misses = rng.sample(stable, rng.randint(0, min(d, stable_size)))
        edges.extend((v, u) for u in stable if u not in misses)
    weights = [rng.randint(1, wmax) for _ in range(n)]
    g = build_graph(n, edges, weights)
    smask = sum(1 << v for v in stable)
    d_real = max(
        ((smask & ~g.adjacency[v]).bit_count() for v in clique), default=0
    )
    return DualInstance(g, k), SplitProfile(tuple(clique), tuple(stable), d_real)


def random_interval_instance(
    n: int, k: int, seed: int, span: int = 30, max_len: int = 8, wmax: int = 4
) -> tuple[DualInstance, IntervalRepresentation]:
    """Random integer intervals on a line segment."""
    _check_at_least(0, n=n, span=span, max_len=max_len)
    _check_at_least(1, k=k, wmax=wmax)
    rng = random.Random(seed)
    intervals = []
    for _ in range(n):
        left = rng.randint(0, span)
        intervals.append((left, left + rng.randint(0, max_len)))
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    rep = IntervalRepresentation(tuple(intervals), weights)
    return DualInstance(intervals_to_graph(rep), k), rep
