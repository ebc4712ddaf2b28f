"""Fixed-parameter solver for the savings decision.

Given (G, w) and a savings target k, the solver first computes a maximum
antimatching M of G. If M has at least k pairs, merging each pair into one
color class already saves one unit per pair (weights are at least 1), so the
answer is yes and a certificate coloring is emitted without touching sigma.
Otherwise the uncovered vertices K form a clique, each needing its own
color, and at most t = 2(k-1) vertices are covered. A clique color can only
absorb covered vertices its clique vertex is not adjacent to; call their
union D, with d = |D| <= t. So any proper coloring splits the covered
vertices into a set U of D absorbed by clique colors and the rest, which
fresh classes cover, and the two costs add:

    sigma(G, w) = min over U of D: absorb[U] + fresh[covered - U]

Both tables index the covered vertices by one bit order, D first, so a
subset of D is just a mask below 2^d. ``absorb`` is a table over the 2^d
subsets of D, one layer per clique vertex with a covered non-neighbour (at
most 3^d submask visits each), filled first. ``fresh`` is then evaluated
top-down, only at the sets covered - U with absorb[U] finite and the sets
they reach: a set's heaviest vertex j peels off with one *maximal* stable
class of that set containing j (Lawler 1976), found by Bron-Kerbosch. The
work is the reached sets times their maximal classes, at most 3^(c/3) for
c candidates (Moon and Moser 1965), so at worst about 2.45^t and one step
per reached set on dense grounds. Both stay within the 9^k bound, since
d <= t = 2(k-1).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from .errors import InstanceTooLarge, PreconditionViolated
from .graph import Coloring, WeightedGraph, bits, is_clique, relabeler
from .matching import Antimatching, maximum_antimatching

# Most covered vertices build_dp takes, the oracle's cap. It bounds memory: a
# ground that is all D gets a 2^t absorb table, and fresh may reach as many
# sets.
MAX_TABLE_BITS = 22
_INF = float("inf")


@dataclass(frozen=True)
class DualInstance:
    """A weighted graph together with the savings parameter k >= 1."""

    graph: WeightedGraph
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PreconditionViolated(f"k={self.k} must be >= 1")

    @property
    def threshold(self) -> int:
        return self.graph.weight_sum - self.k


@dataclass(frozen=True)
class SolveStats:
    antimatching_size: int | None
    clique_size: int | None
    n: int
    m: int
    runtime_ms: float


@dataclass(frozen=True)
class DualAnswer:
    verdict: bool
    sigma: int | None
    certificate: Coloring | None
    stats: SolveStats


@dataclass
class DPTable:
    """Filled tables of the clique-color assignment program.

    ``ground`` lists the antimatching-covered vertices, those of D first and
    then the rest, each part ascending; bit j of a mask stands for
    ``ground[j]``, so the subsets of D are the masks below ``len(absorb)``
    = 2^d. ``clique_order`` lists the residual clique. ``fresh`` holds only
    the sets X the final min reached: ``fresh[X]`` is ``base`` (the clique
    colors as singletons) plus the cheapest cover of X by classes without
    clique vertices, and ``fresh_parents[X]`` (X nonempty) is a class of
    such a cover holding X's heaviest vertex, whose rest is again a key.

    ``absorbers`` are the clique vertices with a covered non-neighbour, in
    layer order. ``absorb[U]`` is the least extra weight at which their
    colors take exactly the set U of D; ``absorb_parents[i][U]`` is the set
    that absorber i takes there, -1 for none. ``split`` is the set an
    optimum absorbs.
    """

    ground: tuple[int, ...]
    clique_order: tuple[int, ...]
    base: int
    fresh: dict[int, int]
    fresh_parents: dict[int, int]
    absorbers: tuple[int, ...]
    absorb: list[int]
    absorb_parents: list[array]
    sigma: int
    split: int


def shortcut_certificate(g: WeightedGraph, m: Antimatching, k: int) -> Coloring:
    """Coloring that merges every antimatching pair; weight <= weight_sum - k.

    Requires at least k pairs: each merged pair saves the lighter endpoint's
    weight, which is at least one.
    """
    if m.size < k:
        raise PreconditionViolated(f"antimatching size {m.size} < k={k}")
    classes = [tuple(sorted(p)) for p in m.pairs]
    classes.extend((v,) for v in m.residual_clique)
    return Coloring(tuple(classes))


def build_dp(g: WeightedGraph, m: Antimatching) -> DPTable:
    """Fill the assignment tables; requires ``m`` to be a maximum antimatching.

    The uncovered vertices must induce a clique, which is checked. At most
    ``MAX_TABLE_BITS`` vertices may be covered, and the absorbers' 2^d-entry
    parent arrays may hold at most 2^``MAX_TABLE_BITS`` entries together
    (``InstanceTooLarge`` otherwise, before any table is allocated). In any
    proper coloring each clique color absorbs a stable set of its vertex's
    covered non-neighbours and fresh classes cover the rest, so sigma is the
    least ``absorb[U] + fresh[covered - U]`` over the subsets U of D with
    finite ``absorb[U]``. Work is 3^d submask visits per absorber, for the
    d covered vertices in D, plus, for ``fresh``, the reached sets times
    their maximal classes: one class per set on dense grounds, at most
    about 2.45^t steps in all for t covered vertices.
    """
    covered = m.covered_mask
    t = covered.bit_count()
    if t > MAX_TABLE_BITS:
        raise InstanceTooLarge(
            f"table over {t} covered vertices exceeds cap {MAX_TABLE_BITS}"
        )
    clique = m.residual_clique
    if not is_clique(g, clique):
        raise PreconditionViolated(
            "uncovered vertices do not induce a clique; antimatching not maximum"
        )
    w = g.weights
    full = (1 << t) - 1

    # clique vertices without a covered non-neighbour stay singletons, already
    # paid for in base, and get no absorb layer
    absorbers = [v for v in clique if covered & ~g.adjacency[v]]
    reach = 0
    for v in absorbers:
        reach |= covered & ~g.adjacency[v]
    d = reach.bit_count()
    if len(absorbers) << d > 1 << MAX_TABLE_BITS:
        raise InstanceTooLarge(
            f"{len(absorbers)} absorb tables over {d} vertices exceed cap"
        )
    # D first, so that the absorb table's sets of D are the ground masks below 2^d
    ground = (*bits(reach), *bits(covered ^ reach))

    # ground-local masks: conflicts among covered vertices, and the covered
    # non-neighbours of each clique vertex
    local = relabeler(ground, g.n)
    conflict = [local(g.adjacency[v]) for v in ground]
    wg = [w[v] for v in ground]
    base = sum(w[v] for v in clique)

    # stability and class-weight tables over the subsets of D, the only
    # classes the absorb layers price (maxw only on stable sets, the only
    # ones read), in one increasing pass from X minus its lowest vertex
    dsize = 1 << d
    stab = bytearray(dsize)
    stab[0] = 1
    maxw = [0] * dsize
    for x in range(1, dsize):
        low = x & -x
        j = low.bit_length() - 1
        rest = x ^ low
        if stab[rest] and not conflict[j] & rest:
            stab[x] = 1
            mw = maxw[rest]
            maxw[x] = mw if mw > wg[j] else wg[j]

    # absorb: one layer per absorber over the 2^d subsets of D
    absorb = [_INF] * dsize
    absorb[0] = 0
    absorb_parents = []
    for v in absorbers:
        la = full ^ local(g.adjacency[v])
        wv = w[v]
        extra = [-1] * dsize  # extra weight of v's class taking s, -1 if unstable
        s = la
        while s:
            if stab[s]:
                mw = maxw[s]
                extra[s] = mw - wv if mw > wv else 0
            s = (s - 1) & la
        # in place, downwards: a source u is read before any subset of u
        # writes to it, so each color absorbs at most once
        par = array("i", [-1]) * dsize
        for u in range(dsize - 1, -1, -1):
            au = absorb[u]
            if au == _INF:
                continue
            free = la & ~u
            s = free
            while s:
                c = extra[s]
                if c >= 0 and au + c < absorb[u | s]:
                    absorb[u | s] = au + c
                    par[u | s] = s
                s = (s - 1) & free
        absorb_parents.append(par)

    # fresh, top-down over the sets the final min reaches: the class of X's
    # heaviest vertex j costs w_j whatever else it holds, and fresh only
    # falls on subsets, so that class may be taken maximal among the stable
    # subsets of X containing j
    heavy = sorted(range(t), key=lambda j: (-wg[j], j))
    allowed = [full ^ conflict[j] ^ (1 << j) for j in range(t)]
    fresh = {0: base}
    fresh_parents = {}

    def cover(x: int) -> int:
        got = fresh.get(x)
        if got is not None:
            return got
        for j in heavy:
            if x >> j & 1:
                break
        low = 1 << j
        rest = x ^ low
        cand = rest & allowed[j]
        # a stable candidate set is the one maximal class; stab answers for
        # the subsets of D, and at most one candidate is always stable
        if cand < dsize and stab[cand] or not cand & (cand - 1):
            classes = (cand,)
        else:
            classes = _maximal_classes(cand, allowed)
        best = _INF
        for s in classes:
            c = cover(rest ^ s)
            if c < best:
                best = c
                best_s = s
        best += wg[j]
        fresh[x] = best
        fresh_parents[x] = best_s | low
        return best

    sigma, split = min(
        (absorb[u] + cover(full ^ u), u)
        for u in range(dsize)
        if absorb[u] != _INF
    )
    return DPTable(
        ground, clique, base, fresh, fresh_parents, tuple(absorbers), absorb,
        absorb_parents, sigma, split,
    )


def _maximal_classes(cand: int, allowed: list[int]) -> list[int]:
    """The maximal subsets of ``cand`` whose members may pairwise share a
    class (u and v may when bit v of ``allowed[u]`` is set).

    Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka and Takahashi 2006):
    every maximal set holds the pivot or a vertex the pivot may not share a
    class with, so only the latter branch. ``[0]`` for an empty ``cand``.
    """
    out = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (allowed[u] & p).bit_count())
        for v in bits(p & ~allowed[pivot]):
            b = 1 << v
            expand(r | b, p & allowed[v], x & allowed[v])
            p ^= b
            x |= b

    expand(0, cand, 0)
    return out


def extract_certificate(t: DPTable) -> Coloring:
    """Walk the parent pointers into an optimal proper coloring."""

    def members(s: int) -> list[int]:
        return [t.ground[j] for j in bits(s)]

    taken = {}
    u = t.split
    for v, par in zip(reversed(t.absorbers), reversed(t.absorb_parents)):
        s = par[u]
        if s > 0:
            taken[v] = s
            u ^= s
    classes = [tuple(sorted([v, *members(taken.get(v, 0))])) for v in t.clique_order]
    x = ((1 << len(t.ground)) - 1) ^ t.split
    while x:
        s = t.fresh_parents[x]
        classes.append(tuple(sorted(members(s))))
        x ^= s
    return Coloring(tuple(classes))


def solve_dual(inst: DualInstance) -> DualAnswer:
    """Decide whether sigma(G, w) <= weight_sum - k, with certificate.

    Branches:
      * empty graph: sigma = 0, answer no (k >= 1);
      * k >= weight_sum: answer no without further work (sigma >= 1), sigma
        left unknown;
      * maximum antimatching of size >= k: answer yes via the pair-merging
        certificate, sigma left unknown;
      * otherwise the table computes sigma exactly and the verdict follows.
    """
    g = inst.graph
    k = inst.k
    start = time.perf_counter()

    def stats(am_size: int | None, clique_size: int | None) -> SolveStats:
        ms = (time.perf_counter() - start) * 1000.0
        return SolveStats(am_size, clique_size, g.n, g.m, ms)

    if g.n == 0:
        return DualAnswer(False, 0, Coloring(()), stats(0, 0))
    if k >= g.weight_sum:
        return DualAnswer(False, None, None, stats(None, None))

    am = maximum_antimatching(g)
    clique_size = g.n - 2 * am.size
    if am.size >= k:
        cert = shortcut_certificate(g, am, k)
        return DualAnswer(True, None, cert, stats(am.size, clique_size))

    table = build_dp(g, am)
    sigma = table.sigma
    cert = extract_certificate(table)
    verdict = sigma <= inst.threshold
    return DualAnswer(verdict, sigma, cert, stats(am.size, clique_size))
