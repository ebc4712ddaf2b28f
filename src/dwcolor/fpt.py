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

    sigma(G, w) = min over U: absorb[U] + fresh[covered - U]

Clique vertices with the same covered non-neighbours N form a class of
``kernel.compute_classes``, which lists it heaviest first. The members of a
class that absorb take disjoint non-empty pieces of N, so only its first
|N| are kept. ``absorb`` is filled forward over these members, one at a
time, at the sets U it reaches only: each member takes one piece of what is
left of its N, or none. A piece costs what its heaviest vertex weighs
above its member, and taking more vertices after that head is free and
leaves less for the rest, so each piece is a *maximal* stable set of what
is left after its head. ``fresh`` is then evaluated top-down, only at the
sets covered - U and the sets they reach: a set's heaviest vertex j peels
off with one maximal stable class of that set containing j (Lawler 1976).
Bron-Kerbosch finds the maximal classes, at most 3^(c/3) for c candidates
(Moon and Moser 1965), so ``fresh`` takes at worst about 2.45^t steps, and
one per reached set on dense grounds. Each member of ``absorb`` extends at
most 2^d reached sets. Both stay within the 9^k bound, since d <= t = 2(k-1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InstanceTooLarge, PreconditionViolated
from .graph import Coloring, DualInstance, WeightedGraph, bits, relabeler
from .kernel import compute_classes
from .matching import Antimatching, maximum_antimatching

# Most covered vertices build_dp takes, the oracle's cap. It bounds memory:
# absorb and fresh each reach at most 2^t sets.
MAX_TABLE_BITS = 22
_INF = float("inf")


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

    ``ground`` lists the antimatching-covered vertices in ascending order;
    bit j of a mask stands for ``ground[j]``. ``clique_order`` lists the
    residual clique. ``fresh`` holds only the sets X the final min reached:
    ``fresh[X]`` is ``base`` (the clique colors as singletons) plus the
    cheapest cover of X by classes without clique vertices, and
    ``fresh_parents[X]`` (X nonempty) is a class of such a cover holding X's
    heaviest vertex, whose rest is again a key. ``taken`` maps each clique
    vertex whose color absorbs covered vertices in the optimum found to the
    set it absorbs; fresh classes cover the rest.
    """

    ground: tuple[int, ...]
    clique_order: tuple[int, ...]
    base: int
    fresh: dict[int, int]
    fresh_parents: dict[int, int]
    taken: dict[int, int]
    sigma: int


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

    At most ``MAX_TABLE_BITS`` vertices may be covered (``InstanceTooLarge``
    otherwise, before any table is allocated). The uncovered vertices come in
    the classes of ``kernel.compute_classes``, which checks that they induce
    a clique and that ``m`` shows no witness of a larger antimatching. In any
    proper coloring each clique color absorbs a stable set of its vertex's
    covered non-neighbours and fresh classes cover the rest, so sigma is the
    least extra weight of an absorbed set U plus ``fresh[covered - U]``,
    over the sets U the absorb pass reaches. Work is, per absorbing member,
    the sets reached before it times the pieces it may take, plus, for
    ``fresh``, the reached sets times their maximal classes: one class per
    set on dense grounds, at most about 2.45^t steps in all for t covered
    vertices.
    """
    covered = m.covered_mask
    t = covered.bit_count()
    if t > MAX_TABLE_BITS:
        raise InstanceTooLarge(
            f"table over {t} covered vertices exceeds cap {MAX_TABLE_BITS}"
        )
    part = compute_classes(g, m)
    clique = m.residual_clique
    w = g.weights
    full = (1 << t) - 1
    ground = tuple(bits(covered))
    local = relabeler(ground, g.n)
    wg = [w[v] for v in ground]
    base = sum(w[v] for v in clique)

    # a class is headed by its heaviest vertex j, costs w_j whatever else it
    # holds, and so may take every vertex after j (later[j]) it can share with
    heavy = sorted(range(t), key=lambda j: (-wg[j], j))
    allowed = [full ^ local(g.adjacency[v]) ^ (1 << j) for j, v in enumerate(ground)]
    later = [0] * t
    after = 0
    for j in reversed(heavy):
        later[j] = after
        after |= 1 << j

    def headed(x: int, j: int) -> list[int]:
        """The classes in x headed by j, maximal among x's vertices after j."""
        cand = x & allowed[j] & later[j]
        if not cand & (cand - 1):
            return [cand | 1 << j]
        return [s | 1 << j for s in _maximal_classes(cand, allowed)]

    # fresh, top-down over the sets the final min reaches: fresh only falls
    # on subsets, so X's heaviest vertex peels off with a maximal class
    fresh = {0: base}
    fresh_parents = {}

    def cover(x: int) -> int:
        got = fresh.get(x)
        if got is not None:
            return got
        for j in heavy:
            if x >> j & 1:
                break
        best = _INF
        for s in headed(x, j):
            c = cover(x ^ s)
            if c < best:
                best = c
                best_s = s
        best += wg[j]
        fresh[x] = best
        fresh_parents[x] = best_s
        return best

    # the members that may absorb, heaviest-member class first, each with its
    # class's covered non-neighbours N; clique vertices in no class have none
    # and stay singletons, already paid for in base. A class's members that
    # absorb take disjoint non-empty pieces of N, so at most |N| do, and its
    # first |N|, the heaviest, do so cheapest
    absorbers = []
    for cls in sorted(part.classes, key=lambda c: (-w[c.vertices[0]], c.vertices[0])):
        blind = covered ^ cls.signature
        nbar = local(blind)
        absorbers += [(nbar, v) for v in cls.vertices[: blind.bit_count()]]

    # absorb, forward over the members: cost[U] is the least extra weight at
    # which the members so far take exactly U, and steps[i][U] = (U0, piece)
    # when member i lowered it from U0, a set reached before the member; each
    # member takes one maximal piece of what is left of its N, or none
    pieces = {}  # set still available -> the (head, piece) pairs it offers
    cost = {0: 0}
    steps = []
    for blind, v in absorbers:
        wv = w[v]
        found = {}
        for u0, c0 in list(cost.items()):
            avail = blind & ~u0
            if not avail:
                continue
            got = pieces.get(avail)
            if got is None:
                got = pieces[avail] = [(j, s) for j in bits(avail) for s in headed(avail, j)]
            for j, s in got:
                c = c0 + wg[j] - wv if wg[j] > wv else c0
                u = u0 | s
                if c < cost.get(u, _INF):
                    cost[u] = c
                    found[u] = (u0, s)
        steps.append(found)

    sigma, u = min((c + cover(full ^ u), u) for u, c in cost.items())
    taken = {}
    for (_, v), found in zip(reversed(absorbers), reversed(steps)):
        step = found.get(u)
        if step:
            u, taken[v] = step
    return DPTable(ground, clique, base, fresh, fresh_parents, taken, sigma)


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
    """Build the optimal proper coloring the table's parents describe."""

    def members(s: int) -> list[int]:
        return [t.ground[j] for j in bits(s)]

    classes = [tuple(sorted([v, *members(t.taken.get(v, 0))])) for v in t.clique_order]
    x = (1 << len(t.ground)) - 1
    for s in t.taken.values():
        x ^= s
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
