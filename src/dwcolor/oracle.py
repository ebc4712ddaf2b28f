"""Exact ground truth by exhaustive search.

``sigma_exact`` runs a dynamic program over all vertex subsets in one
ascending pass: the optimum for a subset X peels off one stable class
containing X's lowest vertex j (some class must contain it). Such a class
lies inside j plus j's non-neighbours in X, so only those candidates are
enumerated; the classes this skips are all non-stable, so the answer stays
exact. The cost is at most 3^n/2 submask visits (edgeless graphs) and
shrinks with density: a complete graph takes one visit per subset.
Everything else in the package is validated against these routines, so they
stay deliberately independent of the polynomial solvers: the oracle keeps
the plain bottom-up, lowest-vertex recurrence over every subset and every
stable class, with none of the table's covered/clique split. The table in
``fpt`` now runs a different algorithm (top-down over the sets it reaches,
peeling the heaviest vertex with maximal classes only), so when the two
agree, as ``test_table_matches_oracle`` checks, neither can be repeating a
mistake of the other.
"""

from __future__ import annotations

from .errors import InstanceTooLarge, PreconditionViolated
from .graph import WeightedGraph

DEFAULT_CAP = 22
_INF = float("inf")


def _check_cap(g: WeightedGraph) -> None:
    if g.n > DEFAULT_CAP:
        raise InstanceTooLarge(f"n={g.n} exceeds cap {DEFAULT_CAP}")


def _peel_pass(g: WeightedGraph, src: list, dst: list) -> None:
    """One ascending pass over the nonempty subsets X of V(g).

    Sets ``dst[X]`` to the minimum of ``src[X ∖ S] + maxw[S]`` over the stable
    classes S that contain X's lowest vertex j. On the way it fills
    ``stab[X]`` (1 iff X is stable) and ``maxw[X]`` (heaviest weight in X)
    from X ∖ {j}; both read only smaller indices, so they are ready before
    the enumeration below reads them, also for S = X. ``src`` may be ``dst``
    itself, since X ∖ S < X.

    A stable class containing j lies inside {j} ∪ (X ∖ N(j)), so only the
    submasks of ``cand = X ∖ N[j]`` are enumerated: the dropped classes are
    all non-stable.
    """
    n = g.n
    adj = g.adjacency
    w = g.weights
    stab = bytearray(1 << n)
    stab[0] = 1
    maxw = [0] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        j = low.bit_length() - 1
        rest = x ^ low
        aj = adj[j]
        stab[x] = stab[rest] and not aj & rest
        m = maxw[rest]
        wj = w[j]
        maxw[x] = m if m > wj else wj
        cand = rest & ~aj
        best = _INF
        s = cand
        while True:
            sub = s | low
            if stab[sub]:
                c = src[x ^ sub] + maxw[sub]
                if c < best:
                    best = c
            if not s:
                break
            s = (s - 1) & cand
        dst[x] = best


def sigma_exact(g: WeightedGraph) -> int:
    """Minimum weight over all proper colorings of ``g``.

    One ascending pass over all 2^n vertex subsets (see ``_peel_pass``). It
    visits at most 3^n/2 submasks, on an edgeless graph, and far fewer on
    dense ones. Graphs over ``DEFAULT_CAP`` vertices are refused: past it the
    2^n-entry tables take gigabytes.
    """
    _check_cap(g)
    n = g.n
    if n == 0:
        return 0
    table = [0] * (1 << n)
    _peel_pass(g, table, table)
    return table[-1]


def sigma_exact_bounded(g: WeightedGraph, r: int) -> int | None:
    """Minimum coloring weight using at most ``r`` classes, or None if the
    graph has no coloring with that few classes.

    Layer i holds the optimum over colorings with at most i classes; each
    layer is one ``_peel_pass`` reading the previous one.
    """
    _check_cap(g)
    if r < 1:
        raise PreconditionViolated(f"r={r} must be >= 1")
    n = g.n
    if n == 0:
        return 0
    prev = [_INF] * (1 << n)
    prev[0] = 0
    for _ in range(min(r, n)):
        cur = [0] * (1 << n)
        _peel_pass(g, prev, cur)
        prev = cur
    return None if prev[-1] == _INF else int(prev[-1])


def decide_dual_oracle(g: WeightedGraph, k: int) -> bool:
    """True iff some proper coloring saves at least ``k`` below the vertex-weight sum."""
    if k < 1:
        raise PreconditionViolated(f"k={k} must be >= 1")
    return sigma_exact(g) <= g.weight_sum - k

