"""Exact ground truth by exhaustive search.

``sigma_exact`` runs a dynamic program over all vertex subsets in one
ascending pass: the optimum for a subset X peels off one stable class
containing X's lowest vertex j (some class must contain it). The cost is at
most 3^n/2 submask visits (edgeless graphs) and shrinks with density: a
complete graph takes one visit per subset.
Everything else in the package is validated against this routine, so it
stays deliberately independent of the polynomial solvers: the oracle keeps
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


def sigma_exact(g: WeightedGraph) -> int:
    """Minimum weight over all proper colorings of ``g``.

    One ascending pass over the nonempty subsets X of V(g) sets ``table[X]``
    to the minimum of ``table[X ∖ S] + maxw[S]`` over the stable classes S
    that contain X's lowest vertex j. On the way it fills ``stab[X]`` (1 iff
    X is stable) and ``maxw[X]`` (heaviest weight in X) from X ∖ {j}; both
    read only smaller indices, so they are ready before the enumeration
    reads them, also for S = X.

    A stable class containing j lies inside {j} ∪ (X ∖ N(j)), so only the
    submasks of ``cand = X ∖ N[j]`` are enumerated: the dropped classes are
    all non-stable. That is at most 3^n/2 submasks, on an edgeless graph,
    and far fewer on dense ones. Graphs over ``DEFAULT_CAP`` vertices are
    refused: past it the 2^n-entry tables take gigabytes.
    """
    n = g.n
    if n > DEFAULT_CAP:
        raise InstanceTooLarge(f"n={n} exceeds cap {DEFAULT_CAP}")
    if n == 0:
        return 0
    adj = g.adjacency
    w = g.weights
    table = [0] * (1 << n)
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
                c = table[x ^ sub] + maxw[sub]
                if c < best:
                    best = c
            if not s:
                break
            s = (s - 1) & cand
        table[x] = best
    return table[-1]


def decide_dual_oracle(g: WeightedGraph, k: int) -> bool:
    """True iff some proper coloring saves at least ``k`` below the vertex-weight sum."""
    if k < 1:
        raise PreconditionViolated(f"k={k} must be >= 1")
    return sigma_exact(g) <= g.weight_sum - k
