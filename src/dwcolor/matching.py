"""Maximum-cardinality matching on general graphs, and antimatchings.

The matching routine is an augmenting-path search with blossom contraction
(base-array variant, O(V^3) overall). Scan order is fixed: augmentation
roots are tried in ascending vertex id and neighbors are scanned in
ascending id, so the returned matching is deterministic for a given graph.
An antimatching of a graph is a matching of its complement; the vertices it
leaves uncovered induce a clique whenever the antimatching is maximum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graph import WeightedGraph, bits, complement


@dataclass(frozen=True)
class Antimatching:
    """Vertex-disjoint non-edge pairs of a graph on ``n`` vertices; the
    covered mask and the residual clique are computed on first access."""

    pairs: tuple[tuple[int, int], ...]
    n: int

    @property
    def size(self) -> int:
        return len(self.pairs)

    @cached_property
    def covered_mask(self) -> int:
        mask = 0
        for u, v in self.pairs:
            mask |= (1 << u) | (1 << v)
        return mask

    @cached_property
    def residual_clique(self) -> tuple[int, ...]:
        """Vertices not covered by any pair, ascending."""
        covered = self.covered_mask
        return tuple(v for v in range(self.n) if not covered >> v & 1)


def maximum_matching(g: WeightedGraph) -> list[tuple[int, int]]:
    """A maximum-cardinality matching as sorted (u, v) pairs with u < v."""
    n = g.n
    nbr = [list(bits(a)) for a in g.adjacency]
    match = [-1] * n

    # deterministic greedy seed: lowest free vertex, lowest free neighbor
    for v in range(n):
        if match[v] < 0:
            for u in nbr[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    touched: list[int] = []  # vertices whose p, base or used a search set
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = base[a]
        while True:
            seen[x] = True
            if match[x] < 0:
                break
            x = base[p[match[x]]]
        y = base[b]
        while not seen[y]:
            y = base[p[match[y]]]
        return y

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def augment(v: int) -> None:
        while v >= 0:
            pv = p[v]
            nxt = match[pv]
            match[v] = pv
            match[pv] = v
            v = nxt

    for root in range(n):
        # a root with no neighbor cannot start an augmenting path
        if match[root] >= 0 or not nbr[root]:
            continue
        for i in touched:
            p[i] = -1
            base[i] = i
            used[i] = False
        touched = [root]
        used[root] = True
        queue = deque([root])
        done = False
        while queue and not done:
            v = queue.popleft()
            for to in nbr[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and p[match[to]] >= 0):
                    # odd cycle: contract the blossom down to the common base
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                                touched.append(i)
                elif p[to] < 0:
                    p[to] = v
                    touched.append(to)
                    if match[to] < 0:
                        augment(to)
                        done = True
                        break
                    used[match[to]] = True
                    queue.append(match[to])
                    touched.append(match[to])

    return sorted((min(v, match[v]), max(v, match[v])) for v in range(n) if match[v] > v)


def maximum_antimatching(g: WeightedGraph) -> Antimatching:
    """Maximum set of vertex-disjoint non-edges (matching of the complement)."""
    return Antimatching(tuple(maximum_matching(complement(g))), g.n)

