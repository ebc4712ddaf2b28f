"""Vertex-weighted simple graphs and coloring semantics.

A graph stores its adjacency as one bitmask per vertex, which makes the
neighborhood comparisons that dominate the rest of the package (stability
checks, equivalence classes, subset dynamic programs) single integer
operations. Graphs are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    DuplicateEdge,
    InvalidColoring,
    InvalidVertex,
    InvalidWeight,
    MalformedEdge,
)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# maps the digits of bin() to the 0/1 selector bytes itertools.compress reads
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def higher_neighbors(adjacency: Sequence[int]) -> Iterator[tuple[int, Iterator[int]]]:
    """Yield ``(u, the neighbors v > u ascending)`` for every vertex u.

    Each row is read in one pass: the bits above u become a 0/1 byte string
    that selects from ``range(u + 1, n)``, instead of one big-int step per
    neighbor as :func:`bits` takes.
    """
    n = len(adjacency)
    for u, a in enumerate(adjacency):
        digits = bin(a >> (u + 1))[:1:-1]  # lowest bit first
        yield u, compress(range(u + 1, n), digits.encode().translate(_BIT_SELECTORS))


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with positive integer vertex weights.

    ``adjacency[v]`` is the bitmask of neighbors of ``v``. Instances are
    expected to come from :func:`build_graph`, which validates its input, or
    from code that builds symmetric loop-free rows directly (the seeded
    generators, and ``formats.parse_dwc``, which checks each edge line as it
    sets the two bits); the dataclass itself trusts its fields.
    """

    n: int
    adjacency: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(bits(self.adjacency[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out: list[tuple[int, int]] = []
        for u, higher in higher_neighbors(self.adjacency):
            out.extend(zip(repeat(u), higher))
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InvalidVertex(f"vertex {v} not in 0..{self.n - 1}")


@dataclass(frozen=True)
class Coloring:
    """Partition of a vertex set into ordered, non-empty color classes."""

    classes: tuple[tuple[int, ...], ...]


def build_graph(
    n: int, edges: Iterable[tuple[int, int]], weights: Sequence[int]
) -> WeightedGraph:
    """Construct a validated graph from an edge list and a weight list.

    Raises :class:`MalformedEdge` for self-loops or out-of-range endpoints,
    :class:`DuplicateEdge` for repeated edges, :class:`InvalidWeight` for
    weights that are not integers >= 1, and :class:`ArityMismatch` when the
    weight list does not have exactly ``n`` entries.
    """
    if len(weights) != n:
        raise ArityMismatch(f"expected {n} weights, got {len(weights)}")
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, int) or w < 1:
            raise InvalidWeight(f"weight {w!r} is not a positive integer")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise MalformedEdge(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedEdge(f"edge ({u},{v}) outside 0..{n - 1}")
        if adj[u] >> v & 1:
            raise DuplicateEdge(f"edge ({u},{v}) given twice")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return WeightedGraph(n, tuple(adj), tuple(weights))


def complement(g: WeightedGraph) -> WeightedGraph:
    """Graph on the same weighted vertices whose edges are exactly the non-edges."""
    full = (1 << g.n) - 1
    adj = tuple(full ^ a ^ (1 << v) for v, a in enumerate(g.adjacency))
    return WeightedGraph(g.n, adj, g.weights)


def relabeler(order: Sequence[int], n: int) -> Callable[[int], int]:
    """Map a row over ``n`` vertices to the mask whose bit i is its bit
    ``order[i]``, for any order of any subset of 0..n-1, in one C-speed pass
    at any density: the picked binary digits are read back as an integer."""
    if not order:
        return lambda row: 0
    width = f"0{n}b"
    pick = itemgetter(*(n - 1 - v for v in reversed(order)))  # most significant first
    return lambda row: int("".join(pick(format(row, width))), 2)


def induced_subgraph(
    g: WeightedGraph, keep: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on ``keep``, relabeled 0..len-1 in ascending id order.

    Returns the subgraph and the tuple mapping new ids to old ids.
    """
    old = tuple(sorted(set(keep)))
    for v in old:
        g._check_vertex(v)
    local = relabeler(old, g.n)
    adj = tuple(local(g.adjacency[v]) for v in old)
    return WeightedGraph(len(old), adj, tuple(g.weights[v] for v in old)), old


def _as_mask(g: WeightedGraph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        g._check_vertex(v)
        mask |= 1 << v
    return mask


def is_stable(g: WeightedGraph, s: Iterable[int]) -> bool:
    """True iff no two vertices of ``s`` are adjacent."""
    mask = _as_mask(g, s)
    for v in bits(mask):
        if g.adjacency[v] & mask:
            return False
    return True


def is_clique(g: WeightedGraph, s: Iterable[int]) -> bool:
    """True iff the vertices of ``s`` are pairwise adjacent."""
    mask = _as_mask(g, s)
    for v in bits(mask):
        if (mask ^ (1 << v)) & ~g.adjacency[v]:
            return False
    return True


def is_universal(g: WeightedGraph, v: int) -> bool:
    """True iff ``v`` is adjacent to every other vertex."""
    g._check_vertex(v)
    return g.adjacency[v] | 1 << v == (1 << g.n) - 1


def _validate_partition(g: WeightedGraph, c: Coloring) -> None:
    seen = 0
    for cls in c.classes:
        if not cls:
            raise InvalidColoring("empty color class")
        m = _as_mask(g, cls)
        if m & seen:
            raise InvalidColoring("color classes overlap")
        seen |= m
    if seen != (1 << g.n) - 1:
        raise InvalidColoring("color classes do not cover every vertex")


def is_proper(g: WeightedGraph, c: Coloring) -> bool:
    """True iff every class of the partition ``c`` is a stable set."""
    _validate_partition(g, c)
    return all(is_stable(g, cls) for cls in c.classes)


def coloring_weight(g: WeightedGraph, c: Coloring) -> int:
    """Sum over classes of the heaviest vertex weight in the class."""
    _validate_partition(g, c)
    return sum(max(g.weights[v] for v in cls) for cls in c.classes)

