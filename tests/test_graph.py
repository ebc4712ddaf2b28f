import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwcolor import (
    ArityMismatch,
    Coloring,
    DuplicateEdge,
    InvalidColoring,
    InvalidVertex,
    InvalidWeight,
    MalformedEdge,
    build_graph,
    coloring_weight,
    complement,
    induced_subgraph,
    is_clique,
    is_proper,
    is_stable,
    is_universal,
)
from dwcolor.graph import relabeler
from conftest import complete_graph, path_graph, random_graph, star_graph


def test_single_vertex():
    g = build_graph(1, [], [5])
    assert g.n == 1 and g.m == 0 and g.weight_sum == 5


def test_path_construction():
    g = build_graph(3, [(0, 1), (1, 2)], [1, 2, 1])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2


def test_build_errors():
    with pytest.raises(InvalidWeight):
        build_graph(2, [(0, 1)], [3, 0])
    with pytest.raises(InvalidWeight):
        build_graph(1, [], [1.5])
    with pytest.raises(InvalidWeight):
        build_graph(1, [], [True])
    with pytest.raises(MalformedEdge):
        build_graph(2, [(0, 0)], [1, 1])
    with pytest.raises(MalformedEdge):
        build_graph(2, [(0, 2)], [1, 1])
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (1, 0)], [1, 1])
    with pytest.raises(ArityMismatch):
        build_graph(3, [], [1, 1])


def test_complement_small():
    assert complement(complete_graph(3)).m == 0
    assert complement(build_graph(2, [], [1, 1])).edges() == [(0, 1)]


def test_complement_involution_preserves_weights():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert complement(complement(g)) == g


def test_predicates():
    p3 = path_graph(3)
    assert is_stable(p3, {0, 2})
    assert not is_stable(p3, {0, 1})
    assert is_clique(p3, {0, 1})
    assert not is_clique(p3, {0, 2})
    assert is_clique(p3, {1})
    assert is_stable(p3, [])
    star = star_graph(3)
    assert is_universal(star, 0)
    assert not is_universal(star, 1)
    with pytest.raises(InvalidVertex):
        is_universal(star, 5)
    with pytest.raises(InvalidVertex):
        is_stable(star, {9})


def test_coloring_weight_and_proper():
    g = path_graph(3, [1, 2, 1])
    c = Coloring(((0, 2), (1,)))
    assert is_proper(g, c)
    assert coloring_weight(g, c) == 3
    g2 = build_graph(3, [(0, 2)], [1, 2, 1])
    assert not is_proper(g2, c)


def test_invalid_colorings():
    g = path_graph(3)
    with pytest.raises(InvalidColoring):
        coloring_weight(g, Coloring(((0,), (1,))))
    with pytest.raises(InvalidColoring):
        coloring_weight(g, Coloring(((0, 1), (1, 2))))
    with pytest.raises(InvalidColoring):
        is_proper(g, Coloring(((0, 1, 2), ())))


def test_proper_coloring_never_beats_singletons():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        # greedy proper coloring
        classes: list[list[int]] = []
        for v in range(g.n):
            for cls in classes:
                if all(not g.has_edge(v, u) for u in cls):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        c = Coloring(tuple(tuple(cls) for cls in classes))
        assert is_proper(g, c)
        assert coloring_weight(g, c) <= g.weight_sum


def test_induced_subgraph():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [4, 3, 2, 1])
    sub, old = induced_subgraph(g, [1, 3])
    assert old == (1, 3)
    assert sub.n == 2 and sub.m == 0
    assert sub.weights == (3, 1)
    sub2, old2 = induced_subgraph(g, [2, 1])
    assert old2 == (1, 2) and sub2.edges() == [(0, 1)]
    # every density, across 64 bits: the subgraph's edges are g's edges
    # between kept vertices, by definition
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 80)
        g = random_graph(rng, n, rng.choice([0.0, 1.0, rng.random()]))
        keep = rng.sample(range(n), rng.randint(0, n))
        sub, old = induced_subgraph(g, keep)
        assert old == tuple(sorted(keep)) and sub.n == len(keep)
        assert sub.weights == tuple(g.weights[v] for v in old)
        for (i, u), (j, v) in itertools.product(enumerate(old), repeat=2):
            assert sub.has_edge(i, j) == g.has_edge(u, v)


@st.composite
def rows_and_orders(draw):
    """A row over n <= 130 vertices (so rows cross 64 bits), edgeless, any,
    dense or complete, with any order of any subset of 0..n-1."""
    n = draw(st.integers(0, 130))
    full = (1 << n) - 1
    kind = draw(st.sampled_from(["edgeless", "any", "dense", "complete"]))
    if kind == "any":
        row = draw(st.integers(0, full))
    elif kind == "dense":
        row = full ^ (draw(st.integers(0, full)) & draw(st.integers(0, full)))
    else:
        row = full if kind == "complete" else 0
    order = draw(st.permutations(list(range(n))))[: draw(st.integers(0, n))]
    return n, row, order


@settings(max_examples=300, deadline=None)
@given(rows_and_orders())
def test_relabeler_picks_bits_in_order(case):
    n, row, order = case
    mask = relabeler(order, n)(row)
    assert mask >> len(order) == 0
    assert all(mask >> i & 1 == row >> v & 1 for i, v in enumerate(order))
