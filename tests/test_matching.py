import random

from dwcolor import (
    build_graph,
    complement,
    is_clique,
    maximum_antimatching,
    maximum_matching,
)
from conftest import (
    all_antimatchings_bruteforce,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    is_valid_antimatching,
    maximum_matching_bruteforce,
    petersen_graph,
    random_graph,
)


def test_edgeless():
    assert maximum_matching(build_graph(4, [], [1] * 4)) == []


def test_k4_perfect():
    m = maximum_matching(complete_graph(4))
    assert len(m) == 2
    assert {v for p in m for v in p} == {0, 1, 2, 3}


def test_petersen_has_perfect_matching():
    g = petersen_graph()
    assert maximum_matching_bruteforce(g) == 5  # exhaustive confirmation
    assert len(maximum_matching(g)) == 5


def test_odd_cycles():
    for n in (3, 5, 7, 9):
        assert len(maximum_matching(cycle_graph(n))) == n // 2


def test_blossom_needs_contraction():
    # two triangles joined by a bridge: augmenting paths must pass blossoms
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)], [1] * 6)
    assert len(maximum_matching(g)) == maximum_matching_bruteforce(g) == 3


def test_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 9, 0.5)
        assert maximum_matching(g) == maximum_matching(g)


def test_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert len(maximum_matching(g)) == maximum_matching_bruteforce(g)


def test_matching_pairs_are_edges():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 11), rng.random())
        m = maximum_matching(g)
        seen = set()
        for u, v in m:
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_antimatching_examples():
    kn = complete_graph(5)
    am = maximum_antimatching(kn)
    assert am.size == 0 and am.residual_clique == (0, 1, 2, 3, 4)
    e4 = build_graph(4, [], [1] * 4)
    assert maximum_antimatching(e4).size == 2
    c5 = cycle_graph(5)
    am5 = maximum_antimatching(c5)
    assert all_antimatchings_bruteforce(c5) == 2  # complement of C5 is again a 5-cycle
    assert am5.size == 2


def test_residual_clique_property():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        am = maximum_antimatching(g)
        assert is_valid_antimatching(g, am)
        assert is_clique(g, am.residual_clique)
        assert len(maximum_matching(complement(g))) == am.size


def test_isolated_vertices_appended_keep_the_pairs():
    # vertices with no neighbour cannot start an augmenting path, so giving
    # them the highest ids must leave the matching of the rest unchanged
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        extra = rng.randint(1, 20)
        padded = build_graph(g.n + extra, g.edges(), [1] * (g.n + extra))
        assert maximum_matching(padded) == maximum_matching(g)
