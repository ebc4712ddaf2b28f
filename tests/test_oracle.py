import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwcolor import (
    InstanceTooLarge,
    build_graph,
    decide_dual_oracle,
    induced_subgraph,
    sigma_exact,
)
from dwcolor.oracle import DEFAULT_CAP
from conftest import (
    chromatic_number_bruteforce,
    complete_graph,
    maximum_matching_bruteforce,
    path_graph,
    random_graph,
    sigma_partition_bruteforce,
)


def test_examples():
    k2 = build_graph(2, [(0, 1)], [3, 5])
    assert sigma_exact(k2) == 8
    assert sigma_exact(build_graph(2, [], [3, 5])) == 5
    p3 = path_graph(3, [1, 2, 1])
    assert sigma_partition_bruteforce(p3) == 3
    assert sigma_exact(p3) == 3


def test_empty_graph():
    g = build_graph(0, [], [])
    assert sigma_exact(g) == 0


def test_cap():
    # the cap is fixed: past it the 2^n-entry tables take gigabytes
    big = complete_graph(DEFAULT_CAP + 1)
    with pytest.raises(InstanceTooLarge):
        sigma_exact(big)
    with pytest.raises(InstanceTooLarge):
        decide_dual_oracle(big, 1)


def test_against_partition_bruteforce():
    rng = random.Random(41)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        want = sigma_partition_bruteforce(g)
        assert sigma_exact(g) == want


def test_monotone_under_vertex_deletion():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        s = sigma_exact(g)
        v = rng.randrange(g.n)
        sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert sigma_exact(sub) <= s


def test_unit_weights_give_chromatic_number():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random(), wmax=1)
        assert sigma_exact(g) == chromatic_number_bruteforce(g)


def test_decide_examples():
    assert not decide_dual_oracle(build_graph(2, [(0, 1)], [3, 5]), 1)
    assert decide_dual_oracle(build_graph(2, [], [4, 4]), 4)
    assert decide_dual_oracle(path_graph(3, [1, 2, 1]), 1)


def test_matching_bruteforce_cap():
    g = build_graph(13, [], [1] * 13)
    with pytest.raises(InstanceTooLarge):
        maximum_matching_bruteforce(g)


@st.composite
def oracle_graphs(draw):
    """Graphs on at most 8 vertices: edgeless, any, dense or complete edge
    sets, with tied or spread weights."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["edgeless", "any", "dense", "complete"]))
    if kind == "any":
        edges = [e for e in pairs if draw(st.booleans())]
    elif kind == "dense":
        few = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
        edges = [e for e in pairs if e not in few]
    else:
        edges = pairs if kind == "complete" else []
    if draw(st.booleans()):
        weights = [draw(st.integers(1, 3))] * n
    else:
        weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    return build_graph(n, edges, weights)


@settings(max_examples=120, deadline=None)
@given(oracle_graphs())
@example(build_graph(8, [], [5] * 8))
@example(complete_graph(8, [8, 1, 7, 2, 6, 3, 5, 4]))
def test_oracle_matches_partition_bruteforce(g):
    assert sigma_exact(g) == sigma_partition_bruteforce(g)


def test_complete_graph_is_one_class_per_vertex():
    # every vertex of K18 is its own class; the enumeration sees one
    # candidate class per subset, not the 3^18/2 submasks of the subset
    g = complete_graph(18, list(range(1, 19)))
    assert sigma_exact(g) == g.weight_sum
