import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwcolor import (
    InstanceTooLarge,
    PreconditionViolated,
    build_graph,
    coloring_weight,
    decide_dual_oracle,
    is_proper,
    is_stable,
    sigma_exact,
)
from dwcolor.fpt import (
    MAX_TABLE_BITS,
    DualInstance,
    build_dp,
    extract_certificate,
    shortcut_certificate,
    solve_dual,
)
from dwcolor.graph import bits
from dwcolor.instances import bench_instance
from dwcolor.matching import Antimatching, maximum_antimatching
from conftest import absorb_heavy_graph, complete_graph, path_graph, random_graph


def test_instance_validation():
    g = path_graph(2)
    with pytest.raises(PreconditionViolated):
        DualInstance(g, 0)


def test_solve_examples():
    k2 = build_graph(2, [(0, 1)], [3, 5])
    ans = solve_dual(DualInstance(k2, 1))
    assert not ans.verdict and ans.sigma == 8
    iso = build_graph(2, [], [4, 4])
    ans = solve_dual(DualInstance(iso, 4))
    assert ans.verdict and ans.certificate.classes == ((0, 1),)
    assert coloring_weight(iso, ans.certificate) == 4


def test_empty_graph():
    ans = solve_dual(DualInstance(build_graph(0, [], []), 3))
    assert not ans.verdict and ans.sigma == 0
    assert ans.certificate.classes == ()


def test_oversized_k_short_circuits():
    g = path_graph(3, [1, 2, 1])
    ans = solve_dual(DualInstance(g, 4))  # k = weight_sum
    assert not ans.verdict and ans.sigma is None
    assert not decide_dual_oracle(g, 4)


def test_shortcut_certificate():
    e4 = build_graph(4, [], [1] * 4)
    am = maximum_antimatching(e4)
    c = shortcut_certificate(e4, am, 2)
    assert is_proper(e4, c)
    assert coloring_weight(e4, c) <= 4 - 2
    g = build_graph(3, [(0, 1)], [2, 2, 2])
    am = Antimatching(((0, 2),), 3)
    c = shortcut_certificate(g, am, 1)
    assert c.classes == ((0, 2), (1,))
    assert coloring_weight(g, c) == 4
    with pytest.raises(PreconditionViolated):
        shortcut_certificate(g, am, 2)
    iso10 = build_graph(10, [], [1] * 10)
    c = shortcut_certificate(iso10, maximum_antimatching(iso10), 5)
    assert coloring_weight(iso10, c) == 5


def test_dp_examples():
    p3 = path_graph(3, [1, 2, 1])
    am = maximum_antimatching(p3)
    assert am.pairs == ((0, 2),)
    t = build_dp(p3, am)
    assert t.sigma == 3
    cert = extract_certificate(t)
    assert sorted(map(sorted, cert.classes)) == [[0, 2], [1]]

    k3 = complete_graph(3)
    t = build_dp(k3, maximum_antimatching(k3))
    assert t.sigma == 3
    assert extract_certificate(t).classes == ((0,), (1,), (2,))

    paw = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)], [1] * 4)
    am = maximum_antimatching(paw)
    assert set(am.pairs) <= {(1, 3), (2, 3)}
    t = build_dp(paw, am)
    assert t.sigma == 3 == sigma_exact(paw)


def test_dp_rejects_non_maximum_antimatching():
    # declaring no pairs leaves a non-clique residue
    p3 = path_graph(3)
    with pytest.raises(PreconditionViolated):
        build_dp(p3, Antimatching((), 3))


def _absorb_reference(g, clique):
    """Top-down absorb table: ``best(0, U)`` is the least extra weight at
    which the colors of ``clique``, in turn, absorb exactly the vertex set U.
    Each takes a stable set of its non-neighbours out of what remains of U,
    at its heaviest weight above the clique vertex's own, or takes nothing."""

    @functools.cache
    def best(i, rest):
        if i == len(clique):
            return 0 if not rest else float("inf")
        v = clique[i]
        free = [u for u in rest if not g.has_edge(u, v)]
        out = best(i + 1, rest)
        for r in range(1, len(free) + 1):
            for s in itertools.combinations(free, r):
                if is_stable(g, s):
                    extra = max(0, max(g.weights[u] for u in s) - g.weights[v])
                    out = min(out, extra + best(i + 1, rest - frozenset(s)))
        return out

    return best


def test_absorb_table_matches_top_down_reference():
    rng = random.Random(61)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.75)
        am = maximum_antimatching(g)
        t = build_dp(g, am)
        assert t.fresh[0] == t.base
        size = len(t.absorb)
        assert size == 1 << _blind_union(g, am).bit_count()
        ref = _absorb_reference(g, am.residual_clique)
        for u in range(size):
            assert t.absorb[u] == ref(0, frozenset(t.ground[j] for j in bits(u)))
        full = (1 << len(t.ground)) - 1
        assert min(t.absorb[u] + t.fresh[full ^ u] for u in range(size)) == t.sigma


def _blind_union(g, am):
    """D: the covered vertices some residual clique vertex is not adjacent to."""
    covered = am.covered_mask
    reach = 0
    for v in am.residual_clique:
        reach |= covered & ~g.adjacency[v]
    return reach


def test_absorb_layers_only_for_absorbers():
    k = 8
    for seed in (1, 2, 3):
        g = bench_instance(200, k, seed).graph
        am = maximum_antimatching(g)
        t = build_dp(g, am)
        covered = am.covered_mask
        want = tuple(v for v in t.clique_order if covered & ~g.adjacency[v])
        assert t.absorbers == want and len(want) < len(t.clique_order)
        assert len(t.absorb_parents) == len(want)
        for par in t.absorb_parents:
            assert len(par) <= 1 << (k - 1)
        cert = extract_certificate(t)
        assert is_proper(g, cert) and coloring_weight(g, cert) == t.sigma


# sha256 of repr((sigma, certificate.classes)) from solve_dual, pinned so that
# a change of the table's bit order cannot change an answer or a certificate
_PINNED_TABLE_ANSWERS = {
    (200, 6, 1): "db9b2fd8b24d69d91f06132ab00b05e9a94a4c70a2d77991d3d6f7dde5290eb3",
    (200, 6, 2): "52340a8fb7313051dff88c306a618f135e509f05ff5ca5f65b386af866a10c25",
    (200, 7, 1): "65171aa496d054dde05421e1b26443a25262202fb32b59e9f275f84541c587d6",
    (200, 7, 2): "79f629c7dced6649841efdb5df585258aacbe0ca3a212faa02f38deb8e5089e6",
    (200, 8, 1): "136a678348702834e5ebc591ae73ca91d893af4f95f57a1ce62824b1a6fab431",
    (200, 8, 2): "e5ac5f6a7f5fbd3d60f91c9378d1db64269d2cb08daa96698fa7c4037f7f2d45",
    (240, 3, 1): "df0fa1758003f40415a9d7eb35ebfd90d9948e0155a356b1c8d51994a639fd3f",
    (320, 4, 1): "d767129c02b2a456e8e9b1c9d3a78772bb5ff74384ce517c158a7239f4105112",
    (400, 5, 1): "2504de01cb499c8f357a47891a247f51c132bbeebeffed1d14339faf8a390b10",
}


@pytest.mark.parametrize("args", sorted(_PINNED_TABLE_ANSWERS))
def test_bench_answers_are_pinned(args):
    ans = solve_dual(bench_instance(*args))
    assert ans.sigma is not None
    digest = hashlib.sha256(repr((ans.sigma, ans.certificate.classes)).encode())
    assert digest.hexdigest() == _PINNED_TABLE_ANSWERS[args]


def test_table_too_wide_raises_before_allocating():
    g = build_graph(60, [], [1] * 60)
    am = maximum_antimatching(g)
    assert 2 * am.size == 60 > MAX_TABLE_BITS
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge):
            build_dp(g, am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(InstanceTooLarge):
        solve_dual(DualInstance(g, 31))


def test_absorb_tables_bounded_before_allocating():
    # t = 22 is within the fresh table's cap, but 605 absorb layers over
    # 2^16 subsets each would take 151 MiB of parents
    g = absorb_heavy_graph()
    am = maximum_antimatching(g)
    assert 2 * am.size == MAX_TABLE_BITS
    covered = am.covered_mask
    blind = [covered & ~g.adjacency[v] for v in am.residual_clique]
    reach = 0
    for mask in blind:
        reach |= mask
    assert sum(1 for mask in blind if mask) == 605 and reach.bit_count() == 16
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge):
            build_dp(g, am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(InstanceTooLarge):
        solve_dual(DualInstance(g, 12))


@st.composite
def small_graphs(draw):
    """Graphs on at most 10 vertices: sparse, dense, or edgeless plus a few
    edges (there one clique vertex reaches both ends of every pair, so
    D is the whole ground)."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["any", "dense", "sparse"]))
    if kind == "any":
        edges = [e for e in pairs if draw(st.booleans())]
    else:
        few = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
        edges = [e for e in pairs if (e in few) == (kind == "sparse")]
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return build_graph(n, edges, weights)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(build_graph(7, [], [1, 2, 3, 4, 3, 2, 1]))
@example(build_graph(9, [(0, 1), (2, 3)], [2] * 9))
def test_table_matches_oracle(g):
    am = maximum_antimatching(g)
    t = build_dp(g, am)
    assert t.sigma == sigma_exact(g)
    # D comes first in the ground, so the absorbed split is a mask below 2^d
    assert t.split < len(t.absorb)
    reach = _blind_union(g, am)
    d = reach.bit_count()
    assert len(t.absorb) == 1 << d
    assert t.ground[:d] == tuple(bits(reach))
    assert t.ground[d:] == tuple(bits(am.covered_mask & ~reach))
    cert = extract_certificate(t)
    assert is_proper(g, cert)
    assert coloring_weight(g, cert) == t.sigma


def test_full_ground_absorbed_on_stable_sets():
    for n in (3, 5, 7, 9):
        g = build_graph(n, [], list(range(1, n + 1)))
        t = build_dp(g, maximum_antimatching(g))
        assert t.ground == tuple(range(n - 1)) and len(t.absorb) == 1 << (n - 1)
        assert t.sigma == n == sigma_exact(g)


def test_certificate_weight_matches_table():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.4, 0.7, 0.9]))
        am = maximum_antimatching(g)
        t = build_dp(g, am)
        cert = extract_certificate(t)
        assert is_proper(g, cert)
        assert coloring_weight(g, cert) == t.sigma == sigma_exact(g)


def test_exhaustive_agreement_n4():
    rng = random.Random(71)
    pairs = list(itertools.combinations(range(4), 2))
    for bm in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bm >> i & 1]
        ws = [rng.randint(1, 3) for _ in range(4)]
        g = build_graph(4, edges, ws)
        sig = sigma_exact(g)
        for k in range(1, sum(ws) + 1):
            ans = solve_dual(DualInstance(g, k))
            assert ans.verdict == (sig <= sum(ws) - k)


def test_sigma_exact_when_no_shortcut():
    rng = random.Random(73)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(3, 11), rng.choice([0.7, 0.9]))
        am = maximum_antimatching(g)
        k = am.size + 1
        if k >= g.weight_sum:
            continue
        ans = solve_dual(DualInstance(g, k))
        assert ans.sigma == sigma_exact(g)
        assert is_proper(g, ans.certificate)
        assert coloring_weight(g, ans.certificate) == ans.sigma
        done += 1


def test_certificate_sound_on_yes():
    rng = random.Random(79)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        k = rng.randint(1, max(1, g.weight_sum - 1))
        ans = solve_dual(DualInstance(g, k))
        if ans.verdict:
            assert is_proper(g, ans.certificate)
            assert coloring_weight(g, ans.certificate) <= g.weight_sum - k


def test_monotone_in_k():
    rng = random.Random(83)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        verdicts = [
            solve_dual(DualInstance(g, k)).verdict for k in range(1, g.weight_sum + 1)
        ]
        # once no, no forever after
        for a, b in zip(verdicts, verdicts[1:]):
            assert a or not b


def test_stats_fields():
    g = path_graph(3, [1, 2, 1])
    ans = solve_dual(DualInstance(g, 2))
    st = ans.stats
    assert (st.n, st.m) == (3, 2)
    assert st.antimatching_size == 1 and st.clique_size == 1
    assert st.runtime_ms >= 0
