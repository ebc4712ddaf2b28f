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
    NonMaximalAntimatchingWitness,
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
from dwcolor.graph import bits, induced_subgraph
from dwcolor.instances import bench_instance
from dwcolor.kernel import compute_classes
from dwcolor.matching import Antimatching, maximum_antimatching
from conftest import (
    absorb_heavy_graph,
    complete_graph,
    join,
    path_graph,
    random_graph,
    subset_clique_graph,
)


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
    # K4 minus the path 0-1-2-3: the pair (1, 2) is maximal but not maximum,
    # and the clique vertices 0 and 3 miss its opposite endpoints
    g = build_graph(4, [(0, 2), (0, 3), (1, 3)], [3, 1, 2, 4])
    with pytest.raises(NonMaximalAntimatchingWitness):
        build_dp(g, Antimatching(((1, 2),), 4))


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
        ref = _absorb_reference(g, am.residual_clique)
        blind = list(bits(_blind_union(g, am)))
        covered = set(bits(am.covered_mask))
        best = float("inf")
        for r in range(len(blind) + 1):
            for u in itertools.combinations(blind, r):
                rest, _ = induced_subgraph(g, covered - set(u))
                best = min(best, ref(0, frozenset(u)) + t.base + sigma_exact(rest))
        assert t.sigma == best
        for v, s in t.taken.items():
            members = [t.ground[j] for j in bits(s)]
            assert is_stable(g, members)
            assert not any(g.has_edge(u, v) for u in members)


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
        assert t.taken
        per_class = {}
        for v in t.taken:
            blind = covered & ~g.adjacency[v]
            assert blind
            per_class[blind] = per_class.get(blind, 0) + 1
        for blind, count in per_class.items():
            assert count <= blind.bit_count()
        # the absorbers are the heaviest of their class, as compute_classes ranks it
        for cls in compute_classes(g, am).classes:
            absorbing = [v for v in cls.vertices if v in t.taken]
            assert cls.vertices[: len(absorbing)] == tuple(absorbing)
        cert = extract_certificate(t)
        assert is_proper(g, cert) and coloring_weight(g, cert) == t.sigma


# (sigma, sha256 of repr((sigma, certificate.classes))) from solve_dual. The
# sigmas are the optimum and must never change; the digests pin which optimal
# certificate the table picks, so that a change of its bit order or its
# recurrence cannot change one unnoticed.
_PINNED_TABLE_ANSWERS = {
    (200, 6, 1): (627, "bf89fc1d120fd7f1f7655cc4f95fd6cf1180615969239b9daa272b08bd212243"),
    (200, 6, 2): (583, "4def3463acab46949fd275c906e205ba0c7b2eeadd55ea6d98e3524494fab7dc"),
    (200, 7, 1): (621, "6c1aebd0949ecaf8b38599e8bda181ff7f826cdb23b4abeb910c46fce32859ba"),
    (200, 7, 2): (593, "2b270fa7937f5e3376cfb8a4d0211f288accc011807ad00db7f9312d3d0f9803"),
    (200, 8, 1): (609, "835a9668a484bfadd9997a6e8f3a5d2bd96306f6ecdc24afa24c4cec29473417"),
    (200, 8, 2): (585, "aef909b7fbecb8db08a1066e07884d6ddb63b1ca8091e84ef2199b4af52100ac"),
    (240, 3, 1): (734, "ac9a1e8886a6516a7bbaf35cc7288b3dcb920ed7bb751aa9d36def206a8f0fc8"),
    (320, 4, 1): (943, "b415952c8ada0189da3e64f61e9f714fdabd1e2ea5b9b7b7edd3fbdc049a0d3e"),
    (400, 5, 1): (1220, "ab0e9c6bd24e7f0e5e8119edb3bea9eaaf4f4cf523f902589bdb32a8e03fc1ad"),
}


@pytest.mark.parametrize("args", sorted(_PINNED_TABLE_ANSWERS))
def test_bench_answers_are_pinned(args):
    inst = bench_instance(*args)
    ans = solve_dual(inst)
    sigma, pinned = _PINNED_TABLE_ANSWERS[args]
    assert ans.sigma == sigma
    assert is_proper(inst.graph, ans.certificate)
    assert coloring_weight(inst.graph, ans.certificate) == sigma
    digest = hashlib.sha256(repr((ans.sigma, ans.certificate.classes)).encode())
    assert digest.hexdigest() == pinned


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


def test_absorb_heavy_graph_solves_in_little_memory():
    # t = 22, the table's cap, with 605 absorbers blind to d = 16 vertices
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
        t = build_dp(g, am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each special triple shares one class (saving 2), each normal pair one (saving 1)
    assert t.sigma == 627 - 2 * 5 - 6 == 611
    assert peak < 16 << 20
    cert = extract_certificate(t)
    assert is_proper(g, cert) and coloring_weight(g, cert) == 611



def test_two_members_of_one_class_absorb_disjoint_pieces():
    # 4, 5 and 6 form one class blind to the adjacent pair 0 and 2, so the
    # optimum needs its two heaviest members to take one each; 6 stays alone
    nonedges = {(0, 1), (2, 3)} | {(v, u) for v in (0, 2) for u in (4, 5, 6)}
    edges = [e for e in itertools.combinations(range(7), 2) if e not in nonedges]
    g = build_graph(7, edges, [5, 1, 3, 1, 6, 4, 2])
    am = maximum_antimatching(g)
    assert am.pairs == ((0, 1), (2, 3))
    assert [c.vertices for c in compute_classes(g, am).classes] == [(4, 5, 6)]
    t = build_dp(g, am)
    assert t.sigma == sigma_exact(g) == 14
    assert t.taken == {4: 1 << 0, 5: 1 << 2}
    cert = extract_certificate(t)
    assert is_proper(g, cert) and coloring_weight(g, cert) == 14


def test_subset_clique_ground_is_pinned():
    # 255 neighbourhood classes, one per non-empty subset of the stable D,
    # against absorb_heavy_graph's 11; sigma from the per-class absorb pass
    g = subset_clique_graph(8, 1)
    am = maximum_antimatching(g)
    assert (g.n, 2 * am.size) == (271, 16)
    assert len(compute_classes(g, am).classes) == 255
    t = build_dp(g, am)
    assert t.sigma == 942
    cert = extract_certificate(t)
    assert is_proper(g, cert) and coloring_weight(g, cert) == 942

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
    cert = extract_certificate(t)
    assert is_proper(g, cert)
    assert coloring_weight(g, cert) == t.sigma


def test_full_ground_absorbed_on_stable_sets():
    for n in (3, 5, 7, 9):
        g = build_graph(n, [], list(range(1, n + 1)))
        t = build_dp(g, maximum_antimatching(g))
        assert t.ground == tuple(range(n - 1))
        assert t.sigma == n == sigma_exact(g)


def test_every_reached_fresh_set_is_exact():
    rng = random.Random(89)
    for p in (0.1, 0.5, 0.9):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), p)
            t = build_dp(g, maximum_antimatching(g))
            assert t.fresh[0] == t.base
            for x, value in t.fresh.items():
                part, _ = induced_subgraph(g, [t.ground[j] for j in bits(x)])
                assert value == t.base + sigma_exact(part)
                if x:
                    s = t.fresh_parents[x]
                    members = [t.ground[j] for j in bits(s)]
                    assert s & ~x == 0 and is_stable(g, members)
                    assert value == t.fresh[x ^ s] + max(g.weights[v] for v in members)


@pytest.mark.parametrize("n", [14, 15, 20, 21])
def test_edgeless_even_ground_reaches_few_sets(n):
    # with even n no clique is left and the whole ground is one maximal
    # class; with odd n one clique vertex is blind to the whole ground, and
    # each piece it may take is a suffix of the ground, leaving a stable rest
    g = build_graph(n, [], [1] * n)
    am = maximum_antimatching(g)
    t = build_dp(g, am)
    assert len(am.residual_clique) == n % 2
    assert t.sigma == 1
    assert len(t.fresh) <= len(t.ground) + 1
    assert extract_certificate(t).classes == (tuple(range(n)),)


@st.composite
def joins(draw):
    """The join of random parts of at most 9 vertices each and a weighted
    clique, with at most 20 covered vertices; returns the graph and its
    sigma, the sum of the parts' exact sigmas and the clique's weight."""
    parts = []
    covered = 0
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 9))
        if covered + n // 2 * 2 > 20:
            break
        p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
        parts.append(random_graph(random.Random(draw(st.integers(0, 2**32))), n, p, 6))
        covered += n // 2 * 2
    size = draw(st.integers(0, 30))
    return _join_case(parts, draw(st.lists(st.integers(1, 6), min_size=size, max_size=size)))


def _join_case(parts, clique_weights):
    sigma = sum(sigma_exact(part) for part in parts) + sum(clique_weights)
    return join(*parts, complete_graph(len(clique_weights), clique_weights)), sigma


@settings(max_examples=150, deadline=None)
@given(joins())
@example(  # t = 20, d = 13
    _join_case(
        [random_graph(random.Random(s), n, p, 6) for s, n, p in ((3, 9, 0.2), (4, 9, 0.2), (5, 4, 0.0))],
        [3] * 10,
    )
)
def test_join_sigma_is_the_sum_of_its_parts(case):
    g, sigma = case
    t = build_dp(g, maximum_antimatching(g))
    assert t.sigma == sigma
    cert = extract_certificate(t)
    assert is_proper(g, cert) and coloring_weight(g, cert) == sigma
    for k in (g.weight_sum - sigma, g.weight_sum - sigma + 1):
        if k >= 1:
            assert solve_dual(DualInstance(g, k)).verdict == (sigma <= g.weight_sum - k)


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
