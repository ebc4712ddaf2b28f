import hashlib
import itertools
import random

import pytest

from dwcolor import (
    ClaimViolation,
    InstanceTooLarge,
    InvalidInterval,
    MalformedInstance,
    PreconditionViolated,
    TrivialBudget,
    build_graph,
    decide_dual_oracle,
    is_clique,
    is_stable,
    sigma_exact,
)
from dwcolor.formats import parse_dwc, serialize_dwc
from dwcolor.fpt import DualInstance
from dwcolor.kernel import audit_claims, compute_classes, kernel_size_limit, kernelize
from dwcolor.matching import maximum_antimatching
from dwcolor.instances import (
    MAX_GENERATED_N,
    IntervalRepresentation,
    SetCoverInstance,
    audit_interval_bounds,
    audit_split_bounds,
    bench_instance,
    gen_tight_general,
    gen_tight_interval,
    intervals_to_graph,
    interval_kernel_limit,
    maximal_cliques_ordered,
    random_instance,
    random_interval_instance,
    random_split_instance,
    reduce_setcover,
    setcover_bruteforce,
    split_partition,
    vertex_clique_spans,
)
from conftest import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)


# ---- split recognition ----


def test_split_examples():
    prof = split_partition(path_graph(3))
    assert prof.clique == (0, 1) and prof.stable == (2,) and prof.d == 1
    assert split_partition(cycle_graph(4)) is None
    assert split_partition(cycle_graph(5)) is None
    assert split_partition(complete_graph(4)).stable == ()


def _split_bruteforce(g):
    for r in range(g.n, -1, -1):
        for ks in itertools.combinations(range(g.n), r):
            rest = [v for v in range(g.n) if v not in ks]
            if is_clique(g, ks) and is_stable(g, rest):
                return ks
    return None


def test_split_recognition_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            want = _split_bruteforce(g)
            got = split_partition(g)
            assert (want is None) == (got is None)
            if got is not None:
                assert len(got.clique) == len(want)


def test_split_recognition_random_n10():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, 10, rng.random())
        want = _split_bruteforce(g)
        got = split_partition(g)
        assert (want is None) == (got is None)
        if got is not None:
            assert is_clique(g, got.clique) and is_stable(g, got.stable)
            assert len(got.clique) == len(want)


# ---- intervals ----


def test_intervals_to_graph():
    rep = IntervalRepresentation(((0, 1), (5, 6), (10, 11)), (1, 1, 1))
    assert intervals_to_graph(rep).m == 0
    nested = IntervalRepresentation(((0, 10), (1, 9), (2, 8)), (1, 1, 1))
    assert intervals_to_graph(nested).m == 3
    p3 = IntervalRepresentation(((1, 3), (2, 5), (4, 6)), (1, 2, 1))
    assert intervals_to_graph(p3).edges() == [(0, 1), (1, 2)]
    with pytest.raises(InvalidInterval):
        IntervalRepresentation(((3, 2),), (1,))


def test_maximal_cliques_ordered():
    singles = IntervalRepresentation(((0, 0), (2, 2), (4, 4)), (1, 1, 1))
    assert maximal_cliques_ordered(singles) == ((0,), (1,), (2,))
    nested = IntervalRepresentation(((0, 9), (1, 8), (2, 7), (3, 6)), (1,) * 4)
    assert maximal_cliques_ordered(nested) == ((0, 1, 2, 3),)
    rep = IntervalRepresentation(((1, 3), (2, 5), (4, 6)), (1, 1, 1))
    assert maximal_cliques_ordered(rep) == ((0, 1), (1, 2))


def test_spans_contiguous_on_random_instances():
    rng = random.Random(103)
    for _ in range(80):
        inst, rep = random_interval_instance(rng.randint(1, 12), 2, seed=rng.randrange(1 << 30))
        cliques = maximal_cliques_ordered(rep)
        spans = vertex_clique_spans(cliques, rep.n)  # raises if non-contiguous
        # cliques must be cliques, maximal, and pairwise incomparable
        g = inst.graph
        for i, c in enumerate(cliques):
            assert is_clique(g, c)
            for j in range(i + 1, len(cliques)):
                assert not set(c) <= set(cliques[j])
                assert not set(cliques[j]) <= set(c)
        for v in range(rep.n):
            lo, hi = spans[v]
            assert all(v in cliques[i] for i in range(lo, hi + 1))


# ---- set cover ----


def test_setcover_validation():
    with pytest.raises(MalformedInstance):
        SetCoverInstance(2, (), 1)
    with pytest.raises(MalformedInstance):
        SetCoverInstance(2, (frozenset(),), 1)
    with pytest.raises(MalformedInstance):
        SetCoverInstance(2, (frozenset({5}),), 1)
    with pytest.raises(MalformedInstance):
        SetCoverInstance(2, (frozenset({0}),), 0)


def test_setcover_bruteforce():
    f = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    assert setcover_bruteforce(SetCoverInstance(2, f, 1))
    assert not setcover_bruteforce(SetCoverInstance(2, f[:2], 1))
    assert setcover_bruteforce(
        SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2})), 2)
    )
    with pytest.raises(InstanceTooLarge):
        setcover_bruteforce(SetCoverInstance(1, (frozenset({0}),) * 25, 1))


def test_reduce_setcover_examples():
    f = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    inst = reduce_setcover(SetCoverInstance(2, f, 1))
    assert inst.k == 3 and inst.graph.weight_sum == 7
    assert sigma_exact(inst.graph) == 4
    assert decide_dual_oracle(inst.graph, 3)

    inst2 = reduce_setcover(SetCoverInstance(2, f[:2], 1))
    assert inst2.k == 3 and inst2.graph.weight_sum == 6
    assert sigma_exact(inst2.graph) == 4
    assert not decide_dual_oracle(inst2.graph, 3)

    with pytest.raises(TrivialBudget):
        reduce_setcover(SetCoverInstance(2, f, 3))


def test_reduce_setcover_structure():
    sc = SetCoverInstance(3, (frozenset({0, 1}), frozenset({2}), frozenset({0})), 2)
    inst = reduce_setcover(sc)
    g = inst.graph
    ns = len(sc.family)
    assert is_clique(g, range(ns))
    assert is_stable(g, range(ns, g.n))
    for i, s in enumerate(sc.family):
        non_nbrs = [e for e in range(sc.universe) if not g.has_edge(i, ns + e)]
        assert non_nbrs == sorted(s)  # non-neighbors on the stable side = set contents
    assert set(g.weights[:ns]) == {sc.budget}
    assert set(g.weights[ns:]) == {sc.budget + 1}


def test_reduce_setcover_equivalence_sample():
    rng = random.Random(107)
    for _ in range(80):
        universe = rng.randint(1, 4)
        all_sets = [
            frozenset(s)
            for size in range(1, universe + 1)
            for s in itertools.combinations(range(universe), size)
        ]
        family = tuple(rng.sample(all_sets, rng.randint(1, min(5, len(all_sets)))))
        ell = rng.randint(1, universe)
        sc = SetCoverInstance(universe, family, ell)
        inst = reduce_setcover(sc)
        assert setcover_bruteforce(sc) == decide_dual_oracle(inst.graph, inst.k)


# ---- extremal constructions ----


def test_tight_general_counts_and_fixpoint():
    for k, want in [(2, 3), (3, 10), (4, 27), (5, 68)]:
        inst = gen_tight_general(k)
        assert inst.graph.n == want
        tr = kernelize(inst)
        assert tr.verdict_shortcut is None and tr.log == ()
        assert tr.reduced.graph == inst.graph
    with pytest.raises(PreconditionViolated):
        gen_tight_general(1)


def test_tight_general_class_structure():
    inst = gen_tight_general(3)
    am = maximum_antimatching(inst.graph)
    assert am.size == 2
    part = compute_classes(inst.graph, am)
    report = audit_claims(inst.graph, am, part)
    assert report.normal_class_count == 3 == 2 ** part.k_n - 1
    assert report.special_class_count == 0


def test_tight_interval_counts():
    for k, want in [(2, 3), (3, 14), (4, 39), (5, 84)]:
        inst, rep = gen_tight_interval(k)
        assert inst.graph.n == want == interval_kernel_limit(k)
        assert len(maximal_cliques_ordered(rep)) == 2 * k - 2
    with pytest.raises(PreconditionViolated):
        gen_tight_interval(1)


def test_tight_interval_k2_is_fixpoint():
    inst, _ = gen_tight_interval(2)
    am = maximum_antimatching(inst.graph)
    assert am.size == 1
    tr = kernelize(inst)
    assert tr.verdict_shortcut is None and tr.log == ()


def test_tight_interval_large_k_resolves_by_pair_merging():
    # the designated k-1 exclusive pairs are not a maximum antimatching here:
    # leftover exclusive vertices pair with spans avoiding them, reaching k
    # disjoint non-edges, so reduction answers yes outright
    inst, _ = gen_tight_interval(3)
    am = maximum_antimatching(inst.graph)
    assert am.size >= 3
    tr = kernelize(inst)
    assert tr.verdict_shortcut is True
    assert decide_dual_oracle(inst.graph, inst.k)


# ---- audits ----


def test_interval_audit_random():
    rng = random.Random(109)
    for _ in range(60):
        inst, rep = random_interval_instance(
            rng.randint(1, 12), rng.randint(2, 5), seed=rng.randrange(1 << 30)
        )
        report = audit_interval_bounds(inst, rep)
        if report.p >= 2:
            assert report.p <= 2 * report.antimatching_size + (report.p & 1)
        if not report.shortcut:
            assert report.kernel_size <= interval_kernel_limit(inst.k)


def test_interval_audit_reads_the_kernel_antimatching(monkeypatch):
    # kernelize's antimatching of the universal-free graph has the size of
    # the original graph's (universal vertices are isolated in the
    # complement), so the audit computes no second one
    import dwcolor.instances as instances
    import dwcolor.kernel as kernel

    calls = []

    def counting(g):
        calls.append(g.n)
        return maximum_antimatching(g)

    monkeypatch.setattr(kernel, "maximum_antimatching", counting)
    monkeypatch.setattr(instances, "maximum_antimatching", counting)
    rng = random.Random(61)
    for _ in range(40):
        inst, rep = random_interval_instance(
            rng.randint(1, 12), rng.randint(2, 5), seed=rng.randrange(1 << 30), span=12
        )
        calls.clear()
        report = audit_interval_bounds(inst, rep)
        assert len(calls) == 1
        assert report.antimatching_size == maximum_antimatching(inst.graph).size
        assert kernelize(inst).antimatching_size == report.antimatching_size


def test_clique_count_parity_boundary():
    # three pairwise disjoint intervals: 3 maximal cliques but only one
    # disjoint non-edge pair fits on 3 vertices, so the even-p inequality
    # p <= 2|M| fails while the parity-aware one is tight
    rep = IntervalRepresentation(((0, 0), (2, 2), (4, 4)), (1, 1, 1))
    g = intervals_to_graph(rep)
    assert len(maximal_cliques_ordered(rep)) == 3
    assert maximum_antimatching(g).size == 1
    audit_interval_bounds(DualInstance(g, 2), rep)  # must not raise


def test_interval_audit_rejects_foreign_representation():
    inst, _ = random_interval_instance(6, 2, seed=5)
    other = IntervalRepresentation(((0, 0),) * 6, (1,) * 6)
    with pytest.raises(PreconditionViolated):
        audit_interval_bounds(inst, other)


def test_split_audit_random():
    rng = random.Random(113)
    for _ in range(60):
        d = rng.choice([2, 3])
        inst, prof = random_split_instance(
            rng.randint(3, 9), rng.randint(2, 6), d, rng.randint(2, 6),
            seed=rng.randrange(1 << 30),
        )
        recognized = split_partition(inst.graph)
        assert recognized is not None
        for profile in (prof, recognized):
            report = audit_split_bounds(inst, profile)
            if not report.shortcut:
                assert report.kernel_size <= report.kernel_limit
                assert report.kernel_size <= report.remark_limit


def test_split_kernel_bound_audit_failure_path():
    # an irreducible split instance can carry one size-(k-1) class per
    # non-empty subset of the two stable vertices, beating k**d at k=3, d=2;
    # the audit must flag exactly that bound
    n = 10
    miss = {2: {0}, 3: {1}, 4: {0}, 5: {0}, 6: {1}, 7: {1}, 8: {0, 1}, 9: {0, 1}}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if not (u in (0, 1) and v in (0, 1)) and not (v in miss and u in miss[v])
    ]
    g = build_graph(n, edges, [1] * n)
    inst = DualInstance(g, 3)
    prof = split_partition(g)
    assert prof is not None and prof.d == 2
    tr = kernelize(inst)
    assert tr.verdict_shortcut is None and tr.reduced.graph.n == 10
    with pytest.raises(ClaimViolation) as exc:
        audit_split_bounds(inst, prof)
    assert exc.value.check == "split_kernel"


def test_setcover_reductions_satisfy_split_audit():
    rng = random.Random(127)
    for _ in range(40):
        universe = rng.randint(2, 4)
        all_sets = [
            frozenset(s)
            for size in range(1, universe + 1)
            for s in itertools.combinations(range(universe), size)
        ]
        family = tuple(rng.sample(all_sets, rng.randint(1, min(6, len(all_sets)))))
        sc = SetCoverInstance(universe, family, rng.randint(1, universe))
        inst = reduce_setcover(sc)
        prof = split_partition(inst.graph)
        assert prof is not None
        audit_split_bounds(inst, prof)


# ---- bench instances ----


def test_bench_instance_antimatching_is_pinned():
    for k in (2, 4, 6):
        inst = bench_instance(40, k, seed=5)
        assert maximum_antimatching(inst.graph).size == k - 1


def test_bench_instance_deterministic():
    a = bench_instance(30, 4, seed=9)
    b = bench_instance(30, 4, seed=9)
    assert a.graph == b.graph and a.k == b.k


# sha256 of serialize_dwc's bytes, recorded from the edge-list generators; a
# change to the order of the rng calls, the graph or the text changes them
SEEDED_DIGESTS = [
    ("bench", (60, 3, 1), "e35cbdf505d63759e42c1fd98422edf7e4ab367520ea35ea47c19c5da586b0ce"),
    ("bench", (200, 8, 1), "4eb292f60dcce52554155b7cfa99a24bbfd16d6400b80d621fc9ac66ec66c02f"),
    ("bench", (400, 5, 2), "c5c4279dd6667c0fb63ce2410b791b1dbc6594280142d74cb98faae3fa331952"),
    ("random", (0, 0.5, 1, 1), "8f611d2917c75d48e3824cf271b3e33892cdb9f6258c4016d05bb8e26098e0db"),
    ("random", (1, 1.0, 1, 1), "7ad6ef59636adf9e8138ab95ab7dfe9b875acafdf4ee618f0c4fa61ac5a37624"),
    ("random", (1, 0.0, 2, 4), "ef965233564695fbe253e2a63f04dfd6ad8cded6392ec6350e0e747524e5056c"),
    ("random", (12, 0.0, 2, 3), "091e409fbb6b40ed90bf25194482e6405ed20aa6835b84d39df6c5fdae49c8b4"),
    ("random", (30, 0.5, 3, 1), "d719a6ced174845a3ff27d57d6f964a9a39017f0b7d202aed90ab68e6369c8ac"),
    ("random", (40, 0.98, 4, 2), "433cbd2828fe672a70d76f8317324da65545f7a8caa4a2c32acb3c96be46d360"),
    ("random", (25, 1.0, 2, 5), "31700cbd01e070d7915aa81a476eba77c4f58392b3a73962736f9a9bddd55d53"),
    ("random", (120, 0.98, 5, 9), "8c39723d91f80863c040a4e0b7693f0e4def71c3262b5adcb08d4e4f308a5897"),
    ("random", (17, 0.5, 2, 8, 9), "48fd87cd2d9b9c97c8f8620b1c30d9f2d8652a4ac8686f12664649f784fac567"),
]


@pytest.mark.parametrize("kind,args,digest", SEEDED_DIGESTS)
def test_seeded_generators_are_pinned(kind, args, digest):
    inst = (bench_instance if kind == "bench" else random_instance)(*args)
    text = serialize_dwc(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the generators fill the adjacency rows directly; rebuilding from the
    # edge list rejects loops and checks that every row is symmetric
    g = inst.graph
    assert build_graph(g.n, g.edges(), g.weights) == g
    assert parse_dwc(text) == inst


# ---- generator arguments ----


def test_generator_arguments_are_range_checked():
    bad = [
        lambda: random_instance(-1, 0.5, 1, 0),
        lambda: random_instance(5, 1.5, 1, 0),
        lambda: random_instance(5, float("nan"), 1, 0),
        lambda: random_instance(5, 0.5, 0, 0),
        lambda: random_instance(5, 0.5, 1, 0, wmax=0),
        lambda: random_split_instance(3, -1, 1, 1, 0),
        lambda: random_split_instance(3, 3, 1, 1, 0, wmax=0),
        lambda: random_interval_instance(4, 1, 0, max_len=-1),
        lambda: random_interval_instance(4, 0, 0),
        lambda: bench_instance(10, 2, 0, wmax=0),
    ]
    for make in bad:
        with pytest.raises(PreconditionViolated):
            make()
    assert random_instance(0, 0.0, 1, 0).graph.n == 0
    assert random_instance(3, 1.0, 1, 0, wmax=1).graph.m == 3


def test_generators_capped_before_building():
    assert kernel_size_limit(8) <= MAX_GENERATED_N < kernel_size_limit(9)
    for k in (9, 40, 10**12):
        with pytest.raises(InstanceTooLarge):
            gen_tight_general(k)
    assert interval_kernel_limit(13) <= MAX_GENERATED_N < interval_kernel_limit(14)
    with pytest.raises(InstanceTooLarge):
        gen_tight_interval(14)
    with pytest.raises(InstanceTooLarge):
        random_instance(MAX_GENERATED_N + 1, 0.5, 1, 0)
