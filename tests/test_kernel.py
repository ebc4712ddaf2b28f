import hashlib
import random
from collections import Counter

import pytest

from dwcolor import (
    InstanceTooLarge,
    NonMaximalAntimatchingWitness,
    build_graph,
    decide_dual_oracle,
    is_universal,
)
import dwcolor.kernel as kernel
from dwcolor.fpt import DualInstance, build_dp
from dwcolor.graph import WeightedGraph, bits
from dwcolor.instances import bench_instance, gen_tight_general, random_instance
from dwcolor.kernel import (
    RULE_TRUNCATE,
    RULE_UNIVERSAL,
    RuleApplication,
    audit_claims,
    canonical_no_instance,
    canonical_yes_instance,
    MAX_BOUND_BITS,
    compute_classes,
    kernel_size_limit,
    kernelize,
    replay_log,
    truncate_classes,
)
from dwcolor.matching import Antimatching, maximum_antimatching
from dwcolor.oracle import sigma_exact
from conftest import complete_graph, cycle_graph, join, random_graph, star_graph


def test_canonical_instances_decide_as_named():
    for k in range(1, 5):
        y = canonical_yes_instance(k)
        assert decide_dual_oracle(y.graph, y.k)
        n = canonical_no_instance(k)
        assert not decide_dual_oracle(n.graph, n.k)


def test_universal_rule():
    kn = complete_graph(4, [2, 3, 4, 5])
    tr = kernelize(DualInstance(kn, 1))
    assert tr.log == (RuleApplication(RULE_UNIVERSAL, (0, 1, 2, 3)),)
    assert tr.verdict_shortcut is False
    star = star_graph(3)
    tr = kernelize(DualInstance(star, 2))
    assert tr.log == (RuleApplication(RULE_UNIVERSAL, (0,)),)
    assert tr.reduced.graph.n == 3 and tr.reduced.graph.m == 0
    c4 = cycle_graph(4)
    tr = kernelize(DualInstance(c4, 3))
    assert tr.log == () and tr.reduced.graph == c4


def test_kernelize_rebuilds_graph_once(monkeypatch):
    # one graph rebuild, however many vertices either rule deletes, also
    # when truncation deletes vertices; one application is a fixpoint
    calls = Counter()
    for name in (
        "induced_subgraph",
        "maximum_antimatching",
        "compute_classes",
        "truncate_classes",
    ):
        fn = getattr(kernel, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kernel, name, counting)
    for k, truncating in ((6, False), (3, True)):
        calls.clear()
        tr = kernelize(bench_instance(60, k, 1))
        universal = [v for app in tr.log if app.rule == RULE_UNIVERSAL for v in app.deleted]
        assert len(universal) > 1
        assert any(app.rule == RULE_TRUNCATE for app in tr.log) == truncating
        assert calls["maximum_antimatching"] == calls["compute_classes"] == 1
        assert calls["truncate_classes"] == calls["induced_subgraph"] == 1


def test_compute_classes_simple():
    # every vertex of K5 is universal, so it has no class
    k5 = complete_graph(5)
    part = compute_classes(k5, Antimatching((), 5))
    assert part.classes == ()
    assert part.k_s == part.k_n == 0

    # a triangle 1-2-3 with a pendant 0 at 1: 1 is universal and in no
    # class, 3 misses the covered 0 and forms a class seeing only 2
    paw = build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)], [1] * 4)
    am = maximum_antimatching(paw)
    assert am.pairs == ((0, 2),)
    part = compute_classes(paw, am)
    assert len(part.classes) == 1
    assert part.classes[0].vertices == (3,)
    assert part.classes[0].signature == 1 << 2
    assert not part.classes[0].special and (part.k_s, part.k_n) == (0, 1)


def test_compute_classes_detects_non_maximum():
    # two disjoint edges: the empty antimatching is far from maximum and the
    # "residual clique" is not a clique at all; feeding a single pair leaves
    # a 2-vertex class blind to it
    g = build_graph(
        6,
        [(0, 1), (2, 3), (4, 5), (0, 2), (0, 3), (1, 2), (1, 3)],
        [1] * 6,
    )
    am = Antimatching(((4, 5),), 6)  # actual maximum pairs more
    with pytest.raises(NonMaximalAntimatchingWitness):
        compute_classes(g, am)


def test_truncation_keeps_heaviest_with_id_ties():
    # clique of 5 true twins, all blind to 6 of the one non-edge pair (5, 6)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(i, 5) for i in range(5)]
    g = build_graph(7, edges, [1, 5, 4, 5, 2, 9, 9])
    am = Antimatching(((5, 6),), 7)
    part = compute_classes(g, am)
    assert len(part.classes) == 1 and len(part.classes[0].vertices) == 5
    assert part.classes[0].vertices == (1, 3, 2, 4, 0)
    red, deleted, kept = truncate_classes(g, am, part)
    # |M| = 1 keeps only the heaviest twin: weight 5, id 1 before id 3
    assert deleted == (0, 2, 3, 4)
    assert red.n == 3 and kept == (1, 5, 6)


def test_kernelize_clique_k1():
    tr = kernelize(DualInstance(complete_graph(5), 1))
    assert tr.verdict_shortcut is False
    assert tr.reduced.graph.n == 1 and tr.reduced.graph.weights == (1,)
    assert tr.vertex_map is None


def test_kernelize_edgeless_yes():
    g = build_graph(6, [], [1] * 6)
    tr = kernelize(DualInstance(g, 3))
    assert tr.verdict_shortcut is True
    assert tr.reduced.graph.n == 2
    assert decide_dual_oracle(tr.reduced.graph, tr.reduced.k)


def test_kernel_limit_values():
    assert [kernel_size_limit(k) for k in range(2, 7)] == [3, 10, 27, 68, 165]
    # below the cap the bound is exact and prints; above it nothing is built
    widest = kernel_size_limit(MAX_BOUND_BITS - 12)
    assert widest.bit_length() <= MAX_BOUND_BITS and len(str(widest)) < 4300
    for k in (MAX_BOUND_BITS, 100_000, 10**23):
        with pytest.raises(InstanceTooLarge):
            kernel_size_limit(k)


def test_kernelize_properties_random():
    rng = random.Random(97)
    for _ in range(120):
        n = rng.randint(3, 11)
        g = random_graph(rng, n, rng.choice([0.3, 0.55, 0.8, 0.95]))
        k = rng.randint(1, 6)
        inst = DualInstance(g, k)
        tr = kernelize(inst)
        assert decide_dual_oracle(tr.reduced.graph, k) == decide_dual_oracle(g, k)
        if tr.verdict_shortcut is None:
            red = tr.reduced.graph
            # replay, bookkeeping, mapping
            assert replay_log(g, tr.log) == red
            deleted = [v for app in tr.log for v in app.deleted]
            assert sorted(deleted + list(tr.vertex_map)) == list(range(n))
            assert red.weight_sum == g.weight_sum - sum(g.weights[v] for v in deleted)
            for new, old in enumerate(tr.vertex_map):
                assert red.weights[new] == g.weights[old]
            # structural guarantees
            assert not any(is_universal(red, v) for v in range(red.n))
            assert red.n <= kernel_size_limit(k)
            am = maximum_antimatching(red)
            assert am.size < k
            part = compute_classes(red, am)
            assert max((len(c.vertices) for c in part.classes), default=0) <= am.size
            audit_claims(red, am, part)
            # idempotence
            tr2 = kernelize(tr.reduced)
            assert tr2.verdict_shortcut is None and tr2.log == ()
            assert tr2.reduced.graph == red
        else:
            assert tr.verdict_shortcut == decide_dual_oracle(g, k)


def _twin_clique_graph(rng: random.Random) -> WeightedGraph:
    """A random core plus a clique of twin groups, each group missing one
    random set of core vertices: classes can outgrow |M| and be truncated."""
    c = rng.randint(2, 5)
    core = random_graph(rng, c, rng.choice([0.2, 0.5, 0.8]))
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
    n = c + sum(sizes)
    missing = [((1 << c) - 1) ^ a ^ (1 << u) for u, a in enumerate(core.adjacency)]
    missing += [0] * (n - c)
    start = c
    for size in sizes:
        miss = rng.getrandbits(c)
        for v in range(start, start + size):
            missing[v] = miss
            for u in bits(miss):
                missing[u] |= 1 << v
        start += size
    full = (1 << n) - 1
    adj = tuple(full ^ (m | 1 << u) for u, m in enumerate(missing))
    return WeightedGraph(n, adj, tuple(rng.randint(1, 6) for _ in range(n)))


def test_table_reads_exactly_the_kernel():
    # the kernel loses nothing the table uses: its sigma plus the deleted
    # weight is sigma, and every clique vertex the table lets absorb is kept
    rng = random.Random(28)
    truncated = universal = 0
    for i in range(600):
        family = i % 3
        if family == 0:
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.3, 0.6, 0.85, 0.95]))
        elif family == 1:
            g = _twin_clique_graph(rng)
        else:
            clique = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
            part = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.5]))
            g = join(part, complete_graph(len(clique), clique))
        am = maximum_antimatching(g)
        if am.size == 0:
            continue
        tr = kernelize(DualInstance(g, am.size + 1))
        assert tr.verdict_shortcut is None
        deleted = [v for app in tr.log for v in app.deleted]
        truncated += any(app.rule == RULE_TRUNCATE for app in tr.log)
        universal += any(app.rule == RULE_UNIVERSAL for app in tr.log)
        weight = sum(g.weights[v] for v in deleted)
        assert sigma_exact(g) == sigma_exact(tr.reduced.graph) + weight
        assert set(build_dp(g, am).taken) <= set(tr.vertex_map)
    assert truncated >= 40 and universal >= 300


def test_audit_counts_on_structured_instance():
    # one special pair: a lone vertex blind to it, all other classes see both
    g = build_graph(
        5,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)],
        [1] * 5,
    )
    am = maximum_antimatching(g)
    assert am.size == 2
    part = compute_classes(g, am)
    report = audit_claims(g, am, part)
    assert report.class_count == 1
    assert report.special_class_count == 0 and part.k_s == 0
    assert report.normal_class_count == 1 <= 2 ** part.k_n - 1


# sha256 of repr(KernelTrace) from kernelize, which spells out every field
# (reduced graph and k, log, vertex_map, verdict_shortcut, claims,
# antimatching_size); pinned so that a change to how rows are relabelled
# cannot change a kernel
_PINNED_KERNELS = [
    ("bench", (60, 3, 1), "f359ae9bb4beaa313aaea9cda96ad0fddf5409312053e0c5c2700b447358e4e3"),
    ("bench", (60, 6, 1), "df9c5d37608d33a2ca5490a2db427c6a7d70790edc97b19d643b25be3efda681"),
    ("bench", (200, 6, 2), "19fc9bfd4d264f89699a0b134e3232b9e9a5d303dcaafcc7ce9963b6550a95f1"),
    ("bench", (200, 8, 1), "e28bf293e26b1441ce6e67ce05655622570bb8b17e781f012f203eb1e855853d"),
    ("bench", (800, 6, 1), "57bb0e27f6dade2a407f9ed9d7520f84c472ac4031fd09400ebe4b88013ac855"),
    ("tight", (4,), "8c1a92987893a1787d66fa316dc34fbff61164eeb3449ceed34447c10e7d8bec"),
    ("random", (40, 0.9, 3, 1), "f3dcb35c80932699343ac0b7bff94e790a845aad52c6b834bc871c19c7214efb"),
]
_MAKERS = {"bench": bench_instance, "random": random_instance, "tight": gen_tight_general}


@pytest.mark.parametrize("kind,args,digest", _PINNED_KERNELS)
def test_kernel_traces_are_pinned(kind, args, digest):
    tr = kernelize(_MAKERS[kind](*args))
    assert hashlib.sha256(repr(tr).encode()).hexdigest() == digest
