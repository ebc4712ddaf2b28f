"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The pair-count claim of
criterion 6 is asserted exactly as stated and is expected to fail on a
natural corpus (three pairwise disjoint intervals already beat it); see the
test for the boundary analysis.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from dwcolor import (
    ClaimViolation,
    build_graph,
    coloring_weight,
    decide_dual_oracle,
    is_proper,
    maximum_matching,
    sigma_exact,
)
from dwcolor.fpt import DualInstance, solve_dual
from dwcolor.kernel import (
    audit_claims,
    compute_classes,
    kernel_size_limit,
    kernelize,
)
from dwcolor.matching import maximum_antimatching
from dwcolor.instances import (
    SetCoverInstance,
    bench_instance,
    gen_tight_general,
    gen_tight_interval,
    interval_kernel_limit,
    maximal_cliques_ordered,
    reduce_setcover,
)
from conftest import (
    all_labeled_graphs,
    maximum_matching_bruteforce,
    random_graph,
    random_interval_instance,
    random_split_instance,
    setcover_bruteforce,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def kernel_corpus():
    """Criterion 3's instances with their kernelization traces."""
    rng = random.Random(0xC3)
    corpus = []
    for _ in range(500):
        n = rng.randint(3, 14)
        p = rng.choice([0.2, 0.4, 0.6, 0.8, 0.95])
        k = rng.randint(1, 6)
        g = random_graph(rng, n, p, wmax=4)
        corpus.append((DualInstance(g, k), kernelize(DualInstance(g, k))))
    return corpus


def _setcover_corpus():
    """Every set-cover instance with universe <= 4, at most 6 distinct
    non-empty sets, and budget in 1..universe."""
    for universe in range(1, 5):
        all_sets = [
            frozenset(c)
            for size in range(1, universe + 1)
            for c in itertools.combinations(range(universe), size)
        ]
        for fam_size in range(1, min(6, len(all_sets)) + 1):
            for family in itertools.combinations(all_sets, fam_size):
                for ell in range(1, universe + 1):
                    yield SetCoverInstance(universe, family, ell)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_oracle_agreement():
    rng = random.Random(0xC1)
    mismatches = 0
    checked = 0
    for g0 in all_labeled_graphs(5):
        for _ in range(3):
            weights = [rng.choice((1, 2, 3)) for _ in range(5)]
            g = build_graph(5, g0.edges(), weights)
            sigma = sigma_exact(g)
            total = g.weight_sum
            for k in range(1, total + 1):
                want = sigma <= total - k
                got = solve_dual(DualInstance(g, k)).verdict
                mismatches += want != got
                checked += 1
    _report(1, "solver agrees with oracle on all 5-vertex instances",
            mismatches == 0, f"{checked} decisions, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_2_sigma_exactness():
    rng = random.Random(0xC2)
    built = 0
    bad = 0
    while built < 500:
        n = rng.randint(4, 14)
        p = rng.choice([0.5, 0.65, 0.8, 0.9])
        g = random_graph(rng, n, p, wmax=4)
        am = maximum_antimatching(g)
        k = am.size + 1 + rng.randint(0, 2)
        if k >= g.weight_sum:
            continue
        built += 1
        ans = solve_dual(DualInstance(g, k))
        ok = (
            ans.sigma == sigma_exact(g)
            and ans.certificate is not None
            and is_proper(g, ans.certificate)
            and coloring_weight(g, ans.certificate) == ans.sigma
        )
        bad += not ok
    _report(2, "table sigma and certificate exact below the shortcut",
            bad == 0, f"500 instances, {bad} bad")
    assert bad == 0


def test_criterion_3_kernel_soundness(kernel_corpus):
    mismatches = 0
    for inst, trace in kernel_corpus:
        want = decide_dual_oracle(inst.graph, inst.k)
        if trace.verdict_shortcut is not None:
            got = trace.verdict_shortcut
        else:
            got = decide_dual_oracle(trace.reduced.graph, trace.reduced.k)
        mismatches += want != got
    _report(3, "reduction preserves the decision",
            mismatches == 0, f"{len(kernel_corpus)} instances, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_4_kernel_bound_exactness(kernel_corpus):
    over = 0
    for inst, trace in kernel_corpus:
        if trace.verdict_shortcut is None:
            over += trace.reduced.graph.n > kernel_size_limit(inst.k)
        else:
            over += trace.reduced.graph.n > 2
    sizes_ok = True
    fixpoints_ok = True
    wanted = {2: 3, 3: 10, 4: 27, 5: 68, 6: 165}
    for k, want in wanted.items():
        inst = gen_tight_general(k)
        sizes_ok &= inst.graph.n == want
        tr = kernelize(inst)
        fixpoints_ok &= (
            tr.verdict_shortcut is None
            and tr.log == ()
            and tr.reduced.graph == inst.graph
        )
    ok = over == 0 and sizes_ok and fixpoints_ok
    _report(4, "kernel size bound and extremal instances exact", ok,
            f"{over} oversized kernels; counts {'ok' if sizes_ok else 'BAD'}; "
            f"fixpoints {'ok' if fixpoints_ok else 'BAD'}")
    assert ok


def test_criterion_5_claim_audit(kernel_corpus):
    violations = 0
    audited = 0
    for _, trace in kernel_corpus:
        if trace.verdict_shortcut is not None:
            continue
        red = trace.reduced.graph
        if red.n == 0:
            continue
        audited += 1
        am = maximum_antimatching(red)
        try:
            part = compute_classes(red, am)
            report = audit_claims(red, am, part)
        except ClaimViolation:
            violations += 1
            continue
        if report.special_class_count > part.k_s:
            violations += 1
        elif report.normal_class_count > 2**part.k_n - 1:
            violations += 1
    _report(5, "class-structure audit clean on every reduced instance",
            violations == 0, f"{audited} audited, {violations} violations")
    assert violations == 0


def test_criterion_6_interval_bounds():
    rng = random.Random(0xC6)
    pair_claim_viol = 0
    pair_claim_example = None
    kernel_viol = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        k = rng.randint(2, 6)
        inst, rep = random_interval_instance(n, k, seed=rng.randrange(1 << 30))
        p = len(maximal_cliques_ordered(rep))
        am = maximum_antimatching(inst.graph)
        if p >= 2 and p > 2 * am.size:
            pair_claim_viol += 1
            if pair_claim_example is None:
                pair_claim_example = (rep.intervals, p, am.size)
        trace = kernelize(inst)
        if trace.verdict_shortcut is None:
            kernel_viol += trace.reduced.graph.n > interval_kernel_limit(k)

    counts_ok = True
    wanted = {2: 3, 3: 14, 4: 39, 5: 84}
    for k, want in wanted.items():
        inst, rep = gen_tight_interval(k)
        counts_ok &= inst.graph.n == want
        counts_ok &= len(maximal_cliques_ordered(rep)) == 2 * k - 2

    ok = pair_claim_viol == 0 and kernel_viol == 0 and counts_ok
    detail = (
        f"clique-count claim p<=2|M|: {pair_claim_viol}/300 violations"
        + (f", e.g. p={pair_claim_example[1]} with {pair_claim_example[2]} pairs"
           if pair_claim_example else "")
        + f"; cubic kernel bound: {kernel_viol} violations"
        + f"; generator counts {'ok' if counts_ok else 'BAD'}"
    )
    _report(6, "interval bounds as stated", ok, detail)
    # The p <= 2|M| conjunct is provably false: three pairwise disjoint
    # intervals form p=3 maximal cliques but admit only one disjoint
    # non-edge pair. The corrected inequality p <= 2|M|+1 (checked by
    # audit_interval_bounds) held on every instance above; the literal
    # claim is asserted here as specified and fails on natural corpora.
    assert ok


def test_criterion_7_split_bounds():
    rng = random.Random(0xC7)
    viol_power = 0
    viol_remark = 0
    for _ in range(300):
        d = rng.choice([2, 3])
        k = rng.randint(2, 6)
        inst, prof = random_split_instance(
            rng.randint(3, 10), rng.randint(2, 6), d, k, seed=rng.randrange(1 << 30)
        )
        trace = kernelize(inst)
        if trace.verdict_shortcut is not None:
            continue
        red = trace.reduced.graph
        viol_power += red.n > k ** max(d, 2)
        residual = len(maximum_antimatching(red).residual_clique)
        viol_remark += red.n > 2 * k - 2 + residual

    sc_checked = 0
    for sc in _setcover_corpus():
        inst = reduce_setcover(sc)
        d = max(2, max(len(s) for s in sc.family))
        trace = kernelize(inst)
        if trace.verdict_shortcut is not None:
            continue
        sc_checked += 1
        red = trace.reduced.graph
        viol_power += red.n > inst.k**d
        residual = len(maximum_antimatching(red).residual_clique)
        viol_remark += red.n > 2 * inst.k - 2 + residual

    ok = viol_power == 0 and viol_remark == 0
    _report(7, "split kernel bounds on random and reduction corpora", ok,
            f"power-bound violations {viol_power}, clique-remark violations "
            f"{viol_remark}, {sc_checked} reductions audited")
    assert ok


def test_criterion_8_reduction_equivalence():
    start = time.perf_counter()
    mismatches = 0
    count = 0
    for sc in _setcover_corpus():
        inst = reduce_setcover(sc)
        want = setcover_bruteforce(sc)
        got = decide_dual_oracle(inst.graph, inst.k)
        mismatches += want != got
        count += 1
    elapsed = time.perf_counter() - start
    _report(8, "set-cover reduction agrees with brute force",
            mismatches == 0,
            f"{count} instances exhaustively, {mismatches} mismatches, {elapsed:.0f}s")
    assert mismatches == 0
    assert count == 40185


def test_criterion_9_matching_correctness():
    mismatches = 0
    checked = 0
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            mismatches += len(maximum_matching(g)) != maximum_matching_bruteforce(g)
            checked += 1
    rng = random.Random(0xC9)
    for _ in range(1000):
        n = rng.randint(7, 10)
        g = random_graph(rng, n, rng.random(), wmax=1)
        mismatches += len(maximum_matching(g)) != maximum_matching_bruteforce(g)
        checked += 1
    _report(9, "matching equals exhaustive optimum",
            mismatches == 0, f"{checked} graphs, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_10_scaling_sanity():
    # growth in n at fixed parameter
    times = {}
    for n in (100, 200, 400):
        inst = bench_instance(n, 6, seed=0xC10)
        t = min(solve_dual(inst).stats.runtime_ms for _ in range(2))
        times[n] = max(t, 0.001)
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )

    # growth in the parameter at fixed n
    k_times = {}
    for k in range(2, 9):
        inst = bench_instance(200, k, seed=0xC10 + k)
        k_times[k] = solve_dual(inst).stats.runtime_ms
    ok = slope <= 3.5 and k_times[8] < 60_000
    _report(10, "runtime scaling sane", ok,
            f"n-slope {slope:.2f} (limit 3.5); k=8 at n=200 took "
            f"{k_times[8]:.0f}ms (limit 60000)")
    assert ok
