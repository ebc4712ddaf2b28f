"""dwcolor benchmark: drive the CLI in-process on one seeded workload.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` only.
One thread sends one request at a time (a closed loop): ``dwcolor.cli.main``
is called with an argument list and its stdout is captured. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` first runs
half the time untraced, then the same cycles again with spans around every
layer, and reports the per-layer metrics. Reported times are scaled to a
fixed machine speed (see speed.py); the raw wall-clock figures are printed
too. Human-readable lines come first; the last line of stdout is the JSON
result. Every response is checked after the timed loop (see checks.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from spans import SPAN_NAMES, Tracer
from speed import reference_s, scales

ROOT = Path(__file__).resolve().parent.parent
GENERATIONS = 3  # set-up is repeated; setup_s uses the median generation
MIN_PER_KIND = 100  # p90 needs ten samples above it
SEGMENT_S = 1.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Record(NamedTuple):
    req: object  # workloads.Request
    rc: int | None  # exit code; None when an exception escaped
    out: str
    seconds: float
    segment: int  # index of the time segment between two speed references


@dataclass
class Loop:
    records: list[Record]
    segment_s: list[float]  # wall time of each segment
    scale: list[float]  # per segment: REFERENCE_S / reference time around it
    cycles: int

    def scaled_ms(self, kinds) -> list[float]:
        return [r.seconds * self.scale[r.segment] * 1000.0 for r in self.records if r.req.kind in kinds]

    def raw_ms(self, kinds) -> list[float]:
        return [r.seconds * 1000.0 for r in self.records if r.req.kind in kinds]

    @property
    def requests_per_s(self) -> float:
        return len(self.records) / sum(s * f for s, f in zip(self.segment_s, self.scale))

    @property
    def raw_requests_per_s(self) -> float:
        return len(self.records) / sum(self.segment_s)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    bad = [m["name"] for m in metrics if not (NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]))]
    if bad or len(set(names)) != len(names):
        raise SystemExit(f"error: invalid or repeated metric names or units in BENCHMARK.json: {bad}")
    return spec


def import_package():
    """Import dwcolor from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dwcolor.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dwcolor from {src}: {exc}") from None
    if src not in Path(dwcolor.cli.__file__).resolve().parents:
        raise SystemExit(f"error: dwcolor was imported from {dwcolor.cli.__file__}, not {src}")
    return dwcolor


def drive(cli, orders, *, seconds: float, min_per_kind: int = 0, cycles: int | None = None,
          tracer=None) -> Loop:
    """Send whole cycles until ``seconds`` have passed and every kind has
    ``min_per_kind`` samples (or exactly ``cycles`` cycles). The machine's
    speed is sampled about every SEGMENT_S seconds, between requests."""
    records: list[Record] = []
    segment_s: list[float] = []
    refs = [reference_s()]
    per_kind: Counter[str] = Counter()
    done = 0
    start = segment_start = perf_counter()
    for order in orders:
        for req in order:
            buf = io.StringIO()
            if tracer is not None:
                tracer.request = len(records)
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                try:
                    rc = cli.main(req.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    rc = None
                    traceback.print_exc()
                t1 = perf_counter()
            records.append(Record(req, rc, buf.getvalue(), t1 - t0, len(segment_s)))
            per_kind[req.kind] += 1
            if t1 - segment_start >= SEGMENT_S:
                segment_s.append(perf_counter() - segment_start)
                refs.append(reference_s())
                segment_start = perf_counter()
        done += 1
        elapsed = perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif (elapsed >= seconds and min(per_kind.values()) >= min_per_kind) or elapsed >= 3 * seconds:
            break
    if records[-1].segment == len(segment_s):
        segment_s.append(perf_counter() - segment_start)
        refs.append(reference_s())
    return Loop(records, segment_s, scales(refs), done)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def answers(records: list[Record], passed: set[int]):
    """(record, parsed JSON) for every response that passed its checks."""
    return [(r, json.loads(r.out)) for r in records if id(r) in passed]


def input_properties(pool, parsed, branch) -> dict:
    """Per request kind: min / median / max of n, m, bytes, t = 2|M| and |K|
    over the pool files, and the shares of solve answers per fpt branch and
    of yes answers."""
    first = {}
    for r, d in parsed:
        first.setdefault(r.req.index, d)
    props = {}
    for kind in dict.fromkeys(req.kind for req in pool):
        reqs = [req for req in pool if req.kind == kind]
        cols = {
            "n": [req.inst.graph.n for req in reqs],
            "m": [req.inst.graph.m for req in reqs],
            "bytes": [req.nbytes for req in reqs],
        }
        if kind != "kernelize":
            solved = [first[req.index] for req in reqs if req.index in first]
            cols["t"] = [2 * (d["stats"].get("antimatching_size") or 0) for d in solved]
            cols["K"] = [d["stats"].get("clique_size") or 0 for d in solved]
        entry: dict = {c: [min(v), statistics.median(v), max(v)] for c, v in cols.items() if v}
        entry["files"] = len(reqs)
        kinds = [d for r, d in parsed if r.req.kind == kind]
        if kind != "kernelize" and kinds:
            shares = Counter(branch(d) for d in kinds)
            entry["branch_share"] = {b: shares[b] / len(kinds) for b in ("table", "shortcut", "trivial")}
            entry["yes_share"] = sum(d["answer"] == "yes" for d in kinds) / len(kinds)
        props[kind] = entry
    return props


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    solve = loop.scaled_ms(("solve", "crosscheck"))
    return {
        "setup_s": setup_s,
        "requests_per_s": loop.requests_per_s,
        "solve_ms.p50": statistics.median(solve),
        "solve_ms.p90": quantile(solve, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Loop, untraced: Loop, parsed, build_dp, branch) -> dict[str, float]:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n = len(traced.records)
    rows, rounds = tracer.summary([traced.scale[r.segment] for r in traced.records])
    values: dict[str, float] = {}
    layer_self: Counter[str] = Counter()
    for name in SPAN_NAMES:
        calls, busy, self_s = rows.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.busy_ms"] = busy * 1000.0 / n
        values[f"{name}.self_ms"] = self_s * 1000.0 / n
        layer_self[name.split(".")[0]] += self_s * 1000.0 / n
    for layer, ms in layer_self.items():
        values[f"{layer}.self_ms"] = ms
    counts = tracer.counts
    parse_s = rows.get("formats.parse_dwc", (0, 0.0))[1]
    dp_calls, dp_s = rows.get("fpt.build_dp", (0, 0.0))[:2]
    sigma_calls, sigma_s = rows.get("oracle.sigma_exact", (0, 0.0))[:2]
    values["graph.is_universal.calls"] = counts["graph.is_universal"] / n
    values["formats.parse_mb_per_s"] = ratio(counts["formats.parse_dwc.bytes"] / 2**20, parse_s)
    values["fpt.build_dp.peak_alloc_mb"] = tracer.build_dp_peak_mb(build_dp)
    values["fpt.submask_bound"] = ratio(counts["fpt.submask_bound"], dp_calls)
    values["fpt.ns_per_submask"] = ratio(dp_s * 1e9, counts["fpt.submask_bound"])
    values["fpt.active_layer_share"] = ratio(counts["fpt.active_layers"], counts["fpt.clique_layers"])
    values["oracle.submask_bound"] = ratio(counts["oracle.submask_bound"], sigma_calls)
    values["oracle.ns_per_submask"] = ratio(sigma_s * 1e9, counts["oracle.submask_bound"])

    branches: Counter[str] = Counter()
    deleted: Counter[str] = Counter()
    kernelized = kept = original = 0
    for r, d in parsed:
        if r.req.kind == "kernelize":
            kernelized += 1
            kept += d["reduced"]["n"]
            original += r.req.inst.graph.n
            for app in d["log"]:
                deleted[app["rule"]] += len(app["deleted"])
        else:
            branches[branch(d)] += 1
    solves = sum(branches.values())
    for b in ("table", "shortcut", "trivial"):
        values[f"fpt.branch_{b}"] = ratio(branches[b], solves)
    values["kernel.rounds"] = ratio(rounds, kernelized)
    values["kernel.deleted_universal"] = ratio(deleted["delete_universal"], kernelized)
    values["kernel.deleted_truncate"] = ratio(deleted["truncate_class"], kernelized)
    values["kernel.kept_ratio"] = ratio(kept, original)
    values["trace.overhead_ratio"] = traced.requests_per_s / untraced.requests_per_s
    values["trace.self_sum_ratio"] = ratio(sum(layer_self.values()), values["cli.main.busy_ms"])
    return values


def warm_up(cli, pool) -> None:
    """One request per kind on its smallest file (by k, then bytes), output
    discarded."""
    for kind in dict.fromkeys(req.kind for req in pool):
        req = min((r for r in pool if r.kind == kind), key=lambda r: (r.inst.k, r.nbytes))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(req.argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "wide", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()

    t0 = perf_counter()
    dwcolor = import_package()
    import_s = perf_counter() - t0
    # the benchmark's own modules import the package, so they come after it
    from checks import Checker, branch
    from workloads import cycle_orders, write_pool

    cli = dwcolor.cli
    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        # every set-up step is scaled by the speed references taken around it
        refs = [reference_s()]
        gen_s, digests = [], set()
        for _ in range(GENERATIONS):
            t = perf_counter()
            pool, digest = write_pool(args.workload, args.seed, Path(tmp))
            gen_s.append(perf_counter() - t)
            digests.add(digest)
            refs.append(reference_s())
        t = perf_counter()
        warm_up(cli, pool)
        warm_s = perf_counter() - t
        refs.append(reference_s())
        scale = scales(refs)
        raw_setup_s = import_s + statistics.median(gen_s) + warm_s
        setup_s = (
            import_s * scale[0]
            + statistics.median(g * f for g, f in zip(gen_s, scale))
            + warm_s * scale[-1]
        )

        def orders():
            return cycle_orders(pool, args.workload, args.seed)

        if args.trace:
            untraced = drive(cli, orders(), seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install({"cli": cli, "formats": dwcolor.formats, "fpt": dwcolor.fpt,
                            "kernel": dwcolor.kernel})
            try:
                traced = drive(cli, orders(), seconds=0, cycles=untraced.cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            loops = [untraced, traced]
        else:
            loops = [drive(cli, orders(), seconds=args.seconds, min_per_kind=MIN_PER_KIND)]

    records = [r for lp in loops for r in lp.records]
    checker = Checker()
    passed = {id(r) for r in records if checker.check(r.req, r.rc, r.out)}
    failed = len(records) - len(passed)
    for reason in checker.failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    identical = len(digests) == 1

    # metrics read from answers use only the ones that passed their checks
    parsed = answers(records, passed)
    if args.trace:
        traced_answers = answers(traced.records, passed)
        values = per_layer(tracer, traced, untraced, traced_answers, dwcolor.fpt.build_dp, branch)
        out_dir = ROOT / "perfbench" / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(loops[0], setup_s)

    loop = loops[0]  # untraced in both modes
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"setup: import {import_s:.3f} s, generate {' / '.join(f'{s:.3f}' for s in gen_s)} s, "
          f"raw setup {raw_setup_s:.3f} s; files byte-identical across generations: "
          f"{'yes' if identical else 'NO'}")
    print("inputs: " + json.dumps(input_properties(pool, parsed, branch)))
    print(f"loop: {len(loop.records)} requests in {loop.cycles} cycles, {sum(loop.segment_s):.2f} s; "
          f"machine speed scale {min(loop.scale):.3f}..{max(loop.scale):.3f}; "
          f"failed {failed}/{len(records)} (failed_ratio {failed / len(records):g})")
    print(f"requests_per_s {loop.requests_per_s:.4f} 1/s scaled, {loop.raw_requests_per_s:.4f} raw")
    for kind in ("solve", "kernelize", "crosscheck"):
        ms, raw = loop.scaled_ms((kind,)), loop.raw_ms((kind,))
        if len(ms) >= 2:
            print(f"{kind}_ms.p50 {statistics.median(ms):.3f} {kind}_ms.p90 {quantile(ms, 90):.3f} ms "
                  f"scaled; raw {statistics.median(raw):.3f} / {quantile(raw, 90):.3f} ms (n={len(ms)})")
    if args.trace and tracer.absent:
        print(f"absent (not traced): {', '.join(tracer.absent)}")
    if args.trace and tracer.hook_errors:
        print(f"counter hooks failed: {dict(tracer.hook_errors)}")

    key = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    for m in spec[key]:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
