"""Command-line front end.

Subcommands: ``solve``, ``kernelize``, ``generate``, ``audit``. JSON goes
to stdout with a fixed key order. Every engine works on 0-indexed ids and
every id it prints passes through :func:`_one_based`, so output ids match
the 1-indexed file formats. Exit codes: ``solve`` exits 0 on a yes-answer,
1 on no, 2 on any error; the other subcommands exit 0 on success and 2 on
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, replace
from typing import Iterable

from .errors import ClaimViolation, DwcError, FormatError, InvalidColoring
from .fpt import DualAnswer, DualInstance, SolveStats, solve_dual
from .formats import (
    detect_format,
    parse_dwc,
    parse_interval,
    parse_setcover,
    serialize_dwc,
    serialize_interval,
)
from .graph import Coloring, coloring_weight, is_stable
from .instances import (
    audit_interval_bounds,
    audit_split_bounds,
    gen_tight_general,
    gen_tight_interval,
    random_instance,
    reduce_setcover,
    split_partition,
)
from .kernel import kernel_size_limit, kernelize
from .matching import maximum_antimatching
from .oracle import sigma_exact


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _one_based(ids: Iterable[int] | None) -> list[int] | None:
    """The file formats' 1-indexed form of in-memory vertex ids."""
    return None if ids is None else [v + 1 for v in ids]


def _classes_json(c: Coloring | None) -> list[list[int]] | None:
    return None if c is None else [_one_based(cls) for cls in c.classes]


def _yes_no(verdict: bool | None) -> str | None:
    return None if verdict is None else ("yes" if verdict else "no")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_certificate(inst: DualInstance, ans: DualAnswer) -> None:
    """Raise :class:`ClaimViolation` unless the answer's certificate is a
    proper coloring whose weight is its sigma, when known, and at most
    ``weight_sum - k`` on a yes."""
    g, c = inst.graph, ans.certificate
    try:
        weight = coloring_weight(g, c)  # validates the partition once
    except InvalidColoring as exc:
        raise ClaimViolation("certificate", str(exc)) from None
    if not all(is_stable(g, cls) for cls in c.classes):
        problem = "a color class is not stable"
    elif ans.sigma is not None and weight != ans.sigma:
        problem = f"weight {weight} differs from sigma {ans.sigma}"
    elif ans.verdict and weight > inst.threshold:
        problem = f"weight {weight} exceeds weight_sum - k = {inst.threshold}"
    else:
        return
    raise ClaimViolation("certificate", problem)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_dwc(_read(args.path))
    g = inst.graph
    start = time.perf_counter()
    if args.oracle or args.both:
        sigma = sigma_exact(g)
        verdict = sigma <= inst.threshold
    if args.oracle:
        am = maximum_antimatching(g)
        stats = SolveStats(am.size, g.n - 2 * am.size, g.n, g.m, 0.0)
        ans = DualAnswer(verdict, sigma, None, stats)
    else:
        ans = solve_dual(inst)
    # the time of every engine the mode ran: under --both, the oracle's and the table's
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    # checked against the solver's own sigma, before --both puts the oracle's in
    if args.emit_certificate and ans.certificate is not None:
        _check_certificate(inst, ans)
    if args.both:
        if ans.verdict != verdict or ans.sigma not in (None, sigma):
            return _fail(
                f"solver disagreement: oracle says {verdict} (sigma {sigma}), "
                f"table says {ans.verdict} (sigma {ans.sigma})"
            )
        ans = replace(ans, sigma=sigma)
    payload = {
        "answer": _yes_no(ans.verdict),
        "sigma": ans.sigma,
        "weight_sum": g.weight_sum,
        "k": inst.k,
        "certificate": _classes_json(ans.certificate) if args.emit_certificate else None,
        "stats": asdict(replace(ans.stats, runtime_ms=ms)),
    }
    _emit(payload)
    return 0 if ans.verdict else 1


def cmd_kernelize(args: argparse.Namespace) -> int:
    inst = parse_dwc(_read(args.path))
    trace = kernelize(inst)
    red = trace.reduced
    payload = {
        "reduced": {
            "n": red.graph.n,
            "m": red.graph.m,
            "k": red.k,
            "weights": list(red.graph.weights),
            "edges": [_one_based(e) for e in red.graph.edges()],
        },
        "log": [
            {"rule": app.rule, "deleted": _one_based(app.deleted)} for app in trace.log
        ]
        if args.emit_trace
        else None,
        "vertex_map": _one_based(trace.vertex_map),
        "verdict_shortcut": _yes_no(trace.verdict_shortcut),
        "bound": {"value": red.graph.n, "limit": kernel_size_limit(inst.k)},
    }
    _emit(payload)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "tight-general":
        inst = gen_tight_general(args.k)
        out = f"c tight-general k={args.k}\n" + serialize_dwc(inst)
    elif args.kind == "tight-interval":
        inst, rep = gen_tight_interval(args.k)
        out = f"c tight-interval k={args.k}\n" + serialize_interval(rep, args.k)
    elif args.kind == "setcover":
        if not args.path:
            return _fail("setcover generation needs an input set-cover file")
        sc = parse_setcover(_read(args.path))
        inst = reduce_setcover(sc)
        out = (
            f"c setcover reduction universe={sc.universe} sets={len(sc.family)} "
            f"ell={sc.budget}\n" + serialize_dwc(inst)
        )
    else:  # random
        if args.n is None:
            return _fail("random generation needs --n")
        inst = random_instance(args.n, args.p, args.k, args.seed, args.wmax)
        out = (
            f"c random n={args.n} p={args.p} k={args.k} seed={args.seed}\n"
            + serialize_dwc(inst)
        )
    sys.stdout.write(out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    text = _read(args.path)
    kind = detect_format(text)
    if args.interval:
        if kind != "interval":
            return _fail("--interval expects an interval-format file")
        inst, rep = parse_interval(text)
        report = audit_interval_bounds(inst, rep)
        _emit({"mode": "interval", **asdict(report), "passed": True})
        return 0
    inst = parse_dwc(text)
    if args.split:
        profile = split_partition(inst.graph)
        if profile is None:
            return _fail("graph is not a split graph")
        report = audit_split_bounds(inst, profile)
        _emit({"mode": "split", **asdict(report), "passed": True})
        return 0
    # neighborhood-class audit of the kernel's own round: the partition of
    # the universal-free graph under its antimatching, before truncation
    trace = kernelize(inst)
    report = None if trace.claims is None else asdict(trace.claims)
    shortcut = _yes_no(trace.verdict_shortcut)
    _emit({"mode": "claims", "shortcut": shortcut, "report": report, "passed": True})
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwcolor",
        description="Solve, kernelize, generate, and audit savings-parameterized "
        "weighted coloring instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("path")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--oracle", action="store_true", help="exhaustive solver only")
    mode.add_argument("--both", action="store_true", help="run both and cross-check")
    p.add_argument("--emit-certificate", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="reduce an instance file")
    p.add_argument("path")
    p.add_argument("--emit-trace", action="store_true")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("generate", help="write an instance file to stdout")
    p.add_argument(
        "kind", choices=["tight-general", "tight-interval", "setcover", "random"]
    )
    p.add_argument("path", nargs="?", help="input set-cover file (setcover kind)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit", help="check structural bounds of an instance file")
    p.add_argument("path")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--interval", action="store_true")
    what.add_argument("--split", action="store_true")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DwcError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
