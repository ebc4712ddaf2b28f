"""Output checks for every CLI response the benchmark collects.

A response is judged against the instance the benchmark generated, never
against the program's own reading of the file. A failed check is counted
and reported; it never aborts the run.
"""

from __future__ import annotations

import json
import re

from dwcolor.errors import DwcError
from dwcolor.fpt import DualInstance, solve_dual
from dwcolor.graph import Coloring, build_graph, coloring_weight, is_proper
from dwcolor.kernel import RuleApplication, kernel_size_limit, replay_log

from workloads import Request

_RUNTIME = re.compile(r'"runtime_ms": [-+0-9.eE]+')


def branch(answer: dict) -> str:
    """Which branch of ``solve_dual`` decided a solve answer."""
    am = answer["stats"].get("antimatching_size")
    if am is None or answer["stats"]["n"] == 0:
        return "trivial"
    return "shortcut" if am >= answer["k"] else "table"


class Checker:
    """Checks responses, remembering verdicts per distinct response so that
    repeats of one request are judged without redoing the work."""

    def __init__(self) -> None:
        self._seen: dict[tuple, str | None] = {}
        self._truth: dict[int, bool] = {}
        self.failures: list[str] = []

    def check(self, req: Request, rc: int | None, out: str) -> bool:
        key = (req.index, rc, _RUNTIME.sub("", out))
        if key not in self._seen:
            try:
                reason = self._judge(req, rc, out)
            except Exception as exc:  # a malformed response is a failure, not a crash
                reason = f"{type(exc).__name__}: {exc}"
            self._seen[key] = reason
            if reason is not None:
                self.failures.append(f"{req.kind} file {req.index}: {reason}")
        return self._seen[key] is None

    def _verdict(self, req: Request) -> bool:
        if req.index not in self._truth:
            self._truth[req.index] = solve_dual(req.inst).verdict
        return self._truth[req.index]

    def _judge(self, req: Request, rc: int | None, out: str) -> str | None:
        if rc is None:
            return "exception escaped cli.main"
        if req.kind == "kernelize":
            return _judge_kernelize(req, rc, json.loads(out), self._verdict(req))
        return _judge_solve(req, rc, json.loads(out))


def _judge_solve(req: Request, rc: int, d: dict) -> str | None:
    g, k = req.inst.graph, req.inst.k
    if rc not in (0, 1):
        return f"exit code {rc}"
    yes = d["answer"] == "yes"
    if rc != (0 if yes else 1):
        return f"exit code {rc} does not match answer {d['answer']}"
    if d["k"] != k or d["weight_sum"] != g.weight_sum:
        return "k or weight_sum differs from the generated instance"
    if d["stats"]["n"] != g.n or d["stats"]["m"] != g.m:
        return "n or m differs from the generated instance"
    threshold = g.weight_sum - k
    sigma = d["sigma"]
    if sigma is not None and (sigma <= threshold) != yes:
        return f"answer {d['answer']} contradicts sigma {sigma} <= {threshold}"
    if d["certificate"] is None:
        return "yes without a certificate" if yes else None
    cert = Coloring(tuple(tuple(v - 1 for v in cls) for cls in d["certificate"]))
    try:
        if not is_proper(g, cert):
            return "certificate has a class that is not stable"
        weight = coloring_weight(g, cert)
    except DwcError as exc:
        return f"certificate is not a partition: {exc}"
    if sigma is not None:
        # a table certificate is optimal; a shortcut one only needs to save k
        if branch(d) == "table" and weight != sigma:
            return f"certificate weight {weight} != sigma {sigma}"
        if weight < sigma:
            return f"certificate weight {weight} < sigma {sigma}"
    if yes and weight > threshold:
        return f"certificate weight {weight} > {threshold}"
    return None


def _judge_kernelize(req: Request, rc: int, d: dict, verdict: bool) -> str | None:
    g, k = req.inst.graph, req.inst.k
    if rc != 0:
        return f"exit code {rc}"
    red = d["reduced"]
    if d["verdict_shortcut"] is not None:
        if (d["verdict_shortcut"] == "yes") != verdict:
            return f"shortcut verdict {d['verdict_shortcut']} differs from solve"
        return None
    bound = d["bound"]
    if k >= 2 and not (bound["limit"] == kernel_size_limit(k) and bound["value"] <= bound["limit"]):
        return f"kernel bound {bound} violated"
    log = tuple(
        RuleApplication(app["rule"], tuple(v - 1 for v in app["deleted"])) for app in d["log"]
    )
    reduced = build_graph(red["n"], [(u - 1, v - 1) for u, v in red["edges"]], red["weights"])
    if replay_log(g, log) != reduced:
        return "replaying the log does not reproduce the reduced graph"
    gone = {v for app in log for v in app.deleted}
    if d["vertex_map"] != [v + 1 for v in range(g.n) if v not in gone]:
        return "vertex_map is not the kept ids"
    if red["k"] != k or solve_dual(DualInstance(reduced, k)).verdict != verdict:
        return "kernel verdict differs from the original's"
    return None
