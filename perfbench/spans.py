"""Spans around the package's public functions, for the traced run only.

A wrapper replaces a function on the module attribute its caller looks up
(``cli.parse_dwc`` rather than ``formats.parse_dwc``), so the package runs
unchanged. Each call records a span: name, start, end, parent span and
request id. Spans stay in memory until the run ends. ``kernel.is_universal``
is hot and tiny, so it only counts calls. A name missing from its module is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute the caller looks up, span name: <layer>.<function>)
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_dwc", "formats.parse_dwc"),
    ("formats", "build_graph", "graph.build_graph"),
    ("cli", "solve_dual", "fpt.solve_dual"),
    ("fpt", "maximum_antimatching", "matching.maximum_antimatching"),
    ("fpt", "build_dp", "fpt.build_dp"),
    ("fpt", "extract_certificate", "fpt.extract_certificate"),
    ("cli", "kernelize", "kernel.kernelize"),
    ("kernel", "maximum_antimatching", "matching.maximum_antimatching"),
    ("kernel", "compute_classes", "kernel.compute_classes"),
    ("kernel", "truncate_classes", "kernel.truncate_classes"),
    ("kernel", "induced_subgraph", "graph.induced_subgraph"),
    ("cli", "sigma_exact", "oracle.sigma_exact"),
)
COUNTED = (("kernel", "is_universal", "graph.is_universal"),)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANNED))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = -1
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.hook_errors: Counter[str] = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._largest_table: tuple[int, tuple, dict] | None = None
        self._hooks = {
            "formats.parse_dwc": self._on_parse,
            "fpt.build_dp": self._on_build_dp,
            "oracle.sigma_exact": self._on_sigma_exact,
        }

    def install(self, modules: dict) -> None:
        for mod, attr, name in SPANNED:
            self._replace(modules[mod], attr, name, self._spanned)
        for mod, attr, name in COUNTED:
            self._replace(modules[mod], attr, name, self._counted)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _replace(self, module, attr: str, name: str, make) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        setattr(module, attr, make(fn, name))
        self._installed.append((module, attr, fn))

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name: str):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if hook is not None:
                try:
                    hook(args, kwargs)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    # counters computed from a call's input, outside its span

    def _on_parse(self, args, kwargs) -> None:
        self.counts["formats.parse_dwc.bytes"] += len(args[0])

    def _on_build_dp(self, args, kwargs) -> None:
        g, m = args[0], args[1]
        covered = m.covered_mask
        t = covered.bit_count()
        clique = m.residual_clique
        # layer 0 visits (3^t - 1)/2 submasks; a clique vertex with s covered
        # non-neighbours visits the non-empty submasks of x & allowed for each x
        bound = (3**t - 1) // 2
        active = 0
        for v in clique:
            s = (covered & ~g.adjacency[v]).bit_count()
            if s:
                active += 1
                bound += 2 ** (t - s) * (3**s - 2**s)
        self.counts["fpt.submask_bound"] += bound
        self.counts["fpt.active_layers"] += active
        self.counts["fpt.clique_layers"] += len(clique)
        size = (len(clique) + 1) << t  # one parent array per layer
        if self._largest_table is None or size > self._largest_table[0]:
            self._largest_table = (size, args, kwargs)

    def _on_sigma_exact(self, args, kwargs) -> None:
        self.counts["oracle.submask_bound"] += (3 ** args[0].n - 1) // 2

    def build_dp_peak_mb(self, build_dp) -> float:
        """Peak traced allocation of one ``build_dp`` call on the largest
        table the run built; 0 when the run built none."""
        if self._largest_table is None:
            return 0.0
        _, args, kwargs = self._largest_table
        tracemalloc.start()
        try:
            build_dp(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def summary(self, scale: list[float]) -> tuple[dict[str, list[float]], int]:
        """Per span name: [calls, busy s, self s], each span's times
        multiplied by ``scale[request id]``; and the antimatchings run
        directly inside a kernelize (its rounds)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        rounds = 0
        for i, (name, start, end, parent, request) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) * scale[request]
            row[2] += (end - start - covered[i]) * scale[request]
            if parent >= 0 and name == "matching.maximum_antimatching":
                rounds += spans[parent][0] == "kernel.kernelize"
        return out, rounds

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
