"""Machine-speed reference for scaling measured times.

The small shared hosts this benchmark runs on change speed by up to 1.7x
in phases of ten seconds to a minute, which is longer than a run, so
medians alone cannot make runs agree. The loop therefore times this fixed
piece of benchmark-owned work about once a second, between requests, and
scales the times in between to the speed at which the work takes
``REFERENCE_S``. The work does not touch the package, so a change to the
package cannot move it; it mixes the operations the package spends its
time on: list indexing and int arithmetic as in the subset tables, and
splitting and allocating many small objects as the parser does, which is
what slows most when the host is busy. Changing this file changes every reported time, so it stays
fixed.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.015
_LINES = [f"e {i} {i * 7 % 1000}" for i in range(20000)]


def _work() -> int:
    vals = [0] * 8192
    for _ in range(3):
        for i in range(1, 8192):
            vals[i] = vals[i & (i - 1)] + (i * 7919 & 1023) + 1000
    squares = {i: i * i for i in range(4000)}
    adj = [0] * 512
    for row in [line.split() for line in _LINES]:
        adj[int(row[1]) & 511] |= 1 << (int(row[2]) & 511)
    return vals[-1] + len(squares) + sum(a.bit_count() for a in adj)


def reference_s() -> float:
    """Seconds the reference work takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def scales(refs: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive reference times."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
