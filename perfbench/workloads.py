"""Seeded workload files and the closed-loop request schedule.

Each workload is a fixed pool of instance files, written by the benchmark
from its seed and then driven through the CLI in cycles: one cycle sends
one file set of the pool once, in an order shuffled per cycle from the
same seed. Runs stop only at a cycle boundary, so every run has exactly
the workload's request mix.

Sizes come from fixed ladders and the seed picks graph structure, k and
order. That keeps the work per cycle nearly the same across seeds, so the
spread between runs with different seeds stays small. A cycle's file count
is chosen so the p50 and p90 ranks land inside one file's latency mode
rather than on the step between two: 15 files per request kind
(15 * 0.5 = 7.5 and 15 * 0.9 = 13.5), 25 for verify (12.5 and 22.5). Where
the cost of a file varies with its random structure (table, verify), the
pool holds several variants of the cycle's file set, drawn independently
and used by turns, so that p50 and p90 average over several instances.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from dwcolor.formats import serialize_dwc
from dwcolor.fpt import DualInstance
from dwcolor.instances import bench_instance, random_instance

# CLI arguments per request kind; the file path is inserted after the subcommand.
KIND_ARGS = {
    "solve": ("solve", "--emit-certificate"),
    "kernelize": ("kernelize", "--emit-trace"),
    "crosscheck": ("solve", "--both", "--emit-certificate"),
}


@dataclass(frozen=True)
class Request:
    """One pool file and the CLI request sent for it."""

    index: int
    variant: int
    kind: str
    path: str
    inst: DualInstance
    nbytes: int

    @property
    def argv(self) -> list[str]:
        sub, *flags = KIND_ARGS[self.kind]
        return [sub, self.path, *flags]


def _table(rng: random.Random) -> list[tuple[str, DualInstance]]:
    # t = 2(k-1) in {10, 12, 14}. By latency the 8th of 15 files (p50) is the
    # middle k = 7 file and the 14th (p90) the middle k = 8 file; k = 8 also
    # sets peak memory.
    ks = [6] * 4 + [7] * 8 + [8] * 3
    return [("solve", bench_instance(200, k, rng.randrange(1 << 30))) for k in ks]


def _wide(rng: random.Random) -> list[tuple[str, DualInstance]]:
    # Large solves are parse-bound; 4 of 15 are near-complete random graphs
    # that take the antimatching shortcut. Mid-size kernelizes are bound by
    # universal-vertex deletion. k follows the size ladder too, so that the
    # largest files, which set p90, cost the same for every seed.
    solves = [
        bench_instance(n, 3 + i % 3, rng.randrange(1 << 30))
        for i, n in enumerate(range(240, 401, 16))
    ]
    solves += [
        random_instance(n, p, 3 + i % 3, rng.randrange(1 << 30))
        for i, (n, p) in enumerate(((260, 0.9), (300, 0.93), (340, 0.96), (380, 0.98)))
    ]
    kernels = [
        bench_instance(n, 3 + i % 3, rng.randrange(1 << 30))
        for i, n in enumerate(range(60, 117, 4))
    ]
    return [("solve", i) for i in solves] + [("kernelize", i) for i in kernels]


def _verify(rng: random.Random) -> list[tuple[str, DualInstance]]:
    # sigma_exact costs ~3^n/2, so n sets latency: p50 is the third of the
    # ten n = 12 files, p90 the middle of the five n = 13 files.
    sizes = [10] * 5 + [11] * 5 + [12] * 10 + [13] * 5
    return [
        (
            "crosscheck",
            random_instance(n, (0.2, 0.5, 0.8)[i % 3], rng.randint(1, 6), rng.randrange(1 << 30)),
        )
        for i, n in enumerate(sizes)
    ]


# (file set of one cycle, number of variants)
_BUILDERS = {"table": (_table, 4), "wide": (_wide, 1), "verify": (_verify, 4)}


def write_pool(workload: str, seed: int, directory: Path) -> tuple[list[Request], str]:
    """Generate and write the workload's files; return them and a digest of
    every file's bytes, which must be the same for the same seed."""
    build, variants = _BUILDERS[workload]
    rng = random.Random(f"{workload}-{seed}")
    digest = hashlib.sha256()
    pool: list[Request] = []
    for variant in range(variants):
        for kind, inst in build(rng):
            data = serialize_dwc(inst).encode("ascii")
            path = directory / f"{len(pool):03d}-{kind}.dwc"
            path.write_bytes(data)
            digest.update(path.name.encode() + b"\0" + data)
            pool.append(Request(len(pool), variant, kind, str(path), inst, len(data)))
    return pool, digest.hexdigest()


def cycle_orders(pool: list[Request], workload: str, seed: int):
    """Yield one request order per cycle: the next variant's files shuffled,
    with the kinds of a mixed file set alternating."""
    rng = random.Random(f"order-{workload}-{seed}")
    variants = _BUILDERS[workload][1]
    for cycle in itertools.count():
        by_kind: dict[str, list[Request]] = {}
        for req in pool:
            if req.variant == cycle % variants:
                by_kind.setdefault(req.kind, []).append(req)
        lanes = [rng.sample(reqs, len(reqs)) for reqs in by_kind.values()]
        yield [req for group in zip(*lanes) for req in group] + [
            req for lane in lanes for req in lane[min(map(len, lanes)) :]
        ]
