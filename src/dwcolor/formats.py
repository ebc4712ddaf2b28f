"""Line-oriented instance file formats.

Three formats, all 1-indexed in files (the in-memory API is 0-indexed):

* weighted instances:   ``p dwc <n> <m> <k>``, then exactly n ``w <v> <weight>``
  lines and m ``e <u> <v>`` lines with u < v and no duplicates;
* interval instances:   ``p interval <n> <k>``, then n ``i <v> <left> <right> <weight>`` lines;
* set-cover instances:  ``p setcover <universe> <sets> <ell>``, then one
  ``s <set-id> <elem>...`` line per set.

``c <comment>`` lines and blank lines are ignored anywhere. Serializers emit
a canonical form (sorted ids, no comments), so parse followed by serialize
is the identity on canonical files.
"""

from __future__ import annotations

from .errors import FormatError
from .fpt import DualInstance
from .graph import build_graph, higher_neighbors
from .instances import IntervalRepresentation, SetCoverInstance, intervals_to_graph


def _tokens(text: str) -> list[list[str]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        rows.append([str(lineno)] + line.split())
    return rows


def _int(tok: str, lineno: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} {tok!r} is not an integer") from None


def _check_declared(rows: list[list[str]], count: int, what: str) -> None:
    """Reject a header declaring more items than there are body lines, before
    anything is allocated per item."""
    if count > len(rows) - 1:
        raise FormatError(
            f"line {rows[0][0]}: {count} {what} declared, {len(rows) - 1} lines follow"
        )


def detect_format(text: str) -> str:
    rows = _tokens(text)
    if not rows or rows[0][1] != "p" or len(rows[0]) < 3:
        raise FormatError("missing problem line")
    kind = rows[0][2]
    if kind not in ("dwc", "interval", "setcover"):
        raise FormatError(f"unknown format {kind!r}")
    return kind


def parse_dwc(text: str) -> DualInstance:
    rows = _tokens(text)
    if not rows or rows[0][1] != "p":
        raise FormatError("missing problem line")
    head = rows[0]
    if len(head) != 6 or head[2] != "dwc":
        raise FormatError(f"line {head[0]}: expected 'p dwc <n> <m> <k>'")
    n, m, k = (_int(t, head[0], "header field") for t in head[3:6])
    if k < 1:
        raise FormatError(f"line {head[0]}: parameter k={k} must be >= 1")
    _check_declared(rows, n, "vertices")
    weights: list[int | None] = [None] * n
    edges: list[tuple[int, int]] = []
    for row in rows[1:]:
        lineno, tag = row[0], row[1]
        if tag == "w":
            if len(row) != 4:
                raise FormatError(f"line {lineno}: expected 'w <v> <weight>'")
            v = _int(row[2], lineno, "vertex")
            w = _int(row[3], lineno, "weight")
            if not 1 <= v <= n:
                raise FormatError(f"line {lineno}: vertex {v} not in 1..{n}")
            if weights[v - 1] is not None:
                raise FormatError(f"line {lineno}: duplicate weight for vertex {v}")
            if w < 1:
                raise FormatError(f"line {lineno}: weight {w} must be >= 1")
            weights[v - 1] = w
        elif tag == "e":
            if len(row) != 4:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            u = _int(row[2], lineno, "vertex")
            v = _int(row[3], lineno, "vertex")
            if not (1 <= u < v <= n):
                raise FormatError(f"line {lineno}: edge ({u},{v}) needs 1 <= u < v <= {n}")
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"line {lineno}: unexpected directive {tag!r}")
    if any(w is None for w in weights):
        raise FormatError(f"expected {n} weight lines, got {sum(w is not None for w in weights)}")
    if len(edges) != m:
        raise FormatError(f"expected {m} edge lines, got {len(edges)}")
    if len(set(edges)) != len(edges):
        raise FormatError("duplicate edge line")
    return DualInstance(build_graph(n, edges, weights), k)


def serialize_dwc(inst: DualInstance) -> str:
    g = inst.graph
    ids = [str(v + 1) for v in range(g.n)]
    lines = [f"p dwc {g.n} {g.m} {inst.k}"]
    lines.extend(f"w {ids[v]} {g.weights[v]}" for v in range(g.n))
    # each vertex's edge lines are joined into one entry
    for u, higher in higher_neighbors(g.adjacency):
        head = f"e {ids[u]} "
        tails = ("\n" + head).join(map(ids.__getitem__, higher))
        if tails:
            lines.append(head + tails)
    return "\n".join(lines) + "\n"


def parse_interval(text: str) -> tuple[DualInstance, IntervalRepresentation]:
    rows = _tokens(text)
    if not rows or rows[0][1] != "p":
        raise FormatError("missing problem line")
    head = rows[0]
    if len(head) != 5 or head[2] != "interval":
        raise FormatError(f"line {head[0]}: expected 'p interval <n> <k>'")
    n, k = (_int(t, head[0], "header field") for t in head[3:5])
    if k < 1:
        raise FormatError(f"line {head[0]}: parameter k={k} must be >= 1")
    _check_declared(rows, n, "intervals")
    ivs: list[tuple[int, int] | None] = [None] * n
    weights: list[int] = [0] * n
    for row in rows[1:]:
        lineno, tag = row[0], row[1]
        if tag != "i" or len(row) != 6:
            raise FormatError(f"line {lineno}: expected 'i <v> <left> <right> <weight>'")
        v = _int(row[2], lineno, "vertex")
        left = _int(row[3], lineno, "endpoint")
        right = _int(row[4], lineno, "endpoint")
        w = _int(row[5], lineno, "weight")
        if not 1 <= v <= n:
            raise FormatError(f"line {lineno}: vertex {v} not in 1..{n}")
        if ivs[v - 1] is not None:
            raise FormatError(f"line {lineno}: duplicate interval for vertex {v}")
        if left > right:
            raise FormatError(f"line {lineno}: interval [{left},{right}] is empty")
        if w < 1:
            raise FormatError(f"line {lineno}: weight {w} must be >= 1")
        ivs[v - 1] = (left, right)
        weights[v - 1] = w
    if any(iv is None for iv in ivs):
        raise FormatError(f"expected {n} interval lines")
    rep = IntervalRepresentation(tuple(ivs), tuple(weights))
    return DualInstance(intervals_to_graph(rep), k), rep


def serialize_interval(rep: IntervalRepresentation, k: int) -> str:
    lines = [f"p interval {rep.n} {k}"]
    lines.extend(
        f"i {v + 1} {l} {r} {rep.weights[v]}"
        for v, (l, r) in enumerate(rep.intervals)
    )
    return "\n".join(lines) + "\n"


def parse_setcover(text: str) -> SetCoverInstance:
    rows = _tokens(text)
    if not rows or rows[0][1] != "p":
        raise FormatError("missing problem line")
    head = rows[0]
    if len(head) != 6 or head[2] != "setcover":
        raise FormatError(f"line {head[0]}: expected 'p setcover <universe> <sets> <ell>'")
    universe, nsets, ell = (_int(t, head[0], "header field") for t in head[3:6])
    _check_declared(rows, nsets, "sets")
    family: list[frozenset[int] | None] = [None] * nsets
    for row in rows[1:]:
        lineno, tag = row[0], row[1]
        if tag != "s" or len(row) < 4:
            raise FormatError(f"line {lineno}: expected 's <set-id> <elem>...'")
        sid = _int(row[2], lineno, "set id")
        if not 1 <= sid <= nsets:
            raise FormatError(f"line {lineno}: set id {sid} not in 1..{nsets}")
        if family[sid - 1] is not None:
            raise FormatError(f"line {lineno}: duplicate set id {sid}")
        elems = set()
        for t in row[3:]:
            e = _int(t, lineno, "element")
            if not 1 <= e <= universe:
                raise FormatError(f"line {lineno}: element {e} not in 1..{universe}")
            elems.add(e - 1)
        family[sid - 1] = frozenset(elems)
    if any(s is None for s in family):
        raise FormatError(f"expected {nsets} set lines")
    return SetCoverInstance(universe, tuple(family), ell)


def serialize_setcover(sc: SetCoverInstance) -> str:
    lines = [f"p setcover {sc.universe} {len(sc.family)} {sc.budget}"]
    for i, s in enumerate(sc.family):
        lines.append(f"s {i + 1} " + " ".join(str(e + 1) for e in sorted(s)))
    return "\n".join(lines) + "\n"
