"""Line-oriented instance file formats.

Three formats, all 1-indexed in files (the in-memory API is 0-indexed):

* weighted instances:   ``p dwc <n> <m> <k>``, then exactly n ``w <v> <weight>``
  lines and m ``e <u> <v>`` lines with u < v and no duplicates;
* interval instances:   ``p interval <n> <k>``, then n ``i <v> <left> <right> <weight>`` lines;
* set-cover instances:  ``p setcover <universe> <sets> <ell>``, then one
  ``s <set-id> <elem>...`` line per set.

A file holds printable ASCII, tabs, carriage returns (read as spaces) and
newlines only. Blank lines and lines whose first token is ``c`` are comments,
ignored anywhere. Every field but the tags (``p <format>``, ``w``, ``e``, ...)
is an integer in ASCII decimal digits with an optional leading ``-``.
Serializers emit a canonical form (sorted ids, no comments), so parse followed
by serialize is the identity on canonical files.
"""

from __future__ import annotations

import re

from .errors import FormatError
from .fpt import DualInstance
from .graph import build_graph, higher_neighbors
from .instances import IntervalRepresentation, SetCoverInstance, intervals_to_graph

# The problem line ``p <tag> <field>...`` of each format: its integer fields,
# and those of them whose sum is the number of body lines. Every field but
# the last is a count (>= 0); the last is the parameter (>= 1).
_LAYOUTS = {
    "dwc": (("n", "m", "k"), ("n", "m")),
    "interval": (("n", "k"), ("n",)),
    "setcover": (("universe", "sets", "ell"), ("sets",)),
}

# the bytes a file may hold: printable ASCII, tab, CR and LF
_ALLOWED = bytes(range(0x20, 0x7F)) + b"\t\r\n"


def _rows(text: str):
    """Yield ``[line number, token, ...]`` for each line that is not a comment;
    lines end at a newline only. The text is split in pieces that end before a
    newline and double in size, so a caller that stops early splits little."""
    start = lineno = 0
    while start < len(text):
        end = text.find("\n", 2 * start + 256) + 1 or len(text) + 1
        for lineno, raw in enumerate(text[start : end - 1].split("\n"), lineno + 1):
            toks = raw.split()
            if toks and toks[0] != "c":
                yield [str(lineno)] + toks
        start = end


def _check_characters(text: str) -> None:
    """Reject any character but printable ASCII, tab, CR and LF, so that no
    Unicode or control whitespace can split fields or lines. The text is
    checked in one pass; the offending line is looked for only on failure."""
    if text.isascii() and not text.encode().translate(None, _ALLOWED):
        return
    bad = re.search(r"[^ -~\t\r\n]", text)
    lineno = text.count("\n", 0, bad.start()) + 1
    raise FormatError(f"line {lineno}: character {bad.group()!r} is not allowed")


def _check_integers(text: str, rows: list[list[str]]) -> None:
    """Reject a field that is not ASCII decimal with an optional leading '-'.
    Non-ASCII text fails :func:`_check_characters`, and on other text without
    '+' or '_' ``int`` accepts exactly those, so only the rest is read field by field."""
    if "+" not in text and "_" not in text:
        return
    for row in rows:
        for tok in row[3 if row[1] == "p" else 2:]:
            if not (tok.isascii() and tok.removeprefix("-").isdigit()):
                raise FormatError(f"line {row[0]}: field {tok!r} is not an integer")


def _int(tok: str, lineno: str, what: str, low: int | None = None) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} {tok!r} is not an integer") from None
    if low is not None and value < low:
        raise FormatError(f"line {lineno}: {what}={value} must be >= {low}")
    return value


def detect_format(text: str) -> str:
    """The problem line's format tag, read without tokenizing the lines after it."""
    head = next(_rows(text), None)
    if head is None or head[1] != "p":
        raise FormatError("missing problem line")
    kind = "".join(head[2:3])
    if kind not in _LAYOUTS:
        raise FormatError(f"line {head[0]}: unknown format {kind!r}")
    return kind


def _read(text: str, tag: str) -> tuple[list[list[str]], list[int]]:
    """The rows of a ``tag`` file and its problem line's fields, checked
    (down to the count of body lines) before anything is allocated."""
    rows = list(_rows(text))
    _check_integers(text, rows)
    _check_characters(text)
    names, body = _LAYOUTS[tag]
    if detect_format(text) != tag or len(rows[0]) != 3 + len(names):
        layout = " ".join(f"<{name}>" for name in names)
        raise FormatError(f"line {rows[0][0]}: expected 'p {tag} {layout}'")
    lineno = rows[0][0]
    lows = [0] * (len(names) - 1) + [1]
    fields = [_int(t, lineno, name, low) for t, name, low in zip(rows[0][3:], names, lows)]
    declared = sum(v for name, v in zip(names, fields) if name in body)
    if declared > len(rows) - 1:
        raise FormatError(
            f"line {lineno}: {declared} body lines declared, {len(rows) - 1} follow"
        )
    return rows, fields


def _slot(filled: list, row: list[str], what: str) -> int:
    """The 0-based slot of the numbered line ``<tag> <id> ...`` in ``row``:
    its id lies in 1..len(filled) and no earlier line filled it. As the
    problem line declares no more body lines than follow, a body of numbered
    lines that all pass this misses no id."""
    lineno = row[0]
    i = _int(row[2], lineno, what) - 1
    if not 0 <= i < len(filled):
        raise FormatError(f"line {lineno}: {what} {i + 1} not in 1..{len(filled)}")
    if filled[i] is not None:
        raise FormatError(f"line {lineno}: duplicate {row[1]} line for {what} {i + 1}")
    return i


def parse_dwc(text: str) -> DualInstance:
    rows, (n, m, k) = _read(text, "dwc")
    weights: list[int | None] = [None] * n
    edges: list[tuple[int, int]] = []
    for row in rows[1:]:
        lineno, tag = row[0], row[1]
        if tag == "w":
            if len(row) != 4:
                raise FormatError(f"line {lineno}: expected 'w <v> <weight>'")
            v = _slot(weights, row, "vertex")
            weights[v] = _int(row[3], lineno, "weight", 1)
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
    # n + m body lines or more: m edge lines leave a weight line per vertex
    if len(edges) != m:
        got = f"{len(rows) - 1 - len(edges)} and {len(edges)}"
        raise FormatError(f"expected {n} weight and {m} edge lines, got {got}")
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
    rows, (n, k) = _read(text, "interval")
    ivs: list[tuple[int, int] | None] = [None] * n
    weights: list[int] = [0] * n
    for row in rows[1:]:
        lineno = row[0]
        if row[1] != "i" or len(row) != 6:
            raise FormatError(f"line {lineno}: expected 'i <v> <left> <right> <weight>'")
        v = _slot(ivs, row, "vertex")
        left = _int(row[3], lineno, "endpoint")
        right = _int(row[4], lineno, "endpoint")
        if left > right:
            raise FormatError(f"line {lineno}: interval [{left},{right}] is empty")
        ivs[v] = (left, right)
        weights[v] = _int(row[5], lineno, "weight", 1)
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
    rows, (universe, nsets, ell) = _read(text, "setcover")
    family: list[frozenset[int] | None] = [None] * nsets
    for row in rows[1:]:
        lineno = row[0]
        if row[1] != "s" or len(row) < 4:
            raise FormatError(f"line {lineno}: expected 's <set-id> <elem>...'")
        sid = _slot(family, row, "set id")
        elems = set()
        for t in row[3:]:
            e = _int(t, lineno, "element")
            if not 1 <= e <= universe:
                raise FormatError(f"line {lineno}: element {e} not in 1..{universe}")
            elems.add(e - 1)
        family[sid] = frozenset(elems)
    return SetCoverInstance(universe, tuple(family), ell)


def serialize_setcover(sc: SetCoverInstance) -> str:
    lines = [f"p setcover {sc.universe} {len(sc.family)} {sc.budget}"]
    for i, s in enumerate(sc.family):
        lines.append(f"s {i + 1} " + " ".join(str(e + 1) for e in sorted(s)))
    return "\n".join(lines) + "\n"
