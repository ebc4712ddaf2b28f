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
by serialize is the identity on canonical files; ``serialize_dwc`` writes a
dense row's edge lines from its few non-neighbours, with no step per edge.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import Iterator

from .errors import FormatError
from .graph import _BIT_SELECTORS, DualInstance, WeightedGraph, bits
from .graph import build_graph  # not called here; perfbench's tracer wraps formats.build_graph
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

# a row is written from its non-neighbours when it has fewer than one per this
# many neighbours above it: a list copy and one deletion per non-neighbour then
# beat a selector pass over the row; they meet near 1 in 12 (timeit, n 70-800)
_DENSE_ROW = 12

# the most characters a piece of text is split or checked in at once, so that
# reading a file holds its rows a piece at a time, not all together
_PIECE = 1 << 15


def _rows(text: str) -> Iterator[list[str]]:
    """Yield ``[line number, token, ...]`` for each line that is not a comment;
    lines end at a newline only. The text is split in pieces that end before a
    newline and double in size up to about ``_PIECE`` characters, so a caller
    that stops early splits little and one that reads on holds one piece."""
    start = lineno = 0
    while start < len(text):
        end = text.find("\n", start + min(start + 256, _PIECE)) + 1 or len(text) + 1
        for lineno, raw in enumerate(text[start : end - 1].split("\n"), lineno + 1):
            toks = raw.split()
            if toks and toks[0] != "c":
                yield [str(lineno)] + toks
        start = end


def _check_characters(text: str) -> None:
    """Reject any character but printable ASCII, tab, CR and LF, so that no
    Unicode or control whitespace can split fields or lines. The text is
    checked ``_PIECE`` characters at a time; the offending line is looked for
    only on failure."""
    if text.isascii() and not any(
        text[i : i + _PIECE].encode().translate(None, _ALLOWED)
        for i in range(0, len(text), _PIECE)
    ):
        return
    bad = re.search(r"[^ -~\t\r\n]", text)
    lineno = text.count("\n", 0, bad.start()) + 1
    raise FormatError(f"line {lineno}: character {bad.group()!r} is not allowed")


def _check_integers(text: str) -> None:
    """Reject a field that is not ASCII decimal with an optional leading '-'.
    Non-ASCII text fails :func:`_check_characters`, and on other text without
    '+' or '_' ``int`` accepts exactly those, so only the rest is read field by field."""
    if "+" not in text and "_" not in text:
        return
    for row in _rows(text):
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


def _read(text: str, tag: str) -> tuple[list[int], Iterator[list[str]]]:
    """The problem line's fields of a ``tag`` file, checked (down to the count
    of body lines) before anything is allocated, and an iterator over the rows
    that follow it. The declared body lines are bounded by the lines after the
    problem line, comments included; a parser that finds fewer rows says so
    when they run out."""
    _check_integers(text)
    _check_characters(text)
    kind = detect_format(text)
    rows = _rows(text)
    head = next(rows)
    names, body = _LAYOUTS[tag]
    lineno = head[0]
    if kind != tag or len(head) != 3 + len(names):
        layout = " ".join(f"<{name}>" for name in names)
        raise FormatError(f"line {lineno}: expected 'p {tag} {layout}'")
    lows = [0] * (len(names) - 1) + [1]
    fields = [_int(t, lineno, name, low) for t, name, low in zip(head[3:], names, lows)]
    declared = sum(v for name, v in zip(names, fields) if name in body)
    follow = text.count("\n") + (not text.endswith("\n")) - int(lineno)
    if declared > follow:
        raise FormatError(f"line {lineno}: {declared} body lines declared, {follow} follow")
    return fields, rows


def _slot(filled: list, row: list[str], what: str) -> int:
    """The 0-based slot of the numbered line ``<tag> <id> ...`` in ``row``:
    its id lies in 1..len(filled) and no earlier line filled it."""
    lineno = row[0]
    i = _int(row[2], lineno, what) - 1
    if not 0 <= i < len(filled):
        raise FormatError(f"line {lineno}: {what} {i + 1} not in 1..{len(filled)}")
    if filled[i] is not None:
        raise FormatError(f"line {lineno}: duplicate {row[1]} line for {what} {i + 1}")
    return i


def parse_dwc(text: str) -> DualInstance:
    (n, m, k), rows = _read(text, "dwc")
    weights: list[int | None] = [None] * n
    adj = [0] * n
    edges = 0
    for row in rows:
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
            bit = 1 << (v - 1)
            if adj[u - 1] & bit:
                raise FormatError(f"line {lineno}: duplicate edge ({u},{v})")
            adj[u - 1] |= bit
            adj[v - 1] |= 1 << (u - 1)
            edges += 1
        else:
            raise FormatError(f"line {lineno}: unexpected directive {tag!r}")
    weighted = n - weights.count(None)
    if (weighted, edges) != (n, m):
        raise FormatError(f"expected {n} weight and {m} edge lines, got {weighted} and {edges}")
    # the rows are symmetric and loop-free by the checks above
    return DualInstance(WeightedGraph(n, tuple(adj), tuple(weights)), k)


def serialize_dwc(inst: DualInstance) -> str:
    """The canonical ``.dwc`` text of ``inst``: the problem line, the ``w``
    lines by vertex, then the ``e u v`` lines sorted by u and then v. A row
    with fewer than one higher non-neighbour per ``_DENSE_ROW`` higher
    neighbours is written from its non-neighbours, by cutting them out of
    the ids above u; any other row selects its neighbours' ids from its bits.
    Both give the same lines, so the bytes do not depend on the side used."""
    g = inst.graph
    ids = [str(v + 1) for v in range(g.n)]
    full = (1 << g.n) - 1
    lines = [f"p dwc {g.n} {g.m} {inst.k}"]
    lines.extend(f"w {ids[v]} {g.weights[v]}" for v in range(g.n))
    for u, a in enumerate(g.adjacency):
        higher = a >> (u + 1)
        count = higher.bit_count()
        if not count:
            continue
        row = ids[u + 1 :]
        if (g.n - u - 1 - count) * _DENSE_ROW < count:
            for i, b in enumerate(bits(higher ^ full >> (u + 1))):
                del row[b - i]
        else:
            row = compress(row, bin(higher)[:1:-1].encode().translate(_BIT_SELECTORS))
        head = f"e {ids[u]} "
        lines.append(head + ("\n" + head).join(row))
    lines.append("")  # the text ends with a newline
    return "\n".join(lines)


def parse_interval(text: str) -> tuple[DualInstance, IntervalRepresentation]:
    (n, k), rows = _read(text, "interval")
    ivs: list[tuple[int, int] | None] = [None] * n
    weights: list[int] = [0] * n
    for row in rows:
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
    if None in ivs:
        raise FormatError(f"expected {n} interval lines, got {n - ivs.count(None)}")
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
    (universe, nsets, ell), rows = _read(text, "setcover")
    family: list[frozenset[int] | None] = [None] * nsets
    for row in rows:
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
    if None in family:
        raise FormatError(f"expected {nsets} set lines, got {nsets - family.count(None)}")
    return SetCoverInstance(universe, tuple(family), ell)

