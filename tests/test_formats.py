import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwcolor import DwcError, FormatError, build_graph
from dwcolor.formats import (
    detect_format,
    parse_dwc,
    parse_interval,
    parse_setcover,
    serialize_dwc,
    serialize_interval,
)
from dwcolor.fpt import DualInstance
from dwcolor.instances import (
    IntervalRepresentation,
    SetCoverInstance,
    bench_instance,
    intervals_to_graph,
)
from conftest import serialize_setcover


DWC = """c a comment
p dwc 3 2 1
w 1 1
w 2 2
w 3 1
e 1 2
e 2 3
"""


def test_parse_dwc():
    inst = parse_dwc(DWC)
    assert inst.graph.n == 3 and inst.k == 1
    assert inst.graph.weights == (1, 2, 1)
    assert inst.graph.edges() == [(0, 1), (1, 2)]


def test_dwc_round_trip():
    inst = parse_dwc(DWC)
    canonical = serialize_dwc(inst)
    assert serialize_dwc(parse_dwc(canonical)) == canonical
    # comments and blank lines are dropped by canonicalization
    assert not any(line.startswith("c") for line in canonical.splitlines() if line)


def test_dwc_errors():
    for text in [
        "",
        "p dwc 2 0\n",
        "p dwc 2 0 0\nw 1 1\nw 2 1\n",
        "p dwc 2 0 1\nw 1 1\n",
        "p dwc 2 0 1\nw 1 1\nw 1 2\n",
        "p dwc 2 1 1\nw 1 1\nw 2 1\ne 2 1\n",
        "p dwc 2 1 1\nw 1 1\nw 2 1\ne 1 1\n",
        "p dwc 2 1 1\nw 1 1\nw 2 x\ne 1 2\n",
        "p dwc 2 1 1\nw 1 1\nw 2 0\ne 1 2\n",
        "p dwc 2 0 1\nw 1 1\nw 2 1\nq 1\n",
        "p dwc 2 0 1\nw 1 1\nw 3 1\n",
        # header sizes are checked against the body before any allocation
        "p dwc 4611686018427387904 0 1\nw 1 1\n",
    ]:
        with pytest.raises(FormatError):
            parse_dwc(text)
    # a negative header count is refused on the header line itself
    for text in ["p dwc -1 0 1\n", "c x\np dwc 2 -1 1\nw 1 1\nw 2 1\n"]:
        with pytest.raises(FormatError, match=r"^line [12]: (n|m)=-1 must be >= 0"):
            parse_dwc(text)
    # a repeated edge is refused on the line that repeats it
    with pytest.raises(FormatError, match=r"^line 5: duplicate edge \(1,2\)"):
        parse_dwc("p dwc 2 2 1\nw 1 1\nw 2 1\ne 1 2\ne 1 2\n")


def test_dwc_parse_memory_does_not_grow_with_the_file():
    # rows are read a piece at a time and adjacency rows filled as they
    # arrive, so no per-line list of the whole file is ever held
    text = serialize_dwc(bench_instance(800, 6, 1))
    tracemalloc.start()
    try:
        parse_dwc(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_dwc_line_numbers_hold_past_the_piece_cap(eol):
    # a file of several capped pieces; its last line is the one at fault
    text = serialize_dwc(bench_instance(200, 7, 1))
    last = text.count("\n") + 1
    edge = text.splitlines()[-1]
    u, v = edge.split()[1:]
    for bad, message in [
        (text + "x 1 2\n", rf"^line {last}: unexpected directive 'x'"),
        (text + edge + "\n", rf"^line {last}: duplicate edge \({u},{v}\)"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_dwc(bad.replace("\n", eol))


INTERVAL = """p interval 3 2
i 1 1 3 1
i 2 2 5 2
i 3 4 6 1
"""


def test_parse_interval():
    inst, rep = parse_interval(INTERVAL)
    assert inst.k == 2
    assert rep.intervals == ((1, 3), (2, 5), (4, 6))
    assert inst.graph.edges() == [(0, 1), (1, 2)]
    assert serialize_interval(rep, 2) == INTERVAL


def test_interval_errors():
    with pytest.raises(FormatError):
        parse_interval("p interval 1 1\ni 1 5 4 1\n")
    with pytest.raises(FormatError):
        parse_interval("p interval 2 1\ni 1 0 1 1\n")
    with pytest.raises(FormatError):
        parse_interval("p interval 1 1\ni 1 0 1 0\n")
    with pytest.raises(FormatError):
        parse_interval("p interval 4611686018427387904 1\ni 1 0 1 1\n")
    with pytest.raises(FormatError, match=r"^line 1: n=-2 must be >= 0"):
        parse_interval("p interval -2 1\n")


SETCOVER = """p setcover 2 3 1
s 1 1
s 2 2
s 3 1 2
"""


def test_parse_setcover():
    sc = parse_setcover(SETCOVER)
    assert sc.universe == 2 and sc.budget == 1
    assert sc.family == (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    assert serialize_setcover(sc) == SETCOVER


def test_setcover_errors():
    with pytest.raises(FormatError):
        parse_setcover("p setcover 2 1 1\ns 1\n")
    with pytest.raises(FormatError):
        parse_setcover("p setcover 2 1 1\ns 1 3\n")
    with pytest.raises(FormatError):
        parse_setcover("p setcover 2 2 1\ns 1 1\ns 1 2\n")
    with pytest.raises(FormatError):
        parse_setcover("p setcover 2 4611686018427387904 1\ns 1 1\n")
    with pytest.raises(FormatError, match=r"^line 1: universe=-1 must be >= 0"):
        parse_setcover("p setcover -1 1 1\ns 1 1\n")
    with pytest.raises(FormatError, match=r"^line 1: sets=-1 must be >= 0"):
        parse_setcover("p setcover 2 -1 1\n")


def test_detect_format():
    assert detect_format(DWC) == "dwc"
    assert detect_format(INTERVAL) == "interval"
    assert detect_format(SETCOVER) == "setcover"
    with pytest.raises(FormatError):
        detect_format("p nonsense 1\n")


def test_setcover_duplicate_elements_collapse():
    sc = parse_setcover("p setcover 2 1 1\ns 1 1 1 2\n")
    assert sc.family == (frozenset({0, 1}),)


def test_serializers_are_canonical():
    rep = IntervalRepresentation(((3, 4), (0, 2)), (2, 1))
    text = serialize_interval(rep, 3)
    _, rep2 = parse_interval(text)
    assert rep2 == rep
    sc = SetCoverInstance(3, (frozenset({2, 0}),), 2)
    assert "s 1 1 3" in serialize_setcover(sc)


# ---- round-trip properties ----


@st.composite
def dwc_cases(draw):
    """An instance with its sorted edge list: on at most 40 vertices an
    edgeless, any, dense or complete edge set, or on at most 70 vertices a
    near-dense one, each pair kept with one probability in 0.6-0.97, whose
    rows fall on both sides of the writer's dense-row crossover."""
    kind = draw(st.sampled_from(["edgeless", "any", "dense", "complete", "near-dense"]))
    n = draw(st.integers(0, 70 if kind == "near-dense" else 40))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "any":
        chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
        edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
    elif kind == "dense":
        few = draw(st.sets(st.sampled_from(pairs), max_size=6)) if pairs else set()
        edges = [e for e in pairs if e not in few]
    elif kind == "near-dense":
        p = draw(st.floats(0.6, 0.97))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        edges = [e for e in pairs if rng.random() < p]
    else:
        edges = pairs if kind == "complete" else []
    weights = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    k = draw(st.integers(1, 100))
    return DualInstance(build_graph(n, edges, weights), k), edges


def _complete_without(n, missing):
    """K_n without the pairs in ``missing``, as a dwc case."""
    edges = [e for e in itertools.combinations(range(n), 2) if e not in missing]
    return DualInstance(build_graph(n, edges, [1] * n), 1), edges


@settings(max_examples=150, deadline=None)
@given(dwc_cases())
@example((DualInstance(build_graph(0, [], []), 1), []))
@example((DualInstance(build_graph(1, [], [7]), 3), []))
# dense rows whose only higher non-neighbour is n - 1, or u + 1, a row with
# no higher neighbour at all, and a dense row with four non-neighbours
@example(_complete_without(20, {(0, 19)}))
@example(_complete_without(20, {(3, 4)}))
@example(_complete_without(20, {(5, v) for v in range(6, 20)}))
@example(_complete_without(70, {(0, 10), (0, 11), (0, 40), (0, 69)}))
def test_dwc_round_trip_property(case):
    inst, edges = case
    g = inst.graph
    canonical = "".join(
        [f"p dwc {g.n} {len(edges)} {inst.k}\n"]
        + [f"w {v + 1} {w}\n" for v, w in enumerate(g.weights)]
        + [f"e {u + 1} {v + 1}\n" for u, v in edges]
    )
    assert serialize_dwc(inst) == canonical
    assert parse_dwc(canonical) == inst
    assert serialize_dwc(parse_dwc(canonical)) == canonical
    assert g.edges() == edges
    assert g.edges() == [
        (u, v) for u, v in itertools.combinations(range(g.n), 2) if g.has_edge(u, v)
    ]


@st.composite
def interval_cases(draw):
    n = draw(st.integers(0, 40))
    ivs = []
    for _ in range(n):
        left = draw(st.integers(-50, 50))
        ivs.append((left, left + draw(st.integers(0, 20))))
    weights = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    return IntervalRepresentation(tuple(ivs), tuple(weights)), draw(st.integers(1, 100))


@settings(max_examples=100, deadline=None)
@given(interval_cases())
def test_interval_round_trip_property(case):
    rep, k = case
    text = serialize_interval(rep, k)
    inst, parsed = parse_interval(text)
    assert parsed == rep
    assert inst == DualInstance(intervals_to_graph(rep), k)
    assert serialize_interval(parsed, k) == text


@st.composite
def setcover_cases(draw):
    universe = draw(st.integers(1, 40))
    elems = st.integers(0, universe - 1)
    family = draw(st.lists(st.frozensets(elems, min_size=1), min_size=1, max_size=40))
    return SetCoverInstance(universe, tuple(family), draw(st.integers(1, 100)))


@settings(max_examples=100, deadline=None)
@given(setcover_cases())
def test_setcover_round_trip_property(sc):
    text = serialize_setcover(sc)
    assert parse_setcover(text) == sc
    assert serialize_setcover(parse_setcover(text)) == text


# ---- any text: a valid instance or a DwcError ----

_FIELD = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from([str(10**23), str(-(10**23)), str(1 << 62), "9" * 4301]),
    st.integers().map(str),
)
_TOKEN = st.one_of(st.integers(-1, 4).map(str), st.text(max_size=3))


@st.composite
def any_text(draw):
    """Mostly a canonical file of one of the three formats, with one header
    token swapped for another format's tag or a negative, zero or huge
    integer, a body line dropped or a stray line added; sometimes arbitrary
    text."""
    kind = draw(st.sampled_from(["dwc", "interval", "setcover", "text"]))
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "dwc":
        text = serialize_dwc(draw(dwc_cases())[0])
    elif kind == "interval":
        text = serialize_interval(*draw(interval_cases()))
    else:
        text = serialize_setcover(draw(setcover_cases()))
    head, *body = text.splitlines()
    head = head.split()
    if draw(st.booleans()):
        i = draw(st.integers(1, len(head) - 1))
        head[i] = draw(_FIELD if i > 1 else st.sampled_from(["dwc", "interval", "setcover"]))
    if body and draw(st.booleans()):
        del body[draw(st.integers(0, len(body) - 1))]
    if draw(st.booleans()):
        stray = [draw(st.sampled_from("weisc")), *draw(st.lists(_TOKEN, max_size=5))]
        body.insert(draw(st.integers(0, len(body))), " ".join(stray))
    return "\n".join([" ".join(head), *body]) + "\n"


def _header(text):
    """The header's integer fields, read the way the parsers read them."""
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] != "c":
            return [int(t) for t in toks[2:]]


def _dwc_fields(inst):
    assert parse_dwc(serialize_dwc(inst)) == inst
    return [inst.graph.n, inst.graph.m, inst.k]


def _interval_fields(inst, rep):
    assert inst == DualInstance(intervals_to_graph(rep), inst.k)
    assert parse_interval(serialize_interval(rep, inst.k)) == (inst, rep)
    return [rep.n, inst.k]


def _setcover_fields(sc):
    assert parse_setcover(serialize_setcover(sc)) == sc
    return [sc.universe, len(sc.family), sc.budget]


@settings(max_examples=400, deadline=None)
@given(any_text())
@example("p interval -2 1\n")
@example("p dwc -1 0 1\n")
@example("p setcover 2 -1 1\n")
@example("p dwc 3 0 100000\nw 1 1\nw 2 1\nw 3 1\n")
def test_any_text_gives_an_instance_or_a_dwc_error(text):
    # a returned instance is valid (it round-trips) and agrees with its header
    parsers = {
        "dwc": lambda: _dwc_fields(parse_dwc(text)),
        "interval": lambda: _interval_fields(*parse_interval(text)),
        "setcover": lambda: _setcover_fields(parse_setcover(text)),
    }
    try:
        kind = detect_format(text)
    except DwcError:
        kind = None
    for name, fields in parsers.items():
        try:
            assert fields() == _header(text)
        except DwcError:
            continue
        assert kind == name



# ---- the comment and integer rules, the same for every format ----

# per format: its parser, a file whose body integers are {} slots, plain
# values for them, the same values spelt as int() also reads them, and a
# misspelt directive that starts with "c" with the error it must raise
RULE_FILES = {
    "dwc": (
        parse_dwc,
        "p dwc 2 1 1\nw 1 {}\nw 2 {}\ne {} {}\n",
        ["1000", "7", "1", "2"],
        ["1_000", "+7", "١", "٢"],
        "p dwc 2 0 1\nw 1 1\nw 2 1\ncontinue here e 1 2\n",
        r"^line 4: unexpected directive 'continue'",
    ),
    "interval": (
        parse_interval,
        "p interval 2 1\ni 1 {} 5 1\ni 2 {} 9 {}\n",
        ["-1000", "7", "1"],
        ["-1_000", "+7", "١"],
        "p interval 1 1\ni 1 0 1 1\ncontinue here i 1 0 1 1\n",
        r"^line 3: expected 'i ",
    ),
    "setcover": (
        parse_setcover,
        "p setcover 2 2 1\ns 1 {} {}\ns 2 {}\n",
        ["1", "2", "2"],
        ["0_1", "+2", "٢"],
        "p setcover 1 1 1\ns 1 1\ncover s 1 1\n",
        r"^line 3: expected 's ",
    ),
}


@pytest.mark.parametrize("kind", sorted(RULE_FILES))
def test_comment_and_integer_rules(kind):
    parse, template, plain, lax, directive, message = RULE_FILES[kind]
    text = template.format(*plain)
    expected = parse(text)
    # a comment line's first token is c, alone or followed by a tab; a
    # comment holding '+' or '_' sends the file through the closer integer check
    head, *body = text.splitlines(keepends=True)
    commented = "c 1_000 +7\n" + head + "c\n" + "".join(line + "c\tnote\n" for line in body)
    assert parse(commented) == expected
    with pytest.raises(FormatError, match=message):
        parse(directive)
    # only ASCII decimal digits with an optional leading '-' make an integer
    slot_lines = [part.count("\n") + 1 for part in itertools.accumulate(template.split("{}"))]
    for i, tok in enumerate(lax):
        fields = plain[:i] + [tok] + plain[i + 1 :]
        with pytest.raises(FormatError, match=rf"^line {slot_lines[i]}: "):
            parse(template.format(*fields))
    with pytest.raises(FormatError, match=r"^line 2: "):
        parse(template.format(*lax))
    # a file holds printable ASCII, tab, CR and LF only: Unicode or control
    # whitespace would split fields or lines where the serializer never does
    assert parse(text.replace("\n", "\r\n")) == expected
    last = text.rindex(" ")
    first, rest = text.split("\n", 1)
    bad_files = [
        ("c ٢\n" + text, 1),
        (text[:last] + "\u2003" + text[last + 1 :], text.count("\n")),
        *((first + "\n" + rest.replace("\n", brk, 1), 2) for brk in "\x85\x0b\x0c"),
    ]
    for bad, line in bad_files:
        with pytest.raises(FormatError, match=rf"^line {line}: character "):
            parse(bad)
    # lines end at a newline only: a lone carriage return is whitespace, so a
    # file whose lines end at one is a single, overlong problem line
    with pytest.raises(FormatError, match=r"^line 1: expected 'p "):
        parse(text.replace("\n", "\r"))
    # line numbers hold across the pieces a long file is split into, with
    # LF and with CRLF line ends
    pad = "c padding\n" * 300
    late_field = pad + template.format(lax[0], *plain[1:])
    late_char = pad + bad_files[1][0]
    for eol in ("\n", "\r\n"):
        with pytest.raises(FormatError, match=rf"^line {300 + slot_lines[0]}: field "):
            parse(late_field.replace("\n", eol))
        with pytest.raises(FormatError, match=rf"^line {300 + bad_files[1][1]}: character "):
            parse(late_char.replace("\n", eol))
