import pytest

from dwcolor import FormatError
from dwcolor.formats import (
    detect_format,
    parse_dwc,
    parse_interval,
    parse_setcover,
    serialize_dwc,
    serialize_interval,
    serialize_setcover,
)
from dwcolor.instances import SetCoverInstance, IntervalRepresentation


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
        "p dwc 2 2 1\nw 1 1\nw 2 1\ne 1 2\ne 1 2\n",
        "p dwc 2 1 1\nw 1 1\nw 2 x\ne 1 2\n",
        "p dwc 2 1 1\nw 1 1\nw 2 0\ne 1 2\n",
        "p dwc 2 0 1\nw 1 1\nw 2 1\nq 1\n",
        "p dwc 2 0 1\nw 1 1\nw 3 1\n",
        # header sizes are checked against the body before any allocation
        "p dwc 4611686018427387904 0 1\nw 1 1\n",
    ]:
        with pytest.raises(FormatError):
            parse_dwc(text)


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
