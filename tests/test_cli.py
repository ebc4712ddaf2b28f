import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwcolor
from dwcolor import cli
from dwcolor.cli import main
from dwcolor.formats import parse_dwc, serialize_dwc
from dwcolor.fpt import DualInstance
from dwcolor.instances import bench_instance
from dwcolor.kernel import kernelize
from dwcolor.graph import Coloring, build_graph
from conftest import absorb_heavy_graph, complete_graph

P3 = "p dwc 3 2 1\nw 1 1\nw 2 2\nw 3 1\ne 1 2\ne 2 3\n"
K2 = "p dwc 2 1 1\nw 1 3\nw 2 5\ne 1 2\n"

# child interpreters import the same package as this process, also when it
# comes from pytest's `pythonpath` setting rather than the environment
SRC = str(Path(dwcolor.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)}


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.dwc"
    path.write_text(P3)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.dwc"
    path.write_text(K2)
    return str(path)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "dwcolor.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc


def test_solve_yes_exit_zero(p3_file, capsys):
    assert main(["solve", p3_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes"
    assert out["sigma"] is None  # pair-merge branch leaves sigma unknown
    assert out["weight_sum"] == 4 and out["k"] == 1
    assert set(out["stats"]) == {"antimatching_size", "clique_size", "n", "m", "runtime_ms"}


def test_solve_oracle_sigma(p3_file, capsys):
    assert main(["solve", p3_file, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "yes" and out["sigma"] == 3


def test_solve_no_exit_one(k2_file, capsys):
    assert main(["solve", k2_file, "--both", "--emit-certificate"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] == "no" and out["sigma"] == 8
    assert out["certificate"] == [[1], [2]]


def test_solve_checks_certificate_before_printing(k2_file, capsys, monkeypatch):
    real = dwcolor.fpt.extract_certificate

    def merge_first_two(table):
        first, second, *rest = real(table).classes
        return Coloring((tuple(sorted(first + second)), *rest))

    monkeypatch.setattr(dwcolor.fpt, "extract_certificate", merge_first_two)
    assert build_graph(2, [(0, 1)], [3, 5]) == parse_dwc(K2).graph  # merged ends adjacent
    assert main(["solve", k2_file, "--emit-certificate"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: certificate: ") and "Traceback" not in err


def test_solve_both_checks_sigma(tmp_path, capsys, monkeypatch):
    # a table sigma one too high, with the verdict left as it was
    real = cli.solve_dual

    def off_by_one(inst):
        ans = real(inst)
        return replace(ans, sigma=ans.sigma + 1)

    inst = bench_instance(12, 3, 1)
    assert real(inst).sigma is not None  # the table branch decides it
    path = tmp_path / "b12.dwc"
    path.write_text(serialize_dwc(inst))
    monkeypatch.setattr(cli, "solve_dual", off_by_one)
    assert main(["solve", str(path), "--both"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: solver disagreement") and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [["solve", "--fpt"], ["solve", "--oracle", "--cap", "2"], ["audit", "--claims"]],
)
def test_removed_options_exit_two(p3_file, capsys, args):
    command, *flags = args
    with pytest.raises(SystemExit) as exc:
        main([command, p3_file, *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: unrecognized arguments" in err


def test_solve_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.dwc"
    bad.write_text("p dwc 2 0 1\nw 1 1\nw 2 oops\n")
    assert main(["solve", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exit_two(tmp_path):
    bad = tmp_path / "bad.dwc"
    bad.write_bytes(b"p dwc 2 0 1\nw 1 \xff\n")
    proc = run_cli(["solve", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["random", "--n", "5", "--wmax", "0"],
        ["random", "--n", "-1"],
        ["random", "--n", "5", "--p", "1.5"],
        ["random", "--n", "5", "--k", "0"],
        ["random", "--n", "100000"],
        ["tight-general", "--k", "40"],
        ["tight-interval", "--k", "100"],
    ],
)
def test_generator_argument_errors_exit_two(args):
    proc = run_cli(["generate", *args])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_solve_table_too_wide_exit_two(tmp_path):
    # edgeless: 30 antimatching pairs, k = 31 forces the table over t = 60
    path = tmp_path / "edgeless.dwc"
    path.write_text("p dwc 60 0 31\n" + "".join(f"w {v} 1\n" for v in range(1, 61)))
    proc = run_cli(["solve", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_solve_absorb_tables_too_large_exit_two(tmp_path):
    # within the fresh table's width, but 605 absorb layers of 2^16 entries
    path = tmp_path / "absorb.dwc"
    path.write_text(serialize_dwc(DualInstance(absorb_heavy_graph(), 12)))
    proc = run_cli(["solve", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@st.composite
def small_files(draw):
    """A .dwc file on at most 10 vertices, from edgeless to complete, with
    weights 1..5 and k in 1..6."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["edgeless", "any", "complete"]))
    if kind == "any":
        edges = [e for e in pairs if draw(st.booleans())]
    else:
        edges = pairs if kind == "complete" else []
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return serialize_dwc(DualInstance(build_graph(n, edges, weights), draw(st.integers(1, 6))))


@settings(max_examples=150, deadline=None)
@given(small_files())
def test_certificate_valid_through_cli_json(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cert") / "g.dwc"
    path.write_text(text)
    g = parse_dwc(text).graph
    for mode in ([], ["--both"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", str(path), "--emit-certificate", *mode])
        ans = json.loads(out.getvalue())
        assert code == {"yes": 0, "no": 1}[ans["answer"]]
        cert = ans["certificate"]
        if cert is None:  # k >= weight_sum: answered no without a coloring
            assert ans["answer"] == "no" and ans["k"] >= ans["weight_sum"]
            continue
        assert sorted(v for cls in cert for v in cls) == list(range(1, g.n + 1))
        assert not any(
            g.has_edge(u - 1, v - 1) for cls in cert for u, v in itertools.combinations(cls, 2)
        )
        weight = sum(max(g.weights[v - 1] for v in cls) for cls in cert)
        if mode:
            assert weight >= ans["sigma"]
        elif ans["sigma"] is not None:
            assert weight == ans["sigma"]
        if ans["answer"] == "yes":
            assert weight <= ans["weight_sum"] - ans["k"]


def test_missing_file_exit_two(capsys):
    assert main(["solve", "/nonexistent/file.dwc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_kernelize_json(p3_file, capsys):
    assert main(["kernelize", p3_file, "--emit-trace"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict_shortcut"] == "yes"
    assert out["reduced"]["n"] == 2
    assert out["bound"]["limit"] == 0
    assert out["log"][0]["rule"] == "delete_universal"
    assert out["log"][0]["deleted"] == [2]


def test_kernelize_k5(tmp_path, capsys):
    lines = ["p dwc 5 10 1"] + [f"w {v} 2" for v in range(1, 6)]
    lines += [f"e {u} {v}" for u in range(1, 6) for v in range(u + 1, 6)]
    path = tmp_path / "k5.dwc"
    path.write_text("\n".join(lines) + "\n")
    assert main(["kernelize", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict_shortcut"] == "no"
    assert out["reduced"] == {"n": 1, "m": 0, "k": 1, "weights": [1], "edges": []}
    assert out["log"] is None


def test_kernelize_tight_instance_untouched(tmp_path, capsys):
    assert main(["generate", "tight-general", "--k", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "tg.dwc"
    path.write_text(text)
    assert main(["kernelize", str(path), "--emit-trace"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced"]["n"] == 10
    assert out["log"] == [] and out["verdict_shortcut"] is None
    assert out["vertex_map"] == list(range(1, 11))
    assert out["bound"] == {"value": 10, "limit": 10}


def test_solve_oracle_cap_cannot_raise_table_bound(tmp_path, capsys):
    # the oracle refuses 23 vertices before it commits 2^n-entry tables
    path = tmp_path / "k23.dwc"
    path.write_text(serialize_dwc(DualInstance(complete_graph(23), 1)))
    assert main(["solve", str(path), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_generate_deterministic_bytes():
    a = run_cli(["generate", "random", "--n", "20", "--p", "0.5", "--k", "3", "--seed", "7"])
    b = run_cli(["generate", "random", "--n", "20", "--p", "0.5", "--k", "3", "--seed", "7"])
    assert a.returncode == 0 and a.stdout == b.stdout
    c = run_cli(["generate", "random", "--n", "20", "--p", "0.5", "--k", "3", "--seed", "8"])
    assert c.stdout != a.stdout


def test_generate_tight_general(tmp_path, capsys):
    assert main(["generate", "tight-general", "--k", "4"]) == 0
    text = capsys.readouterr().out
    assert "p dwc 27 " in text


def test_generate_setcover(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("p setcover 2 3 1\ns 1 1\ns 2 2\ns 3 1 2\n")
    assert main(["generate", "setcover", str(sc)]) == 0
    text = capsys.readouterr().out
    assert "p dwc 5 5 3" in text


def test_generate_round_trip(tmp_path, capsys):
    assert main(["generate", "tight-general", "--k", "3"]) == 0
    text = capsys.readouterr().out
    from dwcolor.formats import parse_dwc, serialize_dwc

    inst = parse_dwc(text)
    assert inst.graph.n == 10
    canonical = serialize_dwc(inst)
    assert serialize_dwc(parse_dwc(canonical)) == canonical


def test_audit_claims(tmp_path, capsys):
    assert main(["generate", "tight-general", "--k", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "tg.dwc"
    path.write_text(text)
    assert main(["audit", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["report"]["normal_class_count"] == 3
    assert out["report"]["special_class_count"] == 0


def test_audit_claims_reports_the_kernel_round(tmp_path, capsys):
    # vertices 3-5 form one class of three under a one-pair antimatching:
    # the report describes the partition before truncation cuts it to one
    text = "p dwc 5 6 2\n" + "".join(f"w {v} {v}\n" for v in range(1, 6))
    text += "e 1 3\ne 1 4\ne 1 5\ne 3 4\ne 3 5\ne 4 5\n"
    path = tmp_path / "class.dwc"
    path.write_text(text)
    assert main(["audit", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    report = out["report"]
    assert report["largest_class"] == 3 > report["antimatching_size"] == 1
    trace = kernelize(parse_dwc(text))
    assert report == asdict(trace.claims)
    assert trace.reduced.graph.n < 5


def test_audit_interval(tmp_path, capsys):
    assert main(["generate", "tight-interval", "--k", "2"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "ti.int"
    path.write_text(text)
    assert main(["audit", str(path), "--interval"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "interval" and out["passed"] is True
    assert out["p"] == 2


def test_audit_split(tmp_path, capsys):
    path = tmp_path / "split.dwc"
    path.write_text("p dwc 3 2 2\nw 1 1\nw 2 1\nw 3 1\ne 1 2\ne 2 3\n")
    assert main(["audit", str(path), "--split"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "split" and out["passed"] is True


def test_audit_split_rejects_non_split(tmp_path, capsys):
    path = tmp_path / "c4.dwc"
    path.write_text("p dwc 4 4 2\nw 1 1\nw 2 1\nw 3 1\nw 4 1\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    assert main(["audit", str(path), "--split"]) == 2


def test_cli_import_leaves_concurrent_futures_unloaded():
    # no subcommand needs a process pool; importing one would cost resident
    # memory in every process that imports the CLI
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, dwcolor.cli; print('concurrent.futures' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Inputs that once broke the exit-code contract: header k values whose
# kernel bound has 10^5 bits or could not be computed in memory, a split
# bound k^201 of 4600 digits, a set-cover universe of 300,000, negative
# header counts, non-UTF-8 bytes, a missing file and a removed subcommand;
# and a 178 KB file whose last line repeats an edge, read in several pieces.
_LONG = serialize_dwc(bench_instance(200, 7, 1))
HOSTILE = {
    "k1e5.dwc": "p dwc 3 0 100000\nw 1 1\nw 2 1\nw 3 1\n",
    "k1e23.dwc": f"p dwc 3 0 {10**23}\nw 1 1\nw 2 1\nw 3 1\n",
    "split.dwc": f"p dwc 202 0 {10**23}\n" + "".join(f"w {v} 1\n" for v in range(1, 203)),
    "wide.sc": "p setcover 300000 1 1\ns 1 1\n",
    "neg.int": "p interval -2 1\n",
    "neg.dwc": "p dwc -1 0 1\n",
    "latin1.dwc": "p dwc 2 0 1\nw 1 \xff\n",
    "late-dup.dwc": _LONG + _LONG.splitlines()[-1] + "\n",
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args",
    [
        ["kernelize", "k1e5.dwc"],
        ["kernelize", "k1e23.dwc", "--emit-trace"],
        ["solve", "k1e23.dwc", "--both"],
        ["audit", "k1e5.dwc"],
        ["audit", "split.dwc", "--split"],
        ["generate", "setcover", "wide.sc"],
        ["audit", "neg.int", "--interval"],
        ["solve", "neg.dwc"],
        ["kernelize", "latin1.dwc"],
        ["solve", "late-dup.dwc"],
        ["solve", "missing.dwc"],
        ["bench", "fpt-scaling"],
    ],
    ids=" ".join,
)
def test_exit_code_contract_on_hostile_inputs(tmp_path, args):
    for name, text in HOSTILE.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
    proc = subprocess.run(
        [sys.executable, "-m", "dwcolor.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        cwd=tmp_path,
        timeout=30,
        preexec_fn=_limit_memory,  # 1 GiB of address space
    )
    # only solve answers "no" (exit 1); every other command succeeds or fails
    assert proc.returncode in ((0, 1, 2) if args[0] == "solve" else (0, 2))
    assert "Traceback" not in proc.stderr
    if args[1] == "late-dup.dwc":
        last = HOSTILE["late-dup.dwc"].count("\n")
        assert proc.returncode == 2
        assert f"error: line {last}: duplicate edge" in proc.stderr
