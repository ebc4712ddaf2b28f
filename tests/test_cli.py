import json
import subprocess
import sys
from dataclasses import asdict

import pytest

from dwcolor.cli import main
from dwcolor.formats import parse_dwc, serialize_dwc
from dwcolor.fpt import DualInstance
from dwcolor.kernel import kernelize
from conftest import complete_graph

P3 = "p dwc 3 2 1\nw 1 1\nw 2 2\nw 3 1\ne 1 2\ne 2 3\n"
K2 = "p dwc 2 1 1\nw 1 3\nw 2 5\ne 1 2\n"


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
    )
    return proc


def test_solve_yes_exit_zero(p3_file, capsys):
    assert main(["solve", p3_file, "--fpt"]) == 0
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


def test_solve_oracle_cap_exceeded_exit_two(p3_file, capsys):
    assert main(["solve", p3_file, "--oracle", "--cap", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_oracle_cap_cannot_raise_table_bound(tmp_path, capsys):
    # a raised --cap would let the oracle commit 2^n-entry tables
    path = tmp_path / "k23.dwc"
    path.write_text(serialize_dwc(DualInstance(complete_graph(23), 1)))
    assert main(["solve", str(path), "--oracle", "--cap", "64"]) == 2
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
    assert main(["audit", str(path), "--claims"]) == 0
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
    assert main(["audit", str(path), "--claims"]) == 0
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


def test_bench_csv_and_jobs_determinism(monkeypatch, capsys):
    import dwcolor.cli as cli

    # shrink the suite for test speed: same shape, tiny sizes
    def tiny_cases(suite, seed):
        return [
            cli._BenchCase(suite, f"k={k}", 24, k, seed * 1000 + k) for k in (2, 3)
        ]

    monkeypatch.setattr(cli, "_bench_cases", tiny_cases)
    assert main(["bench", "fpt-scaling", "--seed", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["bench", "fpt-scaling", "--seed", "1", "--jobs", "2"]) == 0
    out2 = capsys.readouterr().out

    def strip_runtime(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        idx = rows[0].index("runtime_ms")
        return [tuple(r[:idx] + r[idx + 1 :]) for r in rows]

    assert strip_runtime(out1) == strip_runtime(out2)
    header = out1.splitlines()[0]
    assert header == "suite,case,n,m,k,antimatching_size,answer,sigma,runtime_ms"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # only `bench --jobs > 1` needs a process pool; importing it at module
    # level would cost resident memory in every process that imports the CLI
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, dwcolor.cli; print('concurrent.futures' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
