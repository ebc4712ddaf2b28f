import contextlib
import hashlib
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
from dwcolor.instances import bench_instance, gen_tight_general
from dwcolor.kernel import kernelize
from dwcolor.graph import Coloring, build_graph, coloring_weight, is_proper
from conftest import absorb_heavy_graph, complete_graph, cycle_graph, star_graph

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


def test_solve_absorb_heavy_file(tmp_path):
    # t = 22, the table's cap, with 605 clique vertices that may absorb
    g = absorb_heavy_graph()
    path = tmp_path / "absorb.dwc"
    path.write_text(serialize_dwc(DualInstance(g, 12)))
    proc = run_cli(["solve", str(path), "--emit-certificate"])
    assert proc.returncode == 0 and proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["answer"] == "yes" and out["sigma"] == 611
    cert = Coloring(tuple(tuple(v - 1 for v in cls) for cls in out["certificate"]))
    assert is_proper(g, cert) and coloring_weight(g, cert) == 611


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


# sha256 of `kernelize --emit-trace` stdout followed by `audit` stdout, both
# exiting 0; pinned so that a change to how the kernel is derived cannot
# change what either command prints
_PINNED_KERNEL_OUTPUTS = {
    "bench-60-3": "08e91d2b896273e014be752dc28b20d3cb408ec48cd768d5368b6cdd0a067142",
    "bench-60-4": "07a3fcc2be0c74ff4191974e0a93a95ca98c65ddae8335659a14797e565faa2b",
    "bench-60-5": "139484cfa3c04fda57f176cd5b12d6a07df3570776369bc296d24b2d29d65f01",
    "bench-64-3": "af5abce3e2fda0f606cbb38a7ecad7fd2d5dfd35984654f3a7442c7d1a946f40",
    "bench-64-4": "044bf97059550007e4a1017ffcf1f693d9562ede420c8841afec14cd8764979a",
    "bench-64-5": "40f3d75bb654c938276b952d1e6150e02ee4f7c049ce01a92ca94f14a338a52a",
    "bench-68-3": "344bdbbe43bac65b2ca2e110eade4f3411995a756bdf76a8715aa5ac9a709e5f",
    "bench-68-4": "450cf4b535b7e07d6251704537c735d4050ce5328f25628dc9c25d5f19f89cab",
    "bench-68-5": "fcde3174a596f5b22c71da5538bf457fb443942b0efcdcf624ef3afad430f98e",
    "bench-72-3": "e5a9caf462d5e20d7fffc852e05d58da5b59a0195ff2077657ead0694c6bc56c",
    "bench-72-4": "175048973dec6c35f9a7deef6eed5acf8423e71a38cfc83a7517d8687213d6c9",
    "bench-72-5": "7c79e43b1432974c2bc5e0aeb4ea966f10d4e83d0dbd82b59d467c3a7fa8cdac",
    "bench-76-3": "bce758dc2605e1ee8ffef6707391dd41e441010e4e73ad2e2cfd3067b39eaad8",
    "bench-76-4": "f293a40160b8070aeb48d9a24c1e2c20931f95ed6ae2133a719e5dbd98ebffb0",
    "bench-76-5": "9c34cba1d27e97c0e43241beadd0390512c16b1bdf3d91729f913c09af4ca7a7",
    "bench-80-3": "75cdd3530ee67d15487e4ef7f86ee1aac6eb48f64a63e5b8e60a147eb2b317af",
    "bench-80-4": "b82f2a41774afb756ba58215a53a497703807a40584233ccda7d754ab2392086",
    "bench-80-5": "86767dc3a61c6e8b1d9c9d960d46b9d29c70c0cd225bb291e4fb3500e63999a9",
    "bench-84-3": "f62eff87078346d8fab3a80071f0196429f9ea4b7800e5523872d2869c8d1f38",
    "bench-84-4": "cfcebb32d6b549d37b50ecda76f2e45ef8317444e95adb1ef575fbf5acd86717",
    "bench-84-5": "c454d40386b0c87fe0c3b1ad2d0a719965246396637a9e363891b69afd65e2a9",
    "bench-88-3": "a9e7bd80ec86f96800713250415824c1dce34c2ac5bc66dea7cb7c2715385059",
    "bench-88-4": "dad11a5f29f0b9384f77410be12c05796867017990015aac52e30310f209ae6d",
    "bench-88-5": "73f6de0dddeb94099d579ce42c7ceb6b4b8ff4e33913ba8c535c065f4624fa99",
    "bench-92-3": "543c479779a6e89c3edee5cafdb4a5b79d3960e1eee97ff49974fe944e010b28",
    "bench-92-4": "d8b56e63931381c5ef176ae145cb952700eae9f93ef1344dfec064cce9f04dc0",
    "bench-92-5": "bef381dfc3116ca2c8f4108295f5eb0cdf6de5f9731604dedc45c8588f660115",
    "bench-96-3": "2ccc8be0498b1bb3d89e2a24ce9142ffdeaf22ddae280b2e5e2516dddd1b7baa",
    "bench-96-4": "9ef4707ccf617228381ce4fa7b0d92e2d2783fb8d51492e9e80cc56a759c2e31",
    "bench-96-5": "a0e66ec3565b00a4f874e392774eb3ef84e9ec47b5833ab494dac93481598512",
    "bench-100-3": "c8fdf65f585094ea3e9250f45333878c7578e3fdd706f79e7d5448e227af716b",
    "bench-100-4": "0030f3c0b8b66e550f6e7bcb12983ab8d96aba71770fe12f596ed831574000a3",
    "bench-100-5": "eaa1164cd9eb79eaf66aa7567cdc3410515ccd547f6b62675cb56ab58e0c8253",
    "bench-104-3": "10b84ec0ea8c53c195db6e8f8336b50502c5ba23eb58a2366dfd41d7a8494739",
    "bench-104-4": "65fc25a60d5ed1f4b016f1597180f566ffa176b2404e66d2ce1845119c76446b",
    "bench-104-5": "d7074ff243c86cccf2347a9370cad5801c6935e7ceb507fcb050bbe2c7417593",
    "bench-108-3": "4657b93e899bb5256a70c47e877a9cc0669cddb3c9515350da7332584acb9a4f",
    "bench-108-4": "1187003c4677f32842ff566c2c7c7c64974fd7ef08bae6b5bc8cf0cf9543c6ae",
    "bench-108-5": "1301bcfe25e1f2f4c55f2a1fd1a6ef3093a224fcd4f22f9abe71a5022366112f",
    "bench-112-3": "b242df102da62f024b6ea0c2608775309893a505f66f03633edabb8cdb409617",
    "bench-112-4": "5b353f487be37f231e5cc8343075ce094fcd94df46eb20385b21c111ff74c25b",
    "bench-112-5": "87963e5d430bcc89bd5ba7fe75ca785c6190b506e6f0cc201fd6fcfd3ef67381",
    "bench-116-3": "0ecc186fe8bfaabc6d258e047b02da63025317e16756fc9e6003f685ec01be07",
    "bench-116-4": "708f26b6c81722b5605b0332b1e2c17a30d6acc3450d79152d99ebe5e4ab9592",
    "bench-116-5": "381bfafbe85496f840c58371e68c90fbceeb4e9c2e60364a183aaf6a69bd4e72",
    "tight-2": "90dbf5d8d329a2b2de9b7209f9ac4c05cbca2638688c1ebfc8a413b981e421d5",
    "tight-3": "ee21eb631842ae78a33922be5133974344d5f0f883f06a2a50406cb7b5bbc208",
    "tight-4": "6ff2c3efaa9c691ab1a90eb25ba5a815cd185fd99b6f9e591c0112f35038a802",
    "tight-5": "0213643436b83ba861d23d4050fbc200e9b8f97af59d7d5f8d7813785013cc27",
    "K5": "5ba0ed2a899aa967ae7511eeb484a972a7c7431674f87b6270ea675802fa6ddc",
    "star": "b0fbe9e9cd19abd08600e9deef7d6cde260c08cd92dd79bc28af6be96f4863d8",
    "C4": "41ef4c558159c9e56bc07b47920441f805e5e5103b409e73b893ebe6b4949666",
}


def _pinned_kernel_instance(name: str) -> DualInstance:
    kind, *args = name.split("-")
    if kind == "bench":
        return bench_instance(int(args[0]), int(args[1]), 1)
    if kind == "tight":
        return gen_tight_general(int(args[0]))
    graphs = {"K5": (complete_graph(5), 1), "star": (star_graph(3), 2), "C4": (cycle_graph(4), 3)}
    return DualInstance(*graphs[kind])


@pytest.mark.parametrize("name", list(_PINNED_KERNEL_OUTPUTS))
def test_kernel_outputs_are_pinned(tmp_path, capsys, name):
    path = tmp_path / "inst.dwc"
    path.write_text(serialize_dwc(_pinned_kernel_instance(name)))
    assert main(["kernelize", str(path), "--emit-trace"]) == 0
    assert main(["audit", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _PINNED_KERNEL_OUTPUTS[name]


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
