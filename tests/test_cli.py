import gzip
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cli_parity
import graphlets
from gen import gen_er, serialize
from graphlets.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


@pytest.fixture()
def er_file(tmp_path):
    path = tmp_path / "er.txt"
    path.write_text(serialize(gen_er(40, 0.2, 90)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_exact_counts(capsys, k4_file):
    code, doc = run_json(capsys, ["exact", k4_file])
    assert code == 0
    assert doc["n"] == 4 and doc["m"] == 6
    assert doc["counts"]["4-clique"] == 1
    assert doc["counts"]["triangle"] == 4
    assert "timing" in doc and "config" in doc


def test_estimate_with_bounds(capsys, er_file):
    code, doc = run_json(capsys, ["estimate", er_file, "--p", "0.5", "--seed", "3"])
    assert code == 0
    assert doc["inclusion"] == 0.5
    name = "4-path"
    assert doc["lb"][name] <= doc["counts"][name] <= doc["ub"][name]
    assert doc["alpha"] == 0.05
    code2, doc2 = run_json(capsys, ["estimate", er_file, "--p", "0.5",
                                    "--seed", "3", "--no-ci"])
    assert code2 == 0 and "lb" not in doc2


def test_estimate_byte_determinism(capsys, er_file):
    argv = ["estimate", er_file, "--p", "0.3", "--seed", "11"]
    _, doc_a = run_json(capsys, argv)
    _, doc_b = run_json(capsys, argv)
    doc_a.pop("timing")
    doc_b.pop("timing")
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_tsv_output(capsys, k4_file):
    code = main(["exact", k4_file, "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["counts.4-clique"] == "1"
    assert rows["m"] == "6"


def test_output_file(tmp_path, k4_file):
    dest = tmp_path / "out.json"
    assert main(["exact", k4_file, "--output", str(dest)]) == 0
    assert json.loads(dest.read_text())["counts"]["4-clique"] == 1


def test_micro_edge(capsys, k4_file):
    code, doc = run_json(capsys, ["micro", k4_file, "--edge", "0,1"])
    assert code == 0
    assert doc["counts"]["4-clique"] == 1
    assert doc["zones"] == {"common": 2, "only_u": 0, "only_v": 0, "far": 0}


def test_micro_stats(capsys, k4_file):
    code, doc = run_json(capsys, ["micro", k4_file, "--pattern", "triangle"])
    assert code == 0
    assert doc["pattern"] == "triangle"
    assert doc["stats"]["mean"] == 2.0


def test_micro_requires_target(k4_file, capsys):
    assert main(["micro", k4_file]) == 1
    assert "one of the arguments --edge --pattern is required" in capsys.readouterr().err


def test_micro_edge_and_pattern_exclusive(k4_file, capsys):
    assert main(["micro", k4_file, "--edge", "0,1", "--pattern", "4-cycle"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_micro_bad_edge(k4_file, capsys):
    assert main(["micro", k4_file, "--edge", "0:1"]) == 1
    assert main(["micro", k4_file, "--edge", "0,9"]) == 1


def test_micro_edge_on_integer_labels_expects_integers(k4_file, capsys):
    assert main(["micro", k4_file, "--edge", "a,b"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --edge expects integers, got 'a,b'\n"


@pytest.mark.parametrize("argv", [["--edge", "0,1", "--p-edge", "0.4"],
                                  ["--pattern", "4-cycle", "--seed", "1"]],
                         ids=["p-edge", "seed"])
def test_micro_refuses_removed_flags(k4_file, capsys, argv):
    # per-edge counts are exact only: the neighbor-sampling flags are gone
    assert main(["micro", k4_file, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def test_adaptive_cmd(capsys, er_file):
    code, doc = run_json(capsys, ["adaptive", er_file, "--beta", "0.1", "--trace"])
    assert code == 0
    assert doc["converged"] in (True, False)
    assert doc["iterations"] == len(doc["trace"])
    assert doc["sampled_edges"] <= doc["m"]


@pytest.mark.parametrize("argv, reason", [
    (["--beta", "0.5"], "converged"),
    (["--beta", "0.1"], "exhausted"),
    (["--beta", "0", "--t-max", "1"], "t_max"),
])
def test_adaptive_converged_means_its_reason(capsys, er_file, argv, reason):
    # "converged" is true only for a sampled stop: an exhausted run is exact
    # but did not converge, and a run out of rounds did neither
    code, doc = run_json(capsys, ["adaptive", er_file, *argv])
    assert code == 0
    assert (doc["reason"], doc["converged"]) == (reason, reason == "converged")
    assert (doc["sampled_edges"] < doc["m"]) == (reason != "exhausted")


def test_gfd_cmd(capsys, er_file):
    code, doc = run_json(capsys, ["gfd", er_file])
    assert code == 0 and doc["source"] == "exact"
    assert sum(doc["gfd"].values()) == pytest.approx(1.0)
    code2, doc2 = run_json(capsys, ["gfd", er_file, "--p", "0.5", "--seed", "2",
                                    "--variant", "connected"])
    assert code2 == 0 and doc2["source"] == "estimated"
    assert len(doc2["gfd"]) == 6


def test_max_cmd(capsys, er_file):
    code, doc = run_json(capsys, ["max", er_file, "--pattern", "2-star"])
    assert code == 0
    assert doc["exact"] is True
    assert doc["max"] >= 1
    code2, doc2 = run_json(capsys, ["max", er_file, "--pattern", "2-star",
                                    "--p", "0.5", "--weighting", "kcore",
                                    "--seed", "1"])
    assert code2 == 0
    assert doc2["max"] <= doc["max"] and doc2["exact"] is False


def test_oracle_cmd(capsys, k4_file):
    code, doc = run_json(capsys, ["oracle", k4_file])
    assert code == 0 and doc["counts"]["4-clique"] == 1
    code2, doc2 = run_json(capsys, ["oracle", k4_file, "--edge", "0,1"])
    assert code2 == 0 and doc2["counts"]["edge"] == 1


def test_oracle_size_cap(capsys, er_file):
    u, v = graphlets.load_graph(er_file).edges[0]
    for edge in ([], ["--edge", f"{u},{v}"]):  # whole graph, then one edge
        assert main(["oracle", er_file, "--max-n", "10", *edge]) == 3
        assert "resource" in capsys.readouterr().err


def test_verify_cmd(capsys, er_file):
    code, doc = run_json(capsys, ["verify", er_file])
    assert code == 0
    assert doc["match"] is True and doc["mismatches"] == {}


def test_verify_cross_checks_edge_kernel(capsys, er_file, monkeypatch):
    # the oracle and the whole-graph pass still agree; an edge kernel one off
    # in the 3-vertex one-edge total must fail verification on its own
    real = graphlets.cli.accumulate

    def off_by_one(*args, **kwargs):
        acc = real(*args, **kwargs)
        acc.counts[4] += 1
        return acc

    monkeypatch.setattr(graphlets.cli, "accumulate", off_by_one)
    code, doc = run_json(capsys, ["verify", er_file])
    assert code == 4
    assert doc["match"] is False
    bad = doc["mismatches"]["3-node-1-edge"]
    assert bad["expected"] == bad["got"] == bad["edge_kernel"] - 1


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3 4\n")
    good = tmp_path / "good.txt"
    good.write_text("0 1\n1 2\n")
    assert main(["exact", str(bad)]) == 2  # parse error
    assert main(["exact", str(tmp_path / "missing.txt")]) == 3
    assert main(["exact"]) == 1  # missing argument
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["estimate", str(good), "--p", "2.0"]) == 1  # bad design
    assert main(["estimate", str(good), "--size", "99"]) == 1  # size > m
    capsys.readouterr()
    assert main(["exact", str(good), "--workers", "0"]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"


def test_estimate_requires_design(k4_file):
    assert main(["estimate", k4_file]) == 1


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0 1\n1 2\n")))
    code, doc = run_json(capsys, ["exact", "-"])
    assert code == 0 and doc["m"] == 2


def test_stdin_bytes_decoded_like_a_file(capsys, monkeypatch):
    # a lenient text layer (as under the C locale) must not turn bad bytes
    # into a surrogate-escaped label: stdin is decoded like a file
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"caf\xe9 1\n"), errors="surrogateescape"))
    assert main(["exact", "-"]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_gzipped_stdin(capsys, monkeypatch):
    packed = gzip.compress(b"0 1\n1 2\n2 0\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(packed)))
    code, doc = run_json(capsys, ["exact", "-"])
    assert code == 0 and doc["m"] == 3
    assert doc["counts"][graphlets.NAMES[3]] == 1


def declared_scripts(pyproject):
    """The ``[project.scripts]`` table of ``pyproject.toml`` as a dict."""
    text = pyproject.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: flat key = "value" lines only
        scripts, inside = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                key, value = line.split("=", 1)
                scripts[key.strip().strip("\"'")] = value.strip().strip("\"'")
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def test_console_script_entrypoint(tmp_path, k4_file):
    # one end-to-end check, in a separate process, through the callable that
    # the declared console script runs; works with or without an install
    target = declared_scripts(PYPROJECT)["graphlets"]
    assert target == "graphlets.cli:main"
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(graphlets.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", wrapper, "exact", k4_file],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["counts"]["4-clique"] == 1


def test_progress_goes_to_stderr(capsys, k4_file):
    code = main(["exact", k4_file, "--progress"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.err.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["load n=4 m=6", "exact", "write"]
    assert all(re.fullmatch(r"\d+\.\d{3}s", line.rsplit(" ", 1)[1]) for line in lines)
    json.loads(captured.out)  # stdout still clean JSON


ENVELOPE = [
    ["exact"],
    ["estimate", "--p", "0.5"],
    ["micro", "--edge", "0,1"],
    ["adaptive"],
    ["gfd"],
    ["max", "--pattern", "4-cycle"],
    ["oracle"],
    ["verify"],
]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("argv", ENVELOPE, ids=lambda a: a[0])
def test_every_command_carries_the_envelope(capsys, k4_file, argv, fmt):
    assert main([argv[0], k4_file, *argv[1:], "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        keys = set(json.loads(out))
    else:
        keys = {line.split("\t")[0].split(".")[0] for line in out.splitlines()}
    assert {"n", "m", "config", "timing"} <= keys


# labels 2, 3, 0, 1, 4 get dense ids 0..4 by first appearance
PERMUTED = "2 3\n0 1\n1 2\n0 2\n2 4\n3 4\n"
NAMED = "b c\na b\nc a\nc d\nd e\nb e\n"


@pytest.mark.parametrize("text, u, v", [(PERMUTED, 0, 1), (NAMED, "a", "b")],
                         ids=["int-labels", "str-labels"])
def test_edges_cross_the_cli_in_file_labels(tmp_path, capsys, text, u, v):
    path = tmp_path / "labelled.txt"
    path.write_text(text)
    g = graphlets.parse_graph(text)
    truth = graphlets.brute_force_edge_counts(g, (g.labels.index(u), g.labels.index(v)))
    for cmd in ("micro", "oracle"):
        code, doc = run_json(capsys, [cmd, str(path), "--edge", f"{u},{v}"])
        assert code == 0
        assert sorted(doc["edge"], key=str) == [u, v]
        assert [doc["counts"][graphlets.NAMES[i + 1]] for i in range(17)] == truth
    code, doc = run_json(capsys, ["max", str(path), "--pattern", "4-cycle"])
    assert code == 0
    a, b = g.edges[doc["edge_id"]]
    assert doc["endpoints"] == [g.labels[a], g.labels[b]]


@pytest.mark.parametrize("cmd", ["micro", "oracle"])
@pytest.mark.parametrize("text, edge", [
    ("10 20\n20 30\n30 10\n", "0,1"),  # dense ids 0 and 1 are an edge, labels are not
    (NAMED, "a,zz"),
], ids=["sparse-ints", "names"])
def test_unknown_label_exits_1(tmp_path, capsys, cmd, text, edge):
    path = tmp_path / "labelled.txt"
    path.write_text(text)
    assert main([cmd, str(path), "--edge", edge]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {edge} is not an edge of the graph\n"


@pytest.mark.parametrize("argv, code", [
    (["exact"], 0),
    (["estimate", "--p", "0.5"], 0),
    (["estimate", "--p", "0.5", "--weighting", "kcore"], 0),
    (["micro", "--pattern", "4-cycle"], 1),
    (["adaptive"], 0),
    (["gfd"], 1),  # three vertices hold no 4-vertex pattern
    (["max", "--pattern", "4-cycle"], 1),
    (["oracle"], 0),
    (["verify"], 0),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_edgeless_graph(tmp_path, capsys, argv, code):
    path = tmp_path / "edgeless.txt"
    path.write_text("3 0\n")
    assert main([argv[0], str(path), *argv[1:]]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    doc = json.loads(out)
    assert (doc["n"], doc["m"]) == (3, 0)
    assert {k: v for k, v in doc["counts"].items() if v} == {
        "2-node-independent": 3, "3-node-independent": 1}
    if argv[0] == "estimate":  # with no edges every pi_e = 1 holds: a census
        assert doc["inclusion"] == 1.0
        assert all(type(v) is int for v in doc["counts"].values())


def test_cli_parity_against_this_checkout(tmp_path):
    # the parity check run between two checkouts, with this one as both: no
    # run differs, and every subcommand runs to exit code 0
    root = Path(__file__).resolve().parent.parent
    firsts = {}
    for argset in cli_parity.ARGSETS:
        firsts.setdefault(argset[0], argset)
    paths = cli_parity.write_graphs(tmp_path)
    rows = cli_parity.compare(root, root, {"er2": paths["er2"]}, list(firsts.values()))
    assert [old for *_, old, new in rows] == [new for *_, old, new in rows]
    assert sorted(argv[0] for _, argv, (code, *_), _ in rows if code == 0) == sorted(
        ["exact", "estimate", "micro", "adaptive", "gfd", "max", "oracle", "verify"])


def test_reader_errors_exit_2(tmp_path, capsys, monkeypatch):
    loop = tmp_path / "loop.txt"
    loop.write_text("0 1\n1 1\n1 2\n")
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9 bar\n".encode("latin-1"))
    assert main(["exact", str(loop)]) == 2
    assert "line 2: self-loop" in capsys.readouterr().err
    assert main(["exact", str(latin)]) == 2
    assert "UTF-8" in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"caf\xe9 bar\n")))
    assert main(["exact", "-"]) == 2
    capsys.readouterr()
    packed = tmp_path / "packed.bin"  # gzip without the suffix
    packed.write_bytes(gzip.compress(b"0 1\n1 2\n"))
    code, doc = run_json(capsys, ["exact", str(packed)])
    assert code == 0 and doc["m"] == 2
