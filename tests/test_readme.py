"""The README's library and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

from gen import gen_er
from graphlets import from_edges
from graphlets.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # a path first, so the edge-list labels 0..29 are also the dense ids,
    # then random chords and the edge 3-17 the example asks for
    n = 30
    path = [(i, i + 1) for i in range(n - 1)]
    chords = [tuple(map(int, e)) for e in gen_er(n, 0.15, 5).edges]
    lines = [f"{u} {v}" for u, v in path + chords + [(3, 17)]]
    (tmp_path / "mygraph.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)

    ns: dict = {}
    exec(compile(_library_block(), "README.md", "exec"), ns)
    assert ns["g"].n == n
    assert ns["truth"] == ns["exact"].X
    assert (ns["per_edge"].u, ns["per_edge"].v) == (3, 17)


def _command_lines() -> list[list[str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("graphlets ")]


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # mygraph.txt: a path, then random chords, past the 5,000 edges that
    # --size asks for, and the edge 3-17; small.txt: within the oracle's
    # n <= 64, with the edge 0-2
    n = 2000
    path = [(i, i + 1) for i in range(n - 1)]
    chords = [tuple(map(int, e)) for e in gen_er(n, 0.003, 7).edges]
    big = path + chords + [(3, 17)]
    small = [(0, 2)] + [tuple(map(int, e)) for e in gen_er(30, 0.2, 8).edges]
    for name, edges in (("mygraph.txt", big), ("small.txt", small)):
        (tmp_path / name).write_text("".join(f"{u} {v}\n" for u, v in edges))
    assert from_edges(big).m >= 5000
    monkeypatch.chdir(tmp_path)

    lines = _command_lines()
    assert {argv[0] for argv in lines} == {
        "exact", "estimate", "micro", "adaptive", "gfd", "max", "oracle", "verify"}
    for argv in lines:
        assert main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] and "timing" in doc, argv
