"""The README's library example runs as written."""

import re
from pathlib import Path

from gen import gen_er

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
