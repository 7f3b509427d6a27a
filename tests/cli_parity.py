"""CLI parity between two checkouts: the same commands give the same output.

    python tests/cli_parity.py PARENT_ROOT [CHANGE_ROOT] [--graph FILE ...]

Writes the suite graphs of ``gen.suite_graphs``, as canonical text and as
gzipped SNAP-style edge lists, and an edgeless graph to a temporary directory,
and runs every argument set in ``ARGSETS`` on each of them, and on each
``--graph`` file, under both roots with ``python -m graphlets.cli`` and
``PYTHONPATH=ROOT/src``.  It prints each run whose output minus ``timing``,
stderr or exit code differs, then a count, and exits 1 on any difference.
CHANGE_ROOT defaults to the checkout that holds this file.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import difflib
import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from gen import serialize, suite_graphs  # noqa: E402
from graphlets import Graph, from_edges, load_graph  # noqa: E402

# every subcommand in JSON and TSV, at one and two workers; "{m}" is the
# graph's edge count, "{half}" half of it and "{edge}" its first edge, and a
# "-" after the subcommand reads the graph file from stdin
ARGSETS = [
    ["exact"],
    ["exact", "--workers", "2", "--format", "tsv"],
    ["estimate", "--p", "0.3", "--seed", "1"],
    ["estimate", "--p", "0.3", "--seed", "1", "--workers", "2", "--format", "tsv"],
    ["estimate", "--p", "0.5", "--weighting", "kcore", "--seed", "2", "--alpha", "0.1"],
    ["estimate", "--size", "{half}", "--weighting", "kcore", "--workers", "2", "--no-ci"],
    # census designs: every edge drawn with pi = 1
    ["estimate", "--p", "1"],
    ["estimate", "--p", "1", "--workers", "2", "--format", "tsv"],
    ["estimate", "--size", "{m}"],
    ["estimate", "--size", "{m}", "--weighting", "kcore", "--workers", "2"],
    ["micro", "--pattern", "4-cycle"],
    ["micro", "--edge", "{edge}", "--format", "tsv"],
    ["adaptive", "--beta", "0.1", "--trace"],
    ["adaptive", "--beta", "0.1", "--workers", "2", "--format", "tsv"],
    ["gfd"],
    ["gfd", "--p", "0.5", "--variant", "connected", "--workers", "2", "--format", "tsv"],
    ["gfd", "--p", "1"],  # a census
    ["max", "--pattern", "4-cycle"],
    ["max", "--pattern", "4-cycle", "--workers", "2"],
    # the perfbench max-kcore shape
    ["max", "--pattern", "4-cycle", "--size", "{half}", "--weighting", "kcore", "--workers", "2"],
    ["max", "--pattern", "triangle", "--p", "0.5", "--weighting", "kcore", "--workers", "2",
     "--format", "tsv"],
    ["oracle"],
    ["oracle", "--edge", "{edge}", "--format", "tsv"],
    ["verify"],
    ["verify", "--workers", "2", "--format", "tsv"],
    ["estimate", "-", "--p", "0.3", "--seed", "1", "--format", "tsv"],
]


def snap_form(g: Graph) -> bytes:
    """``g`` as a gzipped SNAP-style edge list: ``#`` header lines, then its
    edges in a seeded order as tab-separated sparse labels."""
    rng = np.random.default_rng(0)
    labels = rng.permutation(g.n) * 97 + 10**6
    rows = labels[g.edges[rng.permutation(g.m)]].tolist()
    text = (f"# Undirected graph\n# Nodes: {g.n} Edges: {g.m}\n# FromNodeId\tToNodeId\n"
            + "".join(f"{a}\t{b}\n" for a, b in rows))
    return gzip.compress(text.encode(), mtime=0)


def write_graphs(folder: Path) -> dict[str, Path]:
    """The suite graphs, as canonical files and as SNAP-style ones (named
    ``NAME.snap``), and an edgeless graph, in ``folder``."""
    paths = {}
    for name, g in suite_graphs().items():
        paths[name] = folder / f"{name}.txt"
        paths[name].write_text(serialize(g))
        paths[f"{name}.snap"] = folder / f"{name}.snap.gz"
        paths[f"{name}.snap"].write_bytes(snap_form(g))
    paths["edgeless"] = folder / "edgeless.txt"
    paths["edgeless"].write_text(serialize(from_edges([], n=3)))
    return paths


def fill(argset: list[str], path: Path) -> list[str]:
    """The argument list for one graph file, its placeholders filled in; the
    file is named unless the argument set reads it from stdin."""
    g = load_graph(str(path))
    ends = g.edges[0].tolist() if g.m else [0, 1]
    labels = ends if g.labels is None else [g.labels[v] for v in ends]
    values = {"{m}": str(g.m), "{half}": str(max(g.m // 2, 1)),
              "{edge}": ",".join(map(str, labels))}
    stdin = argset[1:2] == ["-"]
    return [argset[0], "-" if stdin else str(path),
            *(values.get(a, a) for a in argset[1 + stdin:])]


def run(root: Path, argv: list[str], path: Path) -> tuple[int, str, str]:
    """Exit code, standard output without its ``timing`` and stderr of one CLI
    run, with the graph file ``path`` as its stdin."""
    env = {**os.environ, "PYTHONPATH": str(Path(root) / "src")}
    with open(path, "rb") as stdin:
        proc = subprocess.run([sys.executable, "-m", "graphlets.cli", *argv], env=env,
                              stdin=stdin, capture_output=True, text=True, timeout=600)
    out = proc.stdout
    if "tsv" in argv:
        out = "".join(line for line in out.splitlines(True) if not line.startswith("timing."))
    elif out:
        doc = json.loads(out)
        doc.pop("timing")
        out = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return proc.returncode, out, proc.stderr


def compare(parent: Path, change: Path, paths: dict[str, Path], argsets=ARGSETS) -> list:
    """(graph name, argv, parent result, change result) for every run."""
    rows = []
    for name, path in paths.items():
        for argset in argsets:
            argv = fill(argset, path)
            rows.append((name, argv, run(parent, argv, path), run(change, argv, path)))
    return rows


def describe(name: str, argv: list[str], old: tuple, new: tuple) -> str:
    """One differing run: the command, then what differs in it."""
    lines = [f"{name}: {' '.join(argv)}"]
    if old[0] != new[0]:
        lines.append(f"  exit code {old[0]} -> {new[0]}")
    for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), label, label,
                                        lineterm="")
            lines.extend("  " + line for line in list(diff)[:40])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--graph", type=Path, action="append", default=[],
                        help="another input file to run every argument set on")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        paths = write_graphs(Path(folder))
        paths.update((str(p), p.resolve()) for p in args.graph)
        rows = compare(args.parent, args.change, paths)
    differ = [describe(*row) for row in rows if row[2] != row[3]]
    for text in differ:
        print(text)
    print(f"{len(rows)} runs on each root, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
