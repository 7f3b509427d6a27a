"""Graphlets benchmark: one workload, one seed, timed end to end or per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-pl --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, solve_s, peak_rss_mb);
``--trace 1`` prints the per-layer metrics and writes the run's spans under
``perfbench/.work/traces``.  ``--smoke`` runs the same workload on a small
graph in a few seconds and also cross-checks exact counts against the
brute-force oracle.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3  # loads, and solves, per untraced run at least
MAX_REPS = 200
SETUP_SHARE = 0.3  # of --seconds spent on loads alone; loads are cheap and noisy
TRACED_REPS = 2  # of each kind, traced and untraced, in a traced run
CLI_TIMEOUT_S = 90  # a CLI call takes seconds; a hung one must not outlast the run


def _import_package():
    """Import the package under test from ./src, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "graphlets", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    try:
        import graphlets  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import graphlets: {exc}", file=sys.stderr)
        sys.exit(2)


def source_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "graphlets")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown"


def host_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def measure(w, path, facts, seed, truth, ledger, tracer, min_reps, seconds):
    """Time loads back to back for a share of ``seconds``, then solves back to back.

    Each solve gets a fresh ``Graph`` over the last loaded arrays, so cached
    core numbers never carry over and it sees what a just-loaded graph gives
    the CLI.  Every timed call is paired with the host's slowness measured
    just before it (``speed.py``).  Returns the (seconds, slowness) pairs of
    the loads and of the solves, and the last (graph, result).
    """
    from graphlets import load_graph

    import checks
    import speed
    import workloads

    def timed_op(times, layer, name, fn, check, workers=1):
        slow = speed.slowness(workers)
        gc.collect()  # each timed call starts from the same collector state
        r = ledger.op(layer, lambda: tracer.timed(name, fn), check)
        if r is None:
            return None
        times.append((r[1], slow))
        return r[0]

    setup, solve, g, last = [], [], None, None
    start = time.perf_counter()
    loads = 0  # attempts, so that a failing load cannot loop forever
    while loads < min_reps or time.perf_counter() - start < SETUP_SHARE * seconds:
        loads += 1
        loaded = timed_op(setup, "graph", "graph.load_graph", lambda: load_graph(path),
                          lambda r: checks.check_graph(r[0].n, r[0].m, r[0].degrees, facts))
        g = loaded if loaded is not None else g
    if g is None:
        return setup, solve, last
    layer, call = workloads.SOLVE_SPAN[w.kind]
    reps = 0
    while reps < min_reps or (time.perf_counter() - start < seconds and reps < MAX_REPS):
        reps += 1
        h = workloads.fresh(g)
        result = timed_op(solve, layer, f"{layer}.{call}", lambda: workloads.solve(w, h, seed),
                          lambda r: workloads.check(w, h, seed, r[0], truth, facts), w.workers)
        if result is not None:
            last = (h, result)
    return setup, solve, last


def run_cli(w, path, seed, g, result, ledger, work_dir):
    """Run the same call through ``python -m graphlets.cli``; check parity.

    Returns (wall seconds, CLI-reported load + solve seconds, peak RSS in MB
    of the CLI process and its fork workers) or None on failure.
    """
    import checks
    import workloads

    stem = os.path.join(work_dir, f"cli-{w.name}-{os.getpid()}")
    cli = [sys.executable, "-m", "graphlets.cli", *workloads.cli_args(w, path, seed),
           "--output", stem + ".json"]
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), stem + ".run", str(CLI_TIMEOUT_S), *cli]
    env = {k: v for k, v in os.environ.items() if k != "GRAPHLET_WORKERS"}
    env["PYTHONPATH"] = SRC

    def call():
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S + 30)
        if done.returncode != 0:
            raise RuntimeError(f"launcher exited with {done.returncode}\n{done.stderr}")
        with open(stem + ".run") as fh:
            run = json.load(fh)
        os.remove(stem + ".run")
        if run["returncode"] != 0:
            raise RuntimeError(f"CLI exited with {run['returncode']}: {' '.join(cli)}\n{done.stderr}")
        with open(stem + ".json") as fh:
            payload = json.load(fh)
        os.remove(stem + ".json")
        return payload, run["wall_s"], run["maxrss_mb"]

    r = ledger.op("cli", call,
                  lambda r: checks.check_cli(r[0], workloads.expected_payload(w, g, result)))
    if r is None:
        return None
    payload, wall, rss = r
    return wall, payload["timing"]["seconds"], rss


def oracle_cross_check(ledger, seed):
    """Smoke only: exact counts equal brute-force counts on n <= 40 graphs."""
    from graphlets import brute_force_counts, exact_counts, from_edges

    import inputs

    for n in (12, 25, 40):
        g = from_edges(inputs.power_law_edges(n, 3.0, seed), n=n)
        ledger.op("oracle", lambda: (exact_counts(g, workers=1).X, brute_force_counts(g)),
                  lambda r: [] if r[0] == r[1] else [f"exact != oracle at n={n}"])


def end_to_end(w, path, facts, seed, truth, ledger, tracer, seconds, work_dir):
    import speed

    setup, solve, last = measure(w, path, facts, seed, truth, ledger, tracer,
                                 MIN_REPS, seconds)
    cli = run_cli(w, path, seed, *last, ledger, work_dir) if last else None
    metrics = {}
    if setup:
        metrics["setup_s"] = speed.at_reference_speed(setup)
    if solve:
        metrics["solve_s"] = speed.at_reference_speed(solve)
    if cli is not None:
        metrics["peak_rss_mb"] = cli[2]
    return metrics, setup, solve


def per_layer(w, path, facts, seed, truth, ledger, tracer, work_dir):
    """The traced run: overhead reps, the CLI call, then every layer's probes."""
    from graphlets import load_graph

    import layers
    import speed
    from spans import Tracer

    metrics = {}
    # untraced and traced reps in the same process give the tracing overhead
    setup_u, solve_u, _ = measure(w, path, facts, seed, truth, ledger, Tracer(False),
                                  TRACED_REPS, 0)
    with tracer.span("bench.measure"):
        setup, solve, last = measure(w, path, facts, seed, truth, ledger, tracer, TRACED_REPS, 0)
    if setup and solve and setup_u and solve_u:
        med = speed.raw_median
        metrics["trace.overhead_s"] = med(setup) + med(solve) - med(setup_u) - med(solve_u)
    if last is not None:
        with tracer.span("cli.main"):
            cli = run_cli(w, path, seed, *last, ledger, work_dir)
        if cli is not None:
            metrics["cli.overhead_s"] = cli[0] - cli[1]

    metrics.update(layers.probe_all(w, load_graph(path), seed, facts, truth,
                                    [t for t, _ in setup + setup_u], tracer, ledger))
    for layer in layers.LAYERS:
        metrics[f"{layer}.failed"] = ledger.failed[layer]
    return metrics, setup + setup_u, solve + solve_u


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small graph, seconds long; adds the brute-force cross-check")
    ap.add_argument("--work-dir", default=os.path.join(HERE, ".work"),
                    help="input cache, traces and result records")
    args = ap.parse_args(argv)

    # the host environment must not choose the worker count
    os.environ.pop("GRAPHLET_WORKERS", None)
    _import_package()
    from graphlets import load_graph

    import checks
    import inputs
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    work_dir = os.path.abspath(args.work_dir)
    for sub in ("cache", "traces", "results"):
        os.makedirs(os.path.join(work_dir, sub), exist_ok=True)

    src_hash = source_hash()
    path, facts = inputs.prepare(w.graph, args.seed, os.path.join(work_dir, "cache"))
    ledger = checks.Ledger()
    truth = None
    if w.kind != "max" or args.trace == 1:
        truth = ledger.op("estimate", lambda: workloads.reference(
            w, lambda: load_graph(path), os.path.dirname(path), src_hash),
            lambda X: checks.check_exact(X, X, facts))
    tracer = Tracer(enabled=args.trace == 1)
    if args.trace == 0:
        metrics, setup, solve = end_to_end(w, path, facts, args.seed, truth, ledger, tracer,
                                           args.seconds, work_dir)
    else:
        metrics, setup, solve = per_layer(w, path, facts, args.seed, truth, ledger, tracer,
                                          work_dir)
    if args.smoke:
        oracle_cross_check(ledger, args.seed)
    attempted, failed = ledger.totals()
    if args.trace == 1:
        metrics["failed_frac"] = failed / attempted

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["end_to_end" if args.trace == 0 else "per_layer"]]

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "inputs": facts, "host": host_facts(), "source_sha": src_hash,
        # (seconds, host slowness) per timed load and solve
        "setup_times": setup, "solve_times": solve,
    }
    if args.trace == 1:
        record["layer_self_s"] = tracer.layer_self_times()
        stem = f"{w.name}-s{args.seed}-{tracer.run_id[:8]}"
        tracer.dump(os.path.join(work_dir, "traces", stem + ".json"), record)
    print(json.dumps(record))
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    out = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted if name in metrics},
    }
    with open(os.path.join(work_dir, "results",
                           f"{w.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({**record, **out}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
