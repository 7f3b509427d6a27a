"""Command-line interface.

Subcommands: exact, estimate, micro, adaptive, gfd, max, oracle, verify.
Output is JSON by default (sorted keys, counts keyed by pattern name) or
flat TSV with --format tsv.  The "timing" key is wall-clock and therefore
the one field excluded when comparing runs byte for byte.

Exit codes: 0 success, 1 usage error, 2 graph parse error, 3 resource
problem (missing file, graph too large for the oracle), 4 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import patterns
from .adaptive import LOSSES, AdaptiveConfig, adaptive_estimate
from .estimate import (
    GFD_VARIANTS,
    SampleDesign,
    confidence_bounds,
    exact_counts,
    gfd,
    relative_error,
    sample_and_estimate,
)
from .extremal import max_per_edge
from .graph import Graph, GraphParseError, load_graph
from .micro import micro_counts, univariate_stats
from .oracle import OracleSizeError, brute_force_counts, brute_force_edge_counts

EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_RESOURCE, EXIT_VERIFY = 0, 1, 2, 3, 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that to our code 1
    def error(self, message):
        raise UsageError(message)


def _named(values) -> dict:
    return {patterns.NAMES[i + 1]: values[i] for i in range(17)}


def _add_io(sub):
    sub.add_argument("graph", help="graph file (edge list, canonical, or "
                     "MatrixMarket; .gz ok) or '-' for stdin")
    sub.add_argument("--input-format", default="auto",
                     choices=["auto", "edgelist", "canonical", "mtx"])
    sub.add_argument("--format", default="json", choices=["json", "tsv"])
    sub.add_argument("--output", default=None, help="write here instead of stdout")
    sub.add_argument("--progress", action="store_true",
                     help="report stages on stderr")


def _add_workers(sub):
    sub.add_argument("--workers", type=int, default=None,
                     help="process count (default GRAPHLET_WORKERS or 1)")


def _add_design(sub, required=False):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--p", type=float, default=None,
                     help="edge inclusion probability")
    grp.add_argument("--size", type=int, default=None,
                     help="expected sample size in edges")
    sub.add_argument("--weighting", default="uniform",
                     choices=["uniform", "kcore"])
    sub.add_argument("--seed", type=int, default=0)


def _design_from(args) -> SampleDesign:
    return SampleDesign(p=args.p, size=args.size, weighting=args.weighting,
                        seed=args.seed)


def _load(args) -> Graph:
    if args.progress:
        print(f"loading {args.graph}", file=sys.stderr)
    if args.graph == "-":
        return load_graph(sys.stdin.read() or "\n", args.input_format)
    if not os.path.exists(args.graph):
        raise FileNotFoundError(args.graph)
    return load_graph(args.graph, args.input_format)


def _config_echo(args) -> dict:
    skip = {"func", "output", "progress"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, payload: dict, started: float) -> int:
    payload["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_tsv(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _to_tsv(payload: dict, prefix: str = "") -> str:
    # flat key<TAB>value rows; nested dicts become dotted keys
    rows = []
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.append(_to_tsv(val, prefix=f"{name}."))
        elif isinstance(val, (list, tuple)):
            rows.append(f"{name}\t{json.dumps(val)}\n")
        else:
            rows.append(f"{name}\t{val}\n")
    return "".join(rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exact(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    est = exact_counts(g, workers=args.workers)
    payload = {
        "n": g.n, "m": g.m,
        "counts": _named(est.X),
        "config": _config_echo(args),
    }
    return _emit(args, payload, started)


def _cmd_estimate(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    design = _design_from(args)
    est = sample_and_estimate(g, design, workers=args.workers)
    payload = {
        "n": g.n, "m": g.m,
        "counts": _named(est.X),
        "sampled_edges": est.k_used,
        "inclusion": est.p,
        "clamped": [patterns.NAMES[i + 1] for i, c in enumerate(est.clamped) if c],
        "config": _config_echo(args),
    }
    if not args.no_ci and est.variance is not None:
        lb, ub = confidence_bounds(est, alpha=args.alpha)
        payload["lb"] = _named(lb)
        payload["ub"] = _named(ub)
        payload["alpha"] = args.alpha
    return _emit(args, payload, started)


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--edge expects 'U,V', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--edge expects integers, got {text!r}") from None


def _cmd_micro(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    if args.edge is None and args.pattern is None:
        raise UsageError("micro needs --edge U,V or --pattern for the summary")
    payload: dict = {"n": g.n, "m": g.m, "config": _config_echo(args)}
    if args.edge is not None:
        u, v = _parse_edge(args.edge)
        try:
            res = micro_counts(g, (u, v), p_e=args.p_edge, seed=args.seed)
        except KeyError:
            raise UsageError(f"({u}, {v}) is not an edge of the graph") from None
        payload["edge"] = [res.u, res.v]
        payload["counts"] = _named(res.x)
        payload["zones"] = dict(zip(("common", "only_u", "only_v", "far"), res.zones))
    else:
        pid = patterns.resolve_pattern(args.pattern)
        stats = univariate_stats(g, pid, p_e=args.p_edge, seed=args.seed)
        stats.pop("values")
        payload["pattern"] = patterns.NAMES[pid]
        payload["stats"] = stats
    return _emit(args, payload, started)


def _cmd_adaptive(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    cfg = AdaptiveConfig(beta=args.beta, loss=args.loss, phi0=args.phi0,
                         eps=args.eps, t_max=args.t_max, seed=args.seed)
    res = adaptive_estimate(g, cfg, workers=args.workers)
    payload = {
        "n": g.n, "m": g.m,
        "counts": _named(res.estimate.X),
        "converged": res.converged,
        "reason": res.reason,
        "iterations": res.iterations,
        "sampled_edges": res.sampled_edges,
        "delta": res.delta,
        "config": _config_echo(args),
    }
    if args.trace:
        payload["trace"] = res.trace
    return _emit(args, payload, started)


def _cmd_gfd(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    if args.p is not None or args.size is not None:
        est = sample_and_estimate(g, _design_from(args), workers=args.workers)
        X = est.X
        source = "estimated"
    else:
        X = exact_counts(g, workers=args.workers).X
        source = "exact"
    dist = gfd(X, args.variant)
    ids = GFD_VARIANTS[args.variant]
    payload = {
        "n": g.n, "m": g.m,
        "variant": args.variant,
        "source": source,
        "gfd": {patterns.NAMES[pid]: dist[i] for i, pid in enumerate(ids)},
        "config": _config_echo(args),
    }
    return _emit(args, payload, started)


def _cmd_max(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    design = None
    if args.p is not None or args.size is not None:
        design = _design_from(args)
    res = max_per_edge(g, args.pattern, design=design, workers=args.workers)
    payload = {
        "n": g.n, "m": g.m,
        "pattern": patterns.NAMES[res.pattern_id],
        "max": res.value,
        "edge_id": res.edge_id,
        "endpoints": list(res.endpoints),
        "scanned": res.scanned,
        "exact": res.exact,
        "config": _config_echo(args),
    }
    return _emit(args, payload, started)


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    if args.edge is not None:
        u, v = _parse_edge(args.edge)
        counts = brute_force_edge_counts(g, (u, v))
        payload = {"n": g.n, "m": g.m, "edge": [u, v],
                   "counts": _named(counts), "config": _config_echo(args)}
    else:
        counts = brute_force_counts(g, max_n=args.max_n)
        payload = {"n": g.n, "m": g.m, "counts": _named(counts),
                   "config": _config_echo(args)}
    return _emit(args, payload, started)


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    g = _load(args)
    truth = brute_force_counts(g, max_n=args.max_n)
    est = exact_counts(g, workers=args.workers)
    errs = relative_error(est.X, truth)
    bad = {}
    for i, err in enumerate(errs):
        ok = err is True or err == 0
        if not ok:
            bad[patterns.NAMES[i + 1]] = {"expected": truth[i], "got": est.X[i]}
    payload = {
        "n": g.n, "m": g.m,
        "match": not bad,
        "mismatches": bad,
        "counts": _named(est.X),
        "config": _config_echo(args),
    }
    code = _emit(args, payload, started)
    return EXIT_VERIFY if bad else code


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="graphlets",
                     description="count and estimate 3- and 4-vertex induced "
                                 "patterns of an undirected graph")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exact", help="exact counts of all 17 patterns")
    _add_io(p); _add_workers(p)
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("estimate", help="estimate counts from an edge sample")
    _add_io(p); _add_workers(p); _add_design(p, required=True)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="confidence level for the bounds (default 0.05)")
    p.add_argument("--no-ci", action="store_true",
                   help="skip the confidence bounds")
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("micro", help="per-edge counts or their distribution")
    _add_io(p)
    p.add_argument("--edge", default=None, help="endpoints 'U,V'")
    p.add_argument("--pattern", default=None,
                   help="pattern id or name for summary stats over all edges")
    p.add_argument("--p-edge", type=float, default=1.0,
                   help="neighbor sampling fraction (1 = exact)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_micro)

    p = subs.add_parser("adaptive", help="sample until estimates stabilize")
    _add_io(p); _add_workers(p)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--loss", default="max_rel", choices=list(LOSSES))
    p.add_argument("--phi0", type=float, default=None)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="include the per-round trajectory")
    p.set_defaults(func=_cmd_adaptive)

    p = subs.add_parser("gfd", help="4-vertex pattern frequency distribution")
    _add_io(p); _add_workers(p); _add_design(p)
    p.add_argument("--variant", default="combined",
                   choices=["connected", "disconnected", "combined"])
    p.set_defaults(func=_cmd_gfd)

    p = subs.add_parser("max", help="largest per-edge count of one pattern")
    _add_io(p); _add_workers(p); _add_design(p)
    p.add_argument("--pattern", required=True, help="pattern id or name")
    p.set_defaults(func=_cmd_max)

    p = subs.add_parser("oracle", help="brute-force reference counts")
    _add_io(p)
    p.add_argument("--edge", default=None,
                   help="per-edge reference counts for endpoints 'U,V'")
    p.add_argument("--max-n", type=int, default=64,
                   help="refuse graphs larger than this")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("verify",
                        help="check the exact counter against the oracle")
    _add_io(p); _add_workers(p)
    p.add_argument("--max-n", type=int, default=64)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OracleSizeError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
