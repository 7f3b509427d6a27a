"""Command-line interface.

Subcommands: exact, estimate, micro, adaptive, gfd, max, oracle, verify.
Output is JSON by default (sorted keys, counts keyed by pattern name) or
flat TSV with --format tsv.  The "timing" key is wall-clock and therefore
the one field excluded when comparing runs byte for byte.  Edges given with
--edge and printed endpoints use the input file's vertex labels: edge-list
labels, or dense 0-based ids for canonical and MatrixMarket input.

Exit codes: 0 success, 1 usage error, 2 graph parse error, 3 resource
problem (missing file, graph too large for the oracle), 4 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import patterns
from .adaptive import AdaptiveConfig, adaptive_estimate
from .estimate import (
    GFD_VARIANTS,
    SampleDesign,
    accumulate,
    confidence_bounds,
    estimate_counts,
    exact_counts,
    gfd,
    sample_and_estimate,
)
from .extremal import max_per_edge
from .graph import FORMATS, Graph, GraphParseError, decode_graph_bytes, load_graph, parse_graph
from .micro import micro_counts, univariate_stats
from .oracle import OracleSizeError, brute_force_counts, brute_force_edge_counts

EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_RESOURCE, EXIT_VERIFY = 0, 1, 2, 3, 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that to our code 1
    def error(self, message):
        raise UsageError(message)


def _named(values) -> dict:
    return {patterns.NAMES[i + 1]: values[i] for i in range(17)}


def _add_io(sub):
    sub.add_argument("graph", help="graph file (edge list, canonical, or "
                     "MatrixMarket; gzip ok) or '-' for stdin")
    sub.add_argument("--input-format", default="auto", choices=FORMATS)
    sub.add_argument("--format", default="json", choices=["json", "tsv"])
    sub.add_argument("--output", default=None, help="write here instead of stdout")
    sub.add_argument("--progress", action="store_true",
                     help="report stages on stderr")


def _add_workers(sub):
    sub.add_argument("--workers", type=int, default=1,
                     help="processes: this one plus workers-1 forked children on interleaved "
                          "shares, capped at the available CPUs; serial without fork (default 1)")


def _add_design(sub, required=False):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--p", type=float, default=None,
                     help="edge inclusion probability")
    grp.add_argument("--size", type=int, default=None,
                     help="expected sample size in edges")
    sub.add_argument("--weighting", default="uniform",
                     choices=["uniform", "kcore"])
    sub.add_argument("--seed", type=int, default=0)


def _design_from(args) -> SampleDesign | None:
    """The sampling design of --p or --size; None when neither is set."""
    if args.p is None and args.size is None:
        return None
    return SampleDesign(p=args.p, size=args.size, weighting=args.weighting,
                        seed=args.seed)


def _load(args) -> Graph:
    if args.graph == "-":
        return parse_graph(decode_graph_bytes(sys.stdin.buffer.read(), "stdin"),
                           args.input_format)
    return load_graph(args.graph, args.input_format)


def _read_edge(g: Graph, text: str) -> tuple[int, int]:
    """Dense ids of the edge ``U,V`` named in the file's own labels.

    Graphs without labels (canonical, MatrixMarket) are named by dense ids.
    Integer labels compare as integers, as the parser compares them.
    """
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--edge expects 'U,V', got {text!r}")
    if g.labels is None or isinstance(g.labels[0], int):
        try:
            parts = [int(x) for x in parts]
        except ValueError:
            raise UsageError(f"--edge expects integers, got {text!r}") from None
    try:
        u, v = parts if g.labels is None else map(g.labels.index, parts)
        g.edge_id(u, v)
    except (ValueError, KeyError):
        raise UsageError(f"{text} is not an edge of the graph") from None
    return u, v


def _labelled(g: Graph, ids) -> list:
    """Endpoints as the input file names them: labels, or dense ids."""
    return [int(i) if g.labels is None else g.labels[i] for i in ids]


def _stage(args, name: str, since: float) -> float:
    """Report the stage that ran since ``since`` under --progress; return now."""
    now = time.perf_counter()
    if args.progress:
        print(f"{name} {now - since:.3f}s", file=sys.stderr)
    return now


def _run(args) -> int:
    """Load the graph, run the subcommand on it and write its payload."""
    started = time.perf_counter()
    g = _load(args)
    mark = _stage(args, f"load n={g.n} m={g.m}", started)
    payload = args.func(g, args)
    mark = _stage(args, args.command, mark)
    skip = ("func", "output", "progress")
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    payload.update(n=g.n, m=g.m, config=config)
    payload["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    _emit(args, payload)
    _stage(args, "write", mark)
    return EXIT_VERIFY if payload.get("match") is False else EXIT_OK


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_tsv(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
# subcommands: each maps (graph, args) to its payload; _run adds the rest


def _cmd_exact(g, args) -> dict:
    return {"counts": _named(exact_counts(g, workers=args.workers).X)}


def _cmd_estimate(g, args) -> dict:
    est = sample_and_estimate(g, _design_from(args), workers=args.workers)
    payload = {
        "counts": _named(est.X),
        "sampled_edges": est.k_used,
        "inclusion": est.p,
        "clamped": [patterns.NAMES[i + 1] for i, c in enumerate(est.clamped) if c],
    }
    if not args.no_ci:
        lb, ub = confidence_bounds(est, alpha=args.alpha)
        payload.update(lb=_named(lb), ub=_named(ub), alpha=args.alpha)
    return payload


def _cmd_micro(g, args) -> dict:
    if args.edge is not None:
        res = micro_counts(g, _read_edge(g, args.edge))
        return {
            "edge": _labelled(g, (res.u, res.v)),
            "counts": _named(res.x),
            "zones": dict(zip(("common", "only_u", "only_v", "far"), res.zones)),
        }
    pid = patterns.resolve_pattern(args.pattern)
    return {"pattern": patterns.NAMES[pid], "stats": univariate_stats(g, pid)}


def _cmd_adaptive(g, args) -> dict:
    cfg = AdaptiveConfig(beta=args.beta, t_max=args.t_max, seed=args.seed)
    res = adaptive_estimate(g, cfg, workers=args.workers)
    payload = {
        "counts": _named(res.estimate.X),
        "converged": res.converged,
        "reason": res.reason,
        "iterations": res.iterations,
        "sampled_edges": res.sampled_edges,
        "delta": res.delta,
    }
    if args.trace:
        payload["trace"] = res.trace
    return payload


def _cmd_gfd(g, args) -> dict:
    design = _design_from(args)
    if design is None:
        est = exact_counts(g, workers=args.workers)
    else:
        est = sample_and_estimate(g, design, workers=args.workers)
    dist = gfd(est.X, args.variant)
    ids = GFD_VARIANTS[args.variant]
    return {
        "variant": args.variant,
        "source": "exact" if design is None else "estimated",
        "gfd": {patterns.NAMES[pid]: dist[i] for i, pid in enumerate(ids)},
    }


def _cmd_max(g, args) -> dict:
    res = max_per_edge(g, args.pattern, design=_design_from(args), workers=args.workers)
    return {
        "pattern": patterns.NAMES[res.pattern_id],
        "max": res.value,
        "edge_id": res.edge_id,
        "endpoints": _labelled(g, res.endpoints),
        "scanned": res.scanned,
        "exact": res.exact,
    }


def _cmd_oracle(g, args) -> dict:
    if args.edge is None:
        return {"counts": _named(brute_force_counts(g, max_n=args.max_n))}
    edge = _read_edge(g, args.edge)
    counts = brute_force_edge_counts(g, edge, max_n=args.max_n)
    return {"edge": _labelled(g, edge), "counts": _named(counts)}


def _cmd_verify(g, args) -> dict:
    # three routes to the same integers: the oracle, the whole-graph pass and
    # the edge kernel summed over every edge
    truth = brute_force_counts(g, max_n=args.max_n)
    est = exact_counts(g, workers=args.workers)
    kernel = estimate_counts(g, accumulate(g, range(g.m), workers=args.workers,
                                           inclusion=Fraction(1))).X
    bad = {}
    for i, (want, got, alt) in enumerate(zip(truth, est.X, kernel)):
        if got != want or alt != got:
            bad[patterns.NAMES[i + 1]] = {"expected": want, "got": got, "edge_kernel": alt}
    return {"match": not bad, "mismatches": bad, "counts": _named(est.X)}


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
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--edge", default=None, help="endpoints 'U,V'")
    grp.add_argument("--pattern", default=None,
                     help="pattern id or name for summary stats over all edges")
    p.set_defaults(func=_cmd_micro)

    p = subs.add_parser("adaptive",
                        help="double the sample until the 95%% CIs are within beta")
    _add_io(p); _add_workers(p)
    p.add_argument("--beta", type=float, default=0.01,
                   help="relative 95%% CI half-width to reach on 4-vertex patterns")
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="include the per-round trajectory")
    p.set_defaults(func=_cmd_adaptive)

    p = subs.add_parser("gfd", help="4-vertex pattern frequency distribution")
    _add_io(p); _add_workers(p); _add_design(p)
    p.add_argument("--variant", default="combined",
                   choices=list(GFD_VARIANTS))
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
                        help="check the exact counter against the oracle and the edge kernel")
    _add_io(p); _add_workers(p)
    p.add_argument("--max-n", type=int, default=64)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OracleSizeError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
