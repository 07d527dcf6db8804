"""Command-line interface: solve, verify, bench.

``solve`` loads a graph, builds the personalized-PageRank quadratic, runs one
solver, and prints a JSON result (support pairs, certified gap bound,
operation counters, KKT residuals).  ``verify`` runs the invariant suites on
generated instances and exits nonzero on any failure.  ``bench`` sweeps a
(family, size, alpha, rho) grid over solvers and prints CSV.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 solver or
oracle failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import CSV_HEADER, bench_grid, predictor_comment
from .graph_io import FORMATS, GraphFormatError, load_distribution, load_graph
from .oracle import GRAPH_KINDS, REFERENCE_MAX_N, OracleError
from .problem import (PageRankInstance, build_pagerank_quadratic,
                      check_optimality, pagerank_upper_bounds)
from .solvers import ASPR_VARIANTS, SOLVER_TOKENS, SolverError, solve
from .suites import SUITE_NAMES, run_suites

__all__ = ["main", "build_parser"]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    p = argparse.ArgumentParser(
        prog="sparsepr",
        description="Sparsity-preserving solvers for l1-regularized "
                    "personalized PageRank and nonnegative M-matrix quadratics.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance from a graph file")
    ps.add_argument("--graph", required=True, help="path to the graph file")
    ps.add_argument("--format", choices=FORMATS, default="edgelist")
    ps.add_argument("--alpha", type=float, required=True,
                    help="teleportation probability in (0, 1)")
    ps.add_argument("--rho", type=float, required=True,
                    help="l1 regularization strength (> 0)")
    seed = ps.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed-node", type=int,
                      help="seed the walk at this single node")
    seed.add_argument("--dist",
                      help="path to a 'node weight' teleportation file")
    ps.add_argument("--solver", required=True, choices=tuple(
        tok for tok in SOLVER_TOKENS if ":" not in tok))
    ps.add_argument("--eps", type=float, default=1e-6,
                    help="objective gap to certify (ista and aspr)")
    ps.add_argument("--variant", choices=ASPR_VARIANTS[1:],
                    help="aspr working-set variant (default: plain)")
    ps.add_argument("--json", dest="json_out", metavar="OUT",
                    help="also write the JSON result to this file")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="run invariant suites on generated instances")
    pv.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    pv.add_argument("--instances", type=int, default=100)
    pv.add_argument("--max-n", type=int, default=12)
    pv.add_argument("--seed", type=int, default=7)
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="sweep solvers over an instance grid, emit CSV")
    pb.add_argument("--family", choices=GRAPH_KINDS, required=True)
    pb.add_argument("--sizes", type=_int_list, required=True,
                    help="comma-separated sizes (grid: side length)")
    pb.add_argument("--alphas", type=_float_list, required=True)
    pb.add_argument("--rhos", type=_float_list, required=True)
    pb.add_argument("--solvers", required=True,
                    help="comma-separated tokens from: %s" % ", ".join(SOLVER_TOKENS))
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--repeat", type=int, default=1)
    pb.add_argument("--eps", type=float, default=1e-6)
    pb.set_defaults(func=cmd_bench)
    return p


def cmd_solve(args):
    token = args.solver + (":" + args.variant if args.variant else "")
    graph = load_graph(args.graph, fmt=args.format)
    if args.dist is not None:
        s = load_distribution(args.dist, graph.n)
    else:
        s = args.seed_node
    inst = PageRankInstance(graph, args.alpha, args.rho, s)
    q = build_pagerank_quadratic(inst)
    sol = solve(q, token, args.eps)
    report = check_optimality(q, sol.x, pagerank_box=pagerank_upper_bounds(inst))
    out = {
        "solver": token,
        "x": [[int(i), float(sol.x[i])] for i in sol.support],
        "support_size": int(sol.support.size),
        "gap_bound": sol.gap_bound if isinstance(sol.gap_bound, str)
                     else float(sol.gap_bound),
        "counters": sol.counters.as_dict(),
        "residuals": report.as_dict(),
    }
    try:
        # NaN and Infinity are not JSON; such an answer is not printed
        text = json.dumps(out, indent=2, allow_nan=False)
    except ValueError as exc:
        raise SolverError("the answer holds a non-finite value (%s)" % exc)
    print(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_verify(args):
    if args.max_n < 2:
        raise ValueError("--max-n must be at least 2")
    if args.max_n > REFERENCE_MAX_N:
        raise ValueError("--max-n must be at most %d, the reference oracle's "
                         "limit" % REFERENCE_MAX_N)
    if args.instances < 1:
        raise ValueError("--instances must be at least 1")
    results = run_suites(args.suite, args.instances, args.max_n, args.seed)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    if failed:
        print()
        print("FAILURES (seeds and instances for reproduction):")
        for res in failed:
            for message in res.failures:
                print("  %s: %s" % (res.name, message))
        return 1
    print("all %d invariants passed (instances=%d, max-n=%d, seed=%d)"
          % (len(results), args.instances, args.max_n, args.seed))
    return 0


def cmd_bench(args):
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    if not args.sizes or not args.alphas or not args.rhos:
        raise ValueError("--sizes, --alphas and --rhos must be nonempty")
    solvers = [tok for tok in args.solvers.split(",") if tok]
    records = list(bench_grid([args.family], args.sizes, args.alphas,
                              args.rhos, solvers, args.seed,
                              repeat=args.repeat, eps=args.eps))
    print(CSV_HEADER)
    for rec in records:
        print(rec.to_csv_row())
    for rec in records:
        print(predictor_comment(rec))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SolverError, OracleError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
