"""One benchmark run: set-up, timed query rounds, CLI runs, metrics.

``run.py`` imports this module after putting the checkout's ``src`` first on
``sys.path``.  Every call into ``sparsepr`` goes through ``Recorder.op``,
which times it, counts it, checks its output against ``reference`` and, in
trace mode, keeps a span for it.  A host-speed probe (``probe.py``) runs
between the timed calls; each time is also reported scaled to the probe's
nominal speed, which removes most of the host's slow drift.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from sparsepr.graph_io import load_distribution, load_graph
from sparsepr.problem import (Graph, PageRankInstance, build_pagerank_quadratic,
                              check_optimality, gradient, pagerank_upper_bounds)
from sparsepr.solvers import aspr, cdpr, ista_baseline

import gen
import reference
from probe import NOMINAL_MS, probe_ms

EPS = 1e-6
TOKENS = ("cdpr", "aspr", "aspr_early", "aspr_constraints", "ista")
COUNTERS = ("stages", "inner_iters", "nnz_touched", "full_gradients",
            "restricted_gradients")
# Calls per run of set-up and of the CLI, and builds per query.  Short calls
# are repeated more so that each median has enough samples.
REPEATS = {"local-query": {"setup": 3, "cli": 4, "build": 1},
           "wide-support": {"setup": 7, "cli": 8, "build": 2}}
# A timed call is scaled by the median of the PROBE_WINDOW probes before it
# and the PROBE_WINDOW after it.  Set-up and CLI calls last seconds; they get
# PROBE_BLOCK probes on each side and are scaled by those.  The first probes
# of a process are slow, so PROBE_BLOCK of them are run and dropped.
PROBE_WINDOW = 4
PROBE_BLOCK = 8


class KnownFault(Exception):
    """An output shows a program fault that recurs on every call with these
    inputs (see CHANGES.md); the call counts as a failed operation."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else float("nan")


def solve(token, q):
    if token == "cdpr":
        return cdpr(q)
    if token == "ista":
        return ista_baseline(q, EPS)
    return aspr(q, EPS, variant=token[len("aspr_"):] or "plain")


class Recorder:
    """Times, counts and checks calls into sparsepr; keeps spans if tracing.

    A span is [name, start_ns, end_ns, parent span index, query id].  Probe
    times are kept in order; each timed sample remembers the index of the
    probe taken just before it, so it can be scaled by the probes around it.
    """

    def __init__(self, trace):
        self.trace = trace
        self.spans = []
        self.probes = []   # probe times in ms
        self.samples = {}  # name -> [(ns, index of the last probe before, window)]
        self.attempted = self.failed = self.wrong = 0
        self._scope = None

    def probe(self, times=1):
        self.probes.extend(probe_ms() for _ in range(times))

    def _span(self, name, start, end, query):
        if not self.trace:
            return None
        self.spans.append([name, start, end, self._scope, query])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def scope(self, name, query=None):
        outer = self._scope
        sid = self._span(name, time.perf_counter_ns(), None, query)
        self._scope = sid
        try:
            yield
        finally:
            self._scope = outer
            if sid is not None:
                self.spans[sid][2] = time.perf_counter_ns()

    def timed(self, name, fn, query=None, window=PROBE_WINDOW):
        """Call fn() and return (result, wall ns); keep the time and a span."""
        start = time.perf_counter_ns()
        out = fn()
        end = time.perf_counter_ns()
        self._span(name, start, end, query)
        self.samples.setdefault(name, []).append(
            (end - start, len(self.probes) - 1, window))
        return out, end - start

    def op(self, name, fn, check=None, query=None):
        """One counted operation of a query round.  Return (result, wall ns),
        or (None, None) if it raised.  A raise, or a ``KnownFault`` from
        ``check``, counts as failed; any other rejection counts as wrong."""
        self.attempted += 1
        try:
            out, ns = self.timed(name, fn, query)
        except Exception:
            self.failed += 1
            log("%s (query %s) failed:\n%s" % (name, query, traceback.format_exc()))
            return None, None
        if check is not None:
            try:
                check(out)
            except KnownFault as exc:
                self.failed += 1
                log("%s (query %s) failed: %s" % (name, query, exc))
            except Exception as exc:  # a crashing check rejects the output too
                self.wrong += 1
                log("%s (query %s) wrong: %r" % (name, query, exc))
        return out, ns

    def raw(self, name):
        return [ns for ns, _, _ in self.samples.get(name, [])]

    def scaled(self, name):
        """Times of ``name`` in ns at the probe's nominal speed: each is
        multiplied by NOMINAL_MS over the median of its window of probes."""
        out = []
        for ns, i, window in self.samples.get(name, []):
            around = self.probes[max(0, i + 1 - window):i + 1 + window]
            out.append(ns * NOMINAL_MS / statistics.median(around))
        return out

    def self_times(self):
        """Span durations minus the time their child spans cover, by name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out.setdefault(name, []).append(end - start - c)
        return out

    def write_spans(self, path, t0):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_ns": start - t0, "end_ns": end - t0,
                                     "parent": parent, "query": query}) + "\n")


class Query:
    """One seed: its vector, its reference x*, and on local-query its twin
    on the small grid."""

    def __init__(self, qid, spec, s, seed_node, ref, small):
        self.qid = qid
        self.dist = spec["dist"]
        self.s = s
        self.seed_node = seed_node
        self.ref = ref
        self.small = small  # (Graph, seed argument, Reference) or None


def prepare(workload, seed):
    """Generate the inputs; return (manifest, Hessian, query maker)."""
    man = gen.generate(workload, seed)
    alpha, rho = man["alpha"], man["rho"]
    if workload == "local-query":
        n = gen.GRID_SIDE ** 2
        hess = reference.Hessian(n, gen.grid_edges(gen.GRID_SIDE), alpha)
        small_n = gen.SMALL_SIDE ** 2
        small_edges = gen.grid_edges(gen.SMALL_SIDE)
        small_graph = Graph(small_n, small_edges)
        small_hess = reference.Hessian(small_n, small_edges, alpha)
    else:
        n, edges = gen.community_edges()
        hess = reference.Hessian(n, edges, alpha)

    def make_query(k):
        """Query k with its reference answers (computed untimed)."""
        spec = man["queries"][k]
        s = np.zeros(n)
        if workload == "local-query":
            s[spec["seed_node"]] = 1.0
            ref = reference.solve(hess, rho, s)
            v = spec["small_seed_node"]
            small_s = np.zeros(small_n)
            small_s[v] = 1.0
            small = (small_graph, v, reference.solve(small_hess, rho, small_s))
            return Query(k, spec, s, spec["seed_node"], ref, small)
        s[spec["seed_nodes"]] = spec["weights"]
        s /= s.sum()
        return Query(k, spec, s, None, reference.solve(hess, rho, s), None)

    return man, hess, make_query


def _check_graph(hess):
    def check(graph):
        if graph.n != hess.n or graph.num_edges != len(hess.edges):
            raise reference.CheckFailed("graph has n=%d m=%d, expected %d, %d" % (
                graph.n, graph.num_edges, hess.n, len(hess.edges)))
        reference.check_close("degrees", graph.degrees, hess.degrees, 1.0)
    return check


def _check_solution(token, ref):
    def check(sol):
        if token == "cdpr":
            if sol.gap_bound != "exact":
                raise reference.CheckFailed("gap bound %r" % (sol.gap_bound,))
            reference.check_exact(ref, sol.x, sol.counters.stages)
        else:
            if sol.gap_bound != EPS:
                raise reference.CheckFailed("gap bound %r" % (sol.gap_bound,))
            reference.check_certified(ref, sol.x, EPS)
        if not np.array_equal(sol.support, np.flatnonzero(sol.x > 0)):
            raise reference.CheckFailed("support does not match x")
    return check


def _check_report(ref, x, box):
    def check(report):
        if not report.is_stationary(reference.KKT_RTOL * ref.scale):
            raise reference.CheckFailed("optimality report %r" % report.as_dict())
        # at the full optimizer no zero coordinate can exceed its cap, so any
        # listed witness is false; the rounding ties are a known fault, any
        # other witness a wrong answer
        ties = reference.cap_ties(ref, x, box, report.upper_box_violations)
        if ties.size:
            raise KnownFault("false cap witnesses %r at x*, all rounding ties"
                             % ties[:8].tolist())
    return check


class Workload:
    """The state of one run: inputs, recorder, per-query rows, set-up graph."""

    def __init__(self, workload, seed, trace):
        self.rec = Recorder(trace)
        self.repeats = REPEATS[workload]
        self.man, self.hess, self._make_query = prepare(workload, seed)
        self._queries = {}
        self.rows = []        # per query: {token: [ns, twin ns, counters], "vol"}
        self.first = {}       # (query, token) -> counters on first sight
        self.graph = None

    def query(self, k):
        k %= len(self.man["queries"])
        if k not in self._queries:
            self._queries[k] = self._make_query(k)
        return self._queries[k]

    def setup(self):
        """Time load_graph and Graph() several times; keep the last graph."""
        rec, path = self.rec, self.man["graph"]
        with open(path, "rb") as fh:  # warm the page cache
            self.file_mb = len(fh.read()) / 1e6
        check = _check_graph(self.hess)
        with rec.scope("setup"):
            rec.probe(PROBE_BLOCK)
            for _ in range(self.repeats["setup"]):
                self.graph, _ = rec.timed(
                    "graph_io.load_graph",
                    lambda: load_graph(path, fmt=self.man["format"]),
                    window=PROBE_BLOCK)
                rec.probe(PROBE_BLOCK)
                check(self.graph)
                graph, _ = rec.timed("problem.Graph",
                                     lambda: Graph(self.hess.n, self.hess.edges),
                                     window=PROBE_BLOCK)
                rec.probe(PROBE_BLOCK)
                check(graph)

    def query_round(self, k):
        """Round k: query k, then on local-query its small twin."""
        rec, q = self.rec, self.query(k)
        qid, ref, alpha, rho = q.qid, q.ref, self.man["alpha"], self.man["rho"]
        row = {}
        with rec.scope("query", qid):
            s, _ = rec.op("graph_io.load_distribution",
                          lambda: load_distribution(q.dist, self.hess.n),
                          check=lambda v: reference.check_close("distribution", v, q.s, 1.0),
                          query=qid)
            rec.probe()
            seed_arg = q.seed_node if q.seed_node is not None else s
            for _ in range(self.repeats["build"]):
                inst, _ = rec.op("problem.PageRankInstance",
                                 lambda: PageRankInstance(self.graph, alpha, rho, seed_arg),
                                 query=qid)
                quad, _ = rec.op("problem.build_pagerank_quadratic",
                                 lambda: build_pagerank_quadratic(inst),
                                 check=lambda qq: self._check_quadratic(qq, ref, k == 0),
                                 query=qid)
                rec.probe()
            sols = {}
            for tok in TOKENS:
                sols[tok], ns = rec.op("solvers." + tok, lambda: solve(tok, quad),
                                       check=_check_solution(tok, ref), query=qid)
                rec.probe()
                row[tok] = [ns, None, self._counters(qid, tok, sols[tok])]
            row["vol"] = self.hess.volume(ref.support)
            self.rows.append(row)
            x = getattr(sols["cdpr"], "x", None)
            rec.op("problem.gradient", lambda: gradient(quad, x),
                   check=lambda g: reference.check_close(
                       "gradient", g, self.hess.Q @ x - ref.b, ref.scale),
                   query=qid)
            box = pagerank_upper_bounds(inst) if inst is not None else None
            rec.op("problem.check_optimality",
                   lambda: check_optimality(quad, x, pagerank_box=box),
                   check=_check_report(ref, x, box), query=qid)
            rec.probe()
            if q.small is None:
                return
            small_graph, small_seed, small_ref = q.small
            small_quad, _ = rec.op(
                "small.build",
                lambda: build_pagerank_quadratic(
                    PageRankInstance(small_graph, alpha, rho, small_seed)),
                query=qid)
            rec.probe()
            for tok in TOKENS:
                _, ns = rec.op("small." + tok, lambda: solve(tok, small_quad),
                               check=_check_solution(tok, small_ref), query=qid)
                rec.probe()
                row[tok][1] = ns

    def _check_quadratic(self, quad, ref, full):
        reference.check_close("b", quad.b, ref.b, ref.scale)
        if full:  # Q does not depend on the seed: compare it once per run
            diff = abs(quad.Q - self.hess.Q)
            reference.check_close("Q", diff.max(), 0.0, 1.0)

    def _counters(self, qid, tok, sol):
        """The solver's counters plus support size; they must repeat exactly
        whenever the same query comes round again."""
        if sol is None:
            return None
        got = dict(sol.counters.as_dict(), support_size=int(sol.support.size))
        if self.first.setdefault((qid, tok), got) != got:
            self.rec.wrong += 1
            log("%s counters changed on query %d: %r then %r"
                % (tok, qid, self.first[(qid, tok)], got))
        return got

    def cli(self, spawner):
        """Time ``python -m sparsepr.cli solve`` on query 0, and a bare import."""
        rec, q = self.rec, self.query(0)
        argv = [sys.executable, "-m", "sparsepr.cli", "solve",
                "--graph", self.man["graph"], "--format", self.man["format"],
                "--alpha", repr(self.man["alpha"]), "--rho", repr(self.man["rho"]),
                "--solver", "cdpr"]
        if q.seed_node is not None:
            argv += ["--seed-node", str(q.seed_node)]
        else:
            argv += ["--dist", q.dist]
        self.cli_rss_mb = []
        outputs = []
        with rec.scope("cli"):
            rec.probe(PROBE_BLOCK)
            for _ in range(self.repeats["cli"]):
                rec.timed("cli.import", lambda: spawner.run(
                    [sys.executable, "-c", "import sparsepr.cli"]), window=PROBE_BLOCK)
                rec.probe(PROBE_BLOCK)
            for _ in range(self.repeats["cli"]):
                (text, rss), _ = rec.timed("cli.solve", lambda: spawner.run(argv),
                                           query=q.qid, window=PROBE_BLOCK)
                rec.probe(PROBE_BLOCK)
                outputs.append(text)
                self.cli_rss_mb.append(rss)
                self._check_cli(text, q.ref, outputs)

    def _check_cli(self, text, ref, outputs):
        if outputs[0] != text:
            raise reference.CheckFailed("CLI output differs between runs")
        out = json.loads(text)
        x = np.zeros(self.hess.n)
        for i, v in out["x"]:
            x[i] = v
        reference.check_exact(ref, x, out["counters"]["stages"])
        if out["support_size"] != ref.support.size or out["gap_bound"] != "exact":
            raise reference.CheckFailed("CLI reports support %r, gap %r"
                                        % (out["support_size"], out["gap_bound"]))


class Spawner:
    """Starts the CLI children from a small helper process (``spawn.py``).

    A child's peak RSS from wait4 is at least the RSS of the process that
    spawned it, because exec records the old address space's high-water
    mark; spawning from this benchmark process would report its own memory.
    The helper imports no numpy, so the CLI's own peak shows.
    """

    def __init__(self, src):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.out = gen.CACHE / ("cli-%d.out" % os.getpid())
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv):
        """Run argv to completion; return (stdout bytes, its peak RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(self.out)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        text = self.out.read_bytes()
        if reply["status"] != 0:
            raise RuntimeError("%s exited with %d" % (argv[:4], reply["status"]))
        return text, reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)


def run(workload, seed, seconds, trace, src):
    """One run; return (correct, attempted, failed, metric values)."""
    # one CPU for the whole run, CLI children included, so that the probes
    # measure the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawner = Spawner(src)  # before this process grows
    for _ in range(PROBE_BLOCK):  # warm-up: first touch of the probe's arrays
        probe_ms()
    try:
        w = Workload(workload, seed, trace)
        t0 = time.perf_counter_ns()
        w.setup()
        deadline = time.monotonic() + seconds
        k = 0
        w.rec.probe()
        while True:
            w.query_round(k)
            k += 1
            if time.monotonic() >= deadline:
                break
        w.cli(spawner)
    finally:
        spawner.close()
    if trace:
        path = gen.CACHE / "traces" / ("%s-seed%d.jsonl" % (workload, seed))
        w.rec.write_spans(path, t0)
        log("spans written to %s" % path)
    rec = w.rec
    values = end_to_end(w)
    values.update(per_layer(w, rec.self_times() if trace else
                            {name: rec.raw(name) for name in rec.samples}))
    values["harness.rounds"] = k
    return rec.wrong == 0, rec.attempted, rec.failed, values


def end_to_end(w):
    rec = w.rec
    build = [a + b for a, b in zip(rec.scaled("problem.PageRankInstance"),
                                   rec.scaled("problem.build_pagerank_quadratic"))]
    out = {
        "setup_s": median(rec.scaled("graph_io.load_graph")) / 1e9,
        "build_ms": median(build) / 1e6,
        "cli_solve_s": median(rec.scaled("cli.solve")) / 1e9,
        "cli_peak_rss_mb": median(w.cli_rss_mb),
    }
    for tok in TOKENS:
        out[tok + "_ms"] = median(rec.scaled("solvers." + tok)) / 1e6
    return out


def per_layer(w, times):
    """Per-layer metrics from raw (untraced) or self (traced) times in ns."""
    def med(name, unit):
        return median(times.get(name, [])) / unit

    out = {
        "graph_io.load_s": med("graph_io.load_graph", 1e9),
        "problem.graph_s": med("problem.Graph", 1e9),
        "graph_io.load_distribution_ms": med("graph_io.load_distribution", 1e6),
        "problem.instance_ms": med("problem.PageRankInstance", 1e6),
        "problem.build_ms": med("problem.build_pagerank_quadratic", 1e6),
        "problem.gradient_ms": med("problem.gradient", 1e6),
        "problem.check_optimality_ms": med("problem.check_optimality", 1e6),
        "cli.import_s": med("cli.import", 1e9),
        "cli.raw_s": med("cli.solve", 1e9),
    }
    out["graph_io.parse_s"] = out["graph_io.load_s"] - out["problem.graph_s"]
    out["graph_io.parse_mb_per_s"] = w.file_mb / out["graph_io.parse_s"]
    rows = w.rows
    first = rows[::len(w.man["queries"])]
    has_twin = w.query(0).small is not None
    in_process = (out["graph_io.load_s"] + out["problem.instance_ms"] / 1e3
                  + out["problem.build_ms"] / 1e3
                  + median([r["cdpr"][0] for r in first if r["cdpr"][0]]) / 1e9
                  + out["problem.check_optimality_ms"] / 1e3)
    out["cli.overhead_s"] = out["cli.raw_s"] - in_process
    for tok in TOKENS:
        ok = [r for r in rows if r[tok][2] is not None]
        # counts come from the first round, which every run completes, so
        # they repeat exactly for a seed however many rounds a run fits in
        counted = [r for r in rows[:1] if r[tok][2] is not None]
        twins = [r for r in ok if r[tok][1]]
        solve_ns = times.get("solvers." + tok, [])
        out["solvers.%s.raw_ms" % tok] = median(solve_ns) / 1e6
        for c in COUNTERS + ("support_size",):
            out["solvers.%s.%s" % (tok, c)] = median([r[tok][2][c] for r in counted])
        out["solvers.%s.nnz_per_vol" % tok] = median(
            [r[tok][2]["nnz_touched"] / r["vol"] for r in counted])
        out["solvers.%s.ns_per_nnz" % tok] = median(
            [r[tok][0] / r[tok][2]["nnz_touched"] for r in ok])
        # wide-support has no twin: its 10k-node graph is itself the small
        # case, and every metric must be a number, so the ratio is 1 there
        out["solvers.%s.n_scaling" % tok] = (
            median([r[tok][0] / r[tok][1] for r in twins]) if has_twin else 1.0)
    probes = w.rec.probes
    q1, _, q3 = statistics.quantiles(probes, n=4)
    out["harness.probe_ms"] = median(probes)
    out["harness.probe_spread"] = (q3 - q1) / median(probes)
    return out
