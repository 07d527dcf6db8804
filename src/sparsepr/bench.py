"""Benchmark harness: run solver cells over instance grids, emit CSV rows.

Each (family, size, alpha, rho, solver, repeat) cell builds a deterministic
PageRank instance, runs the solver, and records counters, support volumes,
the certified gap bound, and wall time.  Per-instance complexity predictors
(the conditioning against the crossover thresholds that decide which solver
family should win) are emitted as '#' comment lines after the data rows so
the CSV schema stays fixed.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .oracle import random_graph_instance
from .problem import build_pagerank_quadratic, restrict, volume
from .solvers import _conditioning, solve

__all__ = ["RunRecord", "CSV_HEADER", "run_cell", "bench_grid",
           "predictor_comment"]


@dataclasses.dataclass
class RunRecord:
    """One benchmark cell; its CSV row prints floats with repr, so they
    round-trip.  ``kappa_S`` is no CSV column: it is the certified
    L_S/alpha_S of the answer's support (see ``solvers._conditioning``),
    1.0 on an empty support, and only :func:`predictor_comment` reads
    it."""

    family: str
    n: int
    alpha: float
    rho: float
    solver: str
    variant: str
    stages: int
    inner_iters: int
    nnz_touched: int
    full_gradients: int
    support_size: int
    vol_supp: int
    ivol_supp: int
    gap: float
    wall_ns: int
    kappa_S: float

    def to_csv_row(self):
        # str of a float is its repr
        return ",".join(str(getattr(self, name)) for name in _CSV_COLUMNS)


_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRecord)
                     if f.name != "kappa_S")
CSV_HEADER = ",".join(_CSV_COLUMNS)


def _size_params(family, size):
    size = int(size)
    if family == "grid":
        return {"rows": size, "cols": size}
    if family == "star":
        return {"leaves": size - 1}
    if family == "sbm":
        return {"sizes": [size // 2, size - size // 2]}
    return {"n": size}


def run_cell(family, size, alpha, rho, solver_token, seed, eps=1e-6):
    """Build one deterministic instance and run one solver on it."""
    p = _size_params(family, size)
    p["alpha"] = alpha
    p["rho"] = rho
    inst = random_graph_instance(family, p, seed)
    q = build_pagerank_quadratic(inst)

    t0 = time.perf_counter_ns()
    sol = solve(q, solver_token, eps)
    wall = time.perf_counter_ns() - t0
    name, _, variant = solver_token.partition(":")

    supp = sol.support
    gap = 0.0 if sol.gap_bound == "exact" else float(sol.gap_bound)
    sub = restrict(q, supp)
    kappa_S = 1.0
    if supp.size:
        alpha_S, L_S = _conditioning(sub)
        kappa_S = L_S / alpha_S
    return RunRecord(
        family=family, n=q.n, alpha=float(alpha), rho=float(rho),
        solver=name, variant=variant or "plain",
        stages=sol.counters.stages, inner_iters=sol.counters.inner_iters,
        nnz_touched=sol.counters.nnz_touched,
        full_gradients=sol.counters.full_gradients,
        support_size=int(supp.size),
        vol_supp=volume(q, supp), ivol_supp=int(sub.Q.indptr[-1]),
        gap=gap, wall_ns=int(wall), kappa_S=kappa_S,
    )


def predictor_comment(record):
    """Crossover predictors for one instance, as a '#' CSV comment.

    With k = |support|, vol and ivol its volumes, kappa = L/alpha = 1/alpha
    and kappa_S the record's certified conditioning of the support block,
    by which each ``aspr`` stage is sized: the conjugate solver beats the
    baseline when kappa > max(k^3/vol, k), the staged accelerated solver
    when kappa_S > max((k*ivol/vol)^2, k), and the conjugate solver beats
    the accelerated one when kappa_S > (k^2/ivol)^2.  So
    ``cdpr_vs_ista_thr`` compares against kappa, and ``aspr_vs_ista_thr``
    and ``cdpr_vs_aspr_thr`` against kappa_S.
    """
    k = max(record.support_size, 1)
    vol = max(record.vol_supp, 1)
    ivol = max(record.ivol_supp, 1)
    kappa = 1.0 / record.alpha
    cdpr_thr = max(k ** 3 / vol, k)
    aspr_thr = max((k * ivol / vol) ** 2, k)
    duel_thr = (k ** 2 / ivol) ** 2
    return ("# predictors family=%s n=%d alpha=%r solver=%s variant=%s "
            "kappa=%r kappa_S=%r supp=%d cdpr_vs_ista_thr=%r "
            "aspr_vs_ista_thr=%r cdpr_vs_aspr_thr=%r" % (
                record.family, record.n, record.alpha, record.solver,
                record.variant, kappa, record.kappa_S, record.support_size,
                cdpr_thr, aspr_thr, duel_thr))


def bench_grid(families, sizes, alphas, rhos, solvers, seed, repeat=1,
               eps=1e-6):
    """Yield RunRecords over the full cell grid, deterministically ordered.

    The instance seed for a cell depends on (family, size, alpha, rho,
    repeat index) but not on the solver, so every solver sees the same
    instance within a cell.
    """
    for family in families:
        for size in sizes:
            for alpha in alphas:
                for rho in rhos:
                    for r in range(repeat):
                        fam_tag = sum(family.encode("utf-8"))
                        seed_of_cell = int(np.random.SeedSequence(
                            [seed, r, int(size), fam_tag,
                             int(alpha * 1e9) & 0xFFFFFFFF,
                             int(rho * 1e9) & 0xFFFFFFFF],
                        ).generate_state(1)[0])
                        for token in solvers:
                            yield run_cell(family, size, alpha, rho, token,
                                           seed_of_cell, eps=eps)
