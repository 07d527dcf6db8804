"""Invariant suites shared by ``sparsepr verify`` and the acceptance tests.

Each suite runs a deterministic corpus of generated instances through one
family of checks — solver exactness against the reference oracle,
structural invariants of the conjugate-directions solver, gap certificates
and support guarantees of the staged solvers, per-iteration rate bounds of
the inner solvers, and the orthant geometry (gradient monotonicity, subspace
sandwiching, support volume).  Every check returns a CheckResult with enough
failure context (instance label and seed) to reproduce a red run.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .oracle import (OracleError, dense_solve_active_set,
                     random_graph_instance, random_m_matrix, subspace_solve,
                     verify_geometry)
from .problem import (MQuadratic, build_pagerank_quadratic, gradient,
                      negative_tolerance, objective, restrict, volume)
from .solvers import (ASPR_VARIANTS, _coeff_growth, apgd, aspr, cdpr,
                      ista_baseline, pgd)

__all__ = ["CheckResult", "CorpusItem", "make_corpus", "suite_geometry",
           "suite_rates", "suite_cdpr", "suite_aspr", "run_suites",
           "scaling_slopes", "SUITE_NAMES"]

SUITE_NAMES = ("geometry", "rates", "cdpr", "aspr")

_MAX_REPORTED_FAILURES = 10


@dataclasses.dataclass
class CheckResult:
    """Outcome of one named invariant over many instances/states."""

    name: str
    passed: bool
    checked: int
    failed: int = 0
    worst: float = None
    failures: list = dataclasses.field(default_factory=list)
    detail: str = ""

    def record_failure(self, message):
        self.passed = False
        self.failed += 1
        if len(self.failures) < _MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        body = "%s %s: %d checks" % (status, self.name, self.checked)
        if self.failed:
            body += ", %d failed" % self.failed
        if self.worst is not None:
            body += ", worst %.3e" % self.worst
        if self.detail:
            body += " (%s)" % self.detail
        return body


@dataclasses.dataclass
class CorpusItem:
    """One generated instance plus its cached oracle solution."""

    label: str
    q: MQuadratic
    seed: int
    rho: float = None  # set on personalized-PageRank items only
    _ref: object = dataclasses.field(default=None, repr=False)

    def reference(self):
        if self._ref is None:
            self._ref = dense_solve_active_set(self.q)
        return self._ref


# the smallest max_n at which each family draws its own size; below it the
# family's slot in the corpus holds a path of max_n nodes
_FAMILY_MIN_N = {"star": 3, "cycle": 3, "grid": 4, "sbm": 6}


def _grid_shapes(max_n):
    shapes = [(r, c) for r in range(2, 5) for c in range(2, 7)
              if r * c <= max_n and r <= c]
    return shapes


def make_corpus(num_mm, num_pr, max_n, seed):
    """Deterministic instance mix: M-matrix quadratics then PageRank ones."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    rng = np.random.default_rng([int(seed), 0xC0FFEE])
    items = []
    for i in range(int(num_mm)):
        n = int(rng.integers(2, max_n + 1))
        density = float(rng.uniform(0.15, 0.95))
        kappa = 10.0 ** float(rng.uniform(0.0, 2.0)) if i % 3 == 0 else None
        child = int(rng.integers(2 ** 62))
        q = random_m_matrix(n, density, child, target_kappa=kappa)
        items.append(CorpusItem("mm-%03d[n=%d,seed=%d]" % (i, n, child),
                                q, child))
    kinds = itertools.cycle(("path", "star", "cycle", "sbm", "grid"))
    shapes = _grid_shapes(max_n)
    for i in range(int(num_pr)):
        kind = next(kinds)
        params = {}
        if max_n < _FAMILY_MIN_N.get(kind, 2):
            kind = "path"
            params["n"] = max_n
        elif kind == "path":
            params["n"] = int(rng.integers(2, max_n + 1))
        elif kind == "cycle":
            params["n"] = int(rng.integers(3, max_n + 1))
        elif kind == "star":
            params["leaves"] = int(rng.integers(2, max_n))
        elif kind == "sbm":
            a = int(rng.integers(2, max_n // 2 + 1))
            b = int(rng.integers(2, max_n - a + 1))
            params.update(sizes=[a, b], p_in=0.8, p_out=0.3)
        else:
            r, c = shapes[int(rng.integers(len(shapes)))]
            params.update(rows=r, cols=c)
        child = int(rng.integers(2 ** 62))
        inst = random_graph_instance(kind, params, child)
        q = build_pagerank_quadratic(inst)
        items.append(CorpusItem("pr-%s-%03d[n=%d,seed=%d]" % (kind, i, q.n, child),
                                q, child, rho=inst.rho))
    return items


# ---------------------------------------------------------------------------
# cdpr suite: exact minimizer in |supp*| stages + structural invariants
# ---------------------------------------------------------------------------

def suite_cdpr(corpus):
    exact = CheckResult("cdpr/exact_minimizer_and_stage_count", True, 0, worst=0.0)
    struct = CheckResult("cdpr/conjugacy_annihilation_monotonicity", True, 0,
                         worst=0.0)
    for item in corpus:
        q = item.q
        ref = item.reference()
        stages = []

        def observe(x, S, d):
            stages.append((S, d, x.copy(), gradient(q, x, coords=S)))

        try:
            sol = cdpr(q, observe=observe)
        except Exception as exc:  # a solver crash is a failed check, not a crash
            exact.checked += 1
            exact.record_failure("%s: solver raised %r" % (item.label, exc))
            continue

        exact.checked += 1
        xden = max(float(np.max(np.abs(ref.x_star), initial=0.0)), 1e-12)
        rel_x = float(np.max(np.abs(sol.x - ref.x_star), initial=0.0)) / xden
        gden = max(1.0, abs(ref.objective_value))
        rel_g = abs(objective(q, sol.x) - ref.objective_value) / gden
        exact.worst = max(exact.worst, rel_x, rel_g)
        if rel_x > 1e-8:
            exact.record_failure("%s: minimizer off by rel %.3e" % (item.label, rel_x))
        if rel_g > 1e-10:
            exact.record_failure("%s: objective off by rel %.3e" % (item.label, rel_g))
        if sol.counters.stages != ref.support_size:
            exact.record_failure("%s: %d stages for support of %d"
                                 % (item.label, sol.counters.stages, ref.support_size))

        struct.checked += 1
        scale = max(1.0, q.max_abs_b)
        Qd = q.Q.toarray()
        dirs = np.zeros((q.n, len(stages)))
        for k, (S, d, _, _) in enumerate(stages):
            dirs[S, k] = d
        gram = dirs.T @ (Qd @ dirs)
        if len(stages) > 1:
            norms = np.sqrt(np.diag(gram))
            cross = gram / np.outer(norms, norms)
            np.fill_diagonal(cross, 0.0)
            ortho = float(np.max(np.abs(cross)))
            struct.worst = max(struct.worst, ortho)
            if ortho > 1e-8:
                struct.record_failure("%s: directions lose conjugacy (%.3e)"
                                      % (item.label, ortho))
        x_prev = np.zeros(q.n)
        for stage, (_, _, x, g_pivots) in enumerate(stages):
            annih = float(np.max(np.abs(g_pivots)))
            struct.worst = max(struct.worst, annih / scale)
            if annih > 1e-8 * scale:
                struct.record_failure("%s: stage %d pivot gradient %.3e"
                                      % (item.label, stage, annih))
            drop = float(np.min(x - x_prev, initial=0.0))
            if drop < -1e-10:
                struct.record_failure("%s: stage %d coordinate decreased %.3e"
                                      % (item.label, stage, drop))
            x_prev = x
    return [exact, struct]


# ---------------------------------------------------------------------------
# aspr suite: gap certificates, support purity, subspace sandwich
# ---------------------------------------------------------------------------

def suite_aspr(corpus):
    gap = CheckResult("aspr/certified_gap", True, 0, worst=0.0)
    purity = CheckResult("aspr+ista/support_purity", True, 0)
    sandwich = CheckResult("aspr/subspace_sandwich", True, 0, worst=0.0)

    for item in corpus:
        q = item.q
        ref = item.reference()
        good = set(ref.support.tolist())
        for eps, variant in itertools.product((1e-3, 1e-6), ASPR_VARIANTS):
            gap.checked += 1
            try:
                sol = aspr(q, eps, variant=variant)
            except Exception as exc:
                gap.record_failure("%s: aspr(%g, %s) raised %r"
                                   % (item.label, eps, variant, exc))
                continue
            measured = objective(q, sol.x) - ref.objective_value
            gap.worst = max(gap.worst, measured / eps)
            if measured > eps * (1 + 1e-9) + 1e-12 * max(1.0, abs(ref.objective_value)):
                gap.record_failure("%s: aspr(%g, %s) gap %.3e exceeds eps"
                                   % (item.label, eps, variant, measured))
            purity.checked += 1
            stray = set(sol.ever_positive.tolist()) - good
            if stray:
                purity.record_failure("%s: aspr(%g, %s) touched %s outside supp*"
                                      % (item.label, eps, variant, sorted(stray)))
        purity.checked += 1
        try:
            ista_sol = ista_baseline(q, 1e-6)
            stray = set(ista_sol.ever_positive.tolist()) - good
            if stray:
                purity.record_failure("%s: ista touched %s outside supp*"
                                      % (item.label, sorted(stray)))
        except Exception as exc:
            purity.record_failure("%s: ista raised %r" % (item.label, exc))

    for item in corpus[:50]:
        q = item.q
        ref = item.reference()
        stages = []
        try:
            aspr(q, 1e-6, observe=lambda x, S, d: stages.append((S, x.copy())))
        except Exception as exc:
            sandwich.checked += 1
            sandwich.record_failure("%s: aspr raised %r" % (item.label, exc))
            continue
        for stage, (S, x) in enumerate(stages):
            sandwich.checked += 1
            xc = subspace_solve(q, S).x_star
            lo = float(np.max(x - xc, initial=0.0))
            hi = float(np.max(xc - ref.x_star, initial=0.0))
            sandwich.worst = max(sandwich.worst, lo, hi)
            if lo > 1e-9:
                sandwich.record_failure("%s: stage %d iterate above subspace "
                                        "optimum by %.3e" % (item.label, stage, lo))
            if hi > 1e-9:
                sandwich.record_failure("%s: stage %d subspace optimum above "
                                        "global by %.3e" % (item.label, stage, hi))
    return [gap, purity, sandwich]


# ---------------------------------------------------------------------------
# rates suite: per-iteration bounds for the two inner solvers
# ---------------------------------------------------------------------------

def suite_rates(instances, seed):
    nprob = max(10, int(instances) // 2)
    rng = np.random.default_rng([int(seed), 0x4A7E5])
    T = 500
    pgd_chk = CheckResult("rates/pgd_distance_contraction", True, 0, worst=0.0)
    apgd_chk = CheckResult("rates/apgd_gap_bound", True, 0, worst=0.0)
    coeff = CheckResult("rates/apgd_weight_growth", True, 0, worst=0.0)

    for p in range(nprob):
        n = int(rng.integers(6, 49))
        density = float(rng.uniform(0.15, 0.7))
        if p == 0:
            kap = 1.0
        elif p == 1:
            kap = 1e4
        else:
            kap = 10.0 ** float(rng.uniform(0.0, 4.0))
        mseed = int(rng.integers(2 ** 62))
        label = "rate-%03d[n=%d,kappa=%.3g,seed=%d]" % (p, n, kap, mseed)
        q = random_m_matrix(n, density, mseed, target_kappa=kap)
        if rng.random() < 0.5:
            S = None
            qsub = q
        else:
            size = int(rng.integers(3, n + 1))
            S = np.sort(rng.choice(n, size=size, replace=False))
            qsub = restrict(q, S)
        try:
            xsub = dense_solve_active_set(qsub).x_star
        except OracleError as exc:
            pgd_chk.checked += 1
            pgd_chk.record_failure("%s: %s" % (label, exc))
            continue
        x_star = np.zeros(n)
        x_star[np.arange(n) if S is None else S] = xsub
        g_star = q.Q @ x_star - q.b

        d0 = float(x_star @ x_star)
        fac_pgd = 1.0 - q.alpha / q.L
        atol_d = 1e-13 * max(1.0, d0)
        dists = []
        pgd(q, S, np.zeros(n), T,
            observe=lambda x, S, d: dists.append(float(((x - x_star) ** 2).sum())))
        pgd_chk.checked += 1
        bound = d0
        for t, d2 in enumerate(dists, start=1):
            bound *= fac_pgd
            slack = d2 - (bound * (1 + 1e-9) + atol_d)
            pgd_chk.worst = max(pgd_chk.worst, slack / max(bound, atol_d))
            if slack > 0:
                pgd_chk.record_failure("%s: pgd iterate %d above bound by %.3e"
                                       % (label, t, slack))
                break

        fac_apgd = 1.0 - 1.0 / (2.0 * math.sqrt(q.kappa))
        pref = (q.L - q.alpha) * d0 / 2.0
        atol_g = 1e-13 * max(1.0, q.L * d0)
        gaps = []

        def taylor_gap(y, S, d, _gs=g_star, _xs=x_star, _acc=gaps):
            delta = y - _xs
            _acc.append(float(_gs @ delta + 0.5 * (delta @ (q.Q @ delta))))

        apgd(q, S, np.zeros(n), T, observe=taylor_gap)
        apgd_chk.checked += 1
        bound = pref
        for t, gp in enumerate(gaps, start=1):
            slack = gp - (bound * (1 + 1e-9) + atol_g)
            apgd_chk.worst = max(apgd_chk.worst, slack / max(bound, atol_g))
            if slack > 0:
                apgd_chk.record_failure("%s: apgd iterate %d gap above bound "
                                        "by %.3e" % (label, t, slack))
                break
            bound *= fac_apgd

        coeff.checked += 1
        growth = _coeff_growth(q.kappa)
        need = 1.0 / fac_apgd if fac_apgd > 0 else float("inf")
        margin = growth - need
        coeff.worst = min(coeff.worst, margin) if coeff.checked > 1 else margin
        if growth < need * (1 - 1e-12):
            coeff.record_failure("%s: weight growth %.12g below %.12g"
                                 % (label, growth, need))
    for kap in np.logspace(0, 6, 61):
        coeff.checked += 1
        growth = _coeff_growth(float(kap))
        need = 1.0 / (1.0 - 1.0 / (2.0 * math.sqrt(float(kap))))
        if growth < need * (1 - 1e-12):
            coeff.record_failure("kappa=%g: weight growth %.12g below %.12g"
                                 % (kap, growth, need))
    return [pgd_chk, apgd_chk, coeff]


# ---------------------------------------------------------------------------
# geometry suite: gradient monotonicity, harvested subspace states, volume
# ---------------------------------------------------------------------------

def _candidate_states(item, rng, ref):
    """Yield (x0, S) states whose working-set gradient is nonpositive.

    Sources: the all-zero start with its certainly-negative set (and random
    subsets of it), the conjugate-solver stage states (zero gradient on the
    previous pivots, negative on the new one), the optimizer on its support,
    and subspace optima on random subsets of the optimal support, plus
    random downscalings of those (still below the subspace optimum).  Every
    candidate is pre-filtered by the nonpositive-working-gradient condition.
    """
    q = item.q
    tol = negative_tolerance(q)
    grad_tol = 1e-7 * max(1.0, q.max_abs_b)
    zero = np.zeros(q.n)

    def admissible(x0, S):
        if S.size == 0:
            return False
        g0 = q.Q @ x0 - q.b
        return float(np.max(g0[S])) <= grad_tol

    seen = set()

    def once(x0, S):
        key = (S.tobytes(), x0.tobytes())
        if key in seen:
            return False
        seen.add(key)
        return True

    neg0 = np.flatnonzero(-q.b < -tol)
    if neg0.size:
        yield zero, neg0
        seen.add((neg0.tobytes(), zero.tobytes()))
    stages = []
    try:
        cdpr(q, observe=lambda x, S, d: stages.append((S, x.copy())))
    except Exception:
        stages = []
    x_prev = zero
    for S, x in stages:
        if once(x_prev, S):
            yield x_prev, S
        x_prev = x
    if ref.support.size and once(ref.x_star, ref.support):
        yield ref.x_star, ref.support
    for _ in range(200):
        if neg0.size and rng.random() < 0.4:
            k = int(rng.integers(1, neg0.size + 1))
            S = np.sort(rng.choice(neg0, size=k, replace=False))
            if once(zero, S):
                yield zero, S
        elif ref.support.size:
            k = int(rng.integers(1, ref.support.size + 1))
            S = np.sort(rng.choice(ref.support, size=k, replace=False))
            sol_c = subspace_solve(q, S)
            if not (sol_c.x_star[S] > 0).all():
                continue
            theta = float(rng.uniform(0.0, 1.0))
            for x0 in (sol_c.x_star, theta * sol_c.x_star):
                if admissible(x0, S) and once(x0, S):
                    yield x0, S
            off = np.ones(q.n, dtype=bool)
            off[S] = False
            fresh = np.flatnonzero((sol_c.kkt_residuals < -tol) & off)
            if fresh.size:
                union = np.sort(np.concatenate([S, fresh]))
                if once(sol_c.x_star, union):
                    yield sol_c.x_star, union
        else:
            return


def suite_geometry(corpus, instances):
    mono = CheckResult("geometry/gradient_monotonicity", True, 0, worst=0.0)
    states = CheckResult("geometry/subspace_states", True, 0)
    vol_chk = CheckResult("geometry/support_volume_bound", True, 0, worst=0.0)

    total_tuples = 1000 * int(instances)
    per_item = -(-total_tuples // len(corpus))
    for item in corpus:
        q = item.q
        rng = np.random.default_rng([item.seed, 0x917])
        done = 0
        while done < per_item and mono.checked < total_tuples:
            x = rng.uniform(0.05, 2.0, size=q.n)
            if rng.random() < 0.3 and q.n > 1:
                x[rng.random(q.n) < 0.5] = 0.0
            pos = np.flatnonzero(x > 0)
            if pos.size == 0:
                continue
            g1 = gradient(q, x)
            for _ in range(min(10, per_item - done)):
                i = int(rng.choice(pos))
                step = x[i] * float(rng.uniform(1e-6, 1.0))
                x2 = x.copy()
                x2[i] -= step
                diff = gradient(q, x2) - g1
                diff[i] = 0.0
                drop = float(np.min(diff, initial=0.0))
                mono.worst = min(mono.worst, drop)
                mono.checked += 1
                done += 1
                if drop < -1e-12:
                    mono.record_failure(
                        "%s: coordinate drop %.3e after decreasing x[%d]"
                        % (item.label, drop, i))

    target_states = 10 * int(instances)
    for idx, item in enumerate(corpus):
        if states.checked >= target_states:
            break
        quota = -(-(target_states - states.checked) // (len(corpus) - idx))
        rng = np.random.default_rng([item.seed, 0x5EED])
        ref = item.reference()
        taken = 0
        for x0, S in _candidate_states(item, rng, ref):
            if taken >= quota:
                break
            states.checked += 1
            taken += 1
            try:
                report = verify_geometry(item.q, S, x0, x_star=ref)
            except ValueError as exc:
                states.record_failure("%s: state S=%s rejected: %s"
                                      % (item.label, S.tolist(), exc))
                continue
            if not report.ok:
                states.record_failure("%s: S=%s fails %s"
                                      % (item.label, S.tolist(), report.messages))
    states.detail = "target %d" % target_states

    for item in corpus:
        if item.rho is None:
            continue
        ref = item.reference()
        vol_chk.checked += 1
        v = volume(item.q, ref.support)
        limit = 1.0 / item.rho + ref.support_size
        vol_chk.worst = max(vol_chk.worst, v - limit)
        if v > limit + 1e-9:
            vol_chk.record_failure("%s: vol(supp*)=%d exceeds 1/rho+|supp*|=%.6g"
                                   % (item.label, v, limit))
    return [mono, states, vol_chk]


# ---------------------------------------------------------------------------
# scaling study (complexity-shape criterion) and suite driver
# ---------------------------------------------------------------------------

def scaling_slopes():
    """Log-log slopes of inner-iteration counts against the conditioning.

    Runs the staged accelerated solver and the baseline on the 5x5 grid,
    seeded at its centre node, while alpha sweeps 0.5, 0.05, 0.005 and
    0.0005 (kappa = 1/alpha for these instances), then fits
    log(inner_iters) ~ slope * log(kappa).

    The settings isolate the conditioning exponent: rho = 1e-10 is small
    enough that the optimal support is the whole grid at every alpha in the
    sweep (stage counts then agree across the sweep), and eps = 1e-12 is
    small enough that the inner-loop length formula's log term stays
    near-constant relative to its sqrt(kappa) factor.
    """
    kappa, aspr_iters, ista_iters = [], [], []
    for alpha in (0.5, 0.05, 0.005, 0.0005):
        params = {"rows": 5, "cols": 5, "alpha": alpha, "rho": 1e-10,
                  "seed_node": 12}
        q = build_pagerank_quadratic(random_graph_instance("grid", params, 1234))
        kappa.append(q.kappa)
        aspr_iters.append(aspr(q, 1e-12).counters.inner_iters)
        ista_iters.append(ista_baseline(q, 1e-12).counters.inner_iters)
    logk = np.log(kappa)
    return {"aspr_slope": float(np.polyfit(logk, np.log(aspr_iters), 1)[0]),
            "ista_slope": float(np.polyfit(logk, np.log(ista_iters), 1)[0])}


def run_suites(names, instances, max_n, seed):
    """Run the named suites over one shared corpus; returns CheckResults."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            expanded.append(name)
        else:
            raise ValueError("unknown suite %r (choose from %s or all)"
                             % (name, ", ".join(SUITE_NAMES)))
    corpus = make_corpus(instances, max(1, int(instances) // 4), max_n, seed)
    suites = {
        "geometry": lambda: suite_geometry(corpus, instances),
        "rates": lambda: suite_rates(instances, seed),
        "cdpr": lambda: suite_cdpr(corpus),
        "aspr": lambda: suite_aspr(corpus),
    }
    results = []
    for name in expanded:
        results.extend(suites[name]())
    return results
