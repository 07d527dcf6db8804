"""Brute-force and dense reference solvers, geometry checks, and generators.

Everything here is deliberately independent of the sparse solvers in
``sparsepr.solvers``: the enumeration oracle walks supports and solves dense
linear systems, the projected oracle runs plain dense projected descent, and
the geometry checker only consumes these two.  Solver outputs are always
validated against this module, never against each other alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .problem import (
    Graph,
    MQuadratic,
    PageRankInstance,
    build_pagerank_quadratic,
    objective,
    restrict,
)

__all__ = [
    "OracleError",
    "OracleSolution",
    "GeometryReport",
    "dense_solve_enumerate",
    "dense_solve_projected",
    "subspace_solve",
    "verify_geometry",
    "random_m_matrix",
    "random_graph_instance",
    "GRAPH_KINDS",
]

ENUMERATE_MAX_N = 16
PROJECTED_MAX_N = 4096


class OracleError(RuntimeError):
    """The oracle could not certify a solution."""


@dataclasses.dataclass
class OracleSolution:
    """Reference minimizer over the nonnegative orthant."""

    x_star: np.ndarray
    support: np.ndarray
    objective_value: float
    kkt_residuals: np.ndarray  # full gradient at x_star

    @property
    def support_size(self):
        return int(self.support.size)


def _finish(q, x):
    Qd = q.Q
    g = Qd @ x - q.b
    support = np.flatnonzero(x > 0)
    return OracleSolution(x, support, objective(q, x), g)


def dense_solve_enumerate(q):
    """Exact minimizer by support enumeration (n <= 16).

    For each candidate support S, solve Q[S,S] x_S = b[S]; accept iff the
    solution is strictly positive on S and the gradient is nonnegative off S.
    Strong convexity over the orthant guarantees exactly one support is
    accepted, so the scan stops at the first acceptance (after one step of
    iterative refinement on the linear system).
    """
    n = q.n
    if n > ENUMERATE_MAX_N:
        raise ValueError("enumeration oracle limited to n <= %d" % ENUMERATE_MAX_N)
    Qd = q.Q.toarray()
    b = q.b
    slack = 1e-12 * max(1.0, float(np.max(np.abs(b))) if n else 0.0)

    near_misses = []
    for mask in range(1 << n):
        if mask == 0:
            x = np.zeros(n)
            if (-b >= -slack).all():
                return _finish(q, x)
            continue
        S = [i for i in range(n) if mask >> i & 1]
        sub = Qd[np.ix_(S, S)]
        try:
            xs = np.linalg.solve(sub, b[S])
        except np.linalg.LinAlgError:
            continue
        if not (xs > 0).all():
            continue
        xs = xs + np.linalg.solve(sub, b[S] - sub @ xs)  # one refinement step
        if not (xs > 0).all():
            continue
        x = np.zeros(n)
        x[S] = xs
        g = Qd @ x - b
        off = np.ones(n, dtype=bool)
        off[S] = False
        worst = float(np.min(g[off])) if off.any() else 0.0
        if worst >= -slack:
            return _finish(q, x)
        if worst >= -1e-6:
            near_misses.append((mask, worst))
    raise OracleError(
        "no support accepted by enumeration; near misses: %r" % near_misses[:5]
    )


def _polish_support(q, x, threshold=1e-9):
    """Dense principal solve on the detected support of x (plus one
    refinement step).  Returns the polished iterate, or x unchanged when the
    polish does not confirm the sign pattern."""
    scale = float(np.max(x, initial=0.0))
    S = np.flatnonzero(x > threshold * scale)
    if S.size == 0:
        return np.zeros(q.n) if (x <= threshold * scale).all() else x
    sub = q.Q[np.ix_(S, S)].toarray() if sp.issparse(q.Q) else q.Q[np.ix_(S, S)]
    try:
        xs = np.linalg.solve(sub, q.b[S])
        xs = xs + np.linalg.solve(sub, q.b[S] - sub @ xs)
    except np.linalg.LinAlgError:
        return x
    if not (xs > 0).all():
        return x
    polished = np.zeros(q.n)
    polished[S] = xs
    g = q.Q @ polished - q.b
    slack = 1e-9 * max(1.0, float(np.max(np.abs(q.b))))
    off = np.ones(q.n, dtype=bool)
    off[S] = False
    if off.any() and float(np.min(g[off])) < -slack:
        return x
    return polished


def dense_solve_projected(q, gap=1e-12, max_iter=None):
    """Minimizer by plain projected gradient descent, run until the
    projected-gradient residual certifies an objective gap <= ``gap``.

    The certificate: with r_i = |grad_i| on positive coordinates and
    max(0, -grad_i) on zero ones, ||r||_inf <= sqrt(2*alpha*gap/n) implies
    ||r||_2^2 <= 2*alpha*gap which bounds the gap by strong convexity.
    The converged iterate's support (threshold 1e-9 relative) is then
    polished by a dense principal solve; the polish is kept only when it
    confirms the sign pattern, so the gap certificate always survives.
    """
    n = q.n
    if n > PROJECTED_MAX_N:
        raise ValueError("projected oracle limited to n <= %d" % PROJECTED_MAX_N)
    if gap <= 0:
        raise ValueError("gap must be positive")
    Q = q.Q
    b = q.b
    L = q.L
    tol = math.sqrt(2.0 * q.alpha * gap / max(1, n))
    if max_iter is None:
        scale = float(np.max(np.abs(b))) if n else 0.0
        max_iter = int(1000 + 8 * q.kappa * max(1.0, math.log(2.0 + scale / tol)))
    x = np.zeros(n)
    for _ in range(max_iter):
        g = Q @ x - b
        r = np.where(x > 0, np.abs(g), np.maximum(0.0, -g))
        if float(np.max(r, initial=0.0)) <= tol:
            return _finish(q, _polish_support(q, x))
        x = np.maximum(0.0, x - g / L)
    raise OracleError(
        "projected oracle failed to reach residual %g in %d iterations" % (tol, max_iter)
    )


def subspace_solve(q, S, gap=1e-12):
    """Minimizer over {x >= 0, x_i = 0 off S}, embedded back into R^n,
    found by the dense oracles on the principal restriction to S."""
    S = np.unique(np.asarray(S, dtype=np.int64))
    n = q.n
    if S.size and (S[0] < 0 or S[-1] >= n):
        raise ValueError("subspace index out of range")
    x = np.zeros(n)
    if S.size == 0:
        return _finish(q, x)
    sub = restrict(q, S)
    if S.size <= ENUMERATE_MAX_N:
        sol = dense_solve_enumerate(sub)
    else:
        sol = dense_solve_projected(sub, gap=gap)
    x[S] = sol.x_star
    return _finish(q, x)


@dataclasses.dataclass
class GeometryReport:
    """Outcome of the subspace-geometry checks for one (S, x0) state."""

    ok: bool
    checks: dict
    messages: list
    subspace_optimum: np.ndarray


def verify_geometry(q, S, x0, x_star=None, grad_tol=None):
    """Check the geometry that sparsity-preserving solvers rely on.

    Preconditions (violations raise ValueError — they indicate a caller bug):
    x0 >= 0, x0 vanishes off S, and the gradient at x0 is nonpositive on S
    (within grad_tol).

    Checks, against the subspace optimum x_C = argmin over span(S) ∩ orthant:
      1. x0 <= x_C coordinatewise, and the gradient of the subspace optimum
         vanishes on its positive coordinates;
      2. every i in S with x0_i > 0 or a certainly-negative gradient at x0
         has x_C[i] > 0;
      3. if x_C is strictly positive on all of S, then x_C <= x_star
         coordinatewise and S is contained in the optimal support.
    """
    S = np.unique(np.asarray(S, dtype=np.int64))
    x0 = np.asarray(x0, dtype=float)
    n = q.n
    g0 = q.Q @ x0 - q.b
    scale = max(1.0, float(np.max(np.abs(q.b))) if n else 0.0)
    if grad_tol is None:
        grad_tol = 1e-7 * scale
    member = np.zeros(n, dtype=bool)
    member[S] = True
    if (x0 < 0).any():
        raise ValueError("x0 must be nonnegative")
    if np.any(x0[~member] != 0):
        raise ValueError("x0 must vanish off S")
    if S.size and float(np.max(g0[S])) > grad_tol:
        raise ValueError(
            "gradient at x0 must be nonpositive on S (max %.3g)" % float(np.max(g0[S]))
        )

    sol_c = subspace_solve(q, S)
    xc = sol_c.x_star
    slack = 1e-9 * max(1.0, float(np.max(np.abs(xc))) if n else 0.0)
    checks = {}
    messages = []

    below = bool((x0 <= xc + slack).all())
    gpos = sol_c.kkt_residuals[xc > 0]
    annihilated = bool(gpos.size == 0 or float(np.max(np.abs(gpos))) <= 1e-8 * scale)
    checks["start_below_subspace_optimum"] = below
    checks["subspace_gradient_vanishes"] = annihilated
    if not below:
        messages.append("x0 exceeds the subspace optimum")
    if not annihilated:
        messages.append("subspace optimum has nonzero gradient on its support")

    strict = 1e-7 * scale
    active = member & ((x0 > 0) | (g0 < -strict))
    positive_where_active = bool((xc[active] > 0).all())
    checks["active_coordinates_positive"] = positive_where_active
    if not positive_where_active:
        messages.append("subspace optimum vanishes on an active coordinate")

    if S.size and (xc[S] > 0).all():
        if x_star is None:
            if n <= ENUMERATE_MAX_N:
                x_star = dense_solve_enumerate(q)
            else:
                x_star = dense_solve_projected(q, gap=1e-12)
        xs = x_star.x_star if isinstance(x_star, OracleSolution) else np.asarray(x_star)
        sslack = 1e-9 * max(1.0, float(np.max(np.abs(xs))))
        dominated = bool((xc <= xs + sslack).all())
        supp_ok = bool((xs[S] > 0).all())
        checks["subspace_optimum_below_global"] = dominated
        checks["subspace_inside_optimal_support"] = supp_ok
        if not dominated:
            messages.append("subspace optimum exceeds the global optimizer")
        if not supp_ok:
            messages.append("S escapes the optimal support")

    ok = all(checks.values())
    return GeometryReport(ok, checks, messages, xc)


def random_m_matrix(n, density, seed, target_kappa=None):
    """Random SPD M-matrix quadratic with mixed-sign linear term.

    Off-diagonal entries are -Uniform(0,1) on a symmetric Bernoulli(density)
    pattern; the diagonal is the absolute row sum plus Uniform(0.1, 1), which
    makes the matrix strictly diagonally dominant and hence positive
    definite.  Spectral bounds come from a dense eigendecomposition for
    n <= 64 and from Gershgorin discs otherwise.  With ``target_kappa`` the
    diagonal is shifted to hit the requested condition number exactly
    (n <= 64 only; target_kappa=1 returns a scaled identity).
    """
    rng = np.random.default_rng(seed)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if target_kappa is not None and target_kappa < 1:
        raise ValueError("target_kappa must be >= 1")
    if target_kappa == 1:
        c = rng.uniform(0.5, 1.5)
        Q = sp.identity(n, format="csr") * c
        b = rng.uniform(-1.0, 1.0, size=n)
        return MQuadratic(Q, b, alpha=c, L=c, validate=False)

    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    iu, ju = iu[keep], ju[keep]
    vals = -rng.uniform(0.0, 1.0, size=iu.size)
    rows = np.concatenate([iu, ju])
    cols = np.concatenate([ju, iu])
    data = np.concatenate([vals, vals])
    absrow = np.zeros(n)
    np.add.at(absrow, rows, -data)
    diag = absrow + rng.uniform(0.1, 1.0, size=n)
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    data = np.concatenate([data, diag])
    Q = sp.csr_matrix(sp.coo_matrix((data, (rows, cols)), shape=(n, n)))

    if n <= 64:
        w = np.linalg.eigvalsh(Q.toarray())
        lo, hi = float(w[0]), float(w[-1])
        if target_kappa is not None:
            # shift the spectrum: (hi - c)/(lo - c) = target, with c < lo
            c = (target_kappa * lo - hi) / (target_kappa - 1.0)
            Q = (Q - c * sp.identity(n, format="csr")).tocsr()
            lo, hi = lo - c, hi - c
    else:
        if target_kappa is not None:
            raise ValueError("target_kappa needs n <= 64")
        lo = float(np.min(diag - absrow))  # Gershgorin
        hi = float(np.max(diag + absrow))
    b = rng.uniform(-1.0, 1.0, size=n)
    return MQuadratic(Q, b, alpha=lo, L=hi, validate=False)


GRAPH_KINDS = ("path", "cycle", "grid", "star", "sbm")


def _build_graph(kind, params, rng):
    if kind == "path":
        n = int(params.get("n", 8))
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        n = int(params.get("n", 8))
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return Graph(n, edges)
    if kind == "grid":
        r = int(params.get("rows", 4))
        c = int(params.get("cols", r))
        edges = []
        for i in range(r):
            for j in range(c):
                v = i * c + j
                if j + 1 < c:
                    edges.append((v, v + 1))
                if i + 1 < r:
                    edges.append((v, v + c))
        return Graph(r * c, edges)
    if kind == "star":
        k = int(params.get("leaves", 5))
        return Graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if kind == "sbm":
        sizes = list(params.get("sizes", [5, 5]))
        p_in = float(params.get("p_in", 0.6))
        p_out = float(params.get("p_out", 0.1))
        n = sum(sizes)
        block = np.repeat(np.arange(len(sizes)), sizes)
        for _ in range(50):
            iu, ju = np.triu_indices(n, k=1)
            p = np.where(block[iu] == block[ju], p_in, p_out)
            keep = rng.random(iu.size) < p
            try:
                return Graph(n, np.stack([iu[keep], ju[keep]], axis=1))
            except ValueError:
                continue
        raise OracleError("could not draw a connected stochastic block model")
    raise ValueError("unknown graph kind %r (choose from %s)" % (kind, ", ".join(GRAPH_KINDS)))


def random_graph_instance(kind, params, seed,
                          alpha_range=(0.05, 0.95), rho_range=(0.01, 0.3)):
    """Random connected-graph PageRank instance of the given family.

    ``params`` may pin ``alpha``, ``rho`` and ``seed_node``; otherwise they
    are drawn from the configured ranges.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    g = _build_graph(kind, params, rng)
    alpha = float(params.get("alpha", rng.uniform(*alpha_range)))
    rho = float(params.get("rho", np.exp(rng.uniform(np.log(rho_range[0]), np.log(rho_range[1])))))
    node = int(params.get("seed_node", rng.integers(g.n)))
    return PageRankInstance(g, alpha, rho, node)
