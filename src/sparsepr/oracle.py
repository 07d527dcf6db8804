"""Dense reference solver, geometry checks, and instance generators.

Everything here is deliberately independent of the sparse solvers in
``sparsepr.solvers``: the reference oracle grows a support by dense
principal solves and certifies it by its own KKT check, and the geometry
checker only consumes it.  A subspace solve restricts ``Q`` by scipy's
indexing, not by ``problem.restrict``, whose form the solvers' stages
share.  Solver outputs are always validated against this module, never
against each other alone.  ``tests/enumeration.py`` keeps a brute-force
support enumeration that the tests hold the oracle to, bit for bit, up to
n = 16.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .problem import Graph, MQuadratic, PageRankInstance, objective

__all__ = [
    "OracleError",
    "OracleSolution",
    "GeometryReport",
    "dense_solve_active_set",
    "subspace_solve",
    "verify_geometry",
    "random_m_matrix",
    "random_graph_instance",
    "GRAPH_KINDS",
]

REFERENCE_MAX_N = 4096


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


def dense_solve_active_set(q):
    """Exact minimizer by a monotone active-set principal solve
    (n <= ``REFERENCE_MAX_N``).

    Chandrasekaran's method for Z-matrix complementarity problems ("A
    special case of the complementary pivot problem", Opsearch 1970): start
    from the coordinates with b > 0, solve the principal system on the set
    (with one refinement step), drop the coordinates whose solution is
    nonpositive, else add every coordinate off the set whose gradient is
    below -1e-13 * max(1, max|b|).  For an M-matrix the set settles at the
    optimal support.  The certificate is the settled point's own KKT check:
    no certainly-negative gradient off the set, and a gradient within
    1e-11 * max(1, max|b|) on the support.
    """
    n = q.n
    if n > REFERENCE_MAX_N:
        raise ValueError("reference oracle limited to n <= %d" % REFERENCE_MAX_N)
    Qd = q.Q.toarray()
    b = q.b
    scale = max(1.0, q.max_abs_b)
    member = b > 0
    for _ in range(n + 2):
        S = np.flatnonzero(member)
        x = np.zeros(n)
        if S.size:
            sub = Qd[np.ix_(S, S)]
            xs = np.linalg.solve(sub, b[S])
            xs = xs + np.linalg.solve(sub, b[S] - sub @ xs)  # one refinement step
            if (xs <= 0).any():
                member[S[xs <= 0]] = False
                continue
            x[S] = xs
            g = Qd @ x - b
        else:
            g = -b
        fresh = (g < -1e-13 * scale) & ~member
        if not fresh.any():
            worst = float(np.max(np.abs(g[x > 0]), initial=0.0))
            if worst > 1e-11 * scale:
                raise OracleError("reference residual %.3e too large" % worst)
            return _finish(q, x)
        member |= fresh
    raise OracleError("reference active set did not settle")


def subspace_solve(q, S):
    """Minimizer over {x >= 0, x_i = 0 off S}, embedded back into R^n,
    found by the dense oracle on the principal restriction to S, which
    scipy's fancy indexing takes."""
    S = np.unique(np.asarray(S, dtype=np.int64))
    n = q.n
    if S.size and (S[0] < 0 or S[-1] >= n):
        raise ValueError("subspace index out of range")
    x = np.zeros(n)
    if S.size == 0:
        return _finish(q, x)
    sub = MQuadratic(q.Q[S][:, S], q.b[S], q.alpha, q.L, validate=False)
    x[S] = dense_solve_active_set(sub).x_star
    return _finish(q, x)


@dataclasses.dataclass
class GeometryReport:
    """Outcome of the subspace-geometry checks for one (S, x0) state."""

    ok: bool
    checks: dict
    messages: list
    subspace_optimum: np.ndarray


def verify_geometry(q, S, x0, x_star=None):
    """Check the geometry that sparsity-preserving solvers rely on.

    Preconditions (violations raise ValueError — they indicate a caller bug):
    x0 >= 0, x0 vanishes off S, and the gradient at x0 is nonpositive on S
    (within 1e-7 * max(1, max|b|)).

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
    scale = max(1.0, q.max_abs_b)
    member = np.zeros(n, dtype=bool)
    member[S] = True
    if (x0 < 0).any():
        raise ValueError("x0 must be nonnegative")
    if np.any(x0[~member] != 0):
        raise ValueError("x0 must vanish off S")
    if S.size and float(np.max(g0[S])) > 1e-7 * scale:
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
            x_star = dense_solve_active_set(q)
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
    import scipy.sparse as sp
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
    # Graph sorts the pairs, so their order here changes no output
    if kind in ("path", "cycle"):
        n = int(params.get("n", 8))
        v = np.arange(n - 1)
        edges = np.stack([v, v + 1], axis=1)
        if kind == "cycle":
            edges = np.concatenate([edges, [(0, n - 1)]])
        return Graph(n, edges)
    if kind == "grid":
        r = int(params.get("rows", 4))
        c = int(params.get("cols", r))
        v = np.arange(max(r, 0) * max(c, 0)).reshape(max(r, 0), max(c, 0))
        right = np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], axis=1)
        down = np.stack([v[:-1].ravel(), v[1:].ravel()], axis=1)
        return Graph(r * c, np.concatenate([right, down]))
    if kind == "star":
        k = int(params.get("leaves", 5))
        v = np.arange(1, k + 1)
        return Graph(k + 1, np.stack([np.zeros_like(v), v], axis=1))
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
            pairs = np.stack([iu[keep], ju[keep]], axis=1)
            try:
                return Graph(n, pairs)
            except ValueError:
                continue
        # the last draw, still not connected, gets the path edges it lacks
        path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        return Graph(n, np.unique(np.concatenate([pairs, path]), axis=0))
    raise ValueError("unknown graph kind %r (choose from %s)" % (kind, ", ".join(GRAPH_KINDS)))


def random_graph_instance(kind, params, seed):
    """Random connected-graph PageRank instance of the given family.

    ``params`` may pin ``alpha``, ``rho`` and ``seed_node``; otherwise alpha
    is drawn uniformly from [0.05, 0.95], rho log-uniformly from [0.01, 0.3]
    and the seed node uniformly.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    g = _build_graph(kind, params, rng)
    alpha = float(params.get("alpha", rng.uniform(0.05, 0.95)))
    rho = float(params.get("rho", np.exp(rng.uniform(np.log(0.01), np.log(0.3)))))
    node = int(params.get("seed_node", rng.integers(g.n)))
    return PageRankInstance(g, alpha, rho, node)
