"""Nonnegative quadratic problems with M-matrix structure.

The central object is :class:`MQuadratic`: the quadratic

    g(x) = <x, Q x>/2 - <b, x>

with ``Q`` a symmetric positive-definite matrix whose off-diagonal entries are
all nonpositive (an M-matrix), minimized over the nonnegative orthant.
Personalized PageRank with an l1 penalty compiles into this form via
:func:`build_pagerank_quadratic`.

Gradient evaluations are the unit of work for every solver in this package.
They accept an optional counters object (see ``sparsepr.solvers.Counters``)
and charge the number of sparse-matrix nonzeros the access pattern reads:
``sum(nnz(Q[:, j]) for j in supp(x))`` for a full gradient, and the nonzeros
of the requested rows whose column lies in ``supp(x)`` for a restricted one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "PageRankInstance",
    "MQuadratic",
    "OptimalityReport",
    "MatrixValidation",
    "build_pagerank_quadratic",
    "pagerank_upper_bounds",
    "restrict",
    "gradient",
    "objective",
    "check_optimality",
    "volume",
    "internal_volume",
    "validate_m_matrix",
    "negative_tolerance",
]


class Graph:
    """Immutable connected undirected graph with a CSR adjacency view.

    Parameters
    ----------
    n : int
        Number of nodes; node ids are 0..n-1.
    edges : iterable of (int, int)
        Undirected edges. Self-loops and duplicate edges (in either
        orientation) are rejected, as are graphs that are disconnected or
        have isolated nodes.
    """

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one node")
        e = np.asarray(list(edges), dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of node ids")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range [0, %d)" % n)
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            i = int(e[loops][0, 0])
            raise ValueError("self-loop at node %d" % i)
        e = np.sort(e, axis=1)  # normalize orientation
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
        if e.shape[0] > 1:
            dup = (np.diff(e, axis=0) == 0).all(axis=1)
            if dup.any():
                i, j = e[1:][dup][0]
                raise ValueError("duplicate edge (%d, %d)" % (i, j))

        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        adj = sp.csr_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        adj.sort_indices()
        degrees = np.diff(adj.indptr)
        if (degrees == 0).any():
            i = int(np.flatnonzero(degrees == 0)[0])
            raise ValueError("isolated node %d (every node needs degree >= 1)" % i)
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise ValueError("graph is not connected (%d components)" % ncomp)

        self.n = n
        self.edges = e
        self.edges.setflags(write=False)
        self.degrees = degrees.astype(np.int64)
        self.degrees.setflags(write=False)
        self._adj = adj

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def neighbors(self, i):
        a = self._adj
        return a.indices[a.indptr[i] : a.indptr[i + 1]]

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.num_edges)


class PageRankInstance:
    """A personalized-PageRank problem: graph, teleport weight, l1 level, seed.

    ``s`` may be a node index (point mass) or a dense distribution on the
    nodes; distributions must lie on the simplex within 1e-12.
    """

    def __init__(self, graph, alpha, rho, s):
        if not isinstance(graph, Graph):
            raise TypeError("graph must be a Graph")
        alpha = float(alpha)
        rho = float(rho)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1), got %r" % alpha)
        if rho <= 0.0:
            raise ValueError("rho must be positive, got %r" % rho)
        if np.isscalar(s) or getattr(s, "ndim", 1) == 0:
            v = int(s)
            if not 0 <= v < graph.n:
                raise ValueError("seed node %d out of range" % v)
            dist = np.zeros(graph.n)
            dist[v] = 1.0
        else:
            dist = np.asarray(s, dtype=float).copy()
            if dist.shape != (graph.n,):
                raise ValueError("seed distribution has wrong length")
            if (dist < 0).any():
                raise ValueError("seed distribution has negative entries")
            if abs(dist.sum() - 1.0) > 1e-12:
                raise ValueError(
                    "seed distribution must sum to 1 within 1e-12 (got %.17g)"
                    % dist.sum()
                )
        dist.setflags(write=False)
        self.graph = graph
        self.alpha = alpha
        self.rho = rho
        self.s = dist

    def __repr__(self):
        return "PageRankInstance(n=%d, alpha=%g, rho=%g)" % (
            self.graph.n,
            self.alpha,
            self.rho,
        )


@dataclasses.dataclass
class MatrixValidation:
    """Result of the M-matrix structural checks."""

    ok: bool
    violations: list


def validate_m_matrix(Q, alpha, L):
    """Check that Q is a symmetric positive-definite M-matrix with the
    advertised spectral bounds.

    Checks: bit-exact symmetry, nonpositive off-diagonal entries, strictly
    positive diagonal bounded by L, alpha > 0, L >= alpha, and (for n <= 64,
    where a dense eigendecomposition is cheap) alpha <= lambda_min and
    lambda_max <= L within 1e-9 slack.  Each violation is reported with the
    offending index pair where one exists.
    """
    violations = []
    Q = sp.csr_matrix(Q)
    n = Q.shape[0]
    if Q.shape[0] != Q.shape[1]:
        return MatrixValidation(False, ["matrix is not square"])
    alpha = float(alpha)
    L = float(L)
    if not alpha > 0:
        violations.append("alpha must be positive (got %g)" % alpha)
    if L < alpha:
        violations.append("L must be >= alpha (got L=%g, alpha=%g)" % (L, alpha))

    diff = (Q - Q.T).tocoo()
    mism = np.flatnonzero(diff.data != 0.0)
    if mism.size:
        k = mism[0]
        violations.append(
            "asymmetric entry at (%d, %d)" % (diff.row[k], diff.col[k])
        )

    coo = Q.tocoo()
    off = coo.row != coo.col
    bad = off & (coo.data > 0.0)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        violations.append(
            "positive off-diagonal at (%d, %d)" % (coo.row[k], coo.col[k])
        )

    diag = Q.diagonal()
    slack = 1e-9 * max(1.0, L)
    nonpos = np.flatnonzero(diag <= 0.0)
    if nonpos.size:
        i = int(nonpos[0])
        violations.append("nonpositive diagonal at (%d, %d)" % (i, i))
    big = np.flatnonzero(diag > L + slack)
    if big.size:
        i = int(big[0])
        violations.append("diagonal above L at (%d, %d)" % (i, i))

    if n <= 64 and not violations:
        w = np.linalg.eigvalsh(Q.toarray())
        if w[0] < alpha - slack:
            violations.append(
                "smallest eigenvalue %.12g below alpha=%.12g" % (w[0], alpha)
            )
        if w[-1] > L + slack:
            violations.append(
                "largest eigenvalue %.12g above L=%.12g" % (w[-1], L)
            )
    return MatrixValidation(not violations, violations)


class MQuadratic:
    """Quadratic g(x) = <x,Qx>/2 - <b,x> with an SPD M-matrix Hessian.

    ``alpha`` and ``L`` are valid strong-convexity/smoothness bounds
    (alpha*I <= Q <= L*I); solvers step with 1/L and certify with alpha.
    """

    def __init__(self, Q, b, alpha, L, validate=True):
        Q = sp.csr_matrix(Q).copy()
        Q.sum_duplicates()
        Q.eliminate_zeros()
        Q.sort_indices()
        b = np.asarray(b, dtype=float).copy()
        if b.shape != (Q.shape[0],):
            raise ValueError("b has wrong length for Q")
        if validate:
            res = validate_m_matrix(Q, alpha, L)
            if not res.ok:
                raise ValueError("invalid M-matrix quadratic: " + "; ".join(res.violations))
        b.setflags(write=False)
        self.Q = Q
        self.b = b
        self.alpha = float(alpha)
        self.L = float(L)

    @property
    def n(self):
        return self.Q.shape[0]

    @property
    def kappa(self):
        return self.L / self.alpha

    def row(self, i):
        """Column indices and values of row i (== column i by symmetry)."""
        Q = self.Q
        sl = slice(Q.indptr[i], Q.indptr[i + 1])
        return Q.indices[sl], Q.data[sl]

    def __repr__(self):
        return "MQuadratic(n=%d, nnz=%d, alpha=%g, L=%g)" % (
            self.n,
            self.Q.nnz,
            self.alpha,
            self.L,
        )


def build_pagerank_quadratic(instance):
    """Compile a PageRank instance into its M-matrix quadratic.

    The Hessian is alpha*I + (1-alpha)/2 * (I - D^{-1/2} A D^{-1/2}) and the
    linear term is b = alpha * (D^{-1/2} s - rho * D^{1/2} 1); the optimizer
    of the quadratic over the nonnegative orthant is the rescaled
    l1-regularized PageRank vector.  Spectral bounds: alpha (strong
    convexity) and L = 1.
    """
    g = instance.graph
    a = instance.alpha
    n = g.n
    dinv_sqrt = 1.0 / np.sqrt(g.degrees.astype(float))

    e = g.edges
    offv = -(1.0 - a) / 2.0 * (dinv_sqrt[e[:, 0]] * dinv_sqrt[e[:, 1]])
    rows = np.concatenate([np.arange(n), e[:, 0], e[:, 1]])
    cols = np.concatenate([np.arange(n), e[:, 1], e[:, 0]])
    vals = np.concatenate([np.full(n, (1.0 + a) / 2.0), offv, offv])
    Q = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    sqrt_d = np.sqrt(g.degrees.astype(float))
    b = a * (instance.s * dinv_sqrt - instance.rho * sqrt_d)
    return MQuadratic(Q, b, alpha=a, L=1.0, validate=False)


def pagerank_upper_bounds(instance):
    """Per-coordinate gradient caps alpha*rho*sqrt(d_i) that a full PageRank
    optimizer must satisfy on its zero coordinates.

    Rounded as alpha*(rho*sqrt(d_i)), the same association as the term of b,
    so an unseeded zero coordinate whose gradient is exactly -b_i meets its
    cap bit-exactly instead of rounding one ulp above it."""
    sqrt_d = np.sqrt(instance.graph.degrees.astype(float))
    return instance.alpha * (instance.rho * sqrt_d)


def restrict(q, S):
    """The principal restriction of q to the sorted index set S.

    Principal submatrices of an SPD M-matrix keep the M-matrix structure and
    only tighten the spectral bounds, so the restriction keeps (alpha, L).
    """
    S = np.asarray(S, dtype=np.int64)
    return MQuadratic(q.Q[S][:, S], q.b[S], q.alpha, q.L, validate=False)


def negative_tolerance(q):
    """Default threshold below which a gradient entry counts as negative.

    Strict sign tests only make sense in exact arithmetic; this scales a tiny
    relative tolerance by the problem's natural gradient magnitude L*max|b|.
    """
    nb = float(np.max(np.abs(q.b))) if q.n else 0.0
    return 1e-12 * q.L * nb


def _segment_row_products(q, rows, x):
    """For each requested row i, the dot product <Q[i, :], x>, all rows
    evaluated through one shared gather + segmented-sum so that any two calls
    agree bit-exactly on common rows.

    Returns (values, gathered_cols) where gathered_cols is the concatenated
    column-index array (used by callers for support-restricted accounting).
    """
    Q = q.Q
    rows = np.asarray(rows, dtype=np.int64)
    starts = Q.indptr[rows]
    counts = Q.indptr[rows + 1] - starts
    total = int(counts.sum())
    out = np.zeros(rows.size)
    if total == 0:
        return out, np.empty(0, dtype=Q.indices.dtype)
    cum = np.cumsum(counts)
    seg_starts = cum - counts
    pos = np.arange(total) - np.repeat(seg_starts, counts) + np.repeat(starts, counts)
    cols = Q.indices[pos]
    prod = Q.data[pos] * x[cols]
    nz = counts > 0
    out[nz] = np.add.reduceat(prod, seg_starts[nz])
    return out, cols


def _neighborhood(q, support):
    """All rows whose Q-row overlaps the given columns (includes them)."""
    Q = q.Q
    if len(support) == 0:
        return np.empty(0, dtype=np.int64)
    chunks = [Q.indices[Q.indptr[j] : Q.indptr[j + 1]] for j in support]
    return np.unique(np.concatenate(chunks)).astype(np.int64)


def gradient(q, x, coords=None, counters=None):
    """Gradient Qx - b, either in full or restricted to ``coords``.

    The restricted result agrees bit-exactly with the corresponding slice of
    the full result: both run every requested row through the same segmented
    reduction.  When ``counters`` is given, a full call charges
    sum(nnz(Q[:, j]) for j in supp(x)) nonzeros and one full_gradient; a
    restricted call charges the nonzeros of the requested rows whose column
    is in supp(x) and one restricted_gradient.
    """
    x = np.asarray(x, dtype=float)
    Q = q.Q
    if coords is None:
        support = np.flatnonzero(x)
        rows = _neighborhood(q, support)
        vals, _ = _segment_row_products(q, rows, x)
        g = -q.b.copy()
        g[rows] += vals
        if counters is not None:
            counters.full_gradients += 1
            counters.nnz_touched += int(
                (Q.indptr[support + 1] - Q.indptr[support]).sum()
            )
        return g
    coords = np.asarray(coords, dtype=np.int64)
    vals, cols = _segment_row_products(q, coords, x)
    if counters is not None:
        counters.restricted_gradients += 1
        counters.nnz_touched += int(np.count_nonzero(x[cols]))
    return vals - q.b[coords]


def objective(q, x):
    """g(x) = <x, Qx>/2 - <b, x>.  Diagnostic; not charged to counters."""
    x = np.asarray(x, dtype=float)
    return 0.5 * float(x @ (q.Q @ x)) - float(q.b @ x)


@dataclasses.dataclass
class OptimalityReport:
    """First-order conditions at a feasible point.

    max_violation_positive: largest |gradient| over strictly positive
    coordinates (these must vanish at an optimum).
    max_violation_zero_low: largest negative-part of the gradient over zero
    coordinates (these must be nonnegative at an optimum).
    upper_box_violations: indices of zero coordinates whose gradient exceeds
    the per-coordinate PageRank cap (witnesses that x cannot be the full
    optimizer); empty when no caps were supplied.
    """

    max_violation_positive: float
    max_violation_zero_low: float
    upper_box_violations: list

    def is_stationary(self, tol):
        return self.max_violation_positive <= tol and self.max_violation_zero_low <= tol

    def as_dict(self):
        return {
            "max_violation_positive": self.max_violation_positive,
            "max_violation_zero_low": self.max_violation_zero_low,
            "upper_box_violations": list(map(int, self.upper_box_violations)),
        }


def check_optimality(q, x, pagerank_box=None):
    """Evaluate the sign conditions for optimality of x over the orthant."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("x must be nonnegative")
    g = q.Q @ x - q.b
    pos = x > 0
    viol_pos = float(np.max(np.abs(g[pos]))) if pos.any() else 0.0
    zero = ~pos
    viol_zero = float(max(0.0, np.max(-g[zero]))) if zero.any() else 0.0
    box = []
    if pagerank_box is not None:
        cap = np.asarray(pagerank_box, dtype=float)
        box = np.flatnonzero(zero & (g > cap)).tolist()
    return OptimalityReport(viol_pos, viol_zero, box)


def volume(q, S):
    """Stored nonzeros in the columns S of Q (by symmetry, of the rows S)."""
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        return 0
    return int((q.Q.indptr[S + 1] - q.Q.indptr[S]).sum())


def internal_volume(q, S):
    """Stored nonzeros of the S-by-S principal submatrix of Q."""
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        return 0
    member = np.zeros(q.n, dtype=bool)
    member[S] = True
    Q = q.Q
    count = 0
    starts = Q.indptr[S]
    stops = Q.indptr[S + 1]
    for a, b in zip(starts, stops):
        count += int(np.count_nonzero(member[Q.indices[a:b]]))
    return count
