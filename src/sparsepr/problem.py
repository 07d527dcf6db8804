"""Nonnegative quadratic problems with M-matrix structure.

The central object is :class:`MQuadratic`: the quadratic

    g(x) = <x, Q x>/2 - <b, x>

with ``Q`` a symmetric positive-definite matrix whose off-diagonal entries are
all nonpositive (an M-matrix), minimized over the nonnegative orthant.
Personalized PageRank with an l1 penalty compiles into this form via
:func:`build_pagerank_quadratic`.

Gradient evaluations are the unit of work for every solver in this package.
The solvers charge them to a ``sparsepr.solvers.Counters`` in the
sparse-matrix nonzeros the access pattern reads: ``volume(q, supp(x))`` for a
full gradient (a :meth:`GradientWorkspace.refresh`), and the nonzeros of the
requested rows whose column lies in ``supp(x)`` for a restricted one.
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "EdgeError",
    "Graph",
    "PageRankInstance",
    "MQuadratic",
    "OptimalityReport",
    "MatrixValidation",
    "PageRankOperator",
    "build_pagerank_quadratic",
    "pagerank_upper_bounds",
    "restrict",
    "gradient",
    "GradientWorkspace",
    "objective",
    "check_optimality",
    "volume",
    "internal_volume",
    "validate_m_matrix",
    "negative_tolerance",
]


class EdgeError(ValueError):
    """An invalid edge passed to :class:`Graph`: ``kind`` is "range", "loop"
    or "duplicate", ``position`` is the pair's index in the input, and
    ``first`` is the index of a duplicate's first copy (else None)."""

    def __init__(self, message, kind, position, first=None):
        super().__init__(message)
        self.kind = kind
        self.position = position
        self.first = first


class Graph:
    """Immutable connected undirected graph with a CSR adjacency view.

    The graph also caches the :class:`PageRankOperator` of the last alpha
    that a quadratic was built for.

    Parameters
    ----------
    n : int
        Number of nodes; node ids are 0..n-1.
    edges : array-like of (int, int)
        Undirected edges, in any order and orientation. The first invalid
        pair in input order (an endpoint outside [0, n), a self-loop, or a
        repeat of an earlier pair in either orientation) raises
        :class:`EdgeError`. Graphs that are disconnected or have isolated
        nodes are rejected with a plain ``ValueError``.
    """

    def __init__(self, n, edges):
        n = int(n)
        try:
            e = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            raise ValueError("edge endpoint out of range [0, %d)" % n)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of node ids")
        e = np.sort(e, axis=1)  # normalize orientation
        # the sort is stable, so every copy of a pair but the first is marked
        order = np.lexsort((e[:, 1], e[:, 0]))
        s = e[order]
        bad = (e[:, 0] < 0) | (e[:, 1] >= n) | (e[:, 0] == e[:, 1])
        bad[order[1:]] |= (s[1:] == s[:-1]).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = map(int, e[k])
            if i < 0 or j >= n:
                raise EdgeError("edge endpoint out of range [0, %d)" % n, "range", k)
            if i == j:
                raise EdgeError("self-loop at node %d" % i, "loop", k)
            first = int(np.flatnonzero((e == e[k]).all(axis=1))[0])
            raise EdgeError("duplicate edge (%d, %d)" % (i, j), "duplicate", k, first)
        if n < 1:
            raise ValueError("graph needs at least one node")
        e = s  # the lexsorted pairs, freed once the adjacency holds them
        del s, order, bad
        if n > 2 * e.shape[0]:
            # m edges cover at most 2m nodes; name the smallest uncovered one
            # without allocating anything of length n
            ids = np.unique(e)
            gaps = np.flatnonzero(ids != np.arange(ids.size))
            i = int(gaps[0]) if gaps.size else ids.size
            raise ValueError("isolated node %d (every node needs degree >= 1)" % i)

        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        del e
        adj = sp.csr_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        del rows, cols
        adj.sort_indices()
        degrees = np.diff(adj.indptr)
        if (degrees == 0).any():
            i = int(np.flatnonzero(degrees == 0)[0])
            raise ValueError("isolated node %d (every node needs degree >= 1)" % i)
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise ValueError("graph is not connected (%d components)" % ncomp)

        self.n = n
        self.degrees = degrees.astype(np.int64)
        self.degrees.setflags(write=False)
        self._adj = adj
        self._operator = None  # see PageRankOperator.of

    @property
    def edges(self):
        """The (m, 2) int64 edges ``(i, j)`` with ``i < j``, lexsorted; a
        read-only array derived from the upper triangle of the adjacency."""
        adj = self._adj
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(adj.indptr))
        upper = adj.indices > rows
        e = np.stack([rows[upper], adj.indices[upper].astype(np.int64)], axis=1)
        e.setflags(write=False)
        return e

    @property
    def num_edges(self):
        return self._adj.nnz // 2

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
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError("rho must be positive and finite, got %r" % rho)
        if np.isscalar(s) or getattr(s, "ndim", 1) == 0:
            # int() would truncate 1.7 and take True as node 1
            if isinstance(s, bool):
                raise ValueError("seed node must be an integer, got %r" % (s,))
            try:
                v = operator.index(s)
            except TypeError:
                raise ValueError("seed node must be an integer, got %r" % (s,))
            if not 0 <= v < graph.n:
                raise ValueError("seed node %d out of range" % v)
            dist = np.zeros(graph.n)
            dist[v] = 1.0
        else:
            dist = np.asarray(s, dtype=float).copy()
            if dist.shape != (graph.n,):
                raise ValueError("seed distribution has wrong length")
            if not np.isfinite(dist).all():
                raise ValueError("seed distribution has non-finite entries")
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

    Two facts about the immutable ``b`` are computed once, in O(n), so that
    a solve need not scan ``b`` again: ``max_abs_b`` (max |b_i|, 0 when
    n = 0) and ``positive_b`` (the sorted indices with b_i > 0, the only
    coordinates whose gradient -b_i at x = 0 can be negative).  A
    non-finite entry of ``b``, ``alpha`` or ``L`` raises ``ValueError``,
    even with ``validate=False``: every sign test would pass it silently.

    ``Q`` is copied into a fresh CSR with duplicates summed, explicit zeros
    removed and indices sorted, and ``b`` is copied, so later writes to the
    arguments cannot reach the quadratic.  Arguments that already cannot be
    written are shared instead: a ``csr_matrix`` whose ``data``, ``indices``
    and ``indptr`` are read-only and whose ``has_canonical_format`` is true,
    and a read-only float ``b``.  Many quadratics can thus share one Hessian
    (see :class:`PageRankOperator`).
    """

    def __init__(self, Q, b, alpha, L, validate=True):
        if not _is_frozen_canonical(Q):
            Q = sp.csr_matrix(Q).copy()
            Q.sum_duplicates()
            Q.eliminate_zeros()
            Q.sort_indices()
        b = np.asarray(b, dtype=float)
        if b.flags.writeable:
            b = b.copy()
        if b.shape != (Q.shape[0],):
            raise ValueError("b has wrong length for Q")
        # max propagates NaN, so this one scan also finds every non-finite b_i
        max_abs_b = float(np.max(np.abs(b))) if b.size else 0.0
        if not math.isfinite(max_abs_b):
            raise ValueError("b has non-finite entries")
        if not (math.isfinite(alpha) and math.isfinite(L)):
            raise ValueError("alpha and L must be finite, got alpha=%r, L=%r"
                             % (alpha, L))
        if validate:
            res = validate_m_matrix(Q, alpha, L)
            if not res.ok:
                raise ValueError("invalid M-matrix quadratic: " + "; ".join(res.violations))
        b.setflags(write=False)
        self.Q = Q
        self.b = b
        self.max_abs_b = max_abs_b
        self.positive_b = np.flatnonzero(b > 0.0)
        self.positive_b.setflags(write=False)
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


def _is_frozen_canonical(Q):
    """Whether Q is a csr_matrix in canonical form that cannot be written."""
    return (isinstance(Q, sp.csr_matrix)
            and not any(a.flags.writeable for a in (Q.data, Q.indices, Q.indptr))
            and Q.has_canonical_format)


class PageRankOperator:
    """The part of the PageRank quadratics on one graph that no seed and no
    rho changes: the Hessian ``Q`` of :func:`build_pagerank_quadratic` at
    teleport weight ``alpha``, ``sqrt_d`` = sqrt(d) and ``dinv_sqrt`` =
    1/sqrt(d), built once in O(n + m) as read-only arrays.  ``Q`` is a
    canonical CSR, so every quadratic built on it shares it uncopied.

    :meth:`of` keeps one operator on the graph, for the last alpha asked for.
    The graph is immutable, so the cache never goes stale, and a new alpha
    replaces it, so the graph holds at most one ``Q``.
    """

    def __init__(self, graph, alpha):
        a = float(alpha)
        n = graph.n
        adj = graph._adj  # each row's neighbours in increasing order
        sqrt_d = np.sqrt(graph.degrees.astype(float))
        dinv_sqrt = 1.0 / sqrt_d

        # the off-diagonal part on adj's pattern plus the diagonal; scipy's
        # sum of two canonical CSRs is canonical
        rows = np.repeat(np.arange(n), graph.degrees)
        off = -(1.0 - a) / 2.0 * (dinv_sqrt[rows] * dinv_sqrt[adj.indices])
        Q = (sp.csr_matrix((off, adj.indices, adj.indptr), shape=(n, n))
             + sp.identity(n, format="csr") * ((1.0 + a) / 2.0))

        for arr in (Q.data, Q.indices, Q.indptr, sqrt_d, dinv_sqrt):
            arr.setflags(write=False)
        self.alpha = a
        self.Q = Q
        self.sqrt_d = sqrt_d
        self.dinv_sqrt = dinv_sqrt
        self._base = (None, None)

    @classmethod
    def of(cls, graph, alpha):
        """The graph's operator at ``alpha``, built on first use."""
        op = graph._operator
        if op is None or op.alpha != alpha:
            op = graph._operator = cls(graph, alpha)
        return op

    def base(self, rho):
        """The read-only linear term b of an unseeded node,
        alpha*(0 - rho*sqrt(d)); the last rho's vector is kept."""
        # one read of the slot, so a concurrent query cannot swap it between
        # the test and the return
        kept, b0 = self._base
        if kept != rho:
            b0 = self.alpha * (0.0 - rho * self.sqrt_d)
            b0.setflags(write=False)
            self._base = (rho, b0)
        return b0


def build_pagerank_quadratic(instance):
    """Compile a PageRank instance into its M-matrix quadratic.

    The Hessian is alpha*I + (1-alpha)/2 * (I - D^{-1/2} A D^{-1/2}) and the
    linear term is b = alpha * (D^{-1/2} s - rho * D^{1/2} 1); the optimizer
    of the quadratic over the nonnegative orthant is the rescaled
    l1-regularized PageRank vector.  Spectral bounds: alpha (strong
    convexity) and L = 1.

    The Hessian and the degree vectors are built once per (graph, alpha)
    and cached on the graph (:class:`PageRankOperator`); every quadratic of
    the graph at that alpha shares the one read-only ``Q``.  A query then
    pays one O(n) copy of b at the unseeded value, work on supp(s), and the
    O(n) scans of b that :class:`MQuadratic` makes.
    """
    op = PageRankOperator.of(instance.graph, instance.alpha)
    s = instance.s
    seeded = np.flatnonzero(s != 0.0)  # numpy scans a bool mask far faster
    b = op.base(instance.rho).copy()
    b[seeded] = op.alpha * (s[seeded] * op.dinv_sqrt[seeded]
                            - instance.rho * op.sqrt_d[seeded])
    b.setflags(write=False)
    return MQuadratic(op.Q, b, alpha=op.alpha, L=1.0, validate=False)


def pagerank_upper_bounds(instance):
    """Per-coordinate gradient caps alpha*rho*sqrt(d_i) that a full PageRank
    optimizer must satisfy on its zero coordinates.

    The caps are the negated unseeded base of b, so an unseeded zero
    coordinate whose gradient is exactly -b_i meets its cap bit-exactly
    instead of rounding one ulp above it."""
    op = PageRankOperator.of(instance.graph, instance.alpha)
    return -op.base(instance.rho)


def restrict(q, S):
    """The principal restriction of q to the sorted index set S.

    Principal submatrices of an SPD M-matrix keep the M-matrix structure and
    only tighten the spectral bounds, so the restriction keeps (alpha, L).
    """
    S = np.asarray(S, dtype=np.int64)
    if S.size > 1 and np.any(S[1:] <= S[:-1]):
        raise ValueError("restriction indices must be strictly increasing")
    if S.size and (S[0] < 0 or S[-1] >= q.n):
        raise ValueError("restriction index out of range")
    # gather the rows S and keep the entries whose column lies in S, relabelled
    # by position in S; this reads O(vol(S)) entries, where scipy's column
    # index would build an n-length lookup
    Q = q.Q
    pos, counts = _row_entries(Q, S)
    cols = Q.indices[pos]
    at = np.searchsorted(S, cols)
    hit = at < S.size
    hit[hit] = S[at[hit]] == cols[hit]
    row_hits = np.bincount(np.repeat(np.arange(S.size), counts)[hit],
                           minlength=S.size)
    indptr = np.concatenate([[0], np.cumsum(row_hits)])
    sub = sp.csr_matrix((Q.data[pos[hit]], at[hit], indptr),
                        shape=(S.size, S.size))
    b = q.b[S]
    # q.Q is canonical, so sub is too: freeze it and b so MQuadratic takes
    # them as they are
    for arr in (sub.data, sub.indices, sub.indptr, b):
        arr.setflags(write=False)
    return MQuadratic(sub, b, q.alpha, q.L, validate=False)


def negative_tolerance(q):
    """Default threshold below which a gradient entry counts as negative.

    Strict sign tests only make sense in exact arithmetic; this scales a tiny
    relative tolerance by the problem's natural gradient magnitude L*max|b|.
    """
    return 1e-12 * q.L * q.max_abs_b


def _segment_row_products(q, rows, x):
    """For each requested row i, the dot product <Q[i, :], x>, all rows
    evaluated through one shared gather + segmented-sum so that any two calls
    agree bit-exactly on common rows.

    Returns (values, gathered_cols) where gathered_cols is the concatenated
    column-index array (used by callers for support-restricted accounting).
    """
    Q = q.Q
    rows = np.asarray(rows, dtype=np.int64)
    pos, counts = _row_entries(Q, rows)
    out = np.zeros(rows.size)
    cols = Q.indices[pos]
    if pos.size == 0:
        return out, cols
    prod = Q.data[pos] * x[cols]
    nz = counts > 0
    out[nz] = np.add.reduceat(prod, (np.cumsum(counts) - counts)[nz])
    return out, cols


def _row_entries(Q, rows):
    """Positions in ``Q.indices``/``Q.data`` of the entries of the given rows,
    row after row, and each row's entry count."""
    starts = Q.indptr[rows]
    counts = Q.indptr[rows + 1] - starts
    seg_starts = np.cumsum(counts) - counts
    pos = np.arange(int(counts.sum())) - np.repeat(seg_starts - starts, counts)
    return pos, counts


def _neighborhood(q, support):
    """All rows whose Q-row overlaps the given columns (includes them)."""
    pos, _ = _row_entries(q.Q, np.asarray(support, dtype=np.int64))
    return np.unique(q.Q.indices[pos]).astype(np.int64)


def gradient(q, x, coords=None):
    """Gradient Qx - b, either in full or restricted to ``coords``.

    The restricted result agrees bit-exactly with the corresponding slice of
    the full result: both run every requested row through the same segmented
    reduction.
    """
    x = np.asarray(x, dtype=float)
    if coords is None:
        rows = _neighborhood(q, np.flatnonzero(x))
        vals, _ = _segment_row_products(q, rows, x)
        g = -q.b.copy()
        g[rows] += vals
        return g
    coords = np.asarray(coords, dtype=np.int64)
    vals, _ = _segment_row_products(q, coords, x)
    return vals - q.b[coords]


class GradientWorkspace:
    """The state of one solve: the iterate ``x``, its gradient
    ``g = Qx - b``, the sorted working set ``S``, and the coordinates the
    solve ever made positive, kept current at a cost that follows the
    neighbourhood of the iterate, not n.  The caller writes ``x`` on ``S``
    only, so ``x`` vanishes off ``S``.

    Off the Q-neighbourhood of ``S``, the gradient is -b.  The workspace
    lists the rows with ``-b_i < -tol`` (the only coordinates off that
    neighbourhood whose gradient is certainly negative; ``tol =
    negative_tolerance(q)`` >= 0, so they lie in ``q.positive_b``) and the
    neighbourhood rows of every coordinate :meth:`refresh` has covered.
    The list only grows.  After the O(n) set-up, :meth:`refresh`,
    :meth:`negatives` and :meth:`admit` touch the listed rows only.

    ``g`` holds the gradient on the listed ``rows`` only and is never
    written elsewhere, where the gradient is -b.  Every listed row is
    recomputed by the segmented reduction that :func:`gradient` uses, and
    rows outside the true neighbourhood add exact zeros, so ``g`` on the
    listed rows equals ``gradient(q, x)`` there bit for bit up to the sign
    of a zero.

    ``S`` only grows, through :meth:`admit`, which replaces the array and
    never writes it, so a caller may keep an old ``S``.  ``ever`` marks
    every coordinate that was positive at some :meth:`refresh`.

    ``counters`` pays for the solve under the column cost model: the
    set-up starts at x = 0, where g = -b, and charges one full gradient and
    no nonzeros for it; each :meth:`refresh` charges one full gradient and
    ``volume(q, supp(x))``.
    """

    def __init__(self, q, counters):
        counters.full_gradients += 1
        self.q = q
        self.counters = counters
        self.tol = tol = negative_tolerance(q)
        self.x = np.zeros(q.n)
        pos = q.positive_b
        self.rows = pos[-q.b[pos] < -tol]
        self.g = np.empty(q.n)
        self.g[self.rows] = -q.b[self.rows]
        self._listed = np.zeros(q.n, dtype=bool)
        self._listed[self.rows] = True
        self.S = np.empty(0, dtype=np.int64)
        self._member = np.zeros(q.n, dtype=bool)
        self._unspread = []  # what admit added since the last refresh
        self.ever = np.zeros(q.n, dtype=bool)

    def admit(self, coords):
        """Add to ``S`` the given coordinates (unique indices) that are not
        in it yet, and return those."""
        coords = np.asarray(coords, dtype=np.int64)
        new = coords[~self._member[coords]]
        if new.size:
            self._member[new] = True
            self.S = np.union1d(self.S, new)
            self._unspread.append(new)
        return new

    def refresh(self):
        """Record which coordinates of ``S`` are positive, then recompute
        ``g`` at ``x``.  Charges ``counters`` one full gradient and the
        column nonzeros of supp(x)."""
        S, x = self.S, self.x
        self.ever[S] |= x[S] > 0
        if self._unspread:
            new = np.concatenate(self._unspread)
            self._unspread = []
            rows = np.union1d(_neighborhood(self.q, new), new)
            rows = rows[~self._listed[rows]]
            self._listed[rows] = True
            self.rows = np.concatenate([self.rows, rows])
        vals, _ = _segment_row_products(self.q, self.rows, x)
        self.g[self.rows] = vals - self.q.b[self.rows]
        self.counters.full_gradients += 1
        self.counters.nnz_touched += volume(self.q, S[x[S] != 0])

    def negatives(self):
        """Sorted coordinates whose gradient is below ``-tol``."""
        rows = self.rows
        return np.sort(rows[self.g[rows] < -self.tol])


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
    # every sign test below is false for NaN, which would pass as stationary
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
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
    """Stored nonzeros of the S-by-S principal submatrix of Q (S sorted)."""
    return restrict(q, S).Q.nnz
