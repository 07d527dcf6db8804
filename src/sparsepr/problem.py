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

Every gather of rows of a CSR matrix here runs scipy's ``csr_row_index``
kernel, the one its fancy row indexing runs (:func:`_gather_rows`): the
restriction, the gradient, the optimality check and the rows of a
solve's working set, which a :class:`GradientWorkspace` keeps as one
block.  That block serves the workspace's gradient (scipy's
``csc_matvec``), ``cdpr``'s product of ``Q`` with its direction
(``csr_matvec``) and ``aspr``'s restriction of ``Q`` to the working set,
which a stage builds without reading ``Q``.

A quadratic restricted to a sorted set S has one form, a
:class:`Restriction`: Q_SS in position ids, its diagonal and ``b`` on S,
built by :func:`_restricted` from the rows of S, which :func:`restrict`
gathers from ``Q`` and an ``aspr`` stage reads from its workspace.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import numbers
import operator

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import (csc_matvec, csr_diagonal, csr_matvec,
                                       csr_row_index)
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
    "Restriction",
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
        Undirected edges, in any order and orientation. Endpoints must be
        integers: a bool or float endpoint raises ``ValueError``. The first
        invalid pair in input order (an endpoint outside [0, n), a
        self-loop, or a repeat of an earlier pair in either orientation)
        raises :class:`EdgeError`. Graphs that are disconnected or have
        isolated nodes are rejected with a plain ``ValueError``.

    Construction of m edges takes O(n + m) time besides sorting each
    node's neighbours, and sorts no pairs: a few scans check the ids, one
    counting sort (scipy's COO to CSR conversion) puts both orientations of
    every pair in their rows, and scipy sorts each row and sums repeats, so
    a repeat leaves fewer than 2m entries.  Besides the retained adjacency
    (``int8`` data, ``int32`` indices below 2^31 nodes) and the degrees, it
    allocates the 2m-entry row, column and data arrays of the conversion,
    and ``connected_components`` a float64 copy of the adjacency.  Only a
    fault sorts the pairs, to name the first bad one.
    """

    def __init__(self, n, edges):
        n = int(n)
        e = _edge_array(edges, n)
        m = e.shape[0]
        if m and (e.min() < 0 or e.max() >= n or (e[:, 0] == e[:, 1]).any()):
            _raise_first_bad_pair(e, n)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > 2 * m:
            # m edges cover at most 2m nodes; name a repeated pair first, as
            # every graph does, then the smallest uncovered node, without
            # allocating anything of length n
            _raise_first_bad_pair(e, n)
            ids = np.unique(e)
            gaps = np.flatnonzero(ids != np.arange(ids.size))
            i = int(gaps[0]) if gaps.size else ids.size
            raise ValueError("isolated node %d (every node needs degree >= 1)" % i)

        # both orientations of every pair, in the index dtype scipy would
        # pick, so the conversion copies nothing; scipy then sorts each row
        # and sums repeats, which leaves a canonical CSR
        idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        rows = np.empty(2 * m, dtype=idx)
        cols = np.empty(2 * m, dtype=idx)
        rows[:m] = cols[m:] = e[:, 0]
        rows[m:] = cols[:m] = e[:, 1]
        adj = sp.csr_matrix(
            (np.ones(2 * m, dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        del rows, cols
        if adj.nnz != 2 * m:
            _raise_first_bad_pair(e, n)
        degrees = np.diff(adj.indptr)
        if (degrees == 0).any():
            i = int(np.flatnonzero(degrees == 0)[0])
            raise ValueError("isolated node %d (every node needs degree >= 1)" % i)
        # on a symmetric adjacency the strong components are the connected
        # ones, and the strong search needs no transpose
        ncomp, _ = connected_components(adj, directed=True, connection="strong")
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


def _edge_array(edges, n):
    """``edges`` as an (m, 2) int64 array.  A bool or float endpoint raises
    ``ValueError``; so does one beyond int64, as out of range [0, n)."""
    # numpy reads True in a list of ints as 1, so a list is checked item by
    # item; an array by its dtype
    e = edges if isinstance(edges, np.ndarray) else np.asarray(edges, dtype=object)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be pairs of node ids")
    if e.dtype == object:
        integral = all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                       for v in e.flat)
    else:
        integral = e.dtype.kind in "iu"
    if not integral:
        raise ValueError("edge endpoints must be integers")
    try:
        return e.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("edge endpoint out of range [0, %d)" % n)


def _raise_first_bad_pair(e, n):
    """Raise :class:`EdgeError` for the first invalid pair of the int64
    ``e`` in input order, if there is one."""
    e = np.sort(e, axis=1)  # normalize orientation
    # the sort is stable, so every copy of a pair but the first is marked
    order = np.lexsort((e[:, 1], e[:, 0]))
    s = e[order]
    bad = (e[:, 0] < 0) | (e[:, 1] >= n) | (e[:, 0] == e[:, 1])
    bad[order[1:]] |= (s[1:] == s[:-1]).all(axis=1)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    i, j = map(int, e[k])
    if i < 0 or j >= n:
        raise EdgeError("edge endpoint out of range [0, %d)" % n, "range", k)
    if i == j:
        raise EdgeError("self-loop at node %d" % i, "loop", k)
    first = int(np.flatnonzero((e == e[k]).all(axis=1))[0])
    raise EdgeError("duplicate edge (%d, %d)" % (i, j), "duplicate", k, first)


class PageRankInstance:
    """A personalized-PageRank problem: graph, teleport weight, l1 level, seed.

    ``s`` may be a node index (point mass) or a dense distribution on the
    nodes; distributions must lie on the simplex within 1e-12.  The seed is
    kept only as ``nodes``, the sorted int64 support of ``s``, and
    ``weights``, the values of ``s`` there, both read-only and owned by the
    instance, so it retains memory in O(|supp s|) and a later write to the
    caller's array cannot reach it.
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
            nodes = np.array([v], dtype=np.int64)
            weights = np.ones(1)
        else:
            dist = np.asarray(s, dtype=float)
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
            nodes = np.flatnonzero(dist != 0.0)  # a bool mask scans far faster
            weights = dist[nodes]
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.graph = graph
        self.alpha = alpha
        self.rho = rho
        self.nodes = nodes
        self.weights = weights

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

    Two facts about the immutable ``b`` are computed when the quadratic is
    made, so that a solve need not scan ``b`` again: ``max_abs_b`` (max
    |b_i|, 0 when n = 0) and ``positive_b`` (the sorted indices with
    b_i > 0, the only coordinates whose gradient -b_i at x = 0 can be
    negative).  A non-finite entry of ``b``, ``alpha`` or ``L`` raises
    ``ValueError``, even with ``validate=False``: every sign test would
    pass it silently.

    ``Q`` is copied into a fresh CSR with duplicates summed, explicit zeros
    removed and indices sorted, and ``b`` is copied, so later writes to the
    arguments cannot reach the quadratic.  Arguments that already cannot be
    written are shared instead: a ``csr_matrix`` whose ``data``, ``indices``
    and ``indptr`` are read-only and whose ``has_canonical_format`` is true,
    and a read-only float ``b``.  Many quadratics can thus share one Hessian
    (see :class:`PageRankOperator`).

    ``b`` is held in one form, ``_parts = (base, nodes, values)``: the
    read-only ``base`` with ``values`` at the sorted int64 ``nodes``.  Here
    ``base`` is ``b`` itself and ``nodes`` is empty; :meth:`corrected`
    shares a base among many quadratics and costs work on ``nodes`` only.
    A corrected quadratic builds the dense ``b`` on first access, which
    only diagnostics make; solvers read ``b`` from the pooled copy of
    :class:`GradientWorkspace`.

    ``_spare`` holds the n-length buffers of a finished solve for the next
    (see :class:`GradientWorkspace`).  A quadratic made by
    :meth:`corrected` shares its caller's list, so that all the queries of
    one :class:`PageRankOperator` share one set.
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
        _check_finite(max_abs_b, alpha, L)
        if validate:
            res = validate_m_matrix(Q, alpha, L)
            if not res.ok:
                raise ValueError("invalid M-matrix quadratic: " + "; ".join(res.violations))
        b.setflags(write=False)
        self._set(Q, (b, np.empty(0, dtype=np.int64), np.empty(0)),
                  max_abs_b, np.flatnonzero(b > 0.0), alpha, L, [])
        self._b = b

    @classmethod
    def corrected(cls, Q, base, nodes, values, max_abs_b, positive_b,
                  alpha, L, spare):
        """The quadratic whose ``b`` is the shared ``base`` with ``values``
        at the sorted int64 ``nodes``; all three are read-only and kept
        uncopied.  The caller vouches for what this cannot check without
        reading all of ``base``: ``Q`` is a frozen canonical CSR of a valid
        M-matrix, and ``max_abs_b`` and ``positive_b`` are the facts of
        that ``b``.  The quadratic keeps ``spare`` as its list of spare
        solve buffers."""
        _check_finite(max_abs_b, alpha, L)
        q = cls.__new__(cls)
        q._set(Q, (base, nodes, values), max_abs_b, positive_b, alpha, L,
               spare)
        return q

    def _set(self, Q, parts, max_abs_b, positive_b, alpha, L, spare):
        positive_b.setflags(write=False)
        self.Q = Q
        self._b = None  # the dense b, once built
        self._parts = parts
        self.max_abs_b = max_abs_b
        self.positive_b = positive_b
        self.alpha = float(alpha)
        self.L = float(L)
        self._spare = spare

    @property
    def b(self):
        """The dense read-only linear term."""
        if self._b is None:
            base, nodes, values = self._parts
            b = base.copy()
            b[nodes] = values
            b.setflags(write=False)
            self._b = b
        return self._b

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


def _check_finite(max_abs_b, alpha, L):
    if not math.isfinite(max_abs_b):
        raise ValueError("b has non-finite entries")
    if not (math.isfinite(alpha) and math.isfinite(L)):
        raise ValueError("alpha and L must be finite, got alpha=%r, L=%r"
                         % (alpha, L))


def _is_frozen_canonical(Q):
    """Whether Q is a csr_matrix in canonical form that cannot be written."""
    return (isinstance(Q, sp.csr_matrix)
            and not any(a.flags.writeable for a in (Q.data, Q.indices, Q.indptr))
            and Q.has_canonical_format)


class PageRankOperator:
    """The part of the PageRank quadratics on one graph that no seed and no
    rho changes: the Hessian ``Q`` of :func:`build_pagerank_quadratic` at
    teleport weight ``alpha``, ``sqrt_d`` = sqrt(d) and ``dinv_sqrt`` =
    1/sqrt(d), built once in O(n + m) as read-only arrays, and a node of
    maximum degree with the number of such nodes.  ``Q`` is a canonical
    CSR, so every quadratic built on it shares it uncopied.  Besides ``Q``
    (float64 data, n + 2m entries) and the two n-length vectors, the build
    allocates the 2m off-diagonal values, one 2m gather of ``dinv_sqrt``
    and scipy's sum with the diagonal; it makes no index array.

    :meth:`of` keeps one operator on the graph, for the last alpha asked for.
    The graph is immutable, so the cache never goes stale, and a new alpha
    replaces it, so the graph holds at most one ``Q``.  Its quadratics
    share one list of spare solve buffers (see :class:`MQuadratic`).
    """

    def __init__(self, graph, alpha):
        a = float(alpha)
        n = graph.n
        adj = graph._adj  # each row's neighbours in increasing order
        sqrt_d = np.sqrt(graph.degrees.astype(float))
        dinv_sqrt = 1.0 / sqrt_d

        # the off-diagonal part on adj's pattern plus the diagonal; scipy's
        # sum of two canonical CSRs is canonical
        off = np.repeat(dinv_sqrt, graph.degrees)  # dinv_sqrt of each row
        off *= dinv_sqrt[adj.indices]
        off *= -(1.0 - a) / 2.0
        Q = (sp.csr_matrix((off, adj.indices, adj.indptr), shape=(n, n))
             + sp.identity(n, format="csr") * ((1.0 + a) / 2.0))

        for arr in (Q.data, Q.indices, Q.indptr, sqrt_d, dinv_sqrt):
            arr.setflags(write=False)
        self.alpha = a
        self.Q = Q
        self.sqrt_d = sqrt_d
        self.dinv_sqrt = dinv_sqrt
        self._top = int(np.argmax(sqrt_d))
        self._n_top = int(np.count_nonzero(sqrt_d == sqrt_d[self._top]))
        self._base = (None, None)
        self._spare = []

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

    def max_abs_off(self, b0, nodes):
        """max |b0_j| over the nodes j outside the sorted ``nodes`` (0 if
        there are none), for ``b0`` a :meth:`base`.

        Every float step of alpha*(0 - rho*sqrt(d)) is monotone in d, so
        the answer is |b0| at any unlisted node of maximum degree; only when
        ``nodes`` holds all of those is the rest of ``b0`` scanned."""
        top = self.sqrt_d[self._top]
        if np.count_nonzero(self.sqrt_d[nodes] == top) < self._n_top:
            return abs(float(b0[self._top]))
        return float(np.max(np.abs(np.delete(b0, nodes)), initial=0.0))


def build_pagerank_quadratic(instance):
    """Compile a PageRank instance into its M-matrix quadratic.

    The Hessian is alpha*I + (1-alpha)/2 * (I - D^{-1/2} A D^{-1/2}) and the
    linear term is b = alpha * (D^{-1/2} s - rho * D^{1/2} 1); the optimizer
    of the quadratic over the nonnegative orthant is the rescaled
    l1-regularized PageRank vector.  Spectral bounds: alpha (strong
    convexity) and L = 1.

    The Hessian and the degree vectors are built once per (graph, alpha)
    and cached on the graph (:class:`PageRankOperator`); every quadratic of
    the graph at that alpha shares the one read-only ``Q``, and every one
    at that rho the operator's unseeded ``b``, :meth:`PageRankOperator.base`.
    The quadratic holds ``b`` as that base corrected on supp(s)
    (:meth:`MQuadratic.corrected`).  The base is never positive, so
    ``positive_b`` lies in supp(s), and ``max_abs_b`` is the larger of max |b| on supp(s)
    and :meth:`PageRankOperator.max_abs_off`.  A warm query thus does work
    in O(|supp s|) and allocates nothing of length n.
    """
    op = PageRankOperator.of(instance.graph, instance.alpha)
    nodes, rho = instance.nodes, instance.rho
    b0 = op.base(rho)
    values = op.alpha * (instance.weights * op.dinv_sqrt[nodes]
                         - rho * op.sqrt_d[nodes])
    values.setflags(write=False)
    # max propagates NaN, so a non-finite entry reaches the check
    off = op.max_abs_off(b0, nodes)
    max_abs_b = float(np.max(np.abs(values), initial=off))
    return MQuadratic.corrected(op.Q, b0, nodes, values, max_abs_b,
                                nodes[values > 0.0], op.alpha, 1.0, op._spare)


def pagerank_upper_bounds(instance):
    """Per-coordinate gradient caps alpha*rho*sqrt(d_i) that a full PageRank
    optimizer must satisfy on its zero coordinates.

    The caps are the negated unseeded base of b, so an unseeded zero
    coordinate whose gradient is exactly -b_i meets its cap bit-exactly
    instead of rounding one ulp above it."""
    op = PageRankOperator.of(instance.graph, instance.alpha)
    return -op.base(instance.rho)


# a quadratic restricted to a sorted index set S: Q_SS as a _Block in
# position ids, its diagonal, b on S, and the (alpha, L) of the whole
# quadratic, which Q_SS keeps
Restriction = collections.namedtuple("Restriction", "Q diag b alpha L")


def restrict(q, S):
    """The principal :class:`Restriction` of q to the sorted index set S.

    Principal submatrices of an SPD M-matrix keep the M-matrix structure and
    only tighten the spectral bounds, so the restriction keeps (alpha, L).
    Its ``Q`` and ``diag`` are :func:`_restricted` of the rows S
    (:func:`_gather_rows`): O(vol(S)) entries, where scipy's column index
    would build an n-length lookup.  ``b`` on S is read from ``q._parts``,
    so a corrected quadratic builds no dense ``b``.  ``aspr`` builds the
    same form from its workspace's block.
    """
    S = _checked_ids(S, q.n)
    return Restriction(*_restricted(_gather_rows(q.Q, S), S), _b_on(q, S),
                       q.alpha, q.L)


def _checked_ids(S, n):
    """``S`` as int64, once checked to be strictly increasing in [0, n)."""
    S = np.asarray(S, dtype=np.int64)
    if S.size > 1 and np.any(S[1:] <= S[:-1]):
        raise ValueError("restriction indices must be strictly increasing")
    if S.size and (S[0] < 0 or S[-1] >= n):
        raise ValueError("restriction index out of range")
    return S


def _restricted(block, S):
    """Q_SS and its diagonal, from ``block``, the rows of the sorted int64
    ``S`` of a canonical CSR ``Q`` in the order of S (:func:`_gather_rows`,
    or :attr:`GradientWorkspace.block`).

    Q_SS keeps the entries whose column lies in S, relabelled by position
    in S, as a canonical :class:`_Block` in the block's index dtype.  The
    diagonal is read by scipy's ``csr_diagonal`` kernel, the one its
    ``diagonal()`` runs.  O(vol(S)) in a fixed number of numpy calls, with
    no scipy constructor."""
    idx = block.indices.dtype
    at, hit = _find(S, block.indices)
    # the kept entries before each entry of the block
    kept = np.zeros(hit.size + 1, dtype=idx)
    hit.cumsum(out=kept[1:])
    Q_SS = _Block(kept[block.indptr], at[hit].astype(idx), block.data[hit])
    # the kernel walks the rows that the block holds, which are those of S
    k = block.indptr.size - 1
    diag = np.empty(k, dtype=Q_SS.data.dtype)
    csr_diagonal(0, k, k, *Q_SS, diag)
    return Q_SS, diag


_BEYOND = np.array([np.iinfo(np.int64).max])


def _find(S, idx):
    """For each of ``idx``, indices below 2^63 - 1, its place in the sorted
    int64 ``S`` and whether it is there."""
    # a key after the last keeps every search inside the keys
    keys = np.concatenate((S, _BEYOND))
    at = keys.searchsorted(idx)
    return at, keys[at] == idx


def _b_on(q, rows):
    """``b`` of q on the sorted int64 ``rows``, read from ``q._parts`` in
    O(|rows| + |nodes| log |rows|)."""
    base, nodes, values = q._parts
    b = base[rows]
    at, hit = _find(rows, nodes)
    b[at[hit]] = values[hit]
    return b


def _matvec(Q, x, out):
    """``Q @ x`` for a square CSR ``Q``, a matrix or a :class:`_Block`,
    written into ``out`` and returned.  It runs the kernel that scipy's
    ``@`` runs, into a zeroed vector, so each row sums its entries in the
    same order and the bytes are the same; only the Python dispatch around
    the kernel is skipped."""
    k = Q.indptr.size - 1
    out.fill(0.0)
    csr_matvec(k, k, Q.indptr, Q.indices, Q.data, x, out)
    return out


def _add_rows(Q, rows, x, out):
    """Add row ``rows[k]`` of the CSR ``Q`` times ``x`` onto ``out[k]`` and
    return ``out``: scipy's ``csr_matvec`` kernel on those rows, which adds
    each entry's product onto ``out[k]`` in column order."""
    block = _gather_rows(Q, rows)
    csr_matvec(rows.size, Q.shape[1], *block, x, out)
    return out


def negative_tolerance(q):
    """Default threshold below which a gradient entry counts as negative.

    Strict sign tests only make sense in exact arithmetic; this scales a tiny
    relative tolerance by the problem's natural gradient magnitude L*max|b|.
    """
    return 1e-12 * q.L * q.max_abs_b


_Block = collections.namedtuple("_Block", "indptr indices data")


def _gather_rows(A, rows):
    """The given rows of ``A``, a CSR matrix or a :class:`_Block`, row
    after row, as a :class:`_Block` in ``A``'s index dtype: scipy's
    ``csr_row_index`` kernel, which its fancy row indexing runs.  The
    kernel takes its index dtype from its arguments, so ``rows`` is cast
    to ``A``'s, which would otherwise be copied whole."""
    rows = rows.astype(A.indices.dtype, copy=False)
    counts = A.indptr[rows + 1] - A.indptr[rows]
    indptr = np.zeros(rows.size + 1, dtype=A.indices.dtype)
    counts.cumsum(out=indptr[1:])
    nnz = int(indptr[-1])
    block = _Block(indptr, np.empty(nnz, dtype=A.indices.dtype),
                   np.empty(nnz, dtype=A.data.dtype))
    csr_row_index(rows.size, rows, A.indptr, A.indices, A.data,
                  block.indices, block.data)
    return block


def _sorted_union(*ids):
    """The sorted distinct ids of the given integer arrays, by one sort of
    their concatenation and a neighbour compare: numpy 2's np.unique, and
    so np.union1d, hashes, which took over ten times as long on a few
    thousand ids."""
    ids = np.concatenate(ids)
    ids.sort()
    return np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]]))


def gradient(q, x, coords=None):
    """Gradient Qx - b, either in full or restricted to ``coords``.

    Every row is summed in one order: it starts at -b_i and adds Q_ij x_j
    in increasing j.  The full gradient is the kernel of
    :meth:`GradientWorkspace.refresh`: the rows of supp(x), gathered once,
    read as columns by scipy's ``csc_matvec``, which scatters Q_ij x_j onto
    -b_i for j in supp(x); ``Q`` is symmetric, so row j holds Q_ij.  The
    restricted one runs scipy's ``csr_matvec`` on the requested rows, over
    all their columns.  A term with x_j = 0 leaves a sequential sum
    unchanged up to the sign of a zero, so the restricted result is a slice
    of the full one up to the sign of a zero.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if coords is None:
        g = -q.b
        supp = np.flatnonzero(x)
        csc_matvec(g.size, supp.size, *_gather_rows(q.Q, supp), x[supp], g)
        return g
    coords = np.asarray(coords, dtype=np.int64)
    return _add_rows(q.Q, coords, x, -q.b[coords])


class _Buffers:
    """The n-length arrays of a :class:`GradientWorkspace`.  Between
    solves, ``x``, ``listed``, ``member`` and every array in ``extra`` are
    zero, ``b`` equals the read-only ``base`` (None before the first
    solve), and ``g`` holds nothing that is read."""

    def __init__(self, n):
        self.x = np.zeros(n)
        self.g = np.empty(n)
        self.b = np.empty(n)
        self.base = None
        self.listed = np.zeros(n, dtype=bool)
        self.member = np.zeros(n, dtype=bool)
        self.extra = {}  # see GradientWorkspace.pooled


class GradientWorkspace:
    """The state of one solve: the iterate ``x``, its gradient
    ``g = Qx - b`` and the sorted working set ``S``, kept current at a cost
    that follows the neighbourhood of the iterate, not n.  The caller
    writes ``x`` on ``S`` only, so ``x`` vanishes off ``S``.

    Off the Q-neighbourhood of ``S``, the gradient is -b.  The workspace
    lists the rows with ``-b_i < -tol`` (the only coordinates off that
    neighbourhood whose gradient is certainly negative; ``tol =
    negative_tolerance(q)`` >= 0, so they lie in ``q.positive_b``) and the
    neighbourhood rows of every coordinate :meth:`refresh` has covered.
    The list only grows, and a solver may raise ``tol`` but never lower it,
    so the list stays complete; ``listed`` marks the listed rows.
    :meth:`refresh`, :meth:`negatives` and :meth:`admit` touch the listed
    rows only.

    ``g`` holds the gradient on the listed ``rows`` only and is never
    written elsewhere, where the gradient is -b.  ``block`` holds the rows
    of ``S``, in the order of ``S``, as one CSR block in ``Q``'s index
    dtype (indptr, indices, data): :meth:`admit` gathers it whenever ``S``
    grows, by scipy's ``csr_row_index`` kernel (:func:`_gather_rows`), so
    it takes O(vol(S)) memory.  A refresh lists the neighbourhood rows of
    the coordinates admitted since the last one, read from their rows in
    the block; sets the listed rows of ``g`` to -b; then adds Q_ij x_j onto
    row i by scipy's ``csc_matvec`` kernel on the block, which reads row j
    as column j and scatters its terms in increasing j.  ``Q`` is
    symmetric bit for bit (:func:`validate_m_matrix` checks it), so row j
    holds Q_ij.  This is the kernel of :func:`gradient`, which runs it on
    the rows of supp(x) only; the terms with x_j = 0 that the block adds
    leave a sequential sum unchanged.  So ``g`` on the listed rows equals
    ``gradient(q, x)`` there bit for bit up to the sign of a zero, and a
    refresh reads the entries of the rows of ``S``, not those of the
    listed rows.

    ``b`` equals ``q.b`` on every row: the set-up writes the corrected
    entries of ``q._parts`` over the base that the pooled copy already
    holds, and copies the base in first only when the pooled set last held
    another one (a new rho, or the set's first solve).  Every read of ``b``
    is then a plain index.

    ``S`` only grows, through :meth:`admit`, which replaces the array and
    never writes it, so a caller may keep an old ``S``.

    ``counters`` pays for the solve under the column cost model: the
    set-up starts at x = 0, where g = -b, and charges one full gradient and
    no nonzeros for it; each :meth:`refresh` charges one full gradient and
    ``volume(q, supp(x))``, the entries of the block's rows where x > 0.

    The n-length arrays are a set that :meth:`release` hands back to
    ``q._spare`` for the next workspace on ``q`` or, for a PageRank query,
    on any quadratic of the same :class:`PageRankOperator`.  A workspace
    takes the set held there and makes one only if there is none, so only
    the first solve, and the first at each new base, pays O(n).  A
    workspace that is never released keeps its set.
    """

    def __init__(self, q, counters):
        counters.full_gradients += 1
        self.q = q
        self.counters = counters
        self.tol = tol = negative_tolerance(q)
        try:
            buf = q._spare.pop()
        except IndexError:
            buf = _Buffers(q.n)
        base, nodes, values = q._parts
        if buf.base is not base:
            buf.b[:] = base
            buf.base = base
        buf.b[nodes] = values
        self._buf = buf
        self.x, self.g, self.b = buf.x, buf.g, buf.b
        self.listed, self._member = buf.listed, buf.member
        pos = q.positive_b
        rows = pos[-self.b[pos] < -tol]
        self.g[rows] = -self.b[rows]
        self._rows = np.empty(0, dtype=np.int64)
        self._list(rows)
        self.S = np.empty(0, dtype=np.int64)
        self.block = _gather_rows(q.Q, self.S)
        self._unspread = []  # what admit added since the last refresh

    @property
    def rows(self):
        """The listed rows, in the order they were listed."""
        return self._rows

    def _list(self, rows):
        """List the given unlisted rows."""
        self.listed[rows] = True
        self._rows = np.concatenate((self._rows, rows))

    def pooled(self, name, dtype):
        """The pooled n-length array ``name`` of ``dtype``, zero where the
        caller has not written it.  The caller writes it on ``S`` only,
        where :meth:`release` zeroes it again."""
        extra = self._buf.extra
        if name not in extra:
            extra[name] = np.zeros(self.q.n, dtype=dtype)
        return extra[name]

    def release(self):
        """Reset the pooled arrays on the rows this solve wrote (``S``,
        the listed rows and the corrected rows of ``b``) and hand them to
        the next workspace.  The caller has read what it keeps and uses
        this workspace no more."""
        buf, S = self._buf, self.S
        for arr in (buf.x, buf.member, *buf.extra.values()):
            arr[S] = 0
        buf.listed[self.rows] = False
        base, nodes, _ = self.q._parts
        buf.b[nodes] = base[nodes]
        self.q._spare[:] = [buf]

    def admit(self, coords):
        """Add to ``S`` the given coordinates (unique indices) that are not
        in it yet, gather ``block`` again if there are any, and return
        those."""
        coords = np.asarray(coords, dtype=np.int64)
        new = coords[~self._member[coords]]
        if new.size:
            self._member[new] = True
            # new holds no member and no repeat: the union is a plain sort
            S = np.concatenate((self.S, new))
            S.sort()
            self.S = S
            self.block = _gather_rows(self.q.Q, S)
            self._unspread.append(new)
        return new

    def refresh(self):
        """Recompute ``g`` at ``x`` from ``block``.  Charges ``counters``
        one full gradient and the column nonzeros of supp(x).

        The kernel reads every row of ``S``, those where x = 0 included, so
        once ``S`` holds coordinates that went back to zero a refresh reads
        more entries than it charges: over 16 wide-support benchmark
        queries, ``aspr`` read 1.27 times its charge.  The charge is the
        column cost model's, which the pinned counters record."""
        S, x, g, block = self.S, self.x, self.g, self.block
        xs = x[S]
        if self._unspread:
            new = np.concatenate(self._unspread)
            self._unspread = []
            near = _gather_rows(block, S.searchsorted(new)).indices
            rows = _sorted_union(near, new)
            rows = rows[~self.listed[rows]]
            self._list(rows)
        rows = self._rows
        g[rows] = -self.b[rows]
        csc_matvec(g.size, S.size, *block, xs, g)
        self.counters.full_gradients += 1
        counts = block.indptr[1:] - block.indptr[:-1]
        # np.add.reduce is what ndarray.sum wraps in a Python-level call
        self.counters.nnz_touched += int(np.add.reduce(counts[xs != 0]))

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
    """Evaluate the sign conditions for optimality of x over the orthant.

    The gradient is computed only on the rows where it can differ from -b
    or be negative: the Q-neighbourhood of supp(x), ``q.positive_b`` and
    the corrected rows of ``b``.  Those rows are a CSR row slice of ``Q``
    times ``x``, so each row sums its entries in the order of ``Q @ x``, and
    ``b`` on them is read from ``q._parts``.  On every other row x = 0 and
    the gradient is -b >= 0, which adds nothing to either residual; only
    the caps are compared with it there.  The report equals the one from
    the full gradient bit for bit, and no dense ``b`` is built.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (q.n,):
        raise ValueError("x must have length %d" % q.n)
    # every sign test below is false for NaN, which would pass as stationary
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if (x < 0).any():
        raise ValueError("x must be nonnegative")
    base, nodes, _ = q._parts
    supp = np.flatnonzero(x)
    rows = _sorted_union(_gather_rows(q.Q, supp).indices, supp, q.positive_b,
                         nodes)
    g = _add_rows(q.Q, rows, x, np.zeros(rows.size)) - _b_on(q, rows)
    pos = x[rows] > 0
    viol_pos = float(np.max(np.abs(g[pos]))) if pos.any() else 0.0
    zero = ~pos
    viol_zero = float(max(0.0, np.max(-g[zero]))) if zero.any() else 0.0
    box = []
    if pagerank_box is not None:
        cap = np.broadcast_to(np.asarray(pagerank_box, dtype=float), (q.n,))
        off = np.setdiff1d(np.flatnonzero(-base > cap), rows,
                           assume_unique=True)
        box = np.sort(np.concatenate((rows[zero & (g > cap[rows])],
                                      off))).tolist()
    return OptimalityReport(viol_pos, viol_zero, box)


def volume(q, S):
    """Stored nonzeros in the columns S of Q (by symmetry, of the rows S)."""
    S = np.asarray(S, dtype=np.int64)
    return int((q.Q.indptr[S + 1] - q.Q.indptr[S]).sum())


def internal_volume(q, S):
    """Stored nonzeros of the S-by-S principal submatrix of Q (S sorted),
    those of :func:`restrict`'s ``Q``."""
    return int(restrict(q, S).Q.indptr[-1])
