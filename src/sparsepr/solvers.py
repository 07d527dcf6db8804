"""Sparsity-preserving solvers for nonnegative M-matrix quadratics.

Four algorithms, all driven by sign information in the gradient:

``pgd``
    Projected gradient descent on a coordinate subspace (the building block).
``ista_baseline``
    Projected gradient from zero on the full orthant, touching only the
    active set; the classical baseline the other solvers are measured
    against.
``cdpr``
    Conjugate-directions solver that adds one negative-gradient pivot per
    stage and terminates at the exact optimizer in |support| stages.
``apgd`` / ``aspr``
    Accelerated projected gradient, and the staged accelerated solver that
    alternates an inner accelerated loop on a working set with a retraction
    and a one-full-gradient expansion.  ``aspr`` supports an
    early-termination variant (periodic full gradients inside the inner
    loop) and an updating-constraints variant (certified lower bounds
    tighten the clamp).

Every solver is deterministic.  ``ista_baseline``, ``cdpr`` and ``aspr``
keep a solve's state in one :class:`~sparsepr.problem.GradientWorkspace`:
the iterate and its gradient, the sorted working set they grow from the
signs of the gradient (the active set, the pivots, the working set), the
certainly-negative threshold ``negative_tolerance(q)``, and the
:class:`Counters` that their :class:`Solution` reports.

A solve's n-length state (the workspace's iterate, gradient, ``b`` and
row marks, ``cdpr``'s pivot ranks and the lower bounds of
``aspr:constraints``) is pooled with the quadratic: a solve takes the set
that the last solve on the same quadratic handed back, or for a PageRank
query the last solve on any quadratic of the same graph and alpha, and
makes a set only when there is none.  The pooled ``b`` holds all of
``q.b``: it keeps the shared base of the last solve, so a query at the
same rho writes only its seed's entries.  When the solve returns, it
resets the set on the rows it wrote and hands it back; a solve that raises
drops it.  A warm solve thus allocates nothing of length n: its work, its
memory and its answer (see :class:`Solution`) follow the rows it lists.

Observing a run: ``pgd``, ``apgd``, ``ista_baseline``, ``cdpr`` and
``aspr`` take one ``observe`` keyword, called as ``observe(x, S, d)`` after
each step of ``pgd``/``apgd``/``ista_baseline`` and after each stage of
``cdpr``/``aspr`` (including an ``aspr`` stage that the early variant
aborts).  ``x`` is the live dense iterate; copy it to keep it.  For
``ista_baseline``, ``cdpr`` and ``aspr`` it is the pooled buffer, which is
zeroed after the solve and then serves the next one.  ``S`` is the sorted
set of coordinates the solver worked on, which holds supp(x): the subspace
for ``pgd``/``apgd``, the active set for ``ista_baseline``, the pivots so
far for ``cdpr`` (also the support of its new direction), and the working
set for ``aspr``.  ``d`` holds ``cdpr``'s new conjugate direction on ``S``,
as a fresh array, never a view of the solver's basis; the other solvers
pass None.  ``S`` and ``d`` are never written after the call, so they may
be kept; an observer must not write to any of the three.  The coordinates
a solve ever made positive are the union of ``S[x[S] > 0]`` over the calls
for ``ista_baseline`` and ``cdpr``, and the last ``S`` for ``aspr``.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from scipy.sparse._sparsetools import csr_matvec

from .problem import (GradientWorkspace, Restriction, gradient, restrict,
                      _matvec, _restricted)

__all__ = [
    "SolverError",
    "Counters",
    "Solution",
    "pgd",
    "apgd",
    "ista_baseline",
    "cdpr",
    "aspr",
    "ASPR_VARIANTS",
    "SOLVER_TOKENS",
    "MAX_ITERATIONS",
    "solve",
]

ASPR_VARIANTS = ("plain", "early", "constraints")

# solver tokens accepted by solve(); aspr carries its variant after a colon
SOLVER_TOKENS = ("ista", "cdpr", "aspr", "aspr:early", "aspr:constraints")

# the largest iteration budget a solve may set: ista's max_iter, which grows
# with kappa = L/alpha, or the inner length of one aspr stage, which grows
# with the certified kappa_S = L_S/alpha_S of its working set and reaches
# 1/alpha once that set is as badly conditioned as Q (the whole of a
# connected graph, say).  At a tiny alpha both reach counts no run could
# finish; a budget above this cap (over a quarter of an hour at a
# microsecond per step) raises ValueError instead.
MAX_ITERATIONS = 10**9

# the Jacobi sweeps toward Q_SS v = 1 that pick the vector of an aspr stage's
# Collatz-Wielandt bound (see _conditioning)
_JACOBI_SWEEPS = 3

# the directions cdpr's basis holds before it first doubles
_BASIS_START = 8

class SolverError(RuntimeError):
    """A solver failed to make progress or hit an internal guard."""


@dataclasses.dataclass
class Counters:
    """Work accounting shared by all solvers.

    stages: outer iterations (conjugate stages, working-set stages, or
    support-expansion events for the baseline).
    inner_iters: projected / accelerated gradient steps.
    nnz_touched: sparse-matrix nonzeros read, under the column cost model
    for full gradients and the row-restricted model otherwise.
    """

    stages: int = 0
    inner_iters: int = 0
    nnz_touched: int = 0
    full_gradients: int = 0
    restricted_gradients: int = 0

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Solution:
    """Solver output: the iterate, its support, the certified gap bound
    ("exact" for the conjugate solver, see :func:`cdpr`), work counters,
    and ``tolerance``: the solve counted a gradient entry below -tolerance
    as negative.

    The iterate is held on the working set: ``S`` is the sorted working
    set of the solve, off which the iterate vanishes, and ``x_S`` the
    iterate there.  :attr:`x` builds the dense iterate, of length ``n``, on
    first read and keeps it; it is the answer's own array, which no solve
    writes.  So a warm solve allocates nothing of length n: its answer
    costs O(|S|) until ``x`` is read."""

    n: int
    S: np.ndarray
    x_S: np.ndarray
    support: np.ndarray
    gap_bound: object
    counters: Counters
    tolerance: float
    _x: np.ndarray = dataclasses.field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def x(self):
        """The dense iterate."""
        if self._x is None:
            x = np.zeros(self.n)
            x[self.S] = self.x_S
            self._x = x
        return self._x


def _check_start(q, S, x0):
    """``x0`` as a float array, once checked against the sorted distinct
    subspace ids ``S``."""
    if S.size and (S[0] < 0 or S[-1] >= q.n):
        raise ValueError("subspace index out of range")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (q.n,):
        raise ValueError("starting point must have length %d" % q.n)
    if (x0 < 0).any():
        raise ValueError("starting point must be nonnegative")
    if np.any(np.delete(x0, S) != 0):
        raise ValueError("starting point must vanish off the subspace")
    return x0


def pgd(q, S, x0, T, observe=None):
    """T projected-gradient steps with step 1/L on the coordinates S.

    Coordinates outside S are never touched.  ``observe`` sees the iterate
    after each step (see the module docstring).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    S = np.arange(q.n) if S is None else np.unique(np.asarray(S, dtype=np.int64))
    x = _check_start(q, S, x0).copy()
    for _ in range(T):
        gs = gradient(q, x, coords=S)
        x[S] = np.maximum(0.0, x[S] - gs / q.L)
        if observe is not None:
            observe(x, S, None)
    return x


def _coeff_growth(kappa):
    return 2.0 * kappa / (2.0 * kappa + 1.0 - math.sqrt(1.0 + 4.0 * kappa))


def _conditioning(sub):
    """Certified spectral bounds (alpha_S, L_S) of ``sub``, the
    :class:`~sparsepr.problem.Restriction` Q_SS of an M-matrix quadratic,
    which keeps its (alpha, L):
    alpha <= alpha_S <= lambda_min(Q_SS) and lambda_max(Q_SS) <= L_S <= L.

    alpha_S is the larger of alpha and the Collatz-Wielandt bound: for an
    M-matrix, lambda_min(Q_SS) >= min_i (Q_SS v)_i / v_i at every v > 0
    (Berman & Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    1994, ch. 6).  v takes _JACOBI_SWEEPS Jacobi sweeps from 1 toward
    Q_SS v = 1; each sweep is (1 + N v)/D for the splitting Q_SS = D - N
    with N >= 0, so v stays positive.  L_S is the smaller of L and the
    largest row sum of |Q_SS|, which is 2*Q_ii - (Q_SS 1)_i for an
    M-matrix.  Both are read from rounded products: row i of Q_SS v
    rounds by at most about m*u times the row sum of |Q_SS| v, which is
    2*Q_ii*v_i - (Q_SS v)_i, with u the unit roundoff and m = |S| + 4
    above the entries of a row.  Each bound gives up twice that, which
    also covers its own few roundings, so both hold in exact arithmetic
    for the stored Q_SS.  Costs O(ivol(S)) in a fixed number of numpy
    calls, and reads the diagonal that ``sub`` holds."""
    Q, d = sub.Q, sub.diag
    k = d.size
    slack = 2.0 * (k + 4) * 2.0**-53
    v = np.ones(k)
    qv = _matvec(Q, v, np.empty(k))
    L_S = min(sub.L, float((2.0 * d - qv).max()) * (1.0 + slack))
    for _ in range(_JACOBI_SWEEPS):
        v = v + (1.0 - qv) / d
        qv = _matvec(Q, v, qv)
    if not (v > 0).all():
        return sub.alpha, L_S
    low = qv - slack * (2.0 * d * v - qv)
    return max(sub.alpha, float((low / v).min()) * (1.0 - slack)), L_S


def _apgd_loop(sub, alpha, L, S, x0s, T, counters, lower=None, observe=None,
               out=None, full_every=0, ws=None, radius=None):
    """Accelerated projected gradient on ``sub``, the
    :class:`~sparsepr.problem.Restriction` of a quadratic to the sorted
    coordinates S (``restrict(q, S)`` for :func:`apgd`, one built from the
    workspace's block for an ``aspr`` stage), with ``alpha`` and ``L``
    spectral bounds of ``sub.Q`` (alpha*I <= Q_SS <= L*I); returns the last
    output iterate on S and whether the loop aborted.  Each restricted
    gradient is ``csr_matvec`` on ``sub.Q`` minus ``sub.b``, and the stop
    test reads ``sub.diag``.

    A restricted gradient is charged the nonzeros of the columns of Q[S, S]
    in supp(x_S).  ``lower`` (same length as S) turns the clamp into
    max(lower, .) and is raised in place whenever an iterate is observed
    with nonpositive working-set gradient.  ``full_every`` > 0 swaps every
    full_every-th restricted gradient for a full one, taken in the
    workspace ``ws`` (whose ``x`` is then overwritten on S); if that full
    gradient is nonpositive on S and certainly negative somewhere off
    ``ws.S``, the loop admits those coordinates to ``ws.S`` and aborts at
    that point with ``ws`` holding the point and its gradient.  Both
    features need ``ws``, whose tolerance both sign tests allow as slack.
    ``observe`` sees each output iterate embedded in the dense ``out``,
    which must vanish off S.

    With a ``radius`` r, the loop stops at the first point x_in at which it
    takes a restricted gradient and can certify ||x_in - x*|| <= r, with x*
    the minimizer over x >= 0 on S, and returns x_in; ``inner_iters``
    counts that step.  ``lower`` must then lie below x*, so x* is also the
    minimizer over x >= lower.  The test is the gradient mapping of a
    mu-strongly convex, L-smooth function on a convex set (Nesterov,
    Introductory Lectures on Convex Optimization, 2004, section 2.2.3):
    with x+ = max(lower, x_in - grad/L) and G = L (x_in - x+),
    <G, x_in - x*> >= ||G||^2 / (2L) + (mu/2) ||x_in - x*||^2, so
    ||x_in - x*|| <= 2 ||G|| / mu, here with mu = ``alpha``.  G is formed
    as min(gs, L (x_in - lower)), which equals L (x_in - x+) and keeps the
    small gs from cancelling against x_in.  The loop already holds gs, the
    rounded gradient at x_in, so the test costs no product:

    - row i of gs = Q_SS x_in - b rounds by at most
      gamma_m ((|Q_SS| x_in)_i + |b_i|), with gamma_m = m u / (1 - m u),
      u the unit roundoff and m = |S| + 4 above the terms of a row; at
      x_in >= 0 an M-matrix has |Q_SS| x_in = 2 diag(Q_SS) x_in - Q_SS x_in,
      read from the product the loop just took, so the error e has
      ||e|| <= gamma_m (||2 diag x_in - Q_SS x_in|| + ||b||), the extra 3
      in m covering the rounding of that vector;
    - projection is nonexpansive, so the G of the true gradient lies
      within ||e|| of the G of gs, and the stop asks
      2 (||G|| + ||e||) <= alpha * r;
    - the norms, the sums and the target round by a few units of u
      relative to their values each, and the test gives up a factor of
      1 + 2 (|S| + 4) u, as :func:`_conditioning` does.

    An aborted or full step is never tested; T stays the cap.
    """
    kappa = L / alpha
    growth = _coeff_growth(kappa)
    indptr = sub.Q.indptr
    col_nnz = indptr[1:] - indptr[:-1]
    qx = np.empty(S.size)
    if radius is not None:
        roundoff = (S.size + 4) * 2.0**-53
        gamma = roundoff / (1.0 - roundoff)
        twice_diag = 2.0 * sub.diag
        norm_b = math.sqrt(float(sub.b @ sub.b))
        target = 0.5 * alpha * radius / (1.0 + 2.0 * roundoff)
    y = x0s.copy()
    z = x0s.copy()
    A, a = 0.0, 1.0
    for t in range(T):
        A1 = A + a
        x_in = (A / A1) * y + (a / A1) * z
        full = full_every and (t + 1) % full_every == 0
        if full:
            ws.x[S] = x_in
            ws.refresh()
            gs = ws.g[S]
        else:
            counters.restricted_gradients += 1
            # ufunc reductions: ndarray.sum and .all wrap them in Python
            counters.nnz_touched += int(np.add.reduce(col_nnz[x_in != 0]))
            gs = _matvec(sub.Q, x_in, qx) - sub.b
        nonpos_on_set = (ws is not None
                         and bool(np.logical_and.reduce(gs <= ws.tol)))
        if lower is not None and nonpos_on_set:
            np.maximum(lower, x_in, out=lower)
        if full and nonpos_on_set and ws.admit(ws.negatives()).size:
            counters.inner_iters += 1
            return y, True
        if radius is not None and not full:
            G = np.minimum(gs, L * (x_in if lower is None else x_in - lower))
            w = twice_diag * x_in - qx
            if (math.sqrt(float(G @ G))
                    + gamma * (math.sqrt(float(w @ w)) + norm_b)) <= target:
                counters.inner_iters += 1
                return x_in, False
        znew = ((kappa - 1.0 + A) / (kappa - 1.0 + A1)) * z \
            + (a / (kappa - 1.0 + A1)) * (x_in - gs / alpha)
        if lower is None:
            np.maximum(0.0, znew, out=znew)
        else:
            np.maximum(lower, znew, out=znew)
        z = znew
        y = (A / A1) * y + (a / A1) * z
        a = A1 * (growth - 1.0)
        A = A1
        if A > 1e250:
            # the coefficient recurrence only ever uses ratios, and at this
            # magnitude the additive (kappa - 1) term is far below one ulp,
            # so rescaling is exact
            A *= 1e-200
            a *= 1e-200
        counters.inner_iters += 1
        if observe is not None:
            out[S] = y
            observe(out, S, None)
    return y, False


def apgd(q, S, x0, T, observe=None):
    """T accelerated projected-gradient steps on the coordinates S.

    Uses the estimate-sequence coefficient recurrence whose accumulated
    weight grows at least like (1 - 1/(2*sqrt(kappa)))^{-1} per step.
    Requires L >= alpha; ``observe`` sees the output iterate after each step
    (see the module docstring).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if q.kappa < 1.0:
        raise ValueError("conditioning kappa = L/alpha must be >= 1")
    S = np.arange(q.n) if S is None else np.unique(np.asarray(S, dtype=np.int64))
    x0 = _check_start(q, S, x0)
    out = np.zeros(q.n)
    if S.size == 0 or T == 0:
        out[S] = x0[S]
        return out
    out[S], _ = _apgd_loop(restrict(q, S), q.alpha, q.L, S, x0[S], T,
                           Counters(), observe=observe, out=out)
    return out


def _solution(ws, gap_bound):
    """The solve's answer, read on the working set, off which ``ws.x``
    vanishes; ``ws`` is then released.  An iterate that is not finite
    raises SolverError, so no label is ever attached to it."""
    S = ws.S
    x_S = ws.x[S]
    if not np.isfinite(x_S).all():
        raise SolverError("the iterate holds a non-finite value")
    sol = Solution(ws.q.n, S, x_S, S[x_S > 0], gap_bound, ws.counters, ws.tol)
    ws.release()
    return sol


def _check_eps_finite(eps):
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))


def _check_eps(q, eps):
    _check_eps_finite(eps)
    # ista stops on 2*alpha*eps and aspr's inner gaps lie below alpha*eps;
    # under the normal floats their budgets divide by zero or overflow
    if 2.0 * q.alpha * eps < sys.float_info.min:
        raise ValueError("eps=%r is too small for alpha=%r: 2*alpha*eps "
                         "must be at least %r"
                         % (eps, q.alpha, sys.float_info.min))


def _squared_norm(q, v):
    """||v||^2 of a gradient ``v``; a square that overflows raises
    ValueError, which names the scale of b that causes it."""
    with np.errstate(over="ignore"):
        out = float(v @ v)
    if out == math.inf:
        raise ValueError("max|b|=%r is too large: the squared norm of the "
                         "gradient overflows; scale b down" % q.max_abs_b)
    return out


def _budget(q, steps, solver):
    """``steps``, once checked against MAX_ITERATIONS."""
    if not steps <= MAX_ITERATIONS:
        raise ValueError("alpha=%r is too small: %s would need more than %d "
                         "iterations" % (q.alpha, solver, MAX_ITERATIONS))
    return steps


def ista_baseline(q, eps, observe=None):
    """Projected gradient from zero over the full orthant, sparsely.

    Only the active set (positive coordinates plus certainly-negative
    gradients, kept as the workspace's working set) is ever stepped; each
    step is charged one full gradient under the column cost model (the
    access pattern is confined to the support's neighborhood).  Terminates
    once no inactive coordinate has a negative gradient and
    ||grad on support||^2 <= 2*alpha*eps, which certifies an objective gap
    of at most eps by strong convexity.  ``stages`` counts support-expansion
    events, so the already-optimal instance reports 0.  ``observe`` sees
    each step's iterate and active set (see the module docstring).
    """
    _check_eps(q, eps)
    ws = GradientWorkspace(q, Counters())
    x, g, counters = ws.x, ws.g, ws.counters
    # x vanishes off the sorted active set ws.S, so every scan below runs
    # over it or over the workspace's candidates
    if not ws.admit(ws.negatives()).size:
        return _solution(ws, eps)
    counters.stages += 1
    target = 2.0 * q.alpha * eps
    # log((L * (max|b| + alpha) / alpha)^2 / target + 2), taken in log
    # space as log(e^r + 2), since the square overflows at a huge max|b|
    r = 2.0 * (math.log(q.L) + math.log(q.max_abs_b + q.alpha)
               - math.log(q.alpha)) - math.log(target)
    log_arg = (r + math.log1p(2.0 * math.exp(-r)) if r > 0.0
               else math.log(math.exp(r) + 2.0))
    max_iter = int(_budget(q, 200 + 4 * q.kappa * max(4.0, log_arg), "ista"))
    for _ in range(max_iter):
        neg = ws.negatives()
        if (x[neg] > 0).all():
            A = ws.S
            on = g[A[x[A] > 0]]
            if _squared_norm(q, on) <= target:
                return _solution(ws, eps)
        if ws.admit(neg).size:
            counters.stages += 1
        A = ws.S
        x[A] = np.maximum(0.0, x[A] - g[A] / q.L)
        counters.inner_iters += 1
        ws.refresh()
        if observe is not None:
            observe(x, ws.S, None)
    raise SolverError("baseline failed to converge in %d iterations" % max_iter)


def _pivot_noise(ws, i):
    """A bound on the rounding in cdpr's gradient at its pivot i, for the
    pivots ``ws.S``: gamma_m * (sum_j |Q_ij| x_j + |b_i|), with gamma_m =
    m*u/(1 - m*u), u the unit roundoff and m = |S| + (entries of row i) + 1.

    cdpr's steps never lower x, so each x_j is a sum of at most |S|
    nonnegative terms, and rounds by at most gamma_|S| * x_j; a row sum of
    Q x - b rounds by gamma_(entries + 1) times its absolute terms.  Both
    bounds hold for a sum taken in any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 4.2), so they do not
    depend on the order in which the workspace adds a row's terms.  The
    sum of the two is at most the bound.  Rounding in the step lengths and
    directions is left out."""
    cols, vals = ws.q.row(i)
    m = ws.S.size + cols.size + 1
    u = 2.0**-53
    terms = float(np.abs(vals) @ ws.x[cols]) + abs(float(ws.b[i]))
    return m * u / (1.0 - m * u) * terms


def _gap_from_gradient(ws):
    """The objective gap bound ||v||^2 / (2 alpha) that strong convexity
    gives at ``ws.x``, with v the gradient where x > 0 and its negative
    part where x = 0.  Off the listed rows x = 0 and g = -b >= -tol, so v
    is -b on the unlisted rows of ``q.positive_b`` and vanishes elsewhere."""
    rows = ws.rows
    g = ws.g[rows]
    v = np.where(ws.x[rows] > 0, g, np.minimum(g, 0.0))
    pos = ws.q.positive_b
    off = ws.b[pos[~ws.listed[pos]]]
    return (float(v @ v) + float(off @ off)) / (2.0 * ws.q.alpha)


def _widened(A):
    """A in the leading corner of zeros twice as wide in every dimension
    (at least _BASIS_START)."""
    k = A.shape[0]
    out = np.zeros((max(2 * k, _BASIS_START),) * A.ndim)
    out[(slice(k),) * A.ndim] = A
    return out


def cdpr(q, observe=None):
    """Conjugate-directions solver: exact in |support| stages.

    Each stage pivots on the most negative gradient coordinate, extends the
    Q-orthogonal basis by Gram-Schmidt against the stored directions, and
    takes the exact line-search step.  The pivots are the workspace's
    working set.  The gradient stays zero on all previous pivots, iterates
    are coordinatewise nondecreasing, and the final iterate is the exact
    optimizer.  ``observe`` sees each stage's iterate, pivots and direction
    (see the module docstring).

    A gradient entry counts as negative below -negative_tolerance(q).  The
    gradient vanishes on the pivots in exact arithmetic, but at a tiny
    alpha its rounding there can exceed that threshold, so that a pivot
    reads as negative again.  The threshold then rises to the rounding
    bound of :func:`_pivot_noise` at that pivot, and a pivot whose gradient
    lies below minus that bound raises SolverError.  The answer's
    ``tolerance`` is the threshold the solve ended with; its gap bound is
    "exact" while that is negative_tolerance(q), and otherwise the bound
    of :func:`_gap_from_gradient`, since a coordinate whose gradient lies
    between the two thresholds is left at zero.

    The basis is dense and lower triangular in pivot order: row k of ``D``
    holds direction k on the first k + 1 pivots, and ``curv[k]`` its
    curvature; both double when full.  A stage picks its pivot by one scan
    of the gradient on the workspace's listed rows, with no sort; reads the
    new pivot's row on the earlier pivots for the Gram-Schmidt
    coefficients; assembles the direction by one BLAS product of the
    coefficients with ``D``; and takes ``Q d`` on the pivots from the
    workspace's ``block``, which holds the pivots' rows.  That product is
    scipy's ``csr_matvec`` kernel on the block, with its column ids mapped
    through the pivot ranks, into ``dk`` = (0, d) in pivot order, so a
    column off the pivots reads 0; each row sums its terms in increasing
    column, the order of the workspace's gradient.  It is charged, as a
    scatter from the rows of supp(d) would read, the entries of the
    pivots' rows on supp(d), which ``Q``'s symmetric pattern makes equal.
    Its numpy calls do not grow with the number of stored directions.
    """
    ws = GradientWorkspace(q, Counters())
    x, g, counters = ws.x, ws.g, ws.counters
    tol = ws.tol
    # 1 + each pivot's place in pivot order, 0 off the pivots, in Q's index
    # dtype, as the block's column ids mapped through it are a kernel input
    rank = ws.pooled("rank", q.Q.indices.dtype)
    D, curv = np.zeros((0, 0)), np.zeros(0)
    K = 0  # directions stored
    while True:
        rows = ws.rows
        g_rows = g[rows]
        # fmin skips a NaN, which no sign test counts as negative
        least = np.fmin.reduce(g_rows, initial=np.inf)
        if not least < -ws.tol:
            break
        # the most negative gradient; a tie goes to the smallest index
        i = int(rows[g_rows == least].min())
        if not ws.admit([i]).size:
            # the threshold only grows, so the workspace's list stays complete
            floor = _pivot_noise(ws, i)
            if floor <= ws.tol:
                raise SolverError("pivot %d revisited; its gradient %r lies "
                                  "beyond rounding" % (i, float(g[i])))
            ws.tol = floor
            continue
        gi = float(g[i])
        cols_i, vals_i = q.row(i)
        if not cols_i.size:
            raise SolverError("row %d of Q is empty" % i)
        counters.nnz_touched += int(cols_i.size)
        if K == D.shape[0]:
            D, curv = _widened(D), _widened(curv)

        # dk = (0, d): the new direction read by 1 + pivot order
        dk = np.empty(K + 2)
        dk[0] = 0.0
        dk[K + 1] = gi
        at = rank[cols_i]
        on = at > 0
        coeff = -gi * (D[:K, at[on] - 1] @ vals_i[on]) / curv[:K]
        np.matmul(coeff, D[:K, :K], out=dk[1:K + 1])
        rank[i] = K + 1
        supp = ws.S
        d_vals = dk[rank[supp]]
        # Q d on the pivots: the pivots' rows with their columns read in dk
        block = ws.block
        mapped = rank[block.indices]
        qd = np.zeros(supp.size)
        csr_matvec(supp.size, K + 2, block.indptr, mapped, block.data, dk, qd)
        counters.nnz_touched += int(np.count_nonzero(dk[mapped]))
        curvature = float(d_vals @ qd)
        if curvature <= 0:
            raise SolverError("nonpositive curvature along a direction")
        step = -float(g[supp] @ d_vals) / curvature
        x[supp] += step * d_vals

        D[K, :K + 1] = dk[1:]
        curv[K] = curvature
        K += 1
        counters.stages += 1
        ws.refresh()
        if observe is not None:
            observe(x, supp, d_vals)
    return _solution(ws, "exact" if ws.tol == tol else _gap_from_gradient(ws))


def aspr(q, eps, variant="plain", observe=None):
    """Staged accelerated solver with working-set expansion.

    Per stage on the working set S: run the accelerated inner loop on the
    restriction Q_SS until it certifies ||y - x*_S|| <= shrink, with x*_S
    the minimizer over the coordinates S; retract every working coordinate
    by the shrink margin (clamped); then expand the working set by every
    certainly-negative coordinate of one full gradient.  The retraction
    keeps each stage start below its subspace optimum, which makes every
    expansion coordinate provably part of the optimal support.  Terminates
    with a certified objective gap of at most eps.

    Each stage builds the :class:`~sparsepr.problem.Restriction` to S that
    :func:`~sparsepr.problem.restrict` returns, but from the workspace's
    ``block``, which holds the rows of S since S last grew, and its copy
    of b; so the restriction reads no row of Q and costs O(vol(S)).  The
    stage is sized by the conditioning of Q_SS, not of Q.
    :func:`_conditioning` certifies alpha_S and L_S with
    alpha <= alpha_S <= lambda_min(Q_SS) and lambda_max(Q_SS) <= L_S <= L;
    alpha_S is often far above alpha (a working set that is not the whole
    graph leaks mass through its boundary).  The inner loop steps with them
    (momentum from kappa_S = L_S/alpha_S, and x - g/alpha_S), so from a
    start x0:

    - R = ||x0 - x*_S|| <= ||g_S(x0)|| / alpha_S, since
      alpha_S * R^2 <= <g_S(x0), x0 - x*_S> at the constrained optimum;
    - after T steps the inner gap is at most (L_S - alpha_S) R^2 / (2 A_T),
      with A_T = growth^(T - 1) >= exp((T - 1) / (2 sqrt(kappa_S)));
    - an inner gap of shrink^2 * alpha_S / 2 gives ||y - x*_S||^2 <=
      shrink^2 by strong convexity on S, so max(0, y - shrink) <= x*_S.

    So T = 1 + ceil(2 sqrt(kappa_S) * log((L_S - alpha_S) * ||g_S(x0)||^2
    / (alpha_S^3 * shrink^2))), computed in log space.  T is a worst case
    and only the cap: the stage ends at the first point x_in whose
    restricted gradient certifies ||x_in - x*_S|| <= shrink, and y is that
    x_in.  The certificate is the gradient mapping, which needs no product
    beyond the gradient the step takes anyway: with
    G = L_S (x_in - max(lower, x_in - g_S(x_in) / L_S)), where lower is 0
    but in the constraints variant, ||x_in - x*_S|| <= 2 ||G|| / alpha_S.
    The stop asks 2 (||G|| + ||e||) <= alpha_S * shrink, with e a bound on
    the rounding of the gradient read from the same product (see
    :func:`_apgd_loop`, which derives the test and its rounding margin).
    ``inner_iters`` counts the certifying step.  A stage whose test has
    not fired by step T ends at the y of step T, which the a-priori bound
    certifies.

    The shrink margin and the final certificate keep the global alpha and
    L: with shrink^2 = eps * alpha / ((1 + |S|) L^2), the final iterate
    lies below x*_S = x* and within (1 + sqrt|S|) shrink of it, so its
    gradient residual v (the gradient where x > 0, its negative part where
    x = 0) has ||v|| <= ||Q (x - x*)|| <= L (1 + sqrt|S|) shrink over all
    n coordinates, and as (1 + sqrt|S|)^2 <= 2 (1 + |S|), the gap
    ||v||^2 / (2 alpha) is at most eps.

    variant="early": every |S| inner iterations, with S the stage's working
    set, the restricted gradient is upgraded to a full one;
    when it is nonpositive on the working set and certainly negative off it,
    the stage aborts there and the new coordinates join immediately.
    variant="constraints": coordinatewise lower bounds, certified at any
    iterate observed with nonpositive working-set gradient, replace zero in
    every clamp (inner projection and retraction); they lie below x*_S, so
    the stage's bounds and length are unchanged.

    ``observe`` sees each stage's iterate and working set (see the module
    docstring); an aborted stage is observed at its abort point.
    """
    _check_eps(q, eps)
    if variant not in ASPR_VARIANTS:
        raise ValueError("variant must be one of %s" % (ASPR_VARIANTS,))
    ws = GradientWorkspace(q, Counters())
    x, g, counters = ws.x, ws.g, ws.counters
    alpha, L = q.alpha, q.L
    if not ws.admit(ws.negatives()).size:
        return _solution(ws, eps)
    lower = ws.pooled("lower", float) if variant == "constraints" else None

    # every stage admits a coordinate or stops, so there are at most n
    while True:
        S = ws.S
        counters.stages += 1
        # Q_SS from the rows of S that the workspace holds
        sub = Restriction(*_restricted(ws.block, S), ws.b[S], alpha, L)
        alpha_S, L_S = _conditioning(sub)
        shrink = math.sqrt(eps * alpha / ((1.0 + S.size) * L * L))
        gs0 = g[S]
        norm2 = _squared_norm(q, gs0)
        if norm2 == 0.0:
            T = 0
        elif L_S == alpha_S:
            T = 1
        else:
            # the log of (L_S - alpha_S) * norm2 / (alpha_S^3 * shrink^2);
            # the quotient itself underflows for a tiny alpha
            log_arg = (math.log(L_S - alpha_S) + math.log(norm2)
                       + math.log1p(S.size) + 2.0 * math.log(L)
                       - math.log(eps) - math.log(alpha)
                       - 3.0 * math.log(alpha_S))
            if log_arg <= 0.0:
                T = 1
            else:
                T = 1 + math.ceil(_budget(
                    q, 2.0 * math.sqrt(L_S / alpha_S) * log_arg,
                    "an aspr stage"))
        lower_s = lower[S].copy() if lower is not None else None
        period = int(S.size) if variant == "early" else 0
        y, aborted = _apgd_loop(sub, alpha_S, L_S, S, x[S], T, counters,
                                lower=lower_s, full_every=period, ws=ws,
                                radius=shrink)
        if aborted:
            if observe is not None:
                observe(x, S, None)
            continue
        if lower is not None:
            lower[S] = lower_s
            floor = lower_s
        else:
            floor = 0.0
        x[S] = np.maximum(floor, y - shrink)
        ws.refresh()
        if lower is not None and float(np.max(g[S])) <= ws.tol:
            lower[S] = np.maximum(lower[S], x[S])
        if observe is not None:
            observe(x, S, None)
        if not ws.admit(ws.negatives()).size:
            break
    return _solution(ws, eps)


def solve(q, token, eps):
    """Run the solver named by one of SOLVER_TOKENS."""
    if token not in SOLVER_TOKENS:
        raise ValueError("unknown solver token %r (choose from %s)"
                         % (token, ", ".join(SOLVER_TOKENS)))
    # cdpr reads no eps, so only ista and aspr check it against alpha
    _check_eps_finite(eps)
    name, _, variant = token.partition(":")
    if name == "cdpr":
        return cdpr(q)
    if name == "ista":
        return ista_baseline(q, eps)
    return aspr(q, eps, variant=variant or "plain")
