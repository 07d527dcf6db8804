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
coordinates ever made positive, the certainly-negative threshold
``negative_tolerance(q)``, and the :class:`Counters` that their
:class:`Solution` reports.

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

Observing a run: ``pgd``, ``apgd``, ``cdpr`` and ``aspr`` take one
``observe`` keyword, called as ``observe(x, S, d)`` after each step of
``pgd``/``apgd`` and after each stage of ``cdpr``/``aspr`` (including an
``aspr`` stage that the early variant aborts).  ``x`` is the live dense
iterate; copy it to keep it.  For ``cdpr`` and ``aspr`` it is the pooled
buffer, which is zeroed after the solve and then serves the next one.
``S`` is the sorted set of coordinates the solver worked on: the subspace
for ``pgd``/``apgd``, the pivots so far for ``cdpr`` (also the support of
its new direction), and the working set for ``aspr``.  ``d`` holds
``cdpr``'s new conjugate direction on ``S``, as a fresh array, never a view
of the solver's basis; the other solvers pass None.  ``S`` and ``d`` are
never written after the call, so they may be kept; an observer must not
write to any of the three.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .problem import (
    GradientWorkspace,
    gradient,
    restrict,
    _matvec,
    _restricted,
    _RowGather,
)

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

# the largest iteration budget a solve may set: ista's max_iter or the inner
# length of one aspr stage.  Both grow with kappa = L/alpha and reach counts
# no run could finish at a tiny alpha; a budget above this cap (over a
# quarter of an hour at a microsecond per step) raises ValueError instead.
MAX_ITERATIONS = 10**9

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
    every coordinate the solver ever made positive, and ``tolerance``: the
    solve counted a gradient entry below -tolerance as negative.  For
    ``aspr`` the ever-positive set is its final working set, which holds
    every coordinate it made positive.

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
    ever_positive: np.ndarray
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


def _apgd_loop(q, S, x0s, T, counters, lower=None, observe=None, out=None,
               full_every=0, ws=None):
    """Accelerated projected gradient on the restriction of q to S; returns
    the last output iterate on S and whether the loop aborted.

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
    """
    kappa = q.kappa
    alpha = q.alpha
    growth = _coeff_growth(kappa)
    # S lies in the workspace's listed rows, whose b it holds
    sub = restrict(q, S) if ws is None else _restricted(q, S, ws.b[S])
    col_nnz = np.diff(sub.Q.indptr)
    qx = np.empty(S.size)
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
            counters.nnz_touched += int(col_nnz[x_in != 0].sum())
            gs = _matvec(sub.Q, x_in, qx) - sub.b
        nonpos_on_set = ws is not None and bool((gs <= ws.tol).all())
        if lower is not None and nonpos_on_set:
            np.maximum(lower, x_in, out=lower)
        if full and nonpos_on_set and ws.admit(ws.negatives()).size:
            counters.inner_iters += 1
            return y, True
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
    out[S], _ = _apgd_loop(q, S, x0[S], T, Counters(), observe=observe,
                           out=out)
    return out


def _solution(ws, gap_bound, ever=None):
    """The solve's answer, read on the working set, off which ``ws.x``
    vanishes; ``ws`` is then released.  ``ever`` defaults to the
    coordinates marked in ``ws.ever``."""
    S = ws.S
    x_S = ws.x[S]
    if ever is None:
        ever = S[ws.ever[S]]
    sol = Solution(ws.q.n, S, x_S, S[x_S > 0], gap_bound, ws.counters, ever,
                   ws.tol)
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


def _budget(q, steps, solver):
    """``steps``, once checked against MAX_ITERATIONS."""
    if not steps <= MAX_ITERATIONS:
        raise ValueError("alpha=%r is too small: %s would need more than %d "
                         "iterations" % (q.alpha, solver, MAX_ITERATIONS))
    return steps


def ista_baseline(q, eps):
    """Projected gradient from zero over the full orthant, sparsely.

    Only the active set (positive coordinates plus certainly-negative
    gradients, kept as the workspace's working set) is ever stepped; each
    step is charged one full gradient under the column cost model (the
    access pattern is confined to the support's neighborhood).  Terminates
    once no inactive coordinate has a negative gradient and
    ||grad on support||^2 <= 2*alpha*eps, which certifies an objective gap
    of at most eps by strong convexity.  ``stages`` counts support-expansion
    events, so the already-optimal instance reports 0.
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
    scale = q.max_abs_b + q.alpha
    max_iter = int(_budget(q, 200 + 4 * q.kappa * max(
        4.0, math.log((q.L * scale / q.alpha) ** 2 / target + 2.0)), "ista"))
    for _ in range(max_iter):
        neg = ws.negatives()
        if (x[neg] > 0).all():
            A = ws.S
            on = g[A[x[A] > 0]]
            if float(on @ on) <= target:
                return _solution(ws, eps)
        if ws.admit(neg).size:
            counters.stages += 1
        A = ws.S
        x[A] = np.maximum(0.0, x[A] - g[A] / q.L)
        counters.inner_iters += 1
        ws.refresh()
    raise SolverError("baseline failed to converge in %d iterations" % max_iter)


def _pivot_noise(ws, i):
    """A bound on the rounding in cdpr's gradient at its pivot i, for the
    pivots ``ws.S``: gamma_m * (sum_j |Q_ij| x_j + |b_i|), with gamma_m =
    m*u/(1 - m*u), u the unit roundoff and m = |S| + (entries of row i) + 1.

    cdpr's steps never lower x, so each x_j is a sum of at most |S|
    nonnegative terms, and rounds by at most gamma_|S| * x_j; a row sum of
    Q x - b rounds by gamma_(entries + 1) times its absolute terms.  The
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
    """The square A in the top-left corner of a square of zeros twice as
    wide (at least _BASIS_START)."""
    k = A.shape[0]
    out = np.zeros((max(2 * k, _BASIS_START),) * 2)
    out[:k, :k] = A
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
    holds direction k on the first k + 1 pivots, and row k of ``N`` the same
    over its curvature; both double when full.  A stage reads the new
    pivot's row on the earlier pivots for the Gram-Schmidt coefficients,
    sums the scaled directions row by row, and takes ``Q d`` on the pivots
    from their rows, gathered once in pivot order.  Its numpy calls do not
    grow with the number of stored directions.
    """
    ws = GradientWorkspace(q, Counters())
    x, g, counters = ws.x, ws.g, ws.counters
    tol = ws.tol
    # 1 + each pivot's place in pivot order, 0 off the pivots
    rank = ws.pooled("rank", np.int64)
    D = N = np.zeros((0, 0))
    pivot_rows = _RowGather(q.Q)
    K = 0  # directions stored
    while True:
        neg = ws.negatives()
        if neg.size == 0:
            break
        # the most negative gradient; neg is sorted and argmin takes the
        # first, so a tie goes to the smallest index
        i = int(neg[np.argmin(g[neg])])
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
            D, N = _widened(D), _widened(N)

        # dk = (0, d): the new direction read by 1 + pivot order
        dk = np.empty(K + 2)
        dk[0] = 0.0
        dk[K + 1] = gi
        at = rank[cols_i]
        on = at > 0
        coeff = -gi * (N[:K, at[on] - 1] * vals_i[on]).sum(axis=1)
        # reduces row after row, as adding each scaled direction in turn does
        np.add.reduce(coeff[:, None] * D[:K, :K], axis=0, out=dk[1:K + 1])
        rank[i] = K + 1
        pivot_rows.extend(np.array([i]))
        supp = ws.S
        order = rank[supp]
        d_vals = dk[order]
        d_cols = dk[rank[pivot_rows.cols]]
        qd = pivot_rows.row_sums(d_cols)[order - 1]
        counters.nnz_touched += int(np.count_nonzero(d_cols))
        curvature = float(d_vals @ qd)
        if curvature <= 0:
            raise SolverError("nonpositive curvature along a direction")
        step = -float(g[supp] @ d_vals) / curvature
        x[supp] += step * d_vals

        D[K, :K + 1] = dk[1:]
        N[K, :K + 1] = dk[1:] / curvature
        K += 1
        counters.stages += 1
        ws.refresh()
        if observe is not None:
            observe(x, supp, d_vals)
    return _solution(ws, "exact" if ws.tol == tol else _gap_from_gradient(ws))


def aspr(q, eps, variant="plain", observe=None):
    """Staged accelerated solver with working-set expansion.

    Per stage: run the accelerated inner loop on the working set long enough
    to certify an inner gap of (shrink^2 * alpha / 2), retract every working
    coordinate by the shrink margin (clamped), then expand the working set
    by every certainly-negative coordinate of one full gradient.  The
    retraction keeps each stage start below its subspace optimum, which
    makes every expansion coordinate provably part of the optimal support.
    Terminates with a certified objective gap of at most eps.

    variant="early": every |S| inner iterations, with S the stage's working
    set, the restricted gradient is upgraded to a full one;
    when it is nonpositive on the working set and certainly negative off it,
    the stage aborts there and the new coordinates join immediately.
    variant="constraints": coordinatewise lower bounds, certified at any
    iterate observed with nonpositive working-set gradient, replace zero in
    every clamp (inner projection and retraction).

    ``observe`` sees each stage's iterate and working set (see the module
    docstring); an aborted stage is observed at its abort point.
    """
    _check_eps(q, eps)
    if variant not in ASPR_VARIANTS:
        raise ValueError("variant must be one of %s" % (ASPR_VARIANTS,))
    ws = GradientWorkspace(q, Counters())
    x, g, counters = ws.x, ws.g, ws.counters
    alpha, L, kappa = q.alpha, q.L, q.kappa
    if not ws.admit(ws.negatives()).size:
        return _solution(ws, eps, ws.S)
    lower = ws.pooled("lower", float) if variant == "constraints" else None

    # every stage admits a coordinate or stops, so there are at most n
    while True:
        S = ws.S
        counters.stages += 1
        shrink = math.sqrt(eps * alpha / ((1.0 + S.size) * L * L))
        gs0 = g[S]
        norm2 = float(gs0 @ gs0)
        if norm2 == 0.0:
            T = 0
        elif L == alpha:
            T = 1
        else:
            # the log of (L - alpha) * norm2 / (2 * inner_gap * alpha^2),
            # with inner_gap = shrink^2 * alpha / 2; the quotient itself
            # underflows its denominator for a tiny alpha
            log_arg = (math.log(L - alpha) + math.log(norm2)
                       + math.log1p(S.size) + 2.0 * math.log(L)
                       - math.log(eps) - 4.0 * math.log(alpha))
            if log_arg <= 0.0:
                T = 1
            else:
                T = 1 + math.ceil(_budget(
                    q, 2.0 * math.sqrt(kappa) * log_arg, "an aspr stage"))
        lower_s = lower[S].copy() if lower is not None else None
        period = int(S.size) if variant == "early" else 0
        y, aborted = _apgd_loop(q, S, x[S], T, counters, lower=lower_s,
                                full_every=period, ws=ws)
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
    return _solution(ws, eps, ws.S)


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
