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

Every solver is deterministic and charges its sparse-matrix touches to a
:class:`Counters` object.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .problem import (
    gradient,
    negative_tolerance,
    restrict,
    _segment_row_products,
)

__all__ = [
    "SolverError",
    "Counters",
    "Solution",
    "ConjugateBasis",
    "select_pivot",
    "pgd",
    "apgd",
    "ista_baseline",
    "cdpr",
    "aspr",
    "ASPR_VARIANTS",
    "SOLVER_TOKENS",
    "solve",
]

ASPR_VARIANTS = ("plain", "early", "constraints")

# solver tokens accepted by solve(); aspr carries its variant after a colon
SOLVER_TOKENS = ("ista", "cdpr", "aspr", "aspr:early", "aspr:constraints")


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
    ("exact" for the conjugate solver), work counters, and every coordinate
    the solver ever made positive."""

    x: np.ndarray
    support: np.ndarray
    gap_bound: object
    counters: Counters
    ever_positive: np.ndarray


@dataclasses.dataclass
class ConjugateBasis:
    """Q-orthogonal directions stored sparsely: support indices, raw values,
    and values normalized by the curvature <d, Qd>."""

    idx: list = dataclasses.field(default_factory=list)
    vals: list = dataclasses.field(default_factory=list)
    normalized: list = dataclasses.field(default_factory=list)

    def __len__(self):
        return len(self.idx)

    def add(self, idx, vals, curvature):
        self.idx.append(idx)
        self.vals.append(vals)
        self.normalized.append(vals / curvature)


def select_pivot(candidates, grads):
    """Most negative gradient wins; ties go to the smallest index."""
    candidates = np.asarray(candidates)
    grads = np.asarray(grads)
    if candidates.size == 0:
        raise ValueError("no candidates to pivot on")
    order = np.argsort(candidates)
    candidates = candidates[order]
    grads = grads[order]
    return int(candidates[int(np.argmin(grads))])


def _check_start(q, S, x0):
    x0 = np.asarray(x0, dtype=float)
    if (x0 < 0).any():
        raise ValueError("starting point must be nonnegative")
    member = np.zeros(q.n, dtype=bool)
    member[S] = True
    if np.any(x0[~member] != 0):
        raise ValueError("starting point must vanish off the subspace")
    return x0


def pgd(q, S, x0, T, counters=None, monitor=None):
    """T projected-gradient steps with step 1/L on the coordinates S.

    Coordinates outside S are never touched.  ``monitor(t, x)`` is invoked
    after each step (x is live; copy it if you keep it).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    S = np.arange(q.n) if S is None else np.unique(np.asarray(S, dtype=np.int64))
    x = _check_start(q, S, x0).copy()
    for t in range(T):
        gs = gradient(q, x, coords=S, counters=counters)
        x[S] = np.maximum(0.0, x[S] - gs / q.L)
        if counters is not None:
            counters.inner_iters += 1
        if monitor is not None:
            monitor(t, x)
    return x


@dataclasses.dataclass
class _InnerResult:
    y: np.ndarray
    aborted: bool = False
    abort_x: np.ndarray = None
    abort_grad_full: np.ndarray = None
    fresh: np.ndarray = None


def _coeff_growth(kappa):
    return 2.0 * kappa / (2.0 * kappa + 1.0 - math.sqrt(1.0 + 4.0 * kappa))


def _apgd_loop(q, S, x0s, T, counters, lower=None, monitor=None,
               full_every=0, member=None, tol_neg=0.0):
    """Accelerated projected gradient on the restriction of q to S.

    A restricted gradient is charged the nonzeros of the columns of Q[S, S]
    in supp(x_S).  ``lower`` (same length as S) turns the clamp into
    max(lower, .) and is raised in place whenever an iterate is observed
    with nonpositive restricted gradient.  ``full_every`` > 0 swaps every
    full_every-th restricted gradient for a full one; if that full gradient
    is nonpositive on the working set and certainly negative somewhere off
    it, the loop aborts at that point and reports the new coordinates.
    Both sign tests allow ``tol_neg`` of slack.
    """
    kappa = q.kappa
    alpha = q.alpha
    growth = _coeff_growth(kappa)
    sub = restrict(q, S)
    col_nnz = np.diff(sub.Q.indptr)
    y = x0s.copy()
    z = x0s.copy()
    A, a = 0.0, 1.0
    for t in range(T):
        A1 = A + a
        x_in = (A / A1) * y + (a / A1) * z
        g_full = None
        if full_every and (t + 1) % full_every == 0:
            xg = np.zeros(q.n)
            xg[S] = x_in
            g_full = gradient(q, xg, counters=counters)
            gs = g_full[S]
        else:
            counters.restricted_gradients += 1
            counters.nnz_touched += int(col_nnz[x_in != 0].sum())
            gs = sub.Q @ x_in - sub.b
        nonpos_on_set = bool((gs <= tol_neg).all())
        if lower is not None and nonpos_on_set:
            np.maximum(lower, x_in, out=lower)
        if g_full is not None and nonpos_on_set:
            fresh = np.flatnonzero((g_full < -tol_neg) & ~member)
            if fresh.size:
                counters.inner_iters += 1
                return _InnerResult(y, aborted=True, abort_x=x_in,
                                    abort_grad_full=g_full, fresh=fresh)
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
        if monitor is not None:
            monitor(t, y)
    return _InnerResult(y)


def apgd(q, S, x0, T, counters=None, monitor=None):
    """T accelerated projected-gradient steps on the coordinates S.

    Uses the estimate-sequence coefficient recurrence whose accumulated
    weight grows at least like (1 - 1/(2*sqrt(kappa)))^{-1} per step.
    Requires L >= alpha; ``monitor(t, y)`` sees the embedded output iterate
    after each step.
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
    counters = Counters() if counters is None else counters
    wrapped = None
    if monitor is not None:
        def wrapped(t, ys):
            full = np.zeros(q.n)
            full[S] = ys
            monitor(t, full)
    res = _apgd_loop(q, S, x0[S], T, counters, monitor=wrapped)
    out[S] = res.y
    return out


def _solution(x, gap_bound, counters, ever):
    return Solution(x, np.flatnonzero(x > 0), gap_bound, counters,
                    np.flatnonzero(ever))


def _check_eps(eps):
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))


def _negative_threshold(q, tol_neg):
    """The certainly-negative gradient threshold: ``tol_neg`` if given,
    else :func:`negative_tolerance`."""
    if tol_neg is None:
        return negative_tolerance(q)
    tol = float(tol_neg)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol_neg must be nonnegative and finite, got %r"
                         % (tol_neg,))
    return tol


def ista_baseline(q, eps, tol_neg=None, max_iter=None, counters=None):
    """Projected gradient from zero over the full orthant, sparsely.

    Only the active set (positive coordinates plus certainly-negative
    gradients) is ever stepped; each step is charged one full gradient under
    the column cost model (the access pattern is confined to the support's
    neighborhood).  Terminates once no inactive coordinate has a negative
    gradient and ||grad on support||^2 <= 2*alpha*eps, which certifies an
    objective gap of at most eps by strong convexity.  ``stages`` counts
    support-expansion events, so the already-optimal instance reports 0.
    """
    _check_eps(eps)
    counters = Counters() if counters is None else counters
    tol = _negative_threshold(q, tol_neg)
    n = q.n
    x = np.zeros(n)
    ever = np.zeros(n, dtype=bool)
    g = gradient(q, x, counters=counters)
    active = g < -tol
    if not active.any():
        return _solution(x, eps, counters, ever)
    counters.stages += 1
    A = np.flatnonzero(active)
    target = 2.0 * q.alpha * eps
    if max_iter is None:
        scale = float(np.max(np.abs(q.b))) + q.alpha
        max_iter = int(200 + 4 * q.kappa * max(
            4.0, math.log((q.L * scale / q.alpha) ** 2 / target + 2.0)))
    for _ in range(max_iter):
        pos = x > 0
        if not np.any((g < -tol) & ~pos):
            on = g[pos]
            if float(on @ on) <= target:
                return _solution(x, eps, counters, ever)
        fresh = (g < -tol) & ~active
        if fresh.any():
            active |= fresh
            A = np.flatnonzero(active)
            counters.stages += 1
        x[A] = np.maximum(0.0, x[A] - g[A] / q.L)
        counters.inner_iters += 1
        ever |= x > 0
        g = gradient(q, x, counters=counters)
    raise SolverError("baseline failed to converge in %d iterations" % max_iter)


def cdpr(q, tol_neg=None, counters=None, stage_hook=None):
    """Conjugate-directions solver: exact in |support| stages.

    Each stage pivots on the most negative gradient coordinate, extends the
    Q-orthogonal basis by Gram-Schmidt against the stored normalized
    directions (touching a single matrix row plus the direction supports),
    and takes the exact line-search step.  The gradient stays zero on all
    previous pivots, iterates are coordinatewise nondecreasing, and the
    final iterate is the exact optimizer.
    """
    counters = Counters() if counters is None else counters
    tol = _negative_threshold(q, tol_neg)
    n = q.n
    x = np.zeros(n)
    ever = np.zeros(n, dtype=bool)
    basis = ConjugateBasis()
    pivots = []
    member = np.zeros(n, dtype=bool)
    rowbuf = np.zeros(n)
    g = gradient(q, x, counters=counters)
    while True:
        neg = np.flatnonzero(g < -tol)
        if neg.size == 0:
            break
        if len(pivots) >= n:
            raise SolverError("stage count exceeded the dimension")
        i = select_pivot(neg, g[neg])
        if member[i]:
            raise SolverError(
                "pivot %d revisited; negative tolerance is below noise" % i)
        gi = float(g[i])
        cols_i, vals_i = q.row(i)
        counters.nnz_touched += int(cols_i.size)
        rowbuf[cols_i] = vals_i

        accum = np.zeros(n)
        accum[i] = gi
        for idx_k, vals_k, norm_k in zip(basis.idx, basis.vals, basis.normalized):
            coeff = -gi * float(rowbuf[idx_k] @ norm_k)
            accum[idx_k] += coeff * vals_k
        supp = np.sort(np.append(pivots, i).astype(np.int64))
        d_vals = accum[supp]

        qd, cols = _segment_row_products(q, supp, accum)
        counters.nnz_touched += int(np.count_nonzero(accum[cols]))
        curvature = float(d_vals @ qd)
        if curvature <= 0:
            raise SolverError("nonpositive curvature along a direction")
        step = -float(g[supp] @ d_vals) / curvature
        x[supp] += step * d_vals
        rowbuf[cols_i] = 0.0

        basis.add(supp, d_vals.copy(), curvature)
        pivots.append(i)
        member[i] = True
        counters.stages += 1
        ever |= x > 0
        g = gradient(q, x, counters=counters)
        if stage_hook is not None:
            stage_hook({
                "stage": len(pivots) - 1,
                "pivot": i,
                "pivots": list(pivots),
                "direction_idx": supp,
                "direction_vals": d_vals.copy(),
                "curvature": curvature,
                "step": step,
                "x": x.copy(),
                "grad": g.copy(),
            })
    return _solution(x, "exact", counters, ever)


def aspr(q, eps, variant="plain", tol_neg=None, counters=None,
         stage_hook=None):
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
    """
    _check_eps(eps)
    if variant not in ASPR_VARIANTS:
        raise ValueError("variant must be one of %s" % (ASPR_VARIANTS,))
    counters = Counters() if counters is None else counters
    tol = _negative_threshold(q, tol_neg)
    n = q.n
    alpha, L, kappa = q.alpha, q.L, q.kappa
    x = np.zeros(n)
    g = gradient(q, x, counters=counters)
    member = g < -tol
    if not member.any():
        return _solution(x, eps, counters, member)
    lower = np.zeros(n) if variant == "constraints" else None

    while True:
        if counters.stages > n:
            raise SolverError("stage count exceeded the dimension")
        counters.stages += 1
        S = np.flatnonzero(member)
        shrink = math.sqrt(eps * alpha / ((1.0 + S.size) * L * L))
        inner_gap = shrink * shrink * alpha / 2.0
        gs0 = g[S]
        norm2 = float(gs0 @ gs0)
        if norm2 == 0.0:
            T = 0
        elif L == alpha:
            T = 1
        else:
            arg = (L - alpha) * norm2 / (2.0 * inner_gap * alpha * alpha)
            if arg <= 1.0:
                T = 1
            else:
                T = 1 + math.ceil(2.0 * math.sqrt(kappa) * math.log(arg))
        lower_s = lower[S].copy() if lower is not None else None
        period = int(S.size) if variant == "early" else 0
        res = _apgd_loop(q, S, x[S], T, counters, lower=lower_s,
                         full_every=period, member=member, tol_neg=tol)
        if res.aborted:
            x = np.zeros(n)
            x[S] = res.abort_x
            g = res.abort_grad_full
            if stage_hook is not None:
                stage_hook({"stage": counters.stages - 1, "S": S,
                            "x": x.copy(), "aborted": True})
            member[res.fresh] = True
            continue
        if lower is not None:
            lower[S] = lower_s
            floor = lower_s
        else:
            floor = 0.0
        x = np.zeros(n)
        x[S] = np.maximum(floor, res.y - shrink)
        g = gradient(q, x, counters=counters)
        if lower is not None and float(np.max(g[S])) <= tol:
            np.maximum(lower, x, out=lower)
        if stage_hook is not None:
            stage_hook({"stage": counters.stages - 1, "S": S,
                        "x": x.copy(), "aborted": False})
        fresh = (g < -tol) & ~member
        if not fresh.any():
            break
        member |= fresh
    return _solution(x, eps, counters, member)


def solve(q, token, eps, tol_neg=None):
    """Run the solver named by one of SOLVER_TOKENS."""
    if token not in SOLVER_TOKENS:
        raise ValueError("unknown solver token %r (choose from %s)"
                         % (token, ", ".join(SOLVER_TOKENS)))
    name, _, variant = token.partition(":")
    if name == "cdpr":
        return cdpr(q, tol_neg=tol_neg)
    if name == "ista":
        return ista_baseline(q, eps, tol_neg=tol_neg)
    return aspr(q, eps, variant=variant or "plain", tol_neg=tol_neg)
