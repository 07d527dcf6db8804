"""Reference answers built without ``sparsepr``, and the output checks.

The PageRank quadratic is rebuilt with scipy from the generator's edge
arrays and seed vectors:

    Q = alpha*I + (1-alpha)/2 * (I - D^{-1/2} A D^{-1/2})
    b = alpha * (D^{-1/2} s - rho * D^{1/2} 1)

Its minimizer x* over x >= 0 is found by a monotone active-set iteration:
start from S = {i : b_i > 0}, solve Q_SS x_S = b_S, add every coordinate
whose gradient is negative, and repeat.  Because Q is an M-matrix, each
iterate is nonnegative and below x*, so S only grows and stays inside
supp(x*).  The result is accepted only if it passes the KKT conditions
checked independently: x_S > 0, |grad| tiny on S, grad >= -tol off S.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

KKT_RTOL = 1e-10     # gradient tolerance, relative to max|b|
MATCH_RTOL = 1e-9    # exact answers: max|x - x*| relative to max x*
CAP_TIE_ULPS = 4     # a cap witness within this of its cap is a rounding tie


class CheckFailed(AssertionError):
    """A program output disagrees with the reference."""


class Hessian:
    """Q of one graph and teleport weight, from an (m, 2) edge array."""

    def __init__(self, n, edges, alpha):
        e = np.asarray(edges, dtype=np.int64)
        ones = np.ones(2 * len(e))
        adj = sp.csr_matrix((ones, (np.concatenate([e[:, 0], e[:, 1]]),
                                    np.concatenate([e[:, 1], e[:, 0]]))),
                            shape=(n, n))
        self.degrees = np.asarray(adj.sum(axis=1)).ravel()
        self.sqrt_d = np.sqrt(self.degrees)
        dinv = sp.diags(1.0 / self.sqrt_d)
        self.Q = (sp.identity(n, format="csr") * ((1.0 + alpha) / 2.0)
                  - ((1.0 - alpha) / 2.0) * (dinv @ adj @ dinv)).tocsr()
        self.Q.sort_indices()
        self.n = n
        self.edges = e
        self.alpha = alpha

    def linear_term(self, rho, s):
        return self.alpha * (s / self.sqrt_d - rho * self.sqrt_d)

    def volume(self, S):
        """Stored nonzeros of Q in the columns S (degree + 1 each)."""
        return int(np.sum(self.degrees[S]) + len(S))


@dataclasses.dataclass
class Reference:
    """x* of one query, with its gradient and the scale of b."""

    hess: Hessian
    b: np.ndarray
    x: np.ndarray
    grad: np.ndarray
    support: np.ndarray
    scale: float

    def objective_gap(self, x):
        """g(x) - g(x*), written so that no large terms cancel."""
        d = x - self.x
        return 0.5 * float(d @ (self.hess.Q @ d)) + float(self.grad @ d)


def kkt_violation(hess, b, x):
    """Return why x fails the KKT conditions, or None if it passes."""
    scale = float(np.max(np.abs(b)))
    tol = KKT_RTOL * scale
    g = hess.Q @ x - b
    pos = x > 0
    if (x < 0).any() or not np.isfinite(x).all():
        return "x has negative or non-finite entries"
    if pos.any() and float(np.max(np.abs(g[pos]))) > tol:
        return "gradient %.3g on the support" % float(np.max(np.abs(g[pos])))
    if (~pos).any() and float(np.min(g[~pos])) < -tol:
        return "gradient %.3g off the support" % float(np.min(g[~pos]))
    return None


def solve(hess, rho, s):
    """The minimizer of the query (hess, rho, s), certified by KKT."""
    b = hess.linear_term(rho, s)
    tol = KKT_RTOL * float(np.max(np.abs(b)))
    x = np.zeros(hess.n)
    S = np.flatnonzero(b > 0)
    while S.size:
        x = np.zeros(hess.n)
        x[S] = spsolve(hess.Q[S][:, S].tocsc(), b[S])
        g = hess.Q @ x - b
        grow = np.flatnonzero(g < -tol)
        grow = grow[x[grow] == 0]
        if grow.size == 0:
            break
        S = np.union1d(S, grow)
    why = kkt_violation(hess, b, x)
    if why is not None:
        raise CheckFailed("reference rejected by its own KKT check: " + why)
    return Reference(hess, b, x, hess.Q @ x - b, np.flatnonzero(x > 0),
                     float(np.max(np.abs(b))))


def check_exact(ref, x, stages=None):
    """An exact solver's x matches x*; its stage count equals |supp(x*)|."""
    err = float(np.max(np.abs(x - ref.x)))
    if not err <= MATCH_RTOL * float(np.max(ref.x, initial=1.0)):
        raise CheckFailed("max |x - x*| = %.3g" % err)
    if stages is not None and stages != ref.support.size:
        raise CheckFailed("%d stages for a support of %d"
                          % (stages, ref.support.size))


def check_certified(ref, x, eps):
    """An eps-solver's x is feasible, within eps of g(x*), inside supp(x*)."""
    if (x < 0).any() or not np.isfinite(x).all():
        raise CheckFailed("x has negative or non-finite entries")
    gap = ref.objective_gap(x)
    if not gap <= eps:
        raise CheckFailed("objective gap %.3g above eps %.3g" % (gap, eps))
    outside = np.setdiff1d(np.flatnonzero(x > 0), ref.support)
    if outside.size:
        raise CheckFailed("%d coordinates outside supp(x*), first %d"
                          % (outside.size, outside[0]))


def cap_ties(ref, x, cap, witnesses):
    """Return the cap witnesses at x* if every one is a rounding tie; raise
    CheckFailed if any is not.

    At a zero coordinate with no neighbour in supp(x), the gradient is
    exactly ``-b_i = alpha*(rho*sqrt(d_i))``, which equals the PageRank cap
    ``alpha*rho*sqrt(d_i)`` in exact arithmetic.  A tie is such a coordinate
    whose ``-b_i`` rounds above its cap by at most CAP_TIE_ULPS units in the
    last place.  Any other witness means a wrong cap or gradient.
    """
    w = np.asarray(witnesses, dtype=np.int64)
    if w.size == 0:
        return w
    x = np.asarray(x, dtype=float)
    cap = np.asarray(cap, dtype=float)[w]
    # Q's off-diagonal entries are negative, so this is 0 only for a row
    # with no neighbour in supp(x)
    near = ref.hess.Q[w] @ (x > 0).astype(float)
    over = -ref.b[w] - cap
    tie = ((x[w] == 0) & (near == 0) & (over > 0)
           & (over <= CAP_TIE_ULPS * np.spacing(cap)))
    if not tie.all():
        raise CheckFailed("%d cap witnesses at x* are not rounding ties, first %d"
                          % (np.count_nonzero(~tie), w[~tie][0]))
    return w


def check_close(name, got, want, scale):
    """Two arrays agree to rounding, relative to ``scale``."""
    got = np.asarray(got, dtype=float)
    if got.shape != np.shape(want):
        raise CheckFailed("%s has shape %s, expected %s"
                          % (name, got.shape, np.shape(want)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= 1e-12 * scale:
        raise CheckFailed("%s differs by %.3g" % (name, err))
