"""Brute-force support enumeration: the cross-check for the reference oracle.

``sparsepr.oracle.dense_solve_active_set`` is the library's one exact
reference.  This module keeps the independent 2^n scan it is held to, bit
for bit, in ``tests/test_oracle.py``.
"""

import numpy as np

from sparsepr.oracle import OracleError, _finish

ENUMERATE_MAX_N = 16


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
    slack = 1e-12 * max(1.0, q.max_abs_b)

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
