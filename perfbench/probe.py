"""Frozen host-speed probe.  Do not edit: scaled timings are only
comparable across commits while this file stays byte-identical.

One probe is a fixed mix of interpreter work (a 20k-step integer loop) and
numpy passes over 500k-element arrays (an axpy, a gather at stride 7919, a
dot, a compare-and-count and a strided store), the same kinds of work a
solve does.  Every array is allocated once, at import, and each pass writes
into one of them, so a probe allocates nothing: its time depends on the
host's speed, not on the allocator state that the rest of the process
leaves behind.  The module imports only numpy and the standard library,
never ``sparsepr``.
"""

import time

import numpy as np

NOMINAL_MS = 7.8  # probe time on the reference host (README, "Probe")

_N = 500_000
_A = np.arange(_N, dtype=np.float64)
_I = (np.arange(_N, dtype=np.int64) * 7919) % _N
_X = np.zeros(_N)
_Y = np.zeros(_N)
_Z = np.zeros(_N)
_M = np.zeros(_N, dtype=bool)


def probe_ms():
    """Run the probe once and return its wall time in milliseconds."""
    t = time.perf_counter_ns()
    acc = 0
    for k in range(20_000):
        acc += (k * k) % 7
    np.multiply(_A, 1.000001, out=_X)
    np.add(_X, 0.5, out=_X)
    np.take(_X, _I, out=_Y, mode="wrap")  # "raise" would buffer a copy
    acc += float(np.dot(_X, _Y))
    np.greater(_Y, 1e5, out=_M)
    acc += int(np.count_nonzero(_M))
    _Z[::3] = _Y[::3]
    return (time.perf_counter_ns() - t) * 1e-6
