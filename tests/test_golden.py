"""Golden outputs: counters, supports and iterate bytes of every solver token
on three fixed instances, and the exact stdout of ``sparsepr solve`` for
every solver token.

These pin behaviour that refactors must not change.  A failure here means an
output moved, not that it became wrong; update a value only together with a
CHANGES.md line that says why it moved.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from sparsepr.oracle import random_graph_instance
from sparsepr.problem import PageRankInstance, build_pagerank_quadratic
from sparsepr.solvers import aspr, cdpr, ista_baseline

EPS = 1e-6

# 20x20 grid, alpha 0.1, rho 1e-3, seed at the centre node 210
GRID = {"rows": 20, "cols": 20, "alpha": 0.1, "rho": 1e-3, "seed_node": 210}
GRID_SUPPORT = [148, 149, 150, 151, 152, 167, 168, 169, 170, 171, 172, 173,
                187, 188, 189, 190, 191, 192, 193, 207, 208, 209, 210, 211,
                212, 213, 227, 228, 229, 230, 231, 232, 233, 247, 248, 249,
                250, 251, 252, 253, 268, 269, 270, 271, 272]

# the same grid seeded by the distribution 0.7/0.3 on the far-apart nodes 21
# and 378: while the solvers work near node 21, node 378 is a negative
# gradient far outside every coordinate touched so far
TWO_SEED = {21: 0.7, 378: 0.3}
TWO_OPT = [0, 1, 2, 3, 4, 5, 20, 21, 22, 23, 24, 25, 40, 41, 42, 43, 44, 60,
           61, 62, 63, 64, 80, 81, 82, 83, 100, 101, 318, 319, 336, 337, 338,
           339, 356, 357, 358, 359, 375, 376, 377, 378, 379, 395, 396, 397,
           398, 399]
TWO_ISTA = [0, 1, 2, 3, 4, 5, 20, 21, 22, 23, 24, 40, 41, 42, 43, 44, 60, 61,
            62, 63, 80, 81, 82, 100, 318, 319, 337, 338, 339, 356, 357, 358,
            359, 375, 376, 377, 378, 379, 395, 396, 397, 398, 399]
TWO_ASPR = [i for i in TWO_OPT if i != 336]

# an irregular two-block graph on which aspr:early aborts stages
SBM = {"sizes": [30, 30], "p_in": 0.3, "p_out": 0.02, "alpha": 0.15,
       "rho": 2e-3, "seed_node": 7}
SBM_SEED = 11
SBM_OPT = [0, 1, 2, 3, 4, 5, 6, 7, 10, 13, 14, 15, 17, 18, 19, 20, 21, 26, 27,
           28, 48]
SBM_ISTA = [0, 1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 17, 18, 19, 20, 21, 26, 27,
            28, 48]
SBM_ASPR = [0, 1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 17, 19, 20, 21, 26, 27, 28,
            48]


def _counters(stages, inner, nnz, full, restricted):
    return {"stages": stages, "inner_iters": inner, "nnz_touched": nnz,
            "full_gradients": full, "restricted_gradients": restricted}


# (instance, token) -> (counters, support, ever_positive, sha256 of x bytes)
GOLDEN = {
    ("grid", "ista"): (
        _counters(8, 22, 3330, 23, 0), GRID_SUPPORT, GRID_SUPPORT,
        "9d724d57976fa61a66bea411177d073dc9699fc8390a2101cabdfd003bfac9b6"),
    ("grid", "cdpr"): (
        _counters(45, 0, 9631, 46, 0), GRID_SUPPORT, GRID_SUPPORT,
        "65a9755856066eb7bc20fb32782201418142996d882f90e024a774af4243e890"),
    ("grid", "aspr"): (
        _counters(6, 96, 10749, 7, 96), GRID_SUPPORT, GRID_SUPPORT,
        "17bbfdcc9c9939d0b83f6802cfcda160f47cf9424289914871ee53e2cd141f19"),
    ("grid", "aspr:early"): (
        _counters(6, 81, 10336, 8, 78), GRID_SUPPORT, GRID_SUPPORT,
        "ffe51ac7de36fd5f2585d893892329273aec3be836b9d814d5661b5a755a97cc"),
    ("grid", "aspr:constraints"): (
        _counters(6, 95, 10552, 7, 95), GRID_SUPPORT, GRID_SUPPORT,
        "8083871a594939e1e8205d03fcb7b5a6db8c12b82874f3ce2f1c8cea7a6e5884"),
    ("sbm", "ista"): (
        _counters(10, 11, 1218, 12, 0), SBM_ISTA, SBM_ISTA,
        "de543829734dbd584b809b7e1f9d4fa52b6041b139a2bf498d8678dc13451996"),
    ("sbm", "cdpr"): (
        _counters(21, 0, 3608, 22, 0), SBM_OPT, SBM_OPT,
        "1ba6d809ee7de06acd4a0bae981b76290e58d797dc8377d05ad389e608dfde9c"),
    ("sbm", "aspr"): (
        _counters(5, 46, 4146, 6, 46), SBM_ASPR, SBM_OPT,
        "cee1c82ef4a94ad97f7800c2132c35a9589dd7a8e4f0db42f1f0239b1cd45cd6"),
    ("sbm", "aspr:early"): (
        _counters(5, 39, 3900, 7, 36), SBM_ASPR, SBM_OPT,
        "6da3ad82a874ac38efee8c9477a3355a4c711c3574b95c98595230e8bf0a01d1"),
    ("sbm", "aspr:constraints"): (
        _counters(4, 36, 2757, 5, 36), SBM_OPT, SBM_OPT,
        "3a7476d5b2594d7508221f5f43fcb0bf0bd2b309bc872e681076a8fedc66e094"),
    ("two_seed", "ista"): (
        _counters(13, 25, 3798, 26, 0), TWO_ISTA, TWO_ISTA,
        "5aaca2ea5270e5ec1d4acd68b7ce1cbdac436c0b29dcfbcb037a780fb3649f48"),
    ("two_seed", "cdpr"): (
        _counters(48, 0, 7804, 49, 0), TWO_OPT, TWO_OPT,
        "53c47e75c0395e76fa9275c057a287651926574186429c60e479843b3efc5604"),
    ("two_seed", "aspr"): (
        _counters(7, 125, 17269, 8, 125), TWO_ASPR, TWO_OPT,
        "a62edb8ad5e9a935d802a021c61e507345613172facb709c8af623731fe7767a"),
    ("two_seed", "aspr:early"): (
        _counters(7, 119, 16957, 8, 117), TWO_ASPR, TWO_OPT,
        "398750af1cfd3ebbef32e9542539193db0dd02d9dbadf7eb1c662c6033a8c0c2"),
    ("two_seed", "aspr:constraints"): (
        _counters(6, 105, 13350, 7, 105), TWO_OPT, TWO_OPT,
        "901a43ff161ef079d37e97adc3926bd0b450bcf1c9ba1bb7296692a987a00b38"),
}

# sha256 of the stdout of the solve in test_cli_stdout_is_pinned
CLI_STDOUT_SHA256 = \
    "aff37c7b5550c3127e2297749ceacc4e5da4dd60e9ed56e816692d13f804c47e"

# sha256 of the stdout of the same solve for every solver token
CLI_TOKEN_STDOUT_SHA256 = {
    "ista":
        "2a15f1f2614de0b34071315cef3b3bd02995b79772b7fef82ad162d8d1f6ac53",
    "cdpr": CLI_STDOUT_SHA256,
    "aspr":
        "26ee004dd390d0798ff9b98b6d76e525fe37a6da85403f3bba202d1fa7d64602",
    "aspr:early":
        "99e43a3b646fae6a9f97831968436dcb858cc92ec8cccb63c694c6e39252963c",
    "aspr:constraints":
        "805f4bf6a335906412e598a41bde21c6ee7c5a774b0c1846a1224337d9d803a0",
}


@pytest.fixture(scope="module")
def quadratics():
    grid = random_graph_instance("grid", GRID, 0)
    dist = np.zeros(grid.graph.n)
    for node, weight in TWO_SEED.items():
        dist[node] = weight
    return {
        "grid": build_pagerank_quadratic(grid),
        "two_seed": build_pagerank_quadratic(
            PageRankInstance(grid.graph, GRID["alpha"], GRID["rho"], dist)),
        "sbm": build_pagerank_quadratic(
            random_graph_instance("sbm", SBM, SBM_SEED)),
    }


def _run(q, token):
    name, _, variant = token.partition(":")
    if name == "cdpr":
        return cdpr(q)
    if name == "ista":
        return ista_baseline(q, EPS)
    return aspr(q, EPS, variant=variant or "plain")


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_solver_outputs_are_pinned(quadratics, key):
    counters, support, ever, digest = GOLDEN[key]
    sol = _run(quadratics[key[0]], key[1])
    assert sol.counters.as_dict() == counters
    assert sol.support.tolist() == support
    assert sol.ever_positive.tolist() == ever
    assert sol.gap_bound == ("exact" if key[1] == "cdpr" else EPS)
    assert hashlib.sha256(sol.x.tobytes()).hexdigest() == digest


def _cli_solve(tmp_path, token):
    """``sparsepr solve`` of the golden grid instance, read from an edge list."""
    side = GRID["rows"]
    lines = []
    for v in range(side * side):
        if (v + 1) % side:
            lines.append("%d %d" % (v, v + 1))
        if v + side < side * side:
            lines.append("%d %d" % (v, v + side))
    path = tmp_path / "grid20.txt"
    path.write_text("\n".join(lines) + "\n")
    name, _, variant = token.partition(":")
    res = subprocess.run(
        [sys.executable, "-m", "sparsepr.cli", "solve", "--graph", str(path),
         "--alpha", "0.1", "--rho", "0.001", "--seed-node", "210",
         "--solver", name] + (["--variant", variant] if variant else []),
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res


def test_cli_stdout_is_pinned(tmp_path):
    side = GRID["rows"]
    res = _cli_solve(tmp_path, "cdpr")
    out = json.loads(res.stdout)
    # readable checks first, so a drift names the field that moved
    assert out["counters"] == GOLDEN[("grid", "cdpr")][0]
    assert [i for i, _ in out["x"]] == GRID_SUPPORT
    assert out["residuals"] == {
        "max_violation_positive": 1.3877787807814457e-17,
        "max_violation_zero_low": 0.0,
        "upper_box_violations": [],
    }
    x = np.zeros(side * side)
    for i, v in out["x"]:
        x[i] = v
    q = build_pagerank_quadratic(random_graph_instance("grid", GRID, 0))
    assert np.array_equal(x, cdpr(q).x)
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == CLI_STDOUT_SHA256


@pytest.mark.parametrize("token", sorted(CLI_TOKEN_STDOUT_SHA256))
def test_cli_stdout_is_pinned_for_every_token(tmp_path, token):
    res = _cli_solve(tmp_path, token)
    out = json.loads(res.stdout)
    assert out["solver"] == token
    assert out["counters"] == GOLDEN[("grid", token)][0]
    assert out["residuals"]["upper_box_violations"] == []
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == CLI_TOKEN_STDOUT_SHA256[token]
