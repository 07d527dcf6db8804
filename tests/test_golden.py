"""Golden outputs: counters, supports and iterate bytes of every solver token
on two fixed instances, and the exact stdout of one ``sparsepr solve``.

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
from sparsepr.problem import build_pagerank_quadratic
from sparsepr.solvers import aspr, cdpr, ista_baseline

EPS = 1e-6

# 20x20 grid, alpha 0.1, rho 1e-3, seed at the centre node 210
GRID = {"rows": 20, "cols": 20, "alpha": 0.1, "rho": 1e-3, "seed_node": 210}
GRID_SUPPORT = [148, 149, 150, 151, 152, 167, 168, 169, 170, 171, 172, 173,
                187, 188, 189, 190, 191, 192, 193, 207, 208, 209, 210, 211,
                212, 213, 227, 228, 229, 230, 231, 232, 233, 247, 248, 249,
                250, 251, 252, 253, 268, 269, 270, 271, 272]

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
        "35b28794d3ae18a3699ad7a94f64a3a91ff8304a0dba72f5cc2abda2be04d081"),
    ("grid", "cdpr"): (
        _counters(45, 0, 9631, 46, 0), GRID_SUPPORT, GRID_SUPPORT,
        "22e36fb6c937e5a57a625301461f34995c8e5317238b13a93810ae2299f55d40"),
    ("grid", "aspr"): (
        _counters(6, 579, 43032, 7, 579), GRID_SUPPORT, GRID_SUPPORT,
        "c7d9d7ca0cb103d38f7a371ee5ead350844fb7788e90d2c8060d8888faa5cb83"),
    ("grid", "aspr:early"): (
        _counters(6, 234, 32658, 12, 224), GRID_SUPPORT, GRID_SUPPORT,
        "f728e6da072b8671dd66ca1ed33fba4ee8e3ea68ceb21910ea4124ae1c48771a"),
    ("grid", "aspr:constraints"): (
        _counters(6, 581, 43386, 7, 581), GRID_SUPPORT, GRID_SUPPORT,
        "e24446f09d688e025bdff0a68c1e1da16bca89e4474fab74ab971fcc49daf587"),
    ("sbm", "ista"): (
        _counters(10, 11, 1218, 12, 0), SBM_ISTA, SBM_ISTA,
        "72104e84ae9b6375f3fbd3fe56528e2cbeee4573fb0d61fad9927d41f1b100a9"),
    ("sbm", "cdpr"): (
        _counters(21, 0, 3608, 22, 0), SBM_OPT, SBM_OPT,
        "3f0b0d52fbd3cc6a845c479ccf6a450974204b1063f2df60e63c9f7cb839773b"),
    ("sbm", "aspr"): (
        _counters(5, 309, 16067, 6, 309), SBM_ASPR, SBM_OPT,
        "a8ff05cade3b667d6beb6034cdd5f50a9a7c3f1089b760e09b68abd56a2429f6"),
    ("sbm", "aspr:early"): (
        _counters(6, 119, 12898, 12, 110), SBM_ASPR, SBM_OPT,
        "268116f654d5ddbf2cb07882543550f2eb67c15df50329ea590859abd89dad59"),
    ("sbm", "aspr:constraints"): (
        _counters(4, 275, 11812, 5, 275), SBM_OPT, SBM_OPT,
        "576e3ed825d6e1b36cf103b07ae4af224765596da870e446294f86e12d79e48e"),
}

# sha256 of the stdout of the solve in test_cli_stdout_is_pinned
CLI_STDOUT_SHA256 = \
    "42e4181567cadcd35d9f2f4b85439a353a002cba9175bceaca3d93b2becbeec4"


@pytest.fixture(scope="module")
def quadratics():
    return {
        "grid": build_pagerank_quadratic(random_graph_instance("grid", GRID, 0)),
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


def test_cli_stdout_is_pinned(tmp_path):
    side = GRID["rows"]
    lines = []
    for v in range(side * side):
        if (v + 1) % side:
            lines.append("%d %d" % (v, v + 1))
        if v + side < side * side:
            lines.append("%d %d" % (v, v + side))
    path = tmp_path / "grid20.txt"
    path.write_text("\n".join(lines) + "\n")
    res = subprocess.run(
        [sys.executable, "-m", "sparsepr.cli", "solve", "--graph", str(path),
         "--alpha", "0.1", "--rho", "0.001", "--seed-node", "210",
         "--solver", "cdpr"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    # readable checks first, so a drift names the field that moved
    assert out["counters"] == GOLDEN[("grid", "cdpr")][0]
    assert [i for i, _ in out["x"]] == GRID_SUPPORT
    assert out["residuals"] == {
        "max_violation_positive": 2.0816681711721685e-17,
        "max_violation_zero_low": 0.0,
        "upper_box_violations": [],
    }
    x = np.zeros(side * side)
    for i, v in out["x"]:
        x[i] = v
    q = build_pagerank_quadratic(random_graph_instance("grid", GRID, 0))
    assert np.array_equal(x, cdpr(q).x)
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == CLI_STDOUT_SHA256
