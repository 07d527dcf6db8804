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
        "35b28794d3ae18a3699ad7a94f64a3a91ff8304a0dba72f5cc2abda2be04d081"),
    ("grid", "cdpr"): (
        _counters(45, 0, 9631, 46, 0), GRID_SUPPORT, GRID_SUPPORT,
        "22e36fb6c937e5a57a625301461f34995c8e5317238b13a93810ae2299f55d40"),
    ("grid", "aspr"): (
        _counters(6, 384, 40369, 7, 384), GRID_SUPPORT, GRID_SUPPORT,
        "fb2561e74f191721fa73f2c05e159439f171bad1eab623a955bd74673fcfeecf"),
    ("grid", "aspr:early"): (
        _counters(6, 208, 30205, 11, 200), GRID_SUPPORT, GRID_SUPPORT,
        "94b1a4d18c7231e0b7355b8d45af710cc2186d312deb35e9535f5035c1c00c2f"),
    ("grid", "aspr:constraints"): (
        _counters(6, 386, 40663, 7, 386), GRID_SUPPORT, GRID_SUPPORT,
        "e7bdd94dec77becfbecea505a5bb8b03dab635d4e9ad472eeff69d0c195d5cef"),
    ("sbm", "ista"): (
        _counters(10, 11, 1218, 12, 0), SBM_ISTA, SBM_ISTA,
        "72104e84ae9b6375f3fbd3fe56528e2cbeee4573fb0d61fad9927d41f1b100a9"),
    ("sbm", "cdpr"): (
        _counters(21, 0, 3608, 22, 0), SBM_OPT, SBM_OPT,
        "5785d379d14eb316f07935672d16e85bd57a6a3008200f334bb6eaf8671d2aaa"),
    ("sbm", "aspr"): (
        _counters(5, 129, 10641, 6, 129), SBM_ASPR, SBM_OPT,
        "ea7eef8da7a8ce50522b1430b04a36c1729d504bf01838193ce0aafe24626641"),
    ("sbm", "aspr:early"): (
        _counters(5, 75, 8662, 9, 70), SBM_ASPR, SBM_OPT,
        "3941df90f11cb8afe6594cc87ec34463f600c54d92894b66aa4e409eac128577"),
    ("sbm", "aspr:constraints"): (
        _counters(4, 107, 7797, 5, 107), SBM_OPT, SBM_OPT,
        "9e06848395ad0757e37917a317e6b29f743add85fe742bb02a196c21ce29be7e"),
    ("two_seed", "ista"): (
        _counters(13, 25, 3798, 26, 0), TWO_ISTA, TWO_ISTA,
        "948c4d93e7867e6d9abd27fad6a2d713cad4122835a39035958564b8117e0dbc"),
    ("two_seed", "cdpr"): (
        _counters(48, 0, 7804, 49, 0), TWO_OPT, TWO_OPT,
        "da1935eea762884dc0d0716384b247844bdbd900c9be49dbf31520434909510e"),
    ("two_seed", "aspr"): (
        _counters(7, 458, 58013, 8, 458), TWO_ASPR, TWO_OPT,
        "5d069cb38974cf3a2624159970b51d66d51f8ab1dff2c6109212deb9dc3c7b26"),
    ("two_seed", "aspr:early"): (
        _counters(6, 242, 36389, 10, 235), TWO_ASPR, TWO_OPT,
        "45e12f60f67c7326a2df434a83464bae4f093a7f8e94c099c709f03ad8bb78b4"),
    ("two_seed", "aspr:constraints"): (
        _counters(6, 410, 49016, 7, 410), TWO_OPT, TWO_OPT,
        "d8495acfd6e6caddfd12ea410685ca463d019b9ae767f7617d0f568f1529dfbf"),
}

# sha256 of the stdout of the solve in test_cli_stdout_is_pinned
CLI_STDOUT_SHA256 = \
    "42e4181567cadcd35d9f2f4b85439a353a002cba9175bceaca3d93b2becbeec4"

# sha256 of the stdout of the same solve for every solver token
CLI_TOKEN_STDOUT_SHA256 = {
    "ista":
        "2909c5567f93856f2d148289625e59f36160fdc7c10d09bbbafa64a4f97340f1",
    "cdpr": CLI_STDOUT_SHA256,
    "aspr":
        "e4f1bdbcc01fb93d99a031b7a8a882a651c40105c2609cf810a97ffd7ebcc698",
    "aspr:early":
        "eea3cd57293def04aa061100442ab5afe8074859c8d35f4a5bcfb292d1bc7c70",
    "aspr:constraints":
        "cf14bbe968276b974dbfb3ddb87fbee9565a3965b7a7d35a0e745c9e59b2b448",
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


@pytest.mark.parametrize("token", sorted(CLI_TOKEN_STDOUT_SHA256))
def test_cli_stdout_is_pinned_for_every_token(tmp_path, token):
    res = _cli_solve(tmp_path, token)
    out = json.loads(res.stdout)
    assert out["solver"] == token
    assert out["counters"] == GOLDEN[("grid", token)][0]
    assert out["residuals"]["upper_box_violations"] == []
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == CLI_TOKEN_STDOUT_SHA256[token]
