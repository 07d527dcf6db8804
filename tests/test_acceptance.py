"""Acceptance gate: the complete behavioral contract at full scale.

Each test prints one verdict line (collected into the terminal summary via
conftest) and asserts the corresponding guarantee:

  01  exact solver matches the enumeration oracle, stage count = support size
  02  conjugate directions stay Q-orthogonal; visited pivots annihilated;
      iterates grow monotonically
  03  accelerated solver certifies its objective gap for both tolerances and
      all variants
  04  working sets and baseline iterates never leave the optimal support
  05  stage starts sandwich between zero and the working-set optimum
  06  per-iteration contraction/gap bounds hold for 500 steps on conditioned
      subspace problems
  07  lowering one coordinate never lowers any other coordinate's gradient
  08  harvested solver states satisfy the subspace geometry checks
  09  optimal-support volume respects the regularization budget
  10  inner-iteration counts scale like sqrt(conditioning) accelerated,
      linearly unaccelerated
  11  command-line solve output is byte-stable and the full verification
      suite exits clean
"""

import subprocess
import sys

import pytest

from sparsepr.suites import (
    make_corpus,
    scaling_slopes,
    suite_aspr,
    suite_cdpr,
    suite_geometry,
    suite_rates,
)

import conftest

SEED = 7
MAX_N = 12


def record(num, result):
    line = "criterion %02d | %s" % (num, result.line())
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    detail = "\n".join(result.failures) if result.failures else result.detail
    assert result.passed, "%s\n%s" % (line, detail)


def record_plain(num, passed, text):
    line = "criterion %02d | %s %s" % (num, "PASS" if passed else "FAIL", text)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def corpus():
    # 200 general M-matrix instances + 50 PageRank instances, all n <= 12
    return make_corpus(num_mm=200, num_pr=50, max_n=MAX_N, seed=SEED)


@pytest.fixture(scope="module")
def cdpr_results(corpus):
    return {r.name: r for r in suite_cdpr(corpus)}


@pytest.fixture(scope="module")
def aspr_results(corpus):
    return {r.name: r for r in suite_aspr(corpus)}


@pytest.fixture(scope="module")
def rates_results():
    # 50 subspace problems with conditioning spread across [1, 1e4]
    return {r.name: r for r in suite_rates(100, SEED)}


@pytest.fixture(scope="module")
def geometry_results(corpus):
    # 1e5 monotonicity tuples, 1e3 harvested states, volume bound on the
    # PageRank portion of the corpus
    return {r.name: r for r in suite_geometry(corpus, 100)}


def test_01_exact_solver_matches_oracle(cdpr_results):
    result = cdpr_results["cdpr/exact_minimizer_and_stage_count"]
    assert result.checked == 250
    record(1, result)


def test_02_conjugacy_annihilation_monotonicity(cdpr_results):
    result = cdpr_results["cdpr/conjugacy_annihilation_monotonicity"]
    assert result.checked == 250
    record(2, result)


def test_03_certified_gap_all_variants(aspr_results):
    result = aspr_results["aspr/certified_gap"]
    # 250 instances x {1e-3, 1e-6} x {plain, early, constraints}
    assert result.checked == 250 * 2 * 3
    record(3, result)


def test_04_support_purity(aspr_results):
    result = aspr_results["aspr+ista/support_purity"]
    assert result.checked >= 250
    record(4, result)


def test_05_stage_sandwich(aspr_results):
    result = aspr_results["aspr/subspace_sandwich"]
    assert result.checked > 0
    record(5, result)


def test_06_iteration_rate_bounds(rates_results):
    contraction = rates_results["rates/pgd_distance_contraction"]
    gap_bound = rates_results["rates/apgd_gap_bound"]
    growth = rates_results["rates/apgd_weight_growth"]
    assert contraction.checked == 50 and gap_bound.checked == 50
    record(6, contraction)
    record(6, gap_bound)
    record(6, growth)


def test_07_gradient_monotonicity_bulk(geometry_results):
    result = geometry_results["geometry/gradient_monotonicity"]
    assert result.checked == 100000
    record(7, result)


def test_08_harvested_state_geometry(geometry_results):
    result = geometry_results["geometry/subspace_states"]
    assert result.checked == 1000, result.line()
    record(8, result)


def test_09_support_volume_bound(geometry_results):
    result = geometry_results["geometry/support_volume_bound"]
    assert result.checked == 50  # every PageRank instance in the corpus
    record(9, result)


def test_10_conditioning_scaling_slopes():
    slopes = scaling_slopes()
    aspr_slope = slopes["aspr_slope"]
    ista_slope = slopes["ista_slope"]
    ok = 0.35 <= aspr_slope <= 0.65 and 0.8 <= ista_slope <= 1.2
    record_plain(10, ok,
                 "scaling: accelerated inner-iteration exponent %.3f in "
                 "[0.35, 0.65], baseline exponent %.3f in [0.8, 1.2]"
                 % (aspr_slope, ista_slope))


def _solve_args(graph, solver, rho, extra=()):
    return [sys.executable, "-m", "sparsepr.cli", "solve", "--graph", graph,
            "--alpha", "0.5", "--rho", rho, "--seed-node", "0",
            "--solver", solver] + list(extra)


def test_11_cli_contract(tmp_path):
    graph = tmp_path / "two.txt"
    graph.write_text("0 1\n")
    commands = [
        _solve_args(str(graph), "cdpr", "0.1"),
        _solve_args(str(graph), "cdpr", "1.0"),
        _solve_args(str(graph), "aspr", "0.1", ["--eps", "1e-6"]),
    ]
    stable = True
    for cmd in commands:
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        if not (first.returncode == second.returncode == 0
                and first.stdout == second.stdout):
            stable = False
    record_plain(11, stable, "solve output byte-stable across runs "
                             "(3 worked examples, 2 runs each)")
    verify = subprocess.run(
        [sys.executable, "-m", "sparsepr.cli", "verify", "--suite", "all",
         "--instances", "100", "--max-n", "12", "--seed", "7"],
        capture_output=True, text=True)
    assert verify.returncode == 0, verify.stdout + verify.stderr
    record_plain(11, True, "full verification suite exits 0 "
                           "(instances=100, max-n=12, seed=7)")
