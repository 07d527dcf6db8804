"""End-to-end command-line behavior: output schema, byte stability,
exit codes."""

import dataclasses
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sparsepr import cli
from sparsepr.solvers import SOLVER_TOKENS
from sparsepr.suites import make_corpus

CLI = [sys.executable, "-m", "sparsepr.cli"]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def two_node_file(tmp_path):
    p = tmp_path / "two.txt"
    p.write_text("0 1\n")
    return str(p)


def solve_args(two_node_file, solver, rho="0.1", extra=()):
    return ["solve", "--graph", two_node_file, "--alpha", "0.5",
            "--rho", rho, "--seed-node", "0", "--solver", solver] + list(extra)


class TestSolve:
    def test_exact_solver_worked_example(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "cdpr"))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert set(out) == {"solver", "x", "support_size", "gap_bound",
                            "counters", "residuals"}
        assert out["solver"] == "cdpr"
        assert out["gap_bound"] == "exact"
        assert out["support_size"] == 2
        nodes = [pair[0] for pair in out["x"]]
        values = [pair[1] for pair in out["x"]]
        assert nodes == [0, 1]
        assert abs(values[0] - 0.65) <= 1e-9
        assert abs(values[1] - 0.15) <= 1e-9
        assert out["counters"]["stages"] == 2
        assert out["residuals"]["max_violation_positive"] <= 1e-10
        assert out["residuals"]["upper_box_violations"] == []

    def test_heavy_regularization_empty_support(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "cdpr", rho="1.0"))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["x"] == []
        assert out["support_size"] == 0
        assert out["counters"]["stages"] == 0

    def test_accelerated_solver_certifies_gap(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "aspr", extra=["--eps", "1e-6"]))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["gap_bound"] == 1e-6
        nodes = [pair[0] for pair in out["x"]]
        assert set(nodes) <= {0, 1}
        # eps-accurate in objective means sqrt(2*eps/alpha)-accurate in x
        for node, value in out["x"]:
            target = 0.65 if node == 0 else 0.15
            assert abs(value - target) <= 2e-3

    @pytest.mark.parametrize("solver,extra", [
        ("cdpr", ()),
        ("cdpr", ("--rho", "1.0")),
        ("aspr", ("--eps", "1e-6")),
    ])
    def test_byte_stable_across_runs(self, two_node_file, solver, extra):
        args = solve_args(two_node_file, solver)
        if extra and extra[0] == "--rho":
            args = solve_args(two_node_file, solver, rho=extra[1])
        elif extra:
            args += list(extra)
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_json_file_output(self, two_node_file, tmp_path):
        out_path = tmp_path / "result.json"
        res = run_cli(*solve_args(two_node_file, "cdpr",
                                  extra=["--json", str(out_path)]))
        assert res.returncode == 0
        on_disk = out_path.read_text()
        assert on_disk == res.stdout
        json.loads(on_disk)

    def test_distribution_file(self, two_node_file, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("0 1.0\n")
        res = run_cli("solve", "--graph", two_node_file, "--alpha", "0.5",
                      "--rho", "0.1", "--dist", str(dist), "--solver", "cdpr")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert abs(out["x"][0][1] - 0.65) <= 1e-9

    def test_matrixmarket_input(self, tmp_path):
        mm = tmp_path / "g.mtx"
        mm.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n")
        res = run_cli("solve", "--graph", str(mm), "--format", "matrixmarket",
                      "--alpha", "0.5", "--rho", "0.1", "--seed-node", "0",
                      "--solver", "cdpr")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert abs(out["x"][0][1] - 0.65) <= 1e-9

    def test_ista_solver(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "ista", extra=["--eps", "1e-8"]))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["solver"] == "ista"
        assert out["gap_bound"] == 1e-8
        assert abs(out["x"][0][1] - 0.65) <= 1e-3

    def test_aspr_variant_flag(self, two_node_file):
        for variant in ("early", "constraints"):
            res = run_cli(*solve_args(two_node_file, "aspr",
                                      extra=["--variant", variant]))
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["support_size"] == 2

    @pytest.mark.parametrize("alpha", ["1e-5", "1e-6"])
    def test_cdpr_solves_at_a_tiny_alpha(self, tmp_path, alpha):
        # negative_tolerance(q) fell below the rounding of the gradient on
        # the pivots, and a pivot read as negative again: exit 3 with
        # "pivot 3 revisited".  The raised threshold leaves the answer with
        # a gap bound, not "exact"
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        res = run_cli("solve", "--graph", str(path), "--alpha", alpha,
                      "--rho", "1e-3", "--seed-node", "0", "--solver", "cdpr")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert 0.0 < out["gap_bound"] < 1e-26
        assert [i for i, _ in out["x"]] == [0, 1, 2, 3]
        assert out["residuals"]["max_violation_positive"] <= 1e-16
        assert out["residuals"]["max_violation_zero_low"] == 0.0


class TestSolveErrors:
    def test_missing_graph_file(self, tmp_path):
        res = run_cli("solve", "--graph", str(tmp_path / "nope.txt"),
                      "--alpha", "0.5", "--rho", "0.1", "--seed-node", "0",
                      "--solver", "cdpr")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_malformed_graph_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 0\n")
        res = run_cli("solve", "--graph", str(p), "--alpha", "0.5",
                      "--rho", "0.1", "--seed-node", "0", "--solver", "cdpr")
        assert res.returncode == 2
        assert "self-loop" in res.stderr

    def test_variant_requires_accelerated_solver(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "cdpr",
                                  extra=["--variant", "early"]))
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_unknown_solver_is_usage_error(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "newton"))
        assert res.returncode == 2

    def test_unreachable_tolerance_is_solver_failure(self, two_node_file):
        res = run_cli(*solve_args(two_node_file, "ista",
                                  extra=["--eps", "1e-300"]))
        assert res.returncode == 3
        assert "solver error:" in res.stderr

    @pytest.mark.parametrize("solver, flag, value", [
        ("aspr", "--eps", "inf"),
        ("ista", "--eps", "nan"),
        ("cdpr", "--eps", "nan"),
        ("cdpr", "--eps", "inf"),
        ("cdpr", "--eps", "0"),
        ("cdpr", "--eps", "-1"),
    ])
    def test_bad_tolerance_is_input_error(self, two_node_file, solver, flag,
                                          value):
        res = run_cli(*solve_args(two_node_file, solver, extra=[flag, value]))
        assert res.returncode == 2
        assert "error:" in res.stderr and "finite" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("solver, alpha, eps", [
        ("ista", "0.1", "5e-324"),
        ("aspr", "0.1", "5e-324"),
        ("ista", "0.1", "1e-320"),
        ("aspr", "0.1", "1e-320"),
        ("ista", "1e-320", "1e-6"),
    ])
    def test_tolerance_too_small_for_alpha_is_input_error(self, tmp_path,
                                                          solver, alpha, eps):
        # 2*alpha*eps underflowed: the solvers divided by zero or overflowed
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        res = run_cli("solve", "--graph", str(path), "--alpha", alpha,
                      "--rho", "1e-3", "--seed-node", "0", "--solver", solver,
                      "--eps", eps)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert "eps=" in res.stderr and "alpha=" in res.stderr

    @pytest.mark.parametrize("solver, alpha, eps", [
        ("aspr", "1e-80", "1e-200"),
        ("aspr", "1e-75", "1e-200"),
        ("ista", "1e-100", "1e-200"),
    ])
    def test_alpha_too_small_for_the_iteration_budget_is_input_error(
            self, tmp_path, solver, alpha, eps):
        # aspr's inner length divided by an underflowed zero or ran for a
        # budget of order sqrt(1/alpha); ista's max_iter is of order 1/alpha.
        # At eps 1e-200 aspr's working set reaches the whole path, whose
        # smallest eigenvalue is alpha itself
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        res = run_cli("solve", "--graph", str(path), "--alpha", alpha,
                      "--rho", "1e-3", "--seed-node", "0", "--solver", solver,
                      "--eps", eps, timeout=60)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("error: alpha=%s is too small" % alpha)

    @pytest.mark.parametrize("alpha", ["1e-80", "1e-75"])
    def test_tiny_alpha_answer_meets_eps(self, tmp_path, capsys, alpha):
        # |f*| is far below eps = 1e-6 here, so x = 0 meets it: aspr's first
        # working set {0} is a 1x1 block of about 0.5, which a stage sized by
        # 1/alpha could not finish
        from sparsepr import Graph, PageRankInstance, build_pagerank_quadratic
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        assert cli.main(["solve", "--graph", str(path), "--alpha", alpha,
                         "--rho", "1e-3", "--seed-node", "0", "--solver",
                         "aspr", "--eps", "1e-6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap_bound"] == 1e-6
        # f(x) - f* <= ||v||^2 / (2 alpha) for v the least-norm element of
        # the subdifferential at x, taken from the full gradient here
        x = np.zeros(4)
        for i, v in out["x"]:
            x[i] = v
        q = build_pagerank_quadratic(PageRankInstance(
            Graph(4, [(0, 1), (1, 2), (2, 3)]), float(alpha), 1e-3, 0))
        g = q.Q @ x - q.b
        v = np.where(x > 0, g, np.minimum(g, 0.0))
        assert v @ v / (2 * float(alpha)) <= 1e-6

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_is_input_error(self, two_node_file, rho):
        res = run_cli(*solve_args(two_node_file, "cdpr", rho=rho))
        assert res.returncode == 2
        assert "rho must be positive and finite" in res.stderr
        assert res.stdout == ""

    def test_non_finite_distribution_weight_is_input_error(self, two_node_file,
                                                           tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("0 nan\n")
        res = run_cli("solve", "--graph", two_node_file, "--alpha", "0.5",
                      "--rho", "0.1", "--dist", str(dist), "--solver", "cdpr")
        assert res.returncode == 2
        assert "line 1: non-finite weight" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_answer_prints_no_json(self, two_node_file, monkeypatch,
                                              capsys, value):
        from sparsepr import cli

        def solve(q, token, eps):
            return dataclasses.replace(real_solve(q, token, eps),
                                       gap_bound=value)

        real_solve = cli.solve
        monkeypatch.setattr(cli, "solve", solve)
        assert cli.main(solve_args(two_node_file, "aspr")) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("solver error: the answer holds a non-finite "
                              "value")

    def test_seed_node_out_of_range(self, two_node_file):
        res = run_cli("solve", "--graph", two_node_file, "--alpha", "0.5",
                      "--rho", "0.1", "--seed-node", "9", "--solver", "cdpr")
        assert res.returncode == 2

    def test_id_beyond_int64_is_an_input_error(self, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text("0 1\n1 99999999999999999999\n")
        res = run_cli(*solve_args(str(p), "cdpr"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: line 2: ")
        assert "Traceback" not in res.stderr


class TestVerify:
    def test_small_suite_passes(self):
        res = run_cli("verify", "--suite", "cdpr", "--instances", "8",
                      "--max-n", "8", "--seed", "3")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "PASS" in res.stdout
        assert "FAIL" not in res.stdout
        assert "all 2 invariants passed" in res.stdout

    def test_smallest_max_n_passes(self, capsys):
        # families too big for max_n hold a path of max_n nodes instead
        from sparsepr import cli
        assert cli.main(["verify", "--suite", "cdpr", "--instances", "8",
                         "--max-n", "2", "--seed", "7"]) == 0
        assert "all 2 invariants passed" in capsys.readouterr().out
        for max_n in (2, 3, 5):
            corpus = make_corpus(8, 10, max_n, 7)
            assert max(item.q.n for item in corpus) <= max_n

    def test_readme_sample_is_byte_identical(self, capsys):
        # the README's Verify block is the documented output of this command
        from sparsepr import cli
        args = ["verify", "--suite", "all", "--instances", "20",
                "--max-n", "8", "--seed", "7"]
        prompt = "$ sparsepr " + " ".join(args) + "\n"
        text = README.read_text(encoding="utf-8")
        start = text.index(prompt) + len(prompt)
        expected = text[start:text.index("```", start)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == expected

    def test_readme_library_use_block_runs(self):
        text = README.read_text(encoding="utf-8")
        fence = "```python\n"
        start = text.index(fence, text.index("## Library use")) + len(fence)
        code = text[start:text.index("```", start)]
        exec(compile(code, str(README), "exec"), {})

    @pytest.mark.parametrize("suite, instances, expected", [
        ("cdpr", "8",
         "PASS cdpr/exact_minimizer_and_stage_count: 10 checks, "
         "worst 7.288e-16\n"
         "PASS cdpr/conjugacy_annihilation_monotonicity: 10 checks, "
         "worst 7.919e-16\n"
         "all 2 invariants passed (instances=8, max-n=40, seed=7)\n"),
        ("all", "20",
         "PASS geometry/gradient_monotonicity: 20000 checks, worst 0.000e+00\n"
         "PASS geometry/subspace_states: 200 checks (target 200)\n"
         "PASS geometry/support_volume_bound: 5 checks, worst 0.000e+00\n"
         "PASS rates/pgd_distance_contraction: 10 checks, worst 0.000e+00\n"
         "PASS rates/apgd_gap_bound: 10 checks, worst 0.000e+00\n"
         "PASS rates/apgd_weight_growth: 71 checks, worst 5.025e-03\n"
         "PASS cdpr/exact_minimizer_and_stage_count: 25 checks, "
         "worst 7.288e-16\n"
         "PASS cdpr/conjugacy_annihilation_monotonicity: 25 checks, "
         "worst 9.298e-16\n"
         "PASS aspr/certified_gap: 150 checks, worst 3.267e-01\n"
         "PASS aspr+ista/support_purity: 175 checks\n"
         "PASS aspr/subspace_sandwich: 53 checks, worst 0.000e+00\n"
         "all 11 invariants passed (instances=20, max-n=40, seed=7)\n"),
    ], ids=["cdpr", "all"])
    def test_stdout_above_the_enumeration_limit_is_pinned(self, capsys, suite,
                                                          instances, expected):
        # both outputs were recorded when the reference enumerated supports
        # up to n = 16 and solved larger n by the active set; the corpora mix
        # sizes from 2 to 40, so these bytes hold the one reference to both
        from sparsepr import cli
        assert cli.main(["verify", "--suite", suite, "--instances", instances,
                         "--max-n", "40", "--seed", "7"]) == 0
        assert capsys.readouterr().out == expected

    def test_geometry_suite_small(self):
        res = run_cli("verify", "--suite", "geometry", "--instances", "3",
                      "--max-n", "7", "--seed", "5")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_invalid_max_n_rejected(self):
        res = run_cli("verify", "--max-n", "0")
        assert res.returncode == 2
        assert "at least 2" in res.stderr

    def test_max_n_above_oracle_limit_rejected_before_building(self, capsys):
        from sparsepr import cli
        tracemalloc.start()
        try:
            code = cli.main(["verify", "--instances", "1", "--max-n", "100000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --max-n must be at most 4096, the reference oracle's limit\n")
        assert peak < 1 << 20

    def test_invalid_instances_rejected(self):
        res = run_cli("verify", "--instances", "0")
        assert res.returncode == 2

    def test_negative_seed_rejected(self, capsys):
        # numpy's "expected non-negative integer" named no option
        assert cli.main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --seed must be at least 0\n")


class TestBench:
    def test_smoke_csv(self):
        res = run_cli("bench", "--family", "path", "--sizes", "2",
                      "--alphas", "0.3", "--rhos", "0.05",
                      "--solvers", "cdpr", "--seed", "1")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        header, row = lines[0], lines[1]
        assert header == ("family,n,alpha,rho,solver,variant,stages,"
                          "inner_iters,nnz_touched,full_gradients,"
                          "support_size,vol_supp,ivol_supp,gap,wall_ns")
        fields = row.split(",")
        assert fields[0] == "path" and fields[4] == "cdpr"
        assert any(line.startswith("#") for line in lines[2:])

    def test_multi_solver_grid(self):
        res = run_cli("bench", "--family", "star", "--sizes", "4,6",
                      "--alphas", "0.5", "--rhos", "0.02",
                      "--solvers", "cdpr,aspr:early", "--seed", "2")
        assert res.returncode == 0, res.stderr
        lines = [l for l in res.stdout.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1 + 4  # header + 2 sizes x 2 solvers

    def test_unknown_solver_token_rejected(self):
        res = run_cli("bench", "--family", "path", "--sizes", "4",
                      "--alphas", "0.3", "--rhos", "0.05",
                      "--solvers", "sgd", "--seed", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("flag", ["--sizes", "--alphas", "--rhos",
                                      "--solvers"])
    def test_empty_list_rejected(self, capsys, flag):
        # an empty --solvers printed only the CSV header and exited 0
        lists = {"--sizes": "4", "--alphas": "0.1", "--rhos": "0.01",
                 "--solvers": "cdpr"}
        lists[flag] = ","
        argv = ["bench", "--family", "grid"]
        for name, text in lists.items():
            argv += [name, text]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --sizes, --alphas, --rhos and --solvers must "
                       "be nonempty\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--alphas", "inf", "alpha must lie in (0, 1), got inf"),
        ("--rhos", "inf", "rho must be positive and finite, got inf"),
        ("--alphas", "nan", "alpha must lie in (0, 1), got nan"),
        ("--rhos", "nan", "rho must be positive and finite, got nan"),
        ("--alphas", "0.5,inf", "alpha must lie in (0, 1), got inf"),
        ("--sizes", "-3", "--sizes must be at least 1"),
        ("--sizes", "4,0", "--sizes must be at least 1"),
        ("--seed", "-1", "--seed must be at least 0"),
    ], ids=["alpha-inf", "rho-inf", "alpha-nan", "rho-nan", "alpha-inf-last",
            "sizes-negative", "sizes-zero", "seed-negative"])
    def test_bad_number_is_named(self, capsys, two_node_file, flag, value,
                                 message):
        # inf raised an uncaught OverflowError from the cell's seed, and
        # nan and the negative numbers exited with messages that named no
        # option; alpha and rho get the messages solve prints
        values = {"--sizes": "4", "--alphas": "0.1", "--rhos": "0.01",
                  "--solvers": "cdpr", "--seed": "0"}
        values[flag] = value
        argv = ["bench", "--family", "grid"]
        for name, text in values.items():
            argv += [name, text]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        if flag in ("--alphas", "--rhos"):
            argv = solve_args(two_node_file, "cdpr")
            argv[argv.index(flag[:-1]) + 1] = value.split(",")[-1]
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", "error: %s\n" % message)

    @pytest.mark.parametrize("family, size, least", [
        ("cycle", 2, 3), ("cycle", 1, 3), ("path", 1, 2), ("grid", 1, 2),
        ("star", 1, 2), ("sbm", 1, 2)])
    def test_size_below_the_family_minimum_is_named(self, capsys, family,
                                                    size, least):
        # the cycle of 2 repeated its edge and one node had no edge: each
        # exited 2 naming an edge or node, and sbm exited 3 ("could not
        # draw")
        argv = ["bench", "--family", family, "--sizes", "%d,4" % size,
                "--alphas", "0.1", "--rhos", "0.01", "--solvers", "cdpr"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: --sizes must be at least %d for --family %s\n"
            % (least, family))

    @pytest.mark.parametrize("size, seed", [(2, 45), (3, 161)])
    def test_sbm_cell_whose_draws_all_fail_runs(self, capsys, size, seed):
        # all 50 draws of the cell's graph were disconnected: exit 3
        argv = ["bench", "--family", "sbm", "--sizes", str(size), "--alphas",
                "0.1", "--rhos", "0.01", "--solvers", "cdpr", "--seed",
                str(seed)]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1].startswith("sbm,%d,0.1,0.01,cdpr," % size)

    def test_huge_rho_seeds_its_cell(self, capsys):
        # rho * 1e9 overflows to inf above about 1.8e299, and int() of it
        # raised an uncaught OverflowError; such a rho is finite and
        # positive, so its cell runs: b < 0 everywhere, and x = 0
        argv = ["bench", "--family", "grid", "--sizes", "4", "--alphas",
                "0.1", "--rhos", "1e300", "--solvers", "cdpr,ista"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:3]]
        assert [(r[3], r[4], r[10]) for r in rows] == [
            ("1e+300", "cdpr", "0"), ("1e+300", "ista", "0")]

    def test_readme_sample_is_pinned(self, capsys):
        # the README's bench block shows the header, the four rows and the
        # first predictor line; wall_ns is the one column that varies
        args = ["bench", "--family", "grid", "--sizes", "6,12", "--alphas",
                "0.5", "--rhos", "0.005", "--solvers", "cdpr,aspr", "--seed",
                "3"]
        text = README.read_text(encoding="utf-8")
        start = text.index("$ sparsepr bench --family grid --sizes 6,12")
        block = text[start:text.index("```", start)].splitlines()[2:]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert lines[0] == block[0]
        for got, shown in zip(lines[1:5], block[1:5]):
            assert got.rsplit(",", 1)[0] == shown.rsplit(",", 1)[0]
            assert got.rsplit(",", 1)[1].isdigit()
        assert lines[5] == block[5] and block[6] == "..."
        # kappa_S is _conditioning's certified bound on the support
        assert lines[5:] == [
            "# predictors family=grid n=36 alpha=0.5 solver=%s variant=plain "
            "kappa=2.0 kappa_S=1.9229382075608024 supp=6 cdpr_vs_ista_thr=9.0 "
            "aspr_vs_ista_thr=20.25 cdpr_vs_aspr_thr=4.0" % solver
            for solver in ("cdpr", "aspr")] + [
            "# predictors family=grid n=144 alpha=0.5 solver=%s "
            "variant=plain kappa=2.0 kappa_S=1.8515893813207918 supp=5 "
            "cdpr_vs_ista_thr=5.208333333333333 "
            "aspr_vs_ista_thr=7.3350694444444455 "
            "cdpr_vs_aspr_thr=3.698224852071006" % solver
            for solver in ("cdpr", "aspr")]

    def test_unknown_family_rejected(self):
        res = run_cli("bench", "--family", "clique", "--sizes", "4",
                      "--alphas", "0.3", "--rhos", "0.05",
                      "--solvers", "cdpr", "--seed", "1")
        assert res.returncode == 2


class TestUsage:
    def test_import_loads_no_csgraph_or_linalg(self):
        # Graph() counted components with scipy.sparse.csgraph, whose
        # import also loaded scipy.linalg: about 0.06 s of every command;
        # scipy.sparse's package init took about half of the import
        code = ("import sys, sparsepr.cli; print(sorted(m for m in "
                "('scipy.sparse', 'scipy.sparse.csgraph', 'scipy.linalg') "
                "if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_solve_loads_no_scipy_sparse_module(self, two_node_file):
        # every solver token, through cli.main, runs on scipy's compiled
        # kernels alone, loaded without any module of the scipy.sparse
        # package
        code = (
            "import sys\n"
            "from sparsepr.cli import main\n"
            "for token in %r:\n"
            "    solver, _, variant = token.partition(':')\n"
            "    extra = ['--variant', variant] if variant else []\n"
            "    assert main(%r + [solver] + extra) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy.sparse'\n"
            "             or m.startswith('scipy.sparse.')))\n"
            % (SOLVER_TOKENS, solve_args(two_node_file, "")[:-1]))
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    def test_scipy_sparse_imported_later_shares_the_kernels(self):
        # the kernels that sparsepr loaded are the functions that
        # scipy.sparse binds when it is imported afterwards, and it works
        code = ("import numpy as np, sparsepr, scipy.sparse as sp, "
                "scipy.sparse.csgraph, scipy.sparse.linalg\n"
                "from sparsepr import problem\n"
                "print(sp._sparsetools.csr_matvec is problem.csr_matvec)\n"
                "A = (sp.identity(3, format='csr') * 2.0).tocsc()\n"
                "print(sp.linalg.spsolve(A, np.ones(3)).tolist())")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "True\n[0.5, 0.5, 0.5]\n"

    def test_no_subcommand_shows_usage(self):
        res = run_cli()
        assert res.returncode == 2

    def test_help_exits_zero(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "solve" in res.stdout and "verify" in res.stdout


# small connected graphs as 0-based edge lists
_FUZZ_GRAPHS = [
    [(0, 1)],
    [(0, 1), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (0, 2), (2, 3)],
    [(0, k) for k in range(1, 6)],
]
# lines that break a graph file or sit at the edges of its grammar
_FUZZ_GRAPH_LINES = [
    "1", "0 1 2", "a b", "1.5 2", "0 0", "0 1", "1 0", "-1 2", "2 -0",
    "99999999999999999999 1", "0 5000000000", "\udc80 1", "0\t\t1",
    "# nodes: 2", "# nodes: x", "# nodes: 10000000000", "% 0 1", "", "  ",
    "%%MatrixMarket matrix coordinate pattern general", "4 4 3", "4 5 3",
]
_FUZZ_DISTS = [["0 1"], ["1 0.5", "0 0.5"], ["# c", "0 0.25", "1 0.75"]]
_FUZZ_DIST_LINES = ["", "0", "0 1 2", "\udc80 1", "0 1", "1 0.5", "0 0.5",
                    "99 1", "-1 1", "0 -0.5", "1 nan", "1 inf", "0 1e309",
                    "0 x", "0 0x1p-1", "1 1e-7"]
# each flag's valid values, extremes included, and its invalid values
_FUZZ_FLAGS = {
    "alpha": (["0.5", "0.1", "0.9999999999999999", "1e-300"],
              ["0", "1", "-0.5", "5e-324", "nan", "inf", "1e309"]),
    "rho": (["1e-3", "0.1", "1e-12", "1e-300", "1e300"],
            ["0", "-1", "5e-324", "nan", "inf"]),
    "eps": (["1e-6", "1", "1e-300", "1e300"],
            ["0", "-1e-6", "5e-324", "nan", "inf"]),
}


def _render_graph(edges, fmt, inserts, newline):
    n = 1 + max(max(e) for e in edges)
    if fmt == "edgelist":
        lines = ["%d %d" % e for e in edges]
    else:
        lines = ["%%MatrixMarket matrix coordinate pattern symmetric",
                 "%d %d %d" % (n, n, len(edges))]
        lines += ["%d %d" % (i + 1, j + 1) for i, j in edges]
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    return newline.join(lines) + newline


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fault=st.sampled_from(  # None: a valid case
    [None, None, "graph", "seed", "alpha", "rho", "eps"]))
def test_solve_fuzz_exits_with_an_answer_or_one_error_line(capsys, data,
                                                           fault):
    # in-process, so no case pays the interpreter start; each case has at
    # most one fault, and either prints a JSON answer of finite numbers, or
    # one error line and nothing on stdout
    draw = data.draw
    fmt = draw(st.sampled_from(["edgelist", "matrixmarket"]))
    inserts = []
    if fault == "graph":
        inserts = draw(st.lists(st.tuples(st.integers(0, 10),
                                          st.sampled_from(_FUZZ_GRAPH_LINES)),
                                min_size=1, max_size=2))
    text = _render_graph(draw(st.sampled_from(_FUZZ_GRAPHS)), fmt, inserts,
                         draw(st.sampled_from(["\n", "\r\n"])))
    solver = draw(st.sampled_from(["cdpr", "aspr", "aspr:early",
                                   "aspr:constraints", "ista"]))
    argv = ["solve", "--format", fmt, "--solver", solver.split(":")[0]]
    if ":" in solver:
        argv += ["--variant", solver.split(":")[1]]
    for flag, (good, bad) in _FUZZ_FLAGS.items():
        value = draw(st.sampled_from(good + bad if fault == flag else good))
        argv.append("--%s=%s" % (flag, value))
    dist = None
    if draw(st.booleans()):
        nodes = ["0", "1"] + (["-1", "6", "1000000000000"]
                              if fault == "seed" else [])
        argv.append("--seed-node=" + draw(st.sampled_from(nodes)))
    elif fault == "seed":
        dist = draw(st.lists(st.sampled_from(_FUZZ_DIST_LINES), min_size=1,
                             max_size=3))
    else:
        dist = draw(st.sampled_from(_FUZZ_DISTS))
    with tempfile.TemporaryDirectory() as tmp:
        # a lone surrogate writes its raw byte, which is no UTF-8
        def put(name, body):
            path = pathlib.Path(tmp) / name
            path.write_bytes(body.encode("utf-8", "surrogateescape"))
            return str(path)
        argv += ["--graph", put("g.txt", text)]
        if dist is not None:
            argv += ["--dist", put("s.txt", "\n".join(dist) + "\n")]
        capsys.readouterr()
        code = cli.main(argv)
        out, err = capsys.readouterr()
    assert code in (0, 2, 3), (code, argv, err)
    if code == 0:
        assert err == ""
        assert _finite_numbers(json.loads(out))
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), err
        prefix = "error: " if code == 2 else "solver error: "
        assert lines[0].startswith(prefix), err
