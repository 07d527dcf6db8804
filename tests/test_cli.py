"""End-to-end command-line behavior: output schema, byte stability,
exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "sparsepr.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


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
        ("cdpr", "--tolneg", "nan"),
        ("cdpr", "--tolneg", "-1"),
    ])
    def test_bad_tolerance_is_input_error(self, two_node_file, solver, flag,
                                          value):
        res = run_cli(*solve_args(two_node_file, solver, extra=[flag, value]))
        assert res.returncode == 2
        assert "error:" in res.stderr and "finite" in res.stderr
        assert res.stdout == ""

    def test_seed_node_out_of_range(self, two_node_file):
        res = run_cli("solve", "--graph", two_node_file, "--alpha", "0.5",
                      "--rho", "0.1", "--seed-node", "9", "--solver", "cdpr")
        assert res.returncode == 2


class TestVerify:
    def test_small_suite_passes(self):
        res = run_cli("verify", "--suite", "cdpr", "--instances", "8",
                      "--max-n", "8", "--seed", "3")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "PASS" in res.stdout
        assert "FAIL" not in res.stdout
        assert "all 2 invariants passed" in res.stdout

    def test_geometry_suite_small(self):
        res = run_cli("verify", "--suite", "geometry", "--instances", "3",
                      "--max-n", "7", "--seed", "5")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_invalid_max_n_rejected(self):
        res = run_cli("verify", "--max-n", "0")
        assert res.returncode == 2
        assert "at least 2" in res.stderr

    def test_invalid_instances_rejected(self):
        res = run_cli("verify", "--instances", "0")
        assert res.returncode == 2


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

    def test_unknown_family_rejected(self):
        res = run_cli("bench", "--family", "clique", "--sizes", "4",
                      "--alphas", "0.3", "--rhos", "0.05",
                      "--solvers", "cdpr", "--seed", "1")
        assert res.returncode == 2


class TestUsage:
    def test_no_subcommand_shows_usage(self):
        res = run_cli()
        assert res.returncode == 2

    def test_help_exits_zero(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "solve" in res.stdout and "verify" in res.stdout
