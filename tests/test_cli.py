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
        ("aspr", "1e-80", "1e-6"),
        ("aspr", "1e-75", "1e-6"),
        ("ista", "1e-100", "1e-200"),
    ])
    def test_alpha_too_small_for_the_iteration_budget_is_input_error(
            self, tmp_path, solver, alpha, eps):
        # aspr's inner length divided by an underflowed zero or ran for a
        # budget of order sqrt(1/alpha); ista's max_iter is of order 1/alpha
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        res = run_cli("solve", "--graph", str(path), "--alpha", alpha,
                      "--rho", "1e-3", "--seed-node", "0", "--solver", solver,
                      "--eps", eps, timeout=60)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("error: alpha=%s is too small" % alpha)

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

    def test_stdout_above_the_enumeration_limit_is_pinned(self, capsys):
        # the corpus has n = 12, 28, 34, 24, 8, 23, 13, 31, 19, 36, so most
        # references come from the active-set oracle
        from sparsepr import cli
        assert cli.main(["verify", "--suite", "cdpr", "--instances", "8",
                         "--max-n", "40", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "PASS cdpr/exact_minimizer_and_stage_count: 10 checks, "
            "worst 7.288e-16\n"
            "PASS cdpr/conjugacy_annihilation_monotonicity: 10 checks, "
            "worst 1.249e-15\n"
            "all 2 invariants passed (instances=8, max-n=40, seed=7)\n")

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
