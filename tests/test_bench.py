"""Benchmark records: CSV rows, determinism, and counter scaling."""

from sparsepr import bench
from sparsepr.bench import (
    CSV_HEADER,
    bench_grid,
    predictor_comment,
    run_cell,
)
from sparsepr.oracle import random_graph_instance
from sparsepr.problem import build_pagerank_quadratic, restrict
from sparsepr.solvers import _conditioning, solve


def sample_record():
    return run_cell("path", 4, 0.3, 0.05, "aspr", seed=11, eps=1e-6)


class TestRunRecord:
    def test_csv_row_matches_header(self):
        rec = sample_record()
        row = rec.to_csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        fields = dict(zip(CSV_HEADER.split(","), row.split(",")))
        assert fields["family"] == "path"
        assert fields["solver"] == "aspr"
        assert int(fields["n"]) == 4
        assert int(fields["wall_ns"]) > 0

    def test_csv_floats_survive_parsing(self):
        rec = sample_record()
        fields = dict(zip(CSV_HEADER.split(","), rec.to_csv_row().split(",")))
        assert float(fields["alpha"]) == rec.alpha
        assert float(fields["rho"]) == rec.rho
        assert float(fields["gap"]) == rec.gap


class TestRunCell:
    def test_exact_solver_reports_zero_gap(self):
        rec = run_cell("path", 4, 0.3, 0.05, "cdpr", seed=11)
        assert rec.gap == 0.0
        assert rec.solver == "cdpr" and rec.variant == "plain"

    def test_variant_tokens(self):
        rec = run_cell("path", 4, 0.3, 0.05, "aspr:early", seed=11)
        assert rec.solver == "aspr" and rec.variant == "early"

    def test_support_volumes_consistent(self):
        rec = sample_record()
        assert rec.ivol_supp <= rec.vol_supp
        assert rec.support_size <= rec.n

    def test_determinism_modulo_wall_time(self):
        a = sample_record()
        b = sample_record()
        a_dict = dict(a.__dict__, wall_ns=0)
        b_dict = dict(b.__dict__, wall_ns=0)
        assert a_dict == b_dict


class TestBenchGrid:
    def test_same_instance_for_all_solvers(self, monkeypatch):
        seeds = []

        def recording_run_cell(family, size, alpha, rho, token, seed, **kw):
            seeds.append(seed)
            return run_cell(family, size, alpha, rho, token, seed, **kw)

        monkeypatch.setattr(bench, "run_cell", recording_run_cell)
        records = list(bench_grid(["path"], [6], [0.4], [0.02],
                                  ["cdpr", "aspr", "ista"], seed=5))
        assert len(records) == 3
        assert len({r.solver for r in records}) == 3
        assert len({(r.n, r.alpha, r.rho) for r in records}) == 1
        assert len(seeds) == 3 and len(set(seeds)) == 1

    def test_deterministic_across_calls(self):
        kw = dict(families=["star", "path"], sizes=[5, 7], alphas=[0.3],
                  rhos=[0.05], solvers=["cdpr"], seed=9)
        a = [dict(r.__dict__, wall_ns=0) for r in bench_grid(**kw)]
        b = [dict(r.__dict__, wall_ns=0) for r in bench_grid(**kw)]
        assert a == b

    def test_repeat_draws_fresh_instances(self):
        records = list(bench_grid(["sbm"], [8], [0.4], [0.05], ["cdpr"],
                                  seed=2, repeat=2))
        assert len(records) == 2

    def test_conjugate_work_tracks_cluster_not_graph(self):
        # quadrupling the grid's node count while keeping the seed's local
        # cluster fixed must not grow the exact solver's touched nonzeros
        # beyond 2x
        n, support, touched = {}, {}, {}
        for size in (6, 12):
            q = build_pagerank_quadratic(random_graph_instance(
                "grid", {"rows": size, "cols": size, "alpha": 0.5,
                         "rho": 0.005, "seed_node": 0}, 3))
            sol = solve(q, "cdpr", 1e-6)
            n[size] = q.n
            support[size] = sol.support.size
            touched[size] = sol.counters.nnz_touched
        assert n[12] == 4 * n[6]
        assert support[6] >= 3
        assert touched[12] <= 2 * touched[6]


class TestPredictors:
    def test_comment_shape(self):
        line = predictor_comment(sample_record())
        assert line.startswith("# predictors")
        assert "kappa=" in line and "cdpr_vs_ista_thr=" in line
        assert "aspr_vs_ista_thr=" in line and "cdpr_vs_aspr_thr=" in line

    def test_aspr_is_priced_at_the_support_conditioning(self):
        # the comment prints the certified kappa_S of the answer's support,
        # by which aspr sizes its stages, next to the global kappa
        rec = run_cell("grid", 6, 0.5, 0.005, "aspr", seed=3)
        q = build_pagerank_quadratic(random_graph_instance(
            "grid", {"rows": 6, "cols": 6, "alpha": 0.5, "rho": 0.005}, 3))
        supp = solve(q, "aspr", 1e-6).support
        assert 0 < supp.size < q.n
        alpha_S, L_S = _conditioning(restrict(q, supp))
        assert rec.kappa_S == L_S / alpha_S
        assert 1.0 <= rec.kappa_S < 1.0 / rec.alpha
        line = predictor_comment(rec)
        assert "kappa=%r kappa_S=%r " % (1.0 / rec.alpha, rec.kappa_S) in line
        assert "kappa_S" not in CSV_HEADER
        # an empty support has no block, and no aspr stage runs
        empty = run_cell("path", 4, 0.3, 1.0, "aspr", seed=11)
        assert empty.support_size == 0 and empty.kappa_S == 1.0
