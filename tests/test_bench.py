"""Benchmark records: CSV rows, determinism, and counter scaling."""

import numpy as np

from sparsepr.bench import (
    CSV_HEADER,
    bench_grid,
    predictor_comment,
    run_cell,
)


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
    def test_same_instance_for_all_solvers(self):
        records = list(bench_grid(["path"], [6], [0.4], [0.02],
                                  ["cdpr", "aspr", "ista"], seed=5))
        assert len(records) == 3
        assert len({r.solver for r in records}) == 3
        assert len({(r.n, r.alpha, r.rho, r.seed) for r in records}) == 1

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
        base = {}
        for size in (6, 12):
            rec = run_cell("grid", size, 0.5, 0.005, "cdpr", seed=3,
                           params={"alpha": 0.5, "rho": 0.005, "seed_node": 0})
            base[size] = rec
        assert base[12].n == 4 * base[6].n
        assert base[6].support_size >= 3
        assert base[12].nnz_touched <= 2 * base[6].nnz_touched


class TestPredictors:
    def test_comment_shape(self):
        line = predictor_comment(sample_record())
        assert line.startswith("# predictors")
        assert "kappa=" in line and "cdpr_vs_ista_thr=" in line
        assert "aspr_vs_ista_thr=" in line and "cdpr_vs_aspr_thr=" in line
