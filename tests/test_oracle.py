"""Ground-truth solvers, geometry checks, and instance generators."""

import re
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from sparsepr import (
    Graph,
    MQuadratic,
    build_pagerank_quadratic,
    cdpr,
    check_optimality,
    dense_solve_active_set,
    gradient,
    objective,
    random_graph_instance,
    random_m_matrix,
    subspace_solve,
    validate_m_matrix,
    verify_geometry,
    volume,
)
from sparsepr import problem
from sparsepr.oracle import OracleError
from sparsepr.suites import make_corpus, suite_rates

from conftest import assert_close, two_node_instance
from enumeration import dense_solve_enumerate


def assert_bit_equal(q, label):
    """Enumeration and the active-set oracle give the same bytes."""
    a = dense_solve_enumerate(q)
    b = dense_solve_active_set(q)
    for name in ("x_star", "support", "objective_value", "kkt_residuals"):
        assert (np.asarray(getattr(a, name)).tobytes()
                == np.asarray(getattr(b, name)).tobytes()), (label, name)


def scipy_restriction(q, S):
    """The principal restriction of q to S, taken by scipy's indexing."""
    return MQuadratic(q.Q[S][:, S], q.b[S], q.alpha, q.L, validate=False)


def assert_bit_equal_on_restrictions(q, rng, count, label):
    """The same on ``count`` random principal restrictions of q."""
    for _ in range(count):
        size = int(rng.integers(1, q.n + 1))
        S = np.sort(rng.choice(q.n, size=size, replace=False))
        assert_bit_equal(scipy_restriction(q, S),
                         "%s|S=%s" % (label, S.tolist()))


class TestEnumerate:
    def test_two_node_interior_optimum(self, two_node):
        ref = dense_solve_enumerate(two_node)
        assert_close(ref.x_star, [0.65, 0.15], 1e-12)
        assert list(ref.support) == [0, 1]
        assert_close(ref.objective_value, -0.1425, 1e-15)
        assert np.max(np.abs(ref.kkt_residuals)) <= 1e-10

    def test_two_node_boundary_optimum(self, two_node_high_rho):
        ref = dense_solve_enumerate(two_node_high_rho)
        assert_close(ref.x_star, [2.0 / 15.0, 0.0], 1e-12)
        assert list(ref.support) == [0]

    def test_nonpositive_b_gives_zero(self):
        q = build_pagerank_quadratic(two_node_instance(rho=1.0))
        ref = dense_solve_enumerate(q)
        assert np.all(ref.x_star == 0.0)
        assert ref.support.size == 0
        assert ref.objective_value == 0.0

    def test_dimension_cap(self):
        q = random_m_matrix(17, 0.3, seed=0)
        with pytest.raises(ValueError, match="n <= 16"):
            dense_solve_enumerate(q)


class TestActiveSet:
    def test_identity_positive_b(self):
        q = MQuadratic(sp.identity(3, format="csr"), np.ones(3), 1.0, 1.0)
        assert_close(dense_solve_active_set(q).x_star, 1.0, 1e-12)

    def test_identity_negative_b(self):
        q = MQuadratic(sp.identity(3, format="csr"), -np.ones(3), 1.0, 1.0)
        ref = dense_solve_active_set(q)
        assert np.all(ref.x_star == 0.0)
        assert ref.support.size == 0

    def test_bit_equal_to_enumeration(self):
        # n = 2..12 at three densities, then one instance at each n up to
        # the enumeration cap, each with a few principal restrictions
        cases = [(2 + seed % 11, 0.3 + 0.5 * (seed % 3) / 2.0, seed)
                 for seed in range(25)]
        cases += [(n, 0.4, n) for n in range(13, 17)]
        for n, density, seed in cases:
            q = random_m_matrix(n, density, seed=seed)
            assert_bit_equal(q, (n, seed))
            assert_bit_equal_on_restrictions(
                q, np.random.default_rng(seed), 3, (n, seed))

    def test_bit_equal_to_enumeration_on_the_acceptance_corpus(self):
        # acceptance criterion 01 compares cdpr with this oracle on the same
        # corpus, so it still means "matches the enumeration oracle"
        for item in make_corpus(num_mm=200, num_pr=50, max_n=12, seed=7):
            assert_bit_equal(item.q, item.label)
            rng = np.random.default_rng([item.seed, 0xE7])
            assert_bit_equal_on_restrictions(item.q, rng, 3, item.label)

    def test_support_matches_cdpr_above_the_enumeration_limit(self):
        items = [item for item in make_corpus(40, 10, 64, 3) if item.q.n > 16]
        assert len(items) >= 30
        for item in items:
            q = item.q
            ref = dense_solve_active_set(q)
            assert np.array_equal(ref.support, cdpr(q).support), item.label
            # its own KKT check: nothing certainly negative off the support,
            # a vanishing gradient on it
            scale = max(1.0, q.max_abs_b)
            report = check_optimality(q, ref.x_star)
            assert report.max_violation_positive <= 1e-11 * scale, item.label
            assert report.max_violation_zero_low <= 1e-13 * scale, item.label

    def test_dimension_cap(self):
        q = MQuadratic(sp.identity(4097, format="csr"), np.ones(4097), 1.0, 1.0)
        with pytest.raises(ValueError, match="n <= 4096"):
            dense_solve_active_set(q)


class TestSubspace:
    def test_single_coordinate(self, two_node):
        sol = subspace_solve(two_node, [0])
        assert_close(sol.x_star, [0.6, 0.0], 1e-12)

    def test_empty_set(self, two_node):
        sol = subspace_solve(two_node, [])
        assert np.all(sol.x_star == 0.0)

    def test_full_set_matches_global(self, two_node):
        sol = subspace_solve(two_node, [0, 1])
        ref = dense_solve_active_set(two_node)
        assert_close(sol.x_star, ref.x_star, 1e-10)

    def test_restriction_really_restricts(self, small_corpus):
        for item in small_corpus[:4]:
            q = item.q
            rng = np.random.default_rng(item.seed + 5)
            S = np.flatnonzero(rng.uniform(size=q.n) < 0.5)
            sol = subspace_solve(q, S)
            off = np.ones(q.n, dtype=bool)
            off[S] = False
            assert np.all(sol.x_star[off] == 0.0)
            if len(S):
                gS = gradient(q, sol.x_star, coords=S)
                pos = sol.x_star[np.sort(S)] > 0
                if pos.any():
                    assert np.max(np.abs(gS[pos])) <= 1e-9


class TestIndependentReference:
    @pytest.fixture
    def no_solver_restriction(self, monkeypatch):
        # the solvers restrict through problem._restricted; a call from
        # anywhere else, the reference included, raises
        restricted = problem._restricted

        def solvers_only(block, S):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_globals.get("__name__") == "sparsepr.solvers":
                    return restricted(block, S)
                frame = frame.f_back
            raise AssertionError("the reference ran the solvers' restriction")

        monkeypatch.setattr(problem, "_restricted", solvers_only)

    def test_subspace_solve(self, no_solver_restriction, small_corpus):
        # the same bytes as a dense solve of the dense principal block
        for item in small_corpus[:12]:
            q = item.q
            rng = np.random.default_rng(item.seed + 13)
            S = np.flatnonzero(rng.uniform(size=q.n) < 0.6)
            sol = subspace_solve(q, S)
            dense = MQuadratic(sp.csr_matrix(q.Q.toarray()[np.ix_(S, S)]),
                               q.b[S], q.alpha, q.L, validate=False)
            x = np.zeros(q.n)
            if S.size:
                x[S] = dense_solve_active_set(dense).x_star
            assert sol.x_star.tobytes() == x.tobytes(), item.label
            assert (sol.kkt_residuals.tobytes()
                    == (q.Q @ x - q.b).tobytes()), item.label

    def test_rates_suite(self, no_solver_restriction):
        # the lines of `sparsepr verify --suite all --instances 20 --seed 7`
        assert [check.line() for check in suite_rates(20, 7)] == [
            "PASS rates/pgd_distance_contraction: 10 checks, "
            "worst 0.000e+00",
            "PASS rates/apgd_gap_bound: 10 checks, worst 0.000e+00",
            "PASS rates/apgd_weight_growth: 71 checks, worst 5.025e-03",
        ]


class TestVerifyGeometry:
    def test_two_node_origin_state(self, two_node):
        report = verify_geometry(two_node, [0], np.zeros(2))
        assert report.ok, report.messages
        assert_close(report.subspace_optimum, [0.6, 0.0], 1e-12)
        assert all(report.checks.values())

    def test_optimum_is_fixed_point(self, two_node):
        ref = dense_solve_active_set(two_node)
        report = verify_geometry(two_node, ref.support, ref.x_star,
                                 x_star=ref)
        assert report.ok, report.messages

    def test_precondition_violations_raise(self, two_node):
        with pytest.raises(ValueError):
            verify_geometry(two_node, [0], np.array([-0.1, 0.0]))
        with pytest.raises(ValueError):
            verify_geometry(two_node, [0], np.array([0.0, 0.2]))
        with pytest.raises(ValueError):
            # gradient at this x0 is positive on S
            verify_geometry(two_node, [1], np.array([0.0, 0.0]))

    def test_downscaled_subspace_optima_pass(self, small_corpus):
        # scaled-down subspace optima are valid states whenever the gradient
        # stays nonpositive on the working set (not automatic: b may be
        # negative on recruited coordinates)
        checked = 0
        for item in small_corpus[:8]:
            q = item.q
            ref = item.reference()
            if ref.support.size == 0:
                continue
            S = ref.support
            xc = subspace_solve(q, S).x_star
            scale = max(1.0, float(np.max(np.abs(q.b))))
            for theta in (0.0, 0.5):
                x0 = theta * xc
                if float(np.max(gradient(q, x0, coords=S))) > 1e-9 * scale:
                    continue
                report = verify_geometry(q, S, x0, x_star=ref)
                assert report.ok, (item.label, report.messages)
                checked += 1
        assert checked > 0


class TestRandomMMatrix:
    def test_deterministic(self):
        a = random_m_matrix(8, 0.4, seed=123)
        b = random_m_matrix(8, 0.4, seed=123)
        assert np.array_equal(a.Q.toarray(), b.Q.toarray())
        assert np.array_equal(a.b, b.b)
        assert a.alpha == b.alpha and a.L == b.L

    def test_all_generated_instances_validate(self):
        for seed in range(20):
            q = random_m_matrix(2 + seed % 9, 0.2 + 0.7 * (seed % 5) / 4.0,
                                seed=seed)
            result = validate_m_matrix(q.Q, q.alpha, q.L)
            assert result.ok, result.violations

    def test_single_node(self):
        q = random_m_matrix(1, 1.0, seed=4)
        assert q.n == 1 and q.Q.toarray()[0, 0] > 0

    def test_target_kappa_is_respected_roughly(self):
        q = random_m_matrix(10, 0.5, seed=9, target_kappa=50.0)
        assert q.kappa >= 10.0


class TestRandomGraphInstance:
    def test_two_node_path_matches_worked_example(self):
        inst = random_graph_instance(
            "path", {"n": 2, "alpha": 0.5, "rho": 0.1, "seed_node": 0}, seed=1)
        q = build_pagerank_quadratic(inst)
        dense = q.Q.toarray()
        assert dense[0, 0] == 0.75 and dense[0, 1] == -0.25
        assert q.b[0] == 0.45 and q.b[1] == -0.05

    def test_grid_four_by_four(self):
        inst = random_graph_instance("grid", {"rows": 4, "cols": 4}, seed=5)
        assert inst.graph.n == 16
        assert inst.graph.num_edges == 24

    def test_star_seed_on_hub_keeps_hub(self):
        inst = random_graph_instance(
            "star", {"leaves": 7, "alpha": 0.3, "rho": 0.01, "seed_node": 0},
            seed=2)
        q = build_pagerank_quadratic(inst)
        ref = dense_solve_active_set(q)
        assert 0 in set(ref.support)

    def test_deterministic(self):
        a = random_graph_instance("sbm", {}, seed=77)
        b = random_graph_instance("sbm", {}, seed=77)
        assert a.graph.n == b.graph.n
        assert a.alpha == b.alpha and a.rho == b.rho
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)
        assert sorted(map(tuple, a.graph.edges)) == sorted(map(tuple, b.graph.edges))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            random_graph_instance("hypercube", {}, seed=0)

    @pytest.mark.parametrize("sizes, p_out", [
        ([1, 1], 0.1), ([1, 2], 0.1), ([3, 4], 0.0)])
    def test_sbm_draw_always_connects(self, sizes, p_out):
        # every one of 50 draws can leave the graph disconnected (at sizes
        # [1, 1] with probability 0.9^50, always at p_out = 0), which raised
        # OracleError; the last draw then gets the path edges it lacks
        edges = set()
        for seed in range(300):
            graph = random_graph_instance(
                "sbm", {"sizes": sizes, "p_out": p_out}, seed).graph
            assert graph.n == sum(sizes)
            edges.update(map(tuple, graph.edges.tolist()))
        assert {(v, v + 1) for v in range(sum(sizes) - 1)} <= edges

    @pytest.mark.parametrize("kind, params", [
        ("path", {"n": 2}), ("path", {"n": 7}), ("path", {"n": 1}),
        ("cycle", {"n": 3}), ("cycle", {"n": 9}), ("cycle", {"n": 2}),
        ("grid", {"rows": 1, "cols": 5}), ("grid", {"rows": 3, "cols": 4}),
        ("grid", {"rows": 5, "cols": 2}), ("grid", {"rows": 1, "cols": 1}),
        ("star", {"leaves": 1}), ("star", {"leaves": 6}),
        ("star", {"leaves": 0}),
    ])
    def test_generated_graph_matches_the_loop_construction(self, kind, params):
        # the edge lists these families were first built from, pair by pair
        if kind in ("path", "cycle"):
            n = params["n"]
            edges = [(i, i + 1) for i in range(n - 1)]
            if kind == "cycle":
                edges.append((0, n - 1))
        elif kind == "grid":
            r, c = params["rows"], params["cols"]
            n, edges = r * c, []
            for i in range(r):
                for j in range(c):
                    v = i * c + j
                    if j + 1 < c:
                        edges.append((v, v + 1))
                    if i + 1 < r:
                        edges.append((v, v + c))
        else:
            n = params["leaves"] + 1
            edges = [(0, i) for i in range(1, n)]
        try:
            want = Graph(n, edges)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                random_graph_instance(kind, params, seed=0)
            return
        got = random_graph_instance(kind, params, seed=0).graph
        for name in ("edges", "degrees"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("indptr", "indices", "data"):
            assert (getattr(got._adj, name).tobytes()
                    == getattr(want._adj, name).tobytes())


class TestVolumeBound:
    def test_support_volume_on_solved_instances(self, small_corpus):
        # vol(supp*) <= 1/rho + |supp*| for every solved PageRank instance
        pr = [it for it in small_corpus if it.rho is not None]
        assert pr, "corpus contains no PageRank items"
        for item in pr:
            ref = item.reference()
            assert volume(item.q, ref.support) <= 1.0 / item.rho + ref.support.size + 1e-9
