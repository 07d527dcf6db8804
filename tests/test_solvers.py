"""Solver behaviors: pivoting, gradient stepping, conjugate stages,
acceleration coefficients, working-set expansion, and counters."""

import ast
import collections
import gc
import math
import pathlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsepr import (
    Graph,
    PageRankInstance,
    SolverError,
    apgd,
    aspr,
    build_pagerank_quadratic,
    cdpr,
    check_optimality,
    dense_solve_active_set,
    gradient,
    ista_baseline,
    negative_tolerance,
    objective,
    pgd,
    random_graph_instance,
    subspace_solve,
)
from sparsepr import problem
from sparsepr import solvers as solvers_module
from sparsepr.oracle import random_m_matrix
from sparsepr.problem import GradientWorkspace, MQuadratic, restrict
from sparsepr.solvers import (
    ASPR_VARIANTS,
    SOLVER_TOKENS,
    Counters,
    _coeff_growth,
    _conditioning,
    solve,
)

from conftest import (EverPositive, answer_bytes, assert_close,
                      two_node_instance)


def recorder(q, calls):
    """An observer that appends (S, d, x, gradient at x) for every call."""
    def observe(x, S, d):
        calls.append((S.tolist(), d, x.copy(), gradient(q, x)))
    return observe


def _huge_b(variant):
    """Raise as ``variant`` does (an ista_baseline or an aspr variant) on
    random_m_matrix(40, 0.2, 0) with b scaled by 2^520, where the squared
    norm of a gradient overflows, with every warning an error."""
    q0 = random_m_matrix(40, 0.2, 0)
    q = MQuadratic(q0.Q, q0.b * 2.0**520, q0.alpha, q0.L)
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match=r"max\|b\|=.* is too large"):
        warnings.simplefilter("error")
        if variant == "ista":
            ista_baseline(q, 1e-6)
        else:
            aspr(q, 1e-6, variant=variant)


def _pivot_order(calls):
    """cdpr's pivots in the order it took them, from a recorder's calls."""
    order, seen = [], set()
    for S, *_ in calls:
        (i,) = set(S) - seen
        order.append(i)
        seen.add(i)
    return order


class TestPivotOrder:
    @pytest.mark.parametrize("n, want", [
        (6, [0, 1, 5, 2, 4, 3]),
        (9, [0, 1, 8, 2, 7, 6, 3, 5, 4]),
    ])
    def test_cycle_tie_goes_to_the_smallest_index(self, n, want):
        # seeded at node 0, the cycle's gradients at nodes 1 and n - 1 tie
        # exactly after the first stage
        q = build_pagerank_quadratic(random_graph_instance("cycle", {
            "n": n, "alpha": 0.1, "rho": 1e-3, "seed_node": 0}, 0))
        calls = []
        cdpr(q, observe=recorder(q, calls))
        g1 = calls[0][3]
        assert g1[1] == g1[n - 1] == g1.min() < -negative_tolerance(q)
        assert _pivot_order(calls) == want

    def test_most_negative_gradient_wins(self):
        # Q = I keeps every other gradient at -b while one pivot is solved
        q = MQuadratic(np.eye(3), [0.1, 0.5, 0.3], 1.0, 1.0)
        calls = []
        cdpr(q, observe=recorder(q, calls))
        assert _pivot_order(calls) == [1, 2, 0]


class TestGapFromGradient:
    def test_unlisted_positive_b_rows_count(self):
        # b_1 = 1e-13 lies below negative_tolerance(q) = 1e-12, so row 1 is
        # never listed, but its gradient -b_1 at x_1 = 0 adds b_1^2 / 2
        q = MQuadratic(np.eye(2), [1.0, 1e-13], 1.0, 1.0)
        ws = GradientWorkspace(q, Counters())
        ws.admit([0])
        ws.x[0] = 1.0
        ws.refresh()
        assert ws.rows.tolist() == [0]
        assert ws.gap_from_gradient() == 1e-13 * 1e-13 / 2.0


class TestPGD:
    def test_single_step_clamps(self, two_node):
        x = pgd(two_node, [0, 1], np.zeros(2), 1)
        assert x[0] == 0.45 and x[1] == 0.0

    def test_converges_to_optimum(self, two_node):
        x = pgd(two_node, [0, 1], np.zeros(2), 200)
        assert_close(x, [0.65, 0.15], 1e-8)

    def test_zero_iterations_returns_start(self, two_node):
        x0 = np.array([0.1, 0.2])
        assert np.array_equal(pgd(two_node, [0, 1], x0, 0), x0)

    def test_optimum_is_fixed_point(self, two_node):
        x = pgd(two_node, [0, 1], np.array([0.65, 0.15]), 7)
        assert_close(x, [0.65, 0.15], 1e-12)

    def test_off_subspace_coordinates_untouched(self, two_node):
        x = pgd(two_node, [0], np.zeros(2), 50)
        assert x[1] == 0.0
        assert_close(x[0], 0.6, 1e-10)

    def test_infeasible_start_rejected(self, two_node):
        with pytest.raises(ValueError):
            pgd(two_node, [0], np.array([0.0, 0.1]), 1)
        with pytest.raises(ValueError):
            pgd(two_node, [0, 1], np.array([-0.1, 0.0]), 1)
        # zeros past n lie off the subspace too
        with pytest.raises(ValueError, match="length 2"):
            pgd(two_node, [0], np.zeros(3), 1)

    def test_observer_sees_every_iterate(self, two_node):
        seen = []
        pgd(two_node, [0, 1], np.zeros(2), 5, observe=recorder(two_node, seen))
        assert len(seen) == 5
        assert all(S == [0, 1] and d is None for S, d, _, _ in seen)
        assert_close(seen[0][2], [0.45, 0.0], 1e-15)


@pytest.mark.parametrize("solver", [pgd, apgd], ids=["pgd", "apgd"])
@pytest.mark.parametrize("S", [[7], [-1], [0, 4]])
def test_subspace_ids_outside_the_range_are_rejected(solver, S):
    # subspace_solve names the same fault with the same message
    q = random_m_matrix(4, 0.5, 0)
    with pytest.raises(ValueError, match="^subspace index out of range$"):
        solver(q, S, np.zeros(4), 1)
    with pytest.raises(ValueError, match="^subspace index out of range$"):
        subspace_solve(q, S)


class TestAPGDCoefficients:
    def test_growth_at_kappa_one(self):
        # 2*1/(2*1+1-sqrt(5)) = 2/(3-sqrt(5)) = 2.618..., above the
        # guaranteed (1 - 1/2)^-1 = 2
        g = _coeff_growth(1.0)
        assert_close(g, 2.0 / (3.0 - math.sqrt(5.0)), 1e-15)
        assert g >= 2.0

    def test_growth_at_kappa_four(self):
        g = _coeff_growth(4.0)
        assert g == 8.0 / (9.0 - math.sqrt(17.0))
        assert g >= 4.0 / 3.0

    def test_growth_dominates_rate_factor_on_grid(self):
        for kappa in np.logspace(0, 6, 25):
            bound = 1.0 / (1.0 - 1.0 / (2.0 * math.sqrt(kappa)))
            assert _coeff_growth(float(kappa)) >= bound * (1 - 1e-12)


class TestAPGD:
    def test_two_node_reaches_small_gap(self, two_node):
        ref = dense_solve_active_set(two_node)
        y = apgd(two_node, [0, 1], np.zeros(2), 40)
        assert objective(two_node, y) - ref.objective_value <= 1e-4

    def test_stays_feasible_and_on_subspace(self, two_node):
        y = apgd(two_node, [0], np.zeros(2), 25)
        assert y[1] == 0.0 and y[0] >= 0.0
        assert_close(y[0], 0.6, 1e-6)

    def test_kappa_below_one_rejected(self, two_node):
        bad = type(two_node)(two_node.Q, two_node.b, 1.5, 1.0, validate=False)
        with pytest.raises(ValueError):
            apgd(bad, [0, 1], np.zeros(2), 3)

    def test_zero_iterations(self, two_node):
        x0 = np.array([0.2, 0.0])
        assert np.array_equal(apgd(two_node, [0, 1], x0, 0), x0)

    def test_observer_sees_every_iterate_on_the_subspace(self, two_node):
        seen = []
        y = apgd(two_node, [0], np.zeros(2), 6, observe=recorder(two_node, seen))
        assert len(seen) == 6
        assert all(S == [0] and d is None and x[1] == 0.0
                   for S, d, x, _ in seen)
        assert np.array_equal(seen[-1][2], y)


class TestCDPR:
    def test_two_node_stage_trace(self, two_node):
        stages = []
        sol = cdpr(two_node, observe=recorder(two_node, stages))
        assert [S for S, _, _, _ in stages] == [[0], [0, 1]]
        assert_close(stages[0][2], [0.6, 0.0], 1e-12)
        assert_close(stages[1][2], [0.65, 0.15], 1e-12)
        assert_close(stages[0][3][1], -0.1, 1e-12)
        assert sol.gap_bound == "exact"
        assert sol.counters.stages == 2
        assert sol.counters.inner_iters == 0
        assert list(sol.support) == [0, 1]

    def test_two_node_counters_frozen(self, two_node):
        sol = cdpr(two_node)
        c = sol.counters.as_dict()
        assert c == {"stages": 2, "inner_iters": 0, "nnz_touched": 15,
                     "full_gradients": 3, "restricted_gradients": 0}

    def test_boundary_instance_single_stage(self, two_node_high_rho):
        sol = cdpr(two_node_high_rho)
        assert sol.counters.stages == 1
        assert_close(sol.x, [2.0 / 15.0, 0.0], 1e-12)
        assert list(sol.support) == [0]

    def test_nonpositive_b_returns_zero_immediately(self):
        q = build_pagerank_quadratic(two_node_instance(rho=1.0))
        sol = cdpr(q)
        assert np.all(sol.x == 0.0)
        assert sol.counters.stages == 0
        assert sol.support.size == 0
        assert sol.gap_bound == "exact"

    def test_first_stage_is_exact_line_minimum(self, two_node):
        stages = []
        cdpr(two_node, observe=recorder(two_node, stages))
        # minimizing along e_0 alone gives b_0 / Q_00 = 0.45 / 0.75
        assert_close(stages[0][2][0], 0.6, 1e-14)

    def test_iterates_monotone_and_pivots_annihilated(self, small_corpus):
        for item in small_corpus:
            q = item.q
            stages = []
            cdpr(q, observe=recorder(q, stages))
            prev = np.zeros(q.n)
            for S, _, x, g in stages:
                assert np.min(x - prev) >= -1e-10
                prev = x
                scale = max(1.0, float(np.max(np.abs(q.b))))
                assert np.max(np.abs(g[S])) <= 1e-8 * scale

    def test_stage_count_equals_support(self, small_corpus):
        for item in small_corpus:
            ref = item.reference()
            sol = cdpr(item.q)
            assert sol.counters.stages == ref.support_size
            scale = max(1e-12, float(np.max(np.abs(ref.x_star))))
            assert np.max(np.abs(sol.x - ref.x_star)) <= 1e-8 * scale

    def test_directions_conjugate(self, small_corpus):
        for item in small_corpus[:5]:
            q = item.q
            stages = []
            cdpr(q, observe=recorder(q, stages))
            if len(stages) < 2:
                continue
            D = np.zeros((q.n, len(stages)))
            for k, (S, d, _, _) in enumerate(stages):
                D[S, k] = d
            G = D.T @ (q.Q @ D)
            norms = np.sqrt(np.diag(G))
            off = G / np.outer(norms, norms)
            np.fill_diagonal(off, 0.0)
            assert np.max(np.abs(off)) <= 1e-8

    @pytest.mark.parametrize("alpha", [1e-6, 1e-8])
    def test_tiny_alpha_reports_the_raised_threshold(self, alpha):
        # a connected 300-node graph: 1,500 random edges plus a path.  At a
        # tiny alpha a pivot's gradient reads below -negative_tolerance(q)
        # again; a threshold of 16 units of roundoff times L*max x was
        # still below it, and the solve raised "pivot ... revisited".  At
        # alpha 1e-6, where it first raised, the rounding on the support is
        # near one negative_tolerance(q), and whether the threshold rises
        # turns on the order the rows are summed in; so the answer may be
        # labelled "exact", but only if its residuals are within that
        # tolerance.  At 1e-8 they are hundreds of times it, and the
        # threshold rises whatever the order
        rng = np.random.default_rng(0)
        n = 300
        edges = set()
        while len(edges) < 1500:
            i, j = sorted(rng.integers(0, n, 2))
            if i != j:
                edges.add((int(i), int(j)))
        edges |= {(i, i + 1) for i in range(n - 1)}
        q = build_pagerank_quadratic(
            PageRankInstance(Graph(n, sorted(edges)), alpha, 1e-5, 7))
        sol = cdpr(q)
        assert sol.support.size == n
        if alpha == 1e-8:
            assert sol.tolerance > negative_tolerance(q)
        g = gradient(q, sol.x)
        if sol.tolerance > negative_tolerance(q):
            assert sol.gap_bound == pytest.approx(
                float(g @ g) / (2.0 * q.alpha), rel=1e-12)
        else:
            assert sol.gap_bound == "exact"
        report = check_optimality(q, sol.x)
        assert report.max_violation_positive <= sol.tolerance
        assert report.max_violation_zero_low <= sol.tolerance

    def test_non_finite_answer_is_never_labelled(self):
        # b scaled by 2^520 overflows the curvature of a direction; the
        # answer came back all NaN, with support [] and gap bound "exact"
        q0 = random_m_matrix(40, 0.2, 0)
        q = MQuadratic(q0.Q, q0.b * 2.0**520, q0.alpha, q0.L)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverError, match="non-finite"):
            cdpr(q)


class TestISTA:
    def test_two_node_converges(self, two_node):
        ref = dense_solve_active_set(two_node)
        sol = ista_baseline(two_node, 1e-8)
        assert objective(two_node, sol.x) - ref.objective_value <= 1e-8
        assert list(sol.support) == [0, 1]
        c = sol.counters.as_dict()
        assert c["stages"] == 2
        assert c["inner_iters"] == 12
        assert c["full_gradients"] == 13

    def test_already_optimal_reports_zero_stages(self):
        q = build_pagerank_quadratic(two_node_instance(rho=1.0))
        sol = ista_baseline(q, 1e-8)
        assert np.all(sol.x == 0.0)
        assert sol.counters.stages == 0

    def test_support_stays_inside_optimal(self, small_corpus):
        for item in small_corpus:
            ref = item.reference()
            observer = EverPositive("ista")
            ista_baseline(item.q, 1e-6, observe=observer)
            assert set(observer.ids()) <= set(ref.support)

    def test_unreachable_tolerance_raises_with_cap(self, two_node):
        with pytest.raises(SolverError):
            ista_baseline(two_node, 1e-300)

    def test_nonpositive_eps_rejected(self, two_node):
        with pytest.raises(ValueError):
            ista_baseline(two_node, 0.0)

    def test_huge_b_names_its_scale(self):
        # the budget squared L * max|b| / alpha and raised OverflowError
        _huge_b("ista")


class TestASPRSchedule:
    def test_shrink_margin_and_inner_gap(self):
        # eps=1e-3, alpha=0.5, L=1, working set of size 1:
        # margin = sqrt(eps*alpha/((1+|S|)L^2)), inner gap = margin^2*alpha/2
        delta = math.sqrt(1e-3 * 0.5 / (2 * 1.0 ** 2))
        assert delta == 0.015811388300841896
        assert abs(delta ** 2 * 0.5 / 2 - 6.25e-05) <= 1e-19


class TestStageConditioning:
    def test_one_coordinate_block_is_its_diagonal(self, two_node):
        # Q_SS = (0.75): one Jacobi sweep solves it, so both bounds sit
        # within their rounding slack of the entry
        alpha_S, L_S = _conditioning(restrict(two_node, [0]))
        assert two_node.alpha <= alpha_S <= 0.75 <= L_S <= two_node.L
        assert 0.75 - alpha_S <= 1e-14 and L_S - 0.75 <= 1e-14

    def test_small_working_sets_at_a_tiny_alpha(self):
        # the 60x60 grid at alpha 1e-4, rho 1e-2, centre seed: the optimal
        # support has 21 nodes, whose block has lambda_min near 0.078, so
        # kappa_S is near 12 where 1/alpha is 10^4; sized by 1/alpha, aspr
        # took 39,661 inner iterations here
        q = build_pagerank_quadratic(random_graph_instance("grid", {
            "rows": 60, "cols": 60, "alpha": 1e-4, "rho": 1e-2,
            "seed_node": 1830}, 0))
        f_star = objective(q, cdpr(q).x)
        eps = 1e-6 * abs(f_star)
        sol = aspr(q, eps)
        assert sol.counters.inner_iters <= 2000
        assert objective(q, sol.x) - f_star <= eps

    def test_stages_end_at_their_certificate(self):
        # the 60x60 grid at alpha 1e-3, rho 3e-3, centre seed: support 69.
        # Run to their a-priori lengths, aspr's stages took 7,447 inner
        # iterations; the gradient-mapping stop ends them at about 1,200
        q = build_pagerank_quadratic(random_graph_instance("grid", {
            "rows": 60, "cols": 60, "alpha": 1e-3, "rho": 3e-3,
            "seed_node": 1830}, 0))
        exact = cdpr(q)
        assert exact.support.size == 69
        f_star = objective(q, exact.x)
        eps = 1e-6 * abs(f_star)
        sol = aspr(q, eps)
        assert sol.counters.inner_iters <= 1500
        assert objective(q, sol.x) - f_star <= eps


def _community_query():
    """Six communities of 50 nodes at alpha 0.01, rho 1e-3, seeded by a
    distribution on three nodes of one: support 76, in five aspr stages."""
    inst = random_graph_instance("sbm", {
        "sizes": [50] * 6, "p_in": 0.12, "p_out": 0.004, "alpha": 0.01,
        "rho": 1e-3}, 5)
    s = np.zeros(inst.graph.n)
    s[[3, 17, 40]] = [0.5, 0.3, 0.2]
    return build_pagerank_quadratic(
        PageRankInstance(inst.graph, inst.alpha, inst.rho, s))


class _GuardedEntries:
    """A quadratic's ``_Q``, the CSR arrays that a solve reads, whose
    entries may be read only while ``open``: ``data``, and ``matrix``, the
    scipy view that ``q.Q`` returns; every other attribute is the block's
    own."""

    def __init__(self, Q):
        self._Q = Q
        self.open = False

    def __getattr__(self, name):
        if name in ("data", "matrix") and not self.open:
            raise AssertionError("Q's entries were read outside _gather_rows")
        return getattr(self._Q, name)


class TestStageRestriction:
    @pytest.mark.parametrize("token", SOLVER_TOKENS)
    @pytest.mark.parametrize("make", [
        _community_query, lambda: random_m_matrix(40, 0.2, seed=3)],
        ids=["communities", "m-matrix"])
    def test_rows_of_Q_are_gathered_only_when_the_working_set_grows(
            self, monkeypatch, token, make):
        # a solve reads Q's entries only through _gather_rows: once at the
        # set-up and once per admit that adds coordinates.  An aspr stage
        # restricts Q to S, and cdpr reads its pivot's row and takes Q d,
        # from the rows the workspace gathered when S last grew
        q = make()
        q._Q = guarded = _GuardedEntries(q._Q)
        gathers, grows = [], []
        gather, admit = problem._gather_rows, GradientWorkspace.admit

        def counting_gather(A, rows):
            if A is not guarded:
                return gather(A, rows)
            gathers.append(rows.size)
            guarded.open = True
            try:
                return gather(A, rows)
            finally:
                guarded.open = False

        def counting_admit(ws, coords):
            new = admit(ws, coords)
            if new.size:
                grows.append(new.size)
            return new

        monkeypatch.setattr(problem, "_gather_rows", counting_gather)
        monkeypatch.setattr(GradientWorkspace, "admit", counting_admit)
        solve(q, token, 1e-6)
        assert len(grows) >= 4
        assert len(gathers) == 1 + len(grows)


class TestPivotRows:
    @pytest.mark.parametrize("make", [
        _community_query, lambda: random_m_matrix(40, 0.2, seed=3)],
        ids=["communities", "m-matrix"])
    def test_cdpr_reads_each_pivot_row_from_Q_once(self, monkeypatch, make):
        # each stage puts its pivot's row into the workspace's block, read
        # alone from Q; it used to gather every row of the pivots again,
        # 275,366 entries for a solve whose 217 pivots' rows hold 2,554
        q = make()
        read, pivots = [], []
        gather = problem._gather_rows

        def counting_gather(A, rows):
            block = gather(A, rows)
            if A is q._Q:  # the arrays of Q that a solve reads
                read.append(int(block.indptr[-1]))
            return block

        monkeypatch.setattr(problem, "_gather_rows", counting_gather)
        cdpr(q, observe=lambda x, S, d: pivots.append(S))
        assert len(pivots) >= 10
        assert sum(read) == problem.volume(q, pivots[-1])

    def test_no_solve_writes_into_Q(self):
        # a row gathered alone is a view of Q's arrays, so a write into a
        # gathered block would reach Q: with them read-only, it raises
        q = random_m_matrix(40, 0.2, seed=3)
        expected = {t: answer_bytes(solve(q, t, 1e-6)) for t in SOLVER_TOKENS}
        for arr in (q.Q.data, q.Q.indices, q.Q.indptr):
            arr.setflags(write=False)
        for token in SOLVER_TOKENS:
            assert answer_bytes(solve(q, token, 1e-6)) == expected[token]


def test_solvers_leave_the_storage_to_problem():
    # solvers.py runs the algorithms; problem.py stores the working set and
    # is the one module that calls scipy's kernels
    tree = ast.parse(pathlib.Path(solvers_module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("scipy") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("scipy")
            names = {a.name for a in node.names}
            assert not names & {"_restricted", "Restriction"}, names
        elif isinstance(node, ast.Attribute) and node.attr in ("Q", "row"):
            # q.Q, ws.q.Q, q.row: a read of the quadratic's matrix
            owner = node.value
            assert not (isinstance(owner, ast.Name) and owner.id == "q"
                        or isinstance(owner, ast.Attribute)
                        and owner.attr == "q"), ast.unparse(node)


class TestASPR:
    @pytest.mark.parametrize("variant", ASPR_VARIANTS)
    def test_huge_b_names_its_scale(self, variant):
        # ||g_S||^2 overflowed to inf with a RuntimeWarning, and the stage
        # length that it made infinite blamed alpha
        _huge_b(variant)

    def test_two_node_stage_trace(self, two_node):
        stages = []
        sol = aspr(two_node, 1e-6, observe=recorder(two_node, stages))
        assert [S for S, _, _, _ in stages] == [[0], [0, 1]]
        assert all(d is None for _, d, _, _ in stages)
        ref = dense_solve_active_set(two_node)
        assert objective(two_node, sol.x) - ref.objective_value <= 1e-6
        assert sol.gap_bound == 1e-6
        assert sol.counters.stages == 2
        assert sol.counters.full_gradients == 3

    def test_gap_certificate_all_variants(self, small_corpus):
        for item in small_corpus:
            ref = item.reference()
            for variant in ASPR_VARIANTS:
                for eps in (1e-3, 1e-6):
                    sol = aspr(item.q, eps, variant=variant)
                    gap = objective(item.q, sol.x) - ref.objective_value
                    assert gap <= eps * (1 + 1e-9) + 1e-12, (
                        item.label, variant, eps, gap)

    def test_support_purity_all_variants(self, small_corpus):
        for item in small_corpus:
            ref = item.reference()
            for variant in ASPR_VARIANTS:
                observer = EverPositive("aspr")
                aspr(item.q, 1e-6, variant=variant, observe=observer)
                assert set(observer.ids()) <= set(ref.support)

    @pytest.mark.parametrize("variant", ASPR_VARIANTS)
    def test_stagewise_sandwich(self, small_corpus, variant):
        # every stage start sits below the working-set optimum, which sits
        # below the global optimum
        for item in small_corpus[:6]:
            q = item.q
            ref = item.reference()
            stages = []
            aspr(q, 1e-6, variant=variant, observe=recorder(q, stages))
            for S, _, x, _ in stages:
                xc = subspace_solve(q, S).x_star
                assert np.max(x - xc) <= 1e-9
                assert np.max(xc - ref.x_star) <= 1e-9

    def test_nonpositive_b_terminates_at_zero(self):
        q = build_pagerank_quadratic(two_node_instance(rho=1.0))
        for variant in ASPR_VARIANTS:
            sol = aspr(q, 1e-3, variant=variant)
            assert np.all(sol.x == 0.0)
            assert sol.counters.stages == 0

    def test_invalid_arguments_rejected(self, two_node):
        with pytest.raises(ValueError):
            aspr(two_node, 0.0)
        with pytest.raises(ValueError):
            aspr(two_node, -1e-3)
        with pytest.raises(ValueError):
            aspr(two_node, 1e-3, variant="bogus")

    def test_restricted_gradients_dominate_full(self, two_node):
        # the inner loop works on restricted gradients; expansion charges one
        # full gradient per stage (plus the initial and final ones)
        counters = aspr(two_node, 1e-6).counters
        assert counters.restricted_gradients > counters.full_gradients
        assert counters.full_gradients == counters.stages + 1

    def test_early_variant_never_adds_bad_coordinates(self, small_corpus):
        for item in small_corpus:
            ref = item.reference()
            stages = []
            aspr(item.q, 1e-6, variant="early", observe=recorder(item.q, stages))
            for S, _, _, _ in stages:
                assert set(S) <= set(ref.support)

    def test_final_iterate_is_reported_stationary_enough(self, small_corpus):
        for item in small_corpus[:6]:
            sol = aspr(item.q, 1e-6)
            # the certificate comes from the shrink margin, so the first-order
            # residuals must be modest relative to the gradient scale
            scale = max(1.0, float(np.max(np.abs(item.q.b))))
            report = check_optimality(item.q, sol.x)
            assert report.max_violation_zero_low <= 1e-3 * scale


class TestSolveDispatch:
    @pytest.mark.parametrize("token", SOLVER_TOKENS)
    def test_token_runs_its_solver(self, two_node, token):
        sol = solve(two_node, token, 1e-6)
        assert sol.support.tolist() == [0, 1]
        assert sol.gap_bound == ("exact" if token == "cdpr" else 1e-6)

    @pytest.mark.parametrize("token", ["sgd", "cdpr:early", "aspr:plain"])
    def test_unknown_token_rejected(self, two_node, token):
        with pytest.raises(ValueError, match="unknown solver token"):
            solve(two_node, token, 1e-6)

    @pytest.mark.parametrize("token", SOLVER_TOKENS)
    def test_no_solver_builds_the_dense_b(self, token):
        # a PageRank quadratic holds b as a shared base corrected on the
        # seed; a solver that read q.b would build all n entries of it
        inst = random_graph_instance("grid", {
            "rows": 12, "cols": 12, "alpha": 0.1, "rho": 1e-3,
            "seed_node": 66}, 0)
        s = np.zeros(inst.graph.n)
        s[[40, 66, 101]] = [0.5, 0.3, 0.2]
        for seed in (66, s):
            q = build_pagerank_quadratic(
                PageRankInstance(inst.graph, inst.alpha, inst.rho, seed))
            sol = solve(q, token, 1e-6)
            assert sol.support.size > 3
            assert q._b is None

    def test_cdpr_reads_no_eps(self, two_node):
        # cdpr never reads eps, so one whose 2*alpha*eps underflows is
        # no input error for it
        assert 2.0 * two_node.alpha * 1e-310 < sys.float_info.min
        sol, want = solve(two_node, "cdpr", 1e-310), cdpr(two_node)
        assert answer_bytes(sol) == answer_bytes(want)


def _cold(q, token):
    """A solve on newly made buffers."""
    q._spare.clear()
    return solve(q, token, 1e-6)


def _grid_queries(side, seeds, rhos=(1e-3,)):
    """Queries at each rho and seed on one grid, which share its solve
    buffers."""
    graph = random_graph_instance("grid", {"rows": side, "cols": side}, 0).graph
    return [build_pagerank_quadratic(PageRankInstance(graph, 0.1, rho, seed))
            for rho in rhos for seed in seeds]


class TestPooledState:
    @pytest.mark.parametrize("token", SOLVER_TOKENS)
    def test_warm_solve_allocates_nothing_of_length_n(self, token):
        # with the operator, its base and the solve buffers kept, a point
        # query's instance, build and solve allocate in O(support)
        def warm_peak(side):
            inst = random_graph_instance("grid", {
                "rows": side, "cols": side, "alpha": 0.1, "rho": 1e-3,
                "seed_node": side // 2 * side + side // 2}, 0)
            solve(build_pagerank_quadratic(inst), token, 1e-6)
            tracemalloc.start()
            try:
                q = build_pagerank_quadratic(PageRankInstance(
                    inst.graph, inst.alpha, inst.rho, inst.nodes[0]))
                solve(q, token, 1e-6)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = warm_peak(60), warm_peak(300)
        assert large <= 2 * small, (large, small)

    # a warm solve's (C-level, Python) calls on the 100^2 grid, as counted
    # with numpy 2.4 and scipy 1.17; numpy 1.x wraps other functions in
    # Python, so the bounds hold from numpy 2 on
    CALL_BUDGET = {"ista": (266, 201), "cdpr": (460, 405),
                   "aspr": (746, 303), "aspr:early": (680, 288),
                   "aspr:constraints": (860, 326)}

    @pytest.mark.parametrize("token", SOLVER_TOKENS)
    def test_warm_solve_calls_do_not_depend_on_n(self, token):
        # a warm solve's numpy and scipy calls (C-level) and its Python
        # calls, as sys.setprofile sees them, are the same at n = 100^2 and
        # 300^2, and at most the pinned budget
        def calls(side):
            (q,) = _grid_queries(side, (side // 2 * side + side // 2,))
            solve(q, token, 1e-6)
            events = collections.Counter()
            gc.collect()
            gc.disable()
            sys.setprofile(lambda frame, event, arg: events.update((event,)))
            try:
                solve(q, token, 1e-6)
            finally:
                sys.setprofile(None)
                gc.enable()
            return events["c_call"], events["call"]

        small = calls(100)
        assert small == calls(300)
        if int(np.__version__.split(".")[0]) >= 2:
            c_level, python = self.CALL_BUDGET[token]
            assert small[0] <= c_level and small[1] <= python, small

    def test_warm_solves_equal_cold_ones(self):
        queries = (_grid_queries(9, (4, 40))
                   + _grid_queries(13, (0, 84), rhos=(1e-3, 3e-4)))
        queries.append(random_m_matrix(30, 0.2, seed=3))
        cases = [(q, token) for q in queries for token in SOLVER_TOKENS]
        want = [answer_bytes(_cold(q, token)) for q, token in cases]
        order = np.random.default_rng(17).permutation(
            np.tile(np.arange(len(cases)), 2))
        for k in order:
            q, token = cases[k]
            assert answer_bytes(solve(q, token, 1e-6)) == want[k], token
        # what a solve hands back is zero wherever the next one reads
        # before it writes, and b is the base it is tagged with
        for q in queries:
            (buf,) = q._spare
            for arr in (buf.x, buf.listed, buf.member, buf.rank):
                assert not arr.any()
            assert buf.b.tobytes() == buf.base.tobytes()

    @pytest.mark.parametrize("token", ["cdpr", "aspr:constraints"])
    def test_a_solve_that_raised_leaves_no_trace(self, token):
        (q,) = _grid_queries(13, (84,))
        want = {tok: answer_bytes(_cold(q, tok)) for tok in SOLVER_TOKENS}
        calls = []

        class Stop(Exception):
            pass

        def observe(x, S, d):
            calls.append(S.size)
            if len(calls) == 3:
                raise Stop

        with pytest.raises(Stop):
            if token == "cdpr":
                cdpr(q, observe=observe)
            else:
                aspr(q, 1e-6, variant="constraints", observe=observe)
        for tok in SOLVER_TOKENS:
            assert answer_bytes(solve(q, tok, 1e-6)) == want[tok]

    def test_a_workspace_holds_all_of_b(self):
        # point and distribution seeds at two rhos on one grid, which share
        # the pooled b, and a quadratic with a b of its own, each solved in
        # turn
        s = np.zeros(13 * 13)
        s[[84, 85, 97]] = [0.6, 0.4 - 1e-6, 1e-6]
        queries = _grid_queries(13, (84, 40, s), rhos=(1e-3, 3e-4))
        queries.append(random_m_matrix(30, 0.2, seed=3))
        order = np.random.default_rng(5).permutation(
            np.tile(np.arange(len(queries)), 3))
        for step, k in enumerate(order):
            q = queries[k]
            ws = GradientWorkspace(q, Counters())
            assert ws.b.tobytes() == q.b.tobytes()
            ws.release()
            solve(q, SOLVER_TOKENS[step % len(SOLVER_TOKENS)], 1e-6)

    def test_a_warm_solve_at_a_kept_rho_writes_b_on_its_seed_only(self):
        # a value planted in the pooled b on a row that no solve reads
        # stays there until a query at a new rho copies in its base
        first, second, other_rho = _grid_queries(
            13, (84, 85), rhos=(1e-3, 3e-4))[:3]
        want = {tok: answer_bytes(_cold(second, tok)) for tok in SOLVER_TOKENS}
        solve(first, "cdpr", 1e-6)
        (buf,) = first._spare
        buf.b[0] = 7.0
        for token in SOLVER_TOKENS:
            solve(first, token, 1e-6)
            assert answer_bytes(solve(second, token, 1e-6)) == want[token]
        assert buf.b[0] == 7.0
        solve(other_rho, "cdpr", 1e-6)
        base, _, _ = other_rho._parts
        assert buf.base is base
        assert buf.b.tobytes() == base.tobytes()

    def test_seed_rows_listed_late_read_the_seed(self):
        # a seed weight below rho*d leaves b < 0 at its node, so its row is
        # listed only once the support reaches it, after the set-up
        graph = random_graph_instance("grid", {"rows": 13, "cols": 13}, 0).graph
        s = np.zeros(graph.n)
        s[[84, 85, 97]] = [0.6, 0.4 - 1e-6, 1e-6]
        q = build_pagerank_quadratic(PageRankInstance(graph, 0.1, 1e-3, s))
        assert q.b[97] < 0.0
        dense = MQuadratic(q.Q, q.b, q.alpha, q.L, validate=False)
        for token in SOLVER_TOKENS:
            sol = solve(q, token, 1e-6)
            assert 97 in sol.support
            assert answer_bytes(sol) == answer_bytes(solve(dense, token, 1e-6))

    def test_answers_own_their_iterates(self):
        (q,) = _grid_queries(13, (84,))
        first, second = cdpr(q), cdpr(q)
        want = second.x.copy()
        assert first.x is not second.x
        first.x[first.support] = -1.0
        assert second.x.tobytes() == want.tobytes()
        assert cdpr(q).x.tobytes() == want.tobytes()
        second.x[:] = 7.0
        assert first.x[first.support].tolist() == [-1.0] * first.support.size
        assert answer_bytes(cdpr(q)) == answer_bytes(_cold(q, "cdpr"))
