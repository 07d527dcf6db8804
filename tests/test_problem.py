"""Problem construction, gradients, objectives, optimality, volumes."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sparsepr import (
    Graph,
    MQuadratic,
    PageRankInstance,
    build_pagerank_quadratic,
    check_optimality,
    dense_solve_active_set,
    gradient,
    internal_volume,
    negative_tolerance,
    objective,
    pagerank_upper_bounds,
    validate_m_matrix,
    volume,
)
from sparsepr.oracle import GRAPH_KINDS, random_graph_instance, random_m_matrix
from sparsepr.problem import (
    EdgeError,
    GradientWorkspace,
    OptimalityReport,
    PageRankOperator,
    restrict,
)
from sparsepr.solvers import Counters, cdpr

from conftest import assert_close, two_node_instance


def _grid(side, seed_node):
    return random_graph_instance("grid", {
        "rows": side, "cols": side, "alpha": 0.1, "rho": 1e-3,
        "seed_node": seed_node}, 0)


def _dense_seed(inst):
    """The instance's seed as a dense vector of length n."""
    s = np.zeros(inst.graph.n)
    s[inst.nodes] = inst.weights
    return s


class TestGraph:
    def test_two_node_path(self):
        g = Graph(2, [(0, 1)])
        assert g.n == 2
        assert g.num_edges == 1
        assert list(g.degrees) == [1, 1]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Graph(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("n, edges, ncomp", [
        (4, [(0, 1), (2, 3)], 2), (6, [(0, 5), (1, 4), (2, 3)], 3),
        (6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)], 2)])
    def test_disconnected_names_its_component_count(self, n, edges, ncomp):
        with pytest.raises(ValueError, match=r"^graph is not connected "
                           r"\(%d components\)$" % ncomp):
            Graph(n, edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_isolated_node_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)])

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_edges_are_the_lexsorted_input_pairs(self, kind):
        # the pairs the constructor once kept: each pair sorted, then the
        # list lexsorted; now derived from the adjacency on access
        rng = np.random.default_rng(3)
        for seed in range(5):
            family = random_graph_instance(kind, {}, seed).graph
            e = np.array(family.edges)[rng.permutation(family.num_edges)]
            flip = rng.random(len(e)) < 0.5
            e[flip] = e[flip][:, ::-1]
            want = np.sort(e, axis=1)
            want = want[np.lexsort((want[:, 1], want[:, 0]))]
            graph = Graph(family.n, e)
            got = graph.edges
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert graph.num_edges == len(want)
            # the reference: scipy's CSR of both orientations of those pairs
            rows = np.concatenate([want[:, 0], want[:, 1]])
            cols = np.concatenate([want[:, 1], want[:, 0]])
            ref = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                                shape=(family.n, family.n))
            ref.sort_indices()
            for name in ("indptr", "indices", "data"):
                a, b = getattr(graph._adj, name), getattr(ref, name)
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("end", [2**64, -2**63 - 1])
    def test_endpoint_beyond_int64_is_a_range_error(self, end):
        with pytest.raises(ValueError,
                           match=r"^edge endpoint out of range \[0, 3\)$"):
            Graph(3, [(0, 1), (1, end)])

    @pytest.mark.parametrize("edges, message, kind, position, first", [
        ([(0, 1), (1, 2), (0, 3)], r"edge endpoint out of range \[0, 3\)",
         "range", 2, None),
        ([(0, 1), (2, 2), (1, 1)], "self-loop at node 2", "loop", 1, None),
        # the first repeat in input order, not the smallest repeated pair
        (np.array([(1, 2), (0, 1), (2, 1), (1, 0)]), r"duplicate edge \(1, 2\)",
         "duplicate", 2, 0),
        # a repeat before a range fault, and a range fault before a repeat
        ([(0, 1), (1, 0), (0, 3)], r"duplicate edge \(0, 1\)", "duplicate",
         1, 0),
        ([(0, 1), (5, 1), (1, 0)], r"edge endpoint out of range \[0, 3\)",
         "range", 1, None),
        # 257 copies would sum to 1 in the int8 adjacency
        ([(1, 2)] + [(0, 1)] * 257, r"duplicate edge \(0, 1\)", "duplicate",
         2, 1),
    ])
    def test_first_bad_pair_in_input_order(self, edges, message, kind,
                                           position, first):
        with pytest.raises(EdgeError, match="^%s$" % message) as info:
            Graph(3, edges)
        assert (info.value.kind, info.value.position, info.value.first) == (
            kind, position, first)

    def test_repeat_is_named_before_an_isolated_node(self):
        # 5 nodes and 2 pairs: some node is isolated, but the repeat comes first
        with pytest.raises(EdgeError, match=r"^duplicate edge \(0, 1\)$") as info:
            Graph(5, [(0, 1), (1, 0)])
        assert (info.value.position, info.value.first) == (1, 0)

    @pytest.mark.parametrize("edges", [
        [(0, 1.7), (1, 2)],
        [(0, 1.0), (1, 2)],
        [(0, np.float64(1)), (1, 2)],
        np.array([[0, 1.5], [1, 2.0]]),
        [(True, 2), (0, 1)],
        [(np.True_, 2), (0, 1)],
        np.array([[False, True], [True, True]]),
    ])
    def test_non_integer_endpoints_rejected(self, edges):
        # casting to int64 truncated 1.7 and read True as node 1
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", [
        np.array([(0, 1), (1, 2)], dtype=np.int32),
        np.array([(0, 1), (1, 2)], dtype=np.uint8),
        [(np.int64(0), np.uint16(1)), (1, 2)],
        np.array([(0, 1), (1, 2)], dtype=object),
    ])
    def test_integer_endpoint_types_accepted(self, edges):
        assert Graph(3, edges).edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty(0, dtype=bool)])
    def test_no_edges_is_an_isolated_node(self, edges):
        with pytest.raises(ValueError, match="^isolated node 0 "):
            Graph(1, edges)

    def test_construction_peaks_follow_the_edge_bytes(self):
        # on a 300 x 300 grid, as multiples of the (m, 2) int64 edges: the
        # constructor once peaked at 4.25 (a row-wise sort, a lexsort and
        # an undirected connected_components) and the operator at 5.0 (an
        # int64 row index per entry); now 1.9 and 3.9, the operator's sum
        # with the diagonal by scipy's kernel on two n-length arrays
        edges = _grid(300, 0).graph.edges.copy()
        n = 300 * 300
        tracemalloc.start()
        try:
            graph = Graph(n, edges)
            graph_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            PageRankOperator(graph, 0.1)
            operator_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert graph_peak <= 3.5 * edges.nbytes, graph_peak / edges.nbytes
        assert operator_peak <= 4.0 * edges.nbytes, operator_peak / edges.nbytes


class TestPageRankInstance:
    def test_seed_node_becomes_indicator(self):
        inst = two_node_instance()
        s = _dense_seed(inst)
        assert s[0] == 1.0 and s[1] == 0.0

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            PageRankInstance(Graph(2, [(0, 1)]), 1.5, 0.1, 0)
        with pytest.raises(ValueError):
            PageRankInstance(Graph(2, [(0, 1)]), 0.0, 0.1, 0)

    def test_rho_positive(self):
        with pytest.raises(ValueError):
            PageRankInstance(Graph(2, [(0, 1)]), 0.5, 0.0, 0)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_rho_finite(self, rho):
        with pytest.raises(ValueError, match="finite"):
            PageRankInstance(Graph(2, [(0, 1)]), 0.5, rho, 0)

    def test_distribution_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PageRankInstance(Graph(2, [(0, 1)]), 0.5, 0.1,
                             np.array([np.nan, 1.0]))

    def test_distribution_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            PageRankInstance(Graph(2, [(0, 1)]), 0.5, 0.1, np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            PageRankInstance(Graph(2, [(0, 1)]), 0.5, 0.1, np.array([1.2, -0.2]))

    @pytest.mark.parametrize("s", [1.7, 1.0, True, np.True_, np.float64(1.0),
                                   np.array(1.0), "1"])
    def test_seed_node_must_be_an_integer(self, s):
        # int() truncated 1.7 to node 1 and read True as node 1
        with pytest.raises(ValueError, match="seed node must be an integer"):
            PageRankInstance(Graph(3, [(0, 1), (1, 2)]), 0.5, 0.1, s)

    @pytest.mark.parametrize("s", [1, np.int32(1), np.uint8(1), np.array(1)])
    def test_integer_seed_node_types_accepted(self, s):
        inst = PageRankInstance(Graph(3, [(0, 1), (1, 2)]), 0.5, 0.1, s)
        assert _dense_seed(inst).tolist() == [0.0, 1.0, 0.0]

    def test_distribution_seed_retains_memory_in_its_support(self):
        # the instance keeps nodes and weights, not the caller's array or
        # a copy of length n
        graph = _grid(300, 0).graph
        dist = np.zeros(graph.n)
        dist[[5, 4000, 80000]] = [0.5, 0.3, 0.2]
        tracemalloc.start()
        try:
            inst = PageRankInstance(graph, 0.1, 1e-3, dist)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 4096, retained
        assert not inst.nodes.flags.writeable
        assert not inst.weights.flags.writeable
        q = build_pagerank_quadratic(inst)
        idx = np.array([4, 5, 4000, 80000], dtype=np.int64)
        before = q.b[idx]
        dist[:] = 0.0
        dist[4] = 1.0
        assert inst.weights.tolist() == [0.5, 0.3, 0.2]
        after = build_pagerank_quadratic(inst).b[idx]
        assert after.tobytes() == before.tobytes()

    def test_distribution_within_tolerance_accepted(self):
        s = np.array([0.7, 0.3 + 1e-13])
        inst = PageRankInstance(Graph(2, [(0, 1)]), 0.5, 0.1, s)
        assert abs(_dense_seed(inst).sum() - 1.0) <= 1e-12


class TestBuildPageRank:
    def test_two_node_matrix(self, two_node):
        dense = two_node.Q.toarray()
        assert dense[0, 0] == 0.75 and dense[1, 1] == 0.75
        assert dense[0, 1] == -0.25 and dense[1, 0] == -0.25
        assert two_node.alpha == 0.5 and two_node.L == 1.0

    def test_two_node_linear_term(self, two_node):
        # b_i = alpha * (s_i / sqrt(d_i) - rho * sqrt(d_i)), unit degrees here
        assert two_node.b[0] == 0.45
        assert two_node.b[1] == -0.05

    def test_triangle_matrix(self):
        inst = PageRankInstance(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0.5, 0.1, 0)
        q = build_pagerank_quadratic(inst)
        dense = q.Q.toarray()
        assert np.all(np.diag(dense) == 0.75)
        off = dense[~np.eye(3, dtype=bool)]
        assert_close(off, -0.125, 1e-15, "triangle off-diagonals")

    def test_degree_scaling(self):
        # star center has degree 3: off-diagonal -(1-alpha)/(2*sqrt(3))
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        q = build_pagerank_quadratic(PageRankInstance(g, 0.5, 0.1, 0))
        assert_close(q.Q.toarray()[0, 1], -0.25 / np.sqrt(3.0), 1e-15, "off-diag")

    def test_passes_matrix_validation(self, two_node):
        result = validate_m_matrix(two_node.Q, two_node.alpha, two_node.L)
        assert result.ok, result.violations


class TestGradient:
    def test_at_zero_is_minus_b(self, two_node):
        g = gradient(two_node, np.zeros(2))
        assert g[0] == -0.45 and g[1] == 0.05

    def test_vanishes_at_optimum(self, two_node):
        assert_close(gradient(two_node, np.array([0.65, 0.15])), 0.0, 1e-15)

    def test_single_coordinate_after_first_stage(self, two_node):
        g = gradient(two_node, np.array([0.6, 0.0]), coords=[1])
        assert g.shape == (1,)
        assert_close(g, [-0.1], 1e-15)

    @pytest.mark.parametrize("coords", [[-1], [2], [0, -1]])
    def test_restricted_index_out_of_range(self, two_node, coords):
        # the ids reached the row gather unchecked: -1 raised numpy's
        # "negative dimensions", 2 an IndexError, and a negative id among
        # several can send scipy's kernel outside Q's arrays ([-2, 0]
        # crashed the interpreter on random_m_matrix(10, 0.3, seed=1))
        with pytest.raises(ValueError, match="gradient index out of range"):
            gradient(two_node, np.zeros(2), coords=coords)

    def test_restricted_matches_full_slice_bitwise(self, small_corpus):
        for item in small_corpus[:6]:
            q = item.q
            rng = np.random.default_rng(item.seed)
            x = rng.uniform(0.0, 1.0, q.n)
            coords = rng.choice(q.n, size=max(1, q.n // 2), replace=False)
            full = gradient(q, x)
            part = gradient(q, x, coords=coords)
            assert np.array_equal(part, full[coords])

    def test_finite_difference_consistency(self, small_corpus):
        h = 1e-5
        for item in small_corpus[:5]:
            q = item.q
            rng = np.random.default_rng(item.seed + 1)
            x = rng.uniform(0.1, 1.0, q.n)
            g = gradient(q, x)
            for i in range(min(q.n, 4)):
                e = np.zeros(q.n)
                e[i] = h
                fd = (objective(q, x + e) - objective(q, x - e)) / (2 * h)
                rel = abs(fd - g[i]) / max(1.0, abs(g[i]))
                assert rel <= 1e-6


class TestObjective:
    def test_zero_at_origin(self, two_node):
        assert objective(two_node, np.zeros(2)) == 0.0

    def test_unit_vector_value(self, two_node):
        # 0.5 * 0.75 - 0.45 = -0.075
        assert_close(objective(two_node, np.array([1.0, 0.0])), -0.075, 1e-15)

    def test_optimum_value(self, two_node):
        # -(b . x*)/2 = -(0.45*0.65 - 0.05*0.15)/2 = -0.1425
        assert_close(objective(two_node, np.array([0.65, 0.15])), -0.1425, 1e-15)


def _full_report(q, x, box):
    """check_optimality's report from the full gradient Q @ x - b."""
    g = q.Q @ x - q.b
    pos, zero = x > 0, x <= 0
    return OptimalityReport(
        float(np.max(np.abs(g[pos]))) if pos.any() else 0.0,
        float(max(0.0, np.max(-g[zero]))) if zero.any() else 0.0,
        [] if box is None else
        np.flatnonzero(zero & (g > np.asarray(box))).tolist())


class TestCheckOptimality:
    def test_clean_at_optimum(self, two_node):
        inst = two_node_instance()
        rep = check_optimality(two_node, np.array([0.65, 0.15]),
                               pagerank_box=pagerank_upper_bounds(inst))
        assert rep.max_violation_positive <= 1e-10
        assert rep.max_violation_zero_low == 0.0
        assert rep.upper_box_violations == []
        assert rep.is_stationary(1e-10)

    def test_partial_support_optimum(self, two_node_high_rho):
        # b = (0.1, -0.4); x* = (2/15, 0); grad at node 1 is 11/30 <= cap 0.4
        q = two_node_high_rho
        assert_close(q.b, [0.1, -0.4], 1e-16, "b")
        x = np.array([2.0 / 15.0, 0.0])
        inst = two_node_instance(rho=0.8)
        rep = check_optimality(q, x, pagerank_box=pagerank_upper_bounds(inst))
        assert rep.max_violation_positive <= 1e-15
        assert rep.max_violation_zero_low == 0.0
        assert rep.upper_box_violations == []
        assert_close(gradient(q, x, coords=[1]), [11.0 / 30.0], 1e-15)

    def test_origin_reports_negative_gradient(self, two_node):
        rep = check_optimality(two_node, np.zeros(2))
        assert rep.max_violation_zero_low == 0.45
        assert rep.max_violation_positive == 0.0

    def test_box_violation_flagged(self, two_node):
        # at x=0 the gradient of node 0 is -0.45; with a tiny cap on zero
        # coordinates whose gradient is positive, node 1 (grad +0.05) trips
        rep = check_optimality(two_node, np.zeros(2),
                               pagerank_box=np.array([0.01, 0.01]))
        assert rep.upper_box_violations == [1]

    def test_negative_x_rejected(self, two_node):
        with pytest.raises(ValueError):
            check_optimality(two_node, np.array([-0.1, 0.0]))

    @pytest.mark.parametrize("x", [[0.1], [0.1, 0.0, 0.2]])
    def test_x_of_the_wrong_length_rejected(self, two_node, x):
        with pytest.raises(ValueError, match="length 2"):
            check_optimality(two_node, np.array(x))

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [np.nan] * 3,
                                   [0.0, np.inf, 0.0]])
    def test_non_finite_x_rejected(self, x):
        # every sign test is false for NaN: x = (nan, 0, 0) was reported
        # stationary with both residuals 0
        q = build_pagerank_quadratic(
            PageRankInstance(Graph(3, [(0, 1), (1, 2)]), 0.5, 0.1, 0))
        with pytest.raises(ValueError, match="finite"):
            check_optimality(q, np.array(x))

    def test_no_cap_witness_at_origin(self):
        # off the seed the gradient at x=0 is -b_i = alpha*(rho*sqrt(d_i));
        # the cap must round the same way, or the degree-2 corners trip it
        inst = _grid(5, 12)
        q = build_pagerank_quadratic(inst)
        cap = pagerank_upper_bounds(inst)
        off = np.arange(q.n) != 12
        assert np.array_equal(-q.b[off], cap[off])
        rep = check_optimality(q, np.zeros(q.n), pagerank_box=cap)
        assert rep.upper_box_violations == []

    def test_no_cap_witness_at_exact_optimum(self):
        inst = _grid(20, 210)
        q = build_pagerank_quadratic(inst)
        rep = check_optimality(q, cdpr(q).x,
                               pagerank_box=pagerank_upper_bounds(inst))
        assert rep.upper_box_violations == []


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_check_matches_the_full_gradient(self, seed):
        # the check computes rows near supp(x), positive_b and the seed only;
        # its report equals the one from the full Q @ x - b bit for bit, and
        # it builds no dense b
        inst = _grid(12, 60)
        q = build_pagerank_quadratic(inst)
        rng = np.random.default_rng(seed)
        x = np.zeros(q.n)
        near = rng.choice(q.n, 20, replace=False)
        x[near] = rng.uniform(0.0, 1e-3, near.size) * (rng.uniform(size=20) < 0.7)
        cap = pagerank_upper_bounds(inst)
        tight = cap * rng.uniform(0.5, 1.5, q.n)
        for box in (None, cap, tight, 0.01):
            rep = check_optimality(q, x, pagerank_box=box)
            assert q._b is None
            want = _full_report(build_pagerank_quadratic(inst), x, box)
            assert repr(rep) == repr(want)

    @pytest.mark.parametrize("n", [0, 3])
    def test_local_check_with_no_rows_to_check(self, n):
        # at x = 0 with b <= 0 and no corrected rows, no row can violate
        # anything; the check still compares every row with its cap
        q = MQuadratic(sp.identity(n, format="csr"), -np.arange(1.0, n + 1),
                       1.0, 1.0, validate=False)
        x = np.zeros(n)
        for box in (None, 0.5, 2.5):
            rep = check_optimality(q, x, pagerank_box=box)
            assert repr(rep) == repr(_full_report(q, x, box))


class TestPageRankOperator:
    def test_queries_share_one_read_only_hessian(self):
        inst = _grid(6, 14)
        q = build_pagerank_quadratic(inst)
        other = build_pagerank_quadratic(
            PageRankInstance(inst.graph, inst.alpha, 0.05, 3))
        assert other.Q is q.Q
        for arr in (q.Q.data, q.Q.indices, q.Q.indptr, q.b):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_new_alpha_replaces_the_cached_operator(self):
        inst = _grid(6, 14)
        op = PageRankOperator.of(inst.graph, inst.alpha)
        assert PageRankOperator.of(inst.graph, inst.alpha) is op
        PageRankOperator.of(inst.graph, 0.5)
        again = PageRankOperator.of(inst.graph, inst.alpha)
        assert again is not op
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again.Q, name), getattr(op.Q, name))

    def test_solution_survives_a_second_query(self):
        inst = _grid(10, 44)
        first = cdpr(build_pagerank_quadratic(inst))
        x = first.x.copy()
        second = cdpr(build_pagerank_quadratic(
            PageRankInstance(inst.graph, inst.alpha, inst.rho, 55)))
        assert second.support.size
        assert first.x.tobytes() == x.tobytes()

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_quadratic_and_caps_match_the_edge_list_assembly(self, kind):
        # the operator slots the diagonal into the sorted adjacency; the
        # reference assembles Q from the edge list through COO, and b and
        # the caps from dense degree vectors
        for seed in range(5):
            inst = random_graph_instance(kind, {}, seed)
            g, a, n = inst.graph, inst.alpha, inst.graph.n
            sqrt_d = np.sqrt(g.degrees.astype(float))
            dinv = 1.0 / sqrt_d
            e = g.edges
            off = -(1.0 - a) / 2.0 * (dinv[e[:, 0]] * dinv[e[:, 1]])
            rows = np.concatenate([np.arange(n), e[:, 0], e[:, 1]])
            cols = np.concatenate([np.arange(n), e[:, 1], e[:, 0]])
            vals = np.concatenate([np.full(n, (1.0 + a) / 2.0), off, off])
            ref = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))
            q = build_pagerank_quadratic(inst)
            for name in ("indptr", "indices", "data"):
                got, want = getattr(q.Q, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            want = a * (_dense_seed(inst) * dinv - inst.rho * sqrt_d)
            assert q.b.tobytes() == want.tobytes()
            want = a * (inst.rho * sqrt_d)
            assert pagerank_upper_bounds(inst).tobytes() == want.tobytes()

    def test_warm_point_seed_build_allocates_nothing_of_length_n(self):
        # with the operator and the base cached, a point-seed instance and
        # its build read b on the seed only: the peak does not grow with n
        def warm_peak(side):
            inst = _grid(side, side // 2 * side + side // 2)
            build_pagerank_quadratic(inst)
            tracemalloc.start()
            try:
                build_pagerank_quadratic(
                    PageRankInstance(inst.graph, inst.alpha, inst.rho, 7))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = warm_peak(60), warm_peak(300)
        assert large <= 2 * small, (large, small)

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_sparse_linear_term_matches_the_dense_formula(self, kind):
        # point seeds, distributions, and seeds on every node of maximum
        # degree, where max_abs_b must scan off supp(s); a workspace holds
        # all of b after the solves of the earlier seeds, which share its
        # pooled b
        rng = np.random.default_rng(5)
        for seed in range(4):
            inst = random_graph_instance(kind, {}, seed)
            g, a, rho, n = inst.graph, inst.alpha, inst.rho, inst.graph.n
            top = np.flatnonzero(g.degrees == g.degrees.max())
            spread = np.zeros(n)
            spread[rng.choice(n, size=3, replace=False)] = [0.5, 0.3, 0.2]
            cover = np.zeros(n)
            cover[top] = 1.0 / top.size
            sqrt_d = np.sqrt(g.degrees.astype(float))
            dinv = 1.0 / sqrt_d
            for s in (inst.nodes[0], int(top[0]), spread, cover):
                seeded = PageRankInstance(g, a, rho, s)
                q = build_pagerank_quadratic(seeded)
                want = a * (_dense_seed(seeded) * dinv - rho * sqrt_d)
                ws = GradientWorkspace(q, Counters())
                assert ws.b.tobytes() == want.tobytes()
                ws.release()
                cdpr(q)
                assert q._b is None
                assert q.max_abs_b == float(np.max(np.abs(want)))
                assert np.array_equal(q.positive_b, np.flatnonzero(want > 0))
                assert q.b.tobytes() == want.tobytes()


class TestRestrict:
    def test_empty_set_gives_empty_quadratic(self, two_node):
        sub = restrict(two_node, [])
        assert sub.diag.size == sub.b.size == sub.Q.indptr[-1] == 0

    @pytest.mark.parametrize("S", [[1, 0], [0, 0]])
    def test_indices_must_increase(self, two_node, S):
        with pytest.raises(ValueError, match="strictly increasing"):
            restrict(two_node, S)

    @pytest.mark.parametrize("S", [[-1, 0], [1, 2]])
    def test_indices_must_lie_in_range(self, two_node, S):
        with pytest.raises(ValueError, match="out of range"):
            restrict(two_node, S)

    def test_restriction_is_canonical(self):
        # every row of Q_SS holds its columns strictly increasing
        q = build_pagerank_quadratic(random_graph_instance("grid", {}, 0))
        sub = restrict(q, [1, 2, 5, 6, 9])
        indptr, indices = sub.Q.indptr, sub.Q.indices
        for r in range(indptr.size - 1):
            assert np.all(np.diff(indices[indptr[r]:indptr[r + 1]]) > 0)


    def test_a_corrected_quadratic_builds_no_dense_b(self):
        # restrict reads b on S, and internal_volume counts Q_SS's entries,
        # without the dense b; both give what the dense b gives
        inst = _grid(9, 40)
        q = build_pagerank_quadratic(inst)
        S = np.array([30, 31, 39, 40, 41, 49, 77])
        sub = restrict(q, S)
        ivol = internal_volume(q, S)
        assert q._b is None
        ref = MQuadratic(q.Q[S][:, S], q.b[S], q.alpha, q.L, validate=False)
        assert sub.b.tobytes() == ref.b.tobytes()
        assert ivol == ref.Q.nnz == sub.Q.indptr[-1]

    @pytest.mark.parametrize("S", [[1, 0], [-1, 0], [1, 2]])
    def test_internal_volume_checks_its_indices(self, two_node, S):
        with pytest.raises(ValueError):
            internal_volume(two_node, S)


class TestVolumes:
    def test_two_node_counts(self, two_node):
        assert volume(two_node, [0]) == 2
        assert internal_volume(two_node, [0]) == 1
        assert volume(two_node, [0, 1]) == 4
        assert internal_volume(two_node, [0, 1]) == 4
        assert volume(two_node, []) == 0
        assert internal_volume(two_node, []) == 0

    def test_graph_volume_identity(self, small_corpus):
        # for PageRank quadratics: vol(S) = sum(deg) + |S|,
        # internal_volume(S) = internal edges + |S|
        pr = [it for it in small_corpus if it.rho is not None]
        for item in pr[:4]:
            q = item.q
            rng = np.random.default_rng(item.seed + 2)
            S = np.flatnonzero(rng.uniform(size=q.n) < 0.5)
            degs = q.Q.indptr[S + 1] - q.Q.indptr[S] - 1
            assert volume(q, S) == int(degs.sum()) + len(S)
            member = np.zeros(q.n, dtype=bool)
            member[S] = True
            directed_internal = sum(
                member[j]
                for i in S
                for j in q.Q.indices[q.Q.indptr[i]:q.Q.indptr[i + 1]]
                if j != i
            )
            assert internal_volume(q, S) == directed_internal + len(S)


class TestValidateMMatrix:
    def test_valid_two_node(self, two_node):
        result = validate_m_matrix(two_node.Q, 0.5, 1.0)
        assert result.ok and result.violations == []

    def test_identity_valid(self):
        result = validate_m_matrix(sp.identity(3, format="csr"), 1.0, 1.0)
        assert result.ok

    def test_positive_off_diagonal_rejected(self):
        Q = sp.csr_matrix(np.array([[1.0, 0.1], [0.1, 1.0]]))
        result = validate_m_matrix(Q, 0.5, 1.5)
        assert not result.ok
        assert any("positive off-diagonal at (0, 1)" in v for v in result.violations)

    def test_asymmetry_rejected(self):
        Q = sp.csr_matrix(np.array([[1.0, -0.2], [-0.1, 1.0]]))
        result = validate_m_matrix(Q, 0.5, 1.5)
        assert not result.ok
        assert any("asymmetric" in v for v in result.violations)

    def test_eigenvalue_bounds_checked_small(self, two_node):
        # eigenvalues are 0.5 and 1.0; alpha=0.75 overclaims
        result = validate_m_matrix(two_node.Q, 0.75, 1.0)
        assert not result.ok
        assert any("below alpha" in v for v in result.violations)

    def test_diagonal_above_L_rejected(self):
        Q = sp.csr_matrix(np.diag([1.0, 2.0]))
        result = validate_m_matrix(Q, 0.5, 1.0)
        assert not result.ok
        assert any("diagonal above L" in v for v in result.violations)


class TestMQuadratic:
    def test_invalid_matrix_rejected_on_construction(self):
        Q = sp.csr_matrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
        with pytest.raises(ValueError):
            MQuadratic(Q, np.zeros(2), 0.5, 1.5)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("b, alpha, L", [
        ([np.nan, 1.0], 0.5, 1.5),
        ([1.0, np.inf], 0.5, 1.5),
        ([-np.inf, 1.0], 0.5, 1.5),
        ([1.0, 1.0], np.nan, 1.5),
        ([1.0, 1.0], np.inf, 1.5),
        ([1.0, 1.0], 0.5, np.nan),
        ([1.0, 1.0], 0.5, np.inf),
    ])
    def test_non_finite_data_rejected(self, b, alpha, L, validate):
        # without the check, cdpr answered x = 0 as "exact" for b = (nan, 1)
        Q = sp.csr_matrix(np.array([[1.0, -0.2], [-0.2, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            MQuadratic(Q, b, alpha, L, validate=validate)

    def test_writable_arguments_are_copied(self):
        Q = sp.csr_matrix(np.array([[1.0, -0.2], [-0.2, 1.0]]))
        b = np.array([1.0, -1.0])
        q = MQuadratic(Q, b, 0.5, 1.5)
        Q.data[:] = 7.0
        b[:] = 7.0
        assert q.Q.toarray().tolist() == [[1.0, -0.2], [-0.2, 1.0]]
        assert q.b.tolist() == [1.0, -1.0]

    def test_frozen_unsorted_matrix_is_copied_and_sorted(self):
        Q = sp.csr_matrix((np.array([-0.2, 1.0, 1.0, -0.2]),
                           np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
                          shape=(2, 2))
        for arr in (Q.data, Q.indices, Q.indptr):
            arr.setflags(write=False)
        q = MQuadratic(Q, np.zeros(2), 0.5, 1.5)
        assert q.Q is not Q
        assert q.Q.indices.tolist() == [0, 1, 0, 1]

    def test_kappa(self, two_node):
        assert two_node.kappa == 2.0

    def test_negative_tolerance_scales_with_b(self, two_node):
        assert negative_tolerance(two_node) == 1e-12 * 1.0 * 0.45


class TestStructuralProperties:
    def test_origin_optimal_iff_rho_dominates_seed(self):
        # negative entries of grad at 0 exist iff s_i/d_i > rho
        for rho, expect_empty in ((1.0, True), (1.5, True), (0.99, False)):
            q = build_pagerank_quadratic(two_node_instance(rho=rho))
            ref = dense_solve_active_set(q)
            grad0_neg = bool((gradient(q, np.zeros(2)) < 0).any())
            assert grad0_neg == (not expect_empty)
            assert (ref.support.size == 0) == expect_empty

    def test_monotone_gradient_under_coordinate_decrease(self, small_corpus):
        # lowering one coordinate never lowers any other coordinate's gradient
        for item in small_corpus[:6]:
            q = item.q
            rng = np.random.default_rng(item.seed + 3)
            x = rng.uniform(0.0, 2.0, q.n)
            g1 = gradient(q, x)
            i = int(rng.integers(q.n))
            eps = float(rng.uniform(0.0, x[i])) if x[i] > 0 else 0.0
            x2 = x.copy()
            x2[i] -= eps
            g2 = gradient(q, x2)
            mask = np.arange(q.n) != i
            assert np.min(g2[mask] - g1[mask]) >= -1e-12

    def test_random_m_matrix_gradient_scale(self):
        q = random_m_matrix(6, 0.5, seed=11)
        assert negative_tolerance(q) > 0
