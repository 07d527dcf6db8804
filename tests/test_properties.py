"""Randomized structural properties, driven by hypothesis."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sparsepr import (
    Counters,
    Graph,
    MQuadratic,
    PageRankInstance,
    aspr,
    build_pagerank_quadratic,
    cdpr,
    dense_solve_active_set,
    gradient,
    internal_volume,
    ista_baseline,
    negative_tolerance,
    objective,
    random_graph_instance,
    subspace_solve,
    validate_m_matrix,
    volume,
)
from sparsepr.oracle import GRAPH_KINDS, random_m_matrix
from sparsepr.problem import (
    GradientWorkspace,
    restrict,
    _Hessian,
    _add_product,
    _gather_rows,
    _sorted_union,
)
from sparsepr.solvers import _BASIS_START, _apgd_loop, _conditioning

from conftest import EverPositive

common = settings(max_examples=25, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=2, max_value=10)
densities = st.floats(min_value=0.15, max_value=0.95)


@common
@given(seed=seeds, n=dims, density=densities)
def test_generated_instances_always_validate(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    result = validate_m_matrix(q.Q, q.alpha, q.L)
    assert result.ok, result.violations


@common
@given(seed=seeds, n=dims, density=densities)
def test_restricted_gradient_is_a_bitwise_slice(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.0, 3.0, n)
    x[rng.uniform(size=n) < 0.3] = 0.0
    coords = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    part = gradient(q, x, coords=coords)
    full = gradient(q, x)
    assert np.array_equal(part, full[coords])


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_workspace_gradient_is_the_full_gradient(seed, n, density, kind):
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    tol = negative_tolerance(q)
    rng = np.random.default_rng(seed + 5)
    ws = GradientWorkspace(q, Counters())
    assert ws.tol == tol
    # the set-up is one full gradient at x = 0, which reads no nonzeros
    ref = Counters(full_gradients=1)
    assert np.array_equal(ws.g[ws.rows], gradient(q, np.zeros(q.n))[ws.rows])
    assert ws.counters == ref
    candidates = set(np.flatnonzero(-q.b < -tol).tolist())
    _assert_block_is_rows_of_S(q, ws)
    for step in range(4):
        # grow the working set, many coordinates at once or one int at a
        # time (as cdpr does); some coordinates stay or fall back to zero
        coords = rng.choice(q.n, size=rng.integers(0, 3), replace=False)
        parts = [coords] if step % 2 else [int(c) for c in coords]
        for part in parts:
            ws.admit(part)
            _assert_block_is_rows_of_S(q, ws)
        S = ws.S
        ws.x[S] = rng.uniform(0.0, 2.0, S.size) * (
            rng.uniform(size=S.size) < 0.7)
        ws.refresh()
        # the listed rows are the candidates at x = 0 and N(S), once each
        assert ws.rows.size == np.unique(ws.rows).size
        assert set(ws.rows.tolist()) == candidates | set(q.Q[S].indices.tolist())
        g = gradient(q, ws.x)
        # each refresh is one full gradient over the columns of supp(x)
        ref.full_gradients += 1
        ref.nnz_touched += volume(q, np.flatnonzero(ws.x))
        # + 0.0 makes the signed zeros compare equal
        assert np.array_equal(ws.g[ws.rows] + 0.0, g[ws.rows] + 0.0)
        off = np.ones(q.n, dtype=bool)
        off[ws.rows] = False
        assert np.array_equal(g[off], -q.b[off])
        assert np.array_equal(ws.negatives(), np.flatnonzero(g < -tol))
        assert ws.counters == ref
        # the working set takes in only what it lacks, and stays sorted
        before = ws.S
        new = ws.admit(ws.negatives())
        assert np.array_equal(new, np.setdiff1d(ws.negatives(), before))
        assert np.array_equal(ws.S, np.union1d(before, new))
        _assert_block_is_rows_of_S(q, ws)


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_cdpr_stages_keep_the_workspace_whole(seed, n, density, kind):
    # after every refresh of a cdpr solve, the block that its stages splice
    # holds the rows of S as _gather_rows reads them, rows lists each
    # marked row once, the neighbours of S among them, and g there is the
    # full gradient
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(
            kind, {"n": n + 1, "rows": n, "cols": 3, "leaves": n,
                   "sizes": [n, n]}, seed))
    refreshes = []
    refresh = GradientWorkspace.refresh

    def checked_refresh(ws):
        refresh(ws)
        refreshes.append(ws.S.size)
        for got, ref in zip(ws.block, _gather_rows(q.Q, ws.S)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert np.array_equal(np.sort(ws.rows), np.flatnonzero(ws.listed))
        assert ws.listed[ws.block.indices].all()
        g = gradient(q, ws.x)
        assert np.array_equal(ws.g[ws.rows] + 0.0, g[ws.rows] + 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradientWorkspace, "refresh", checked_refresh)
        sol = cdpr(q)
    assert len(refreshes) == sol.counters.stages


def _assert_block_is_rows_of_S(q, ws):
    """The workspace's block holds the rows of its working set, as scipy's
    row indexing gathers them, in Q's index dtype."""
    rows = q.Q[ws.S]
    for got, ref in zip(ws.block, (rows.indptr, rows.indices, rows.data)):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def _int64_indexed(q):
    """q with its Q held in int64 ids, adopted uncopied by
    MQuadratic.corrected: the constructor's canonical copy would narrow
    them to int32."""
    Q = q.Q.copy()
    Q.indices = Q.indices.astype(np.int64)
    Q.indptr = Q.indptr.astype(np.int64)
    Q.has_canonical_format = True
    for arr in (Q.data, Q.indices, Q.indptr):
        arr.setflags(write=False)
    H = _Hessian((Q.indptr, Q.indices, Q.data))
    H.matrix = Q  # scipy's constructor would narrow the ids too
    return MQuadratic.corrected(H, q.b, np.empty(0, dtype=np.int64),
                                np.empty(0), q.max_abs_b, q.positive_b,
                                q.alpha, q.L, [])


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_ista_makes_positive_only_optimal_coordinates(seed, n, density, kind):
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    # what ista ever made positive, as its observer reads it, covers its
    # support and stays inside the optimal support
    observer = EverPositive("ista")
    sol = ista_baseline(q, 1e-6, observe=observer)
    ever = set(observer.ids())
    assert set(sol.support.tolist()) <= ever
    assert ever <= set(dense_solve_active_set(q).support.tolist())


@common
@given(seed=seeds, kind=st.sampled_from(GRAPH_KINDS),
       queries=st.lists(st.tuples(st.sampled_from((0.1, 0.5, 0.9)),
                                  st.sampled_from((1e-3, 0.05, 0.2)),
                                  st.booleans(), seeds),
                        min_size=2, max_size=6))
def test_cached_operator_builds_what_a_fresh_graph_builds(seed, kind, queries):
    # one graph answers a run of queries that switch alpha, rho and seed
    # kind; each must equal the build on a graph that never cached anything,
    # and the adjacency and Q must equal what scipy's COO constructor and
    # its + with the diagonal build
    graph = random_graph_instance(kind, {}, seed).graph
    n, e = graph.n, graph.edges
    adj = sp.csr_matrix((np.ones(2 * len(e), dtype=np.int8),
                         (np.concatenate([e[:, 0], e[:, 1]]),
                          np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))
    _assert_same_csr(graph._adj, adj)
    dinv_sqrt = 1.0 / np.sqrt(np.diff(adj.indptr).astype(float))
    for alpha, rho, point, qseed in queries:
        rng = np.random.default_rng(qseed)
        if point:
            s = int(rng.integers(graph.n))
        else:
            s = rng.uniform(size=graph.n) * (rng.uniform(size=graph.n) < 0.4)
            s[int(rng.integers(graph.n))] += 1.0
            s /= s.sum()
        got = build_pagerank_quadratic(PageRankInstance(graph, alpha, rho, s))
        ref = build_pagerank_quadratic(
            PageRankInstance(Graph(graph.n, graph.edges), alpha, rho, s))
        for a, b in ((got.Q.indptr, ref.Q.indptr), (got.Q.indices, ref.Q.indices),
                     (got.Q.data, ref.Q.data), (got.b, ref.b),
                     (got.positive_b, ref.positive_b)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.max_abs_b == ref.max_abs_b
        off = np.repeat(dinv_sqrt, np.diff(adj.indptr))
        off *= dinv_sqrt[adj.indices]
        off *= -(1.0 - alpha) / 2.0
        _assert_same_csr(got._Q, sp.csr_matrix(
            (off, adj.indices, adj.indptr), shape=(n, n))
            + sp.identity(n, format="csr") * ((1.0 + alpha) / 2.0))


def _assert_same_csr(got, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@common
@given(seed=seeds, n=dims, density=densities, int64=st.booleans(),
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_restriction_matches_scipy_indexing(seed, n, density, int64, kind):
    # restrict(q, S), and the workspace's restriction that an aspr stage
    # takes, after every admit of one coordinate at a time or of many at
    # once, hold scipy's Q[S][:, S] (whose ids scipy may store in a
    # narrower dtype), its diagonal and b on S
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    if int64:
        q = _int64_indexed(q)
        assert q.Q.indices.dtype == np.int64
    rng = np.random.default_rng(seed + 12)
    ws = GradientWorkspace(q, Counters())
    for step in range(4):
        coords = rng.choice(q.n, size=min(q.n, rng.integers(0, 4)),
                            replace=False)
        parts = [coords] if step % 2 else [int(c) for c in coords]
        for part in parts:
            ws.admit(part)
            S = ws.S
            ref = q.Q[S][:, S]
            for sub in (restrict(q, S), ws.restriction()):
                assert (sub.Q.indptr.dtype == sub.Q.indices.dtype
                        == q.Q.indices.dtype)
                assert np.array_equal(sub.Q.indptr, ref.indptr)
                assert np.array_equal(sub.Q.indices, ref.indices)
                assert sub.Q.data.tobytes() == ref.data.tobytes()
                assert sub.diag.tobytes() == ref.diagonal().tobytes()
                assert sub.b.tobytes() == q.b[S].tobytes()
                assert (sub.alpha, sub.L) == (q.alpha, q.L)
    ws.release()


@common
@given(seed=seeds, n=dims, density=densities)
def test_lowering_one_coordinate_never_lowers_other_gradients(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 2)
    x = rng.uniform(0.0, 2.0, n)
    i = int(rng.integers(n))
    eps = float(rng.uniform(0.0, 1.0))
    x2 = x.copy()
    x2[i] = max(0.0, x2[i] - eps)
    g1 = gradient(q, x)
    g2 = gradient(q, x2)
    mask = np.arange(n) != i
    assert np.min(g2[mask] - g1[mask]) >= -1e-12


@common
@given(seed=seeds, n=dims, density=densities)
def test_gradient_matches_finite_differences(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 3)
    x = rng.uniform(0.1, 1.0, n)
    g = gradient(q, x)
    h = 1e-5
    i = int(rng.integers(n))
    e = np.zeros(n)
    e[i] = h
    fd = (objective(q, x + e) - objective(q, x - e)) / (2 * h)
    assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


@common
@given(seed=seeds, n=dims, density=densities)
def test_volume_monotone_under_inclusion(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 4)
    T = np.flatnonzero(rng.uniform(size=n) < 0.7)
    if T.size == 0:
        T = np.array([0])
    S = T[rng.uniform(size=T.size) < 0.5]
    assert volume(q, S) <= volume(q, T)
    assert internal_volume(q, S) <= internal_volume(q, T)
    assert internal_volume(q, T) <= volume(q, T)


@common
@given(seed=seeds, n=st.integers(min_value=2, max_value=9),
       density=densities)
def test_exact_solver_agrees_with_enumeration(seed, n, density):
    # the reference is bit-equal to enumeration (tests/test_oracle.py)
    q = random_m_matrix(n, density, seed=seed)
    ref = dense_solve_active_set(q)
    sol = cdpr(q)
    scale = max(1e-12, float(np.max(np.abs(ref.x_star))))
    assert np.max(np.abs(sol.x - ref.x_star)) <= 1e-8 * scale
    assert sol.counters.stages == ref.support_size


@common
@given(seed=seeds, n=dims, density=densities)
def test_pivot_choice_is_minimal_and_deterministic(seed, n, density):
    # each cdpr pivot is the smallest index of the most negative gradient
    # at the previous stage's iterate, and a second run takes the same ones
    q = random_m_matrix(n, density, seed=seed)
    runs = []
    for _ in range(2):
        stages = []
        cdpr(q, observe=lambda x, S, d: stages.append((S, x.copy())))
        runs.append(stages)
    x_prev, S_prev = np.zeros(n), np.empty(0, dtype=np.int64)
    for S, x in runs[0]:
        (i,) = np.setdiff1d(S, S_prev)
        g = gradient(q, x_prev)
        assert g[i] < 0.0
        assert i == np.flatnonzero(g == g.min())[0]
        x_prev, S_prev = x, S
    assert [S.tolist() for S, _ in runs[1]] == [S.tolist() for S, _ in runs[0]]


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_cdpr_counts_the_entries_each_stage_reads(seed, n, density, kind):
    # per stage: the new pivot's row; Q d on the pivots, the entries of the
    # rows of supp(d) whose column is a pivot; and the refresh, vol(supp x)
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    counts, prev = [], [np.empty(0, dtype=np.int64)]

    def observe(x, S, d):
        (i,) = np.setdiff1d(S, prev[0])
        prev[0] = S
        on_pivots = q.Q[S[d != 0]][:, S].nnz
        counts.append(volume(q, [i]) + on_pivots
                      + volume(q, np.flatnonzero(x)))

    sol = cdpr(q, observe=observe)
    assert len(counts) == sol.counters.stages
    assert sum(counts) == sol.counters.nnz_touched


def _graph_of_size(kind, n, seed):
    """A connected graph of the given kind on exactly n >= 3 nodes."""
    rows = max(r for r in range(1, int(n ** 0.5) + 1) if n % r == 0)
    params = {"path": {"n": n}, "cycle": {"n": n}, "star": {"leaves": n - 1},
              "grid": {"rows": rows, "cols": n // rows},
              "sbm": {"sizes": [n // 2, n - n // 2], "p_out": 0.5}}[kind]
    return random_graph_instance(kind, params, seed).graph


def _full_support_quadratic(kind, n, density, seed):
    """A quadratic of n coordinates whose optimum is positive on all of them:
    b > 0 and Q^-1 >= 0 with a positive diagonal, as for every M-matrix."""
    rng = np.random.default_rng(seed)
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
        return MQuadratic(q.Q, np.abs(q.b) + 0.1, q.alpha, q.L,
                          validate=False)
    # a uniform seed and rho < 1/(n * max degree) make every b_i positive
    graph = _graph_of_size(kind, n, seed)
    rho = 0.5 / (n * int(graph.degrees.max()))
    return build_pagerank_quadratic(PageRankInstance(
        graph, float(rng.uniform(0.05, 0.95)), rho, np.full(n, 1.0 / n)))


# cdpr's basis doubles when it holds _BASIS_START directions and again at
# each doubling; a support of n takes n directions, so these sizes land
# on both sides of its first three doublings
BASIS_SIZES = [c + e for c in (_BASIS_START, 2 * _BASIS_START,
                               4 * _BASIS_START) for e in (0, 1)]


@pytest.mark.parametrize("n", BASIS_SIZES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=seeds, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_cdpr_stays_exact_across_basis_growth(n, seed, density, kind):
    q = _full_support_quadratic(kind, n, density, seed)
    stages = []
    sol = cdpr(q, observe=lambda x, S, d: stages.append(
        (S, d, gradient(q, x, coords=S))))
    assert sol.counters.stages == n == len(stages)

    # the thresholds of acceptance criteria 01 and 02
    ref = dense_solve_active_set(q)
    assert ref.support_size == n
    xden = max(float(np.max(np.abs(ref.x_star))), 1e-12)
    assert float(np.max(np.abs(sol.x - ref.x_star))) <= 1e-8 * xden
    gden = max(1.0, abs(ref.objective_value))
    assert abs(objective(q, sol.x) - ref.objective_value) <= 1e-10 * gden
    scale = max(1.0, q.max_abs_b)
    for _, _, g_pivots in stages:
        assert float(np.max(np.abs(g_pivots))) <= 1e-8 * scale
    # the directions, kept as observed, stay Q-conjugate
    dirs = np.zeros((n, n))
    for k, (S, d, _) in enumerate(stages):
        dirs[S, k] = d
    gram = dirs.T @ (q.Q.toarray() @ dirs)
    norms = np.sqrt(np.diag(gram))
    cross = gram / np.outer(norms, norms)
    np.fill_diagonal(cross, 0.0)
    assert float(np.max(np.abs(cross))) <= 1e-8


@common
@given(seed=seeds, n=st.integers(min_value=17, max_value=40),
       density=densities, kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_workspace_across_buffer_growth(seed, n, density, kind):
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(PageRankInstance(
            _graph_of_size(kind, n, seed), 0.3, 1e-3, 0))
    rng = np.random.default_rng(seed + 8)
    # random interleavings of admit (an index array) and refresh (an
    # iterate, written on S first); the last admit lists every row
    ops = []
    for _ in range(int(rng.integers(2, 10))):
        if rng.uniform() < 0.5:
            ops.append(rng.choice(n, size=int(rng.integers(0, 4)),
                                  replace=False))
        else:
            ops.append(rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7))
    ops += [np.arange(n), rng.uniform(0.1, 2.0, n)]

    def replay(check):
        ws = GradientWorkspace(q, Counters())
        ref = Counters(full_gradients=1)
        for op in ops:
            if op.dtype != float:
                ws.admit(op)
                continue
            ws.x[ws.S] = op[ws.S]
            ws.refresh()
            ref.full_gradients += 1
            ref.nnz_touched += volume(q, np.flatnonzero(ws.x))
            if check:
                rows, x = ws.rows, ws.x
                # + 0.0 makes the signed zeros compare equal
                assert np.array_equal(ws.g[rows] + 0.0,
                                      gradient(q, x)[rows] + 0.0)
                assert ws.counters == ref
        return ws

    ws = replay(True)
    assert ws.rows.size == n
    assert replay(False).counters == ws.counters


@common
@given(seed=seeds, n=st.integers(min_value=10, max_value=41))
def test_gradient_rows_are_summed_in_one_order(seed, n):
    # the hub of a star has a row of n >= 10 entries, where numpy's pairwise
    # sums depart from a sequential sum
    q = build_pagerank_quadratic(PageRankInstance(
        _graph_of_size("star", n, seed), 0.3, 1e-3, 0))
    assert q.Q.indptr[1] - q.Q.indptr[0] >= 9
    rng = np.random.default_rng(seed)
    ws = GradientWorkspace(q, Counters())
    ws.admit(np.arange(n))
    ws.x[:] = rng.uniform(0.1, 2.0, n) * (rng.uniform(size=n) < 0.7)
    ws.refresh()
    rows, x = ws.rows, ws.x
    full = gradient(q, x)
    # + 0.0 makes the signed zeros compare equal
    assert np.array_equal(ws.g[rows] + 0.0, full[rows] + 0.0)
    coords = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    assert gradient(q, x, coords).tobytes() == full[coords].tobytes()
    # the one order: start at -b_i, then add Q_ij x_j in increasing j over
    # supp(x)
    for i in range(n):
        total = -q.b[i]
        sl = slice(q.Q.indptr[i], q.Q.indptr[i + 1])
        for j, v in zip(q.Q.indices[sl], q.Q.data[sl]):
            if x[j] != 0:
                total += v * x[j]
        assert total + 0.0 == full[i] + 0.0
    ws.release()


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_restricted_product_is_scipys_bit_for_bit(seed, n, density, kind):
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    rng = np.random.default_rng(seed + 9)
    S = np.flatnonzero(rng.uniform(size=q.n) < 0.7)
    x = rng.uniform(0.0, 2.0, S.size) * (rng.uniform(size=S.size) < 0.7)
    out = np.zeros(S.size)
    assert _add_product(restrict(q, S).Q, x, out) is out
    assert out.tobytes() == (q.Q[S][:, S] @ x).tobytes()


def _assert_stage_bounds(q, S):
    """alpha <= alpha_S <= lambda_min(Q_SS) and lambda_max(Q_SS) <= L_S <= L,
    up to the rounding of eigvalsh."""
    alpha_S, L_S = _conditioning(restrict(q, S))
    w = np.linalg.eigvalsh(q.Q[S][:, S].toarray())
    slack = 1e-12 * q.L
    assert q.alpha <= alpha_S <= w[0] + slack
    assert w[-1] - slack <= L_S <= q.L
    return alpha_S


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_stage_bounds_bracket_the_restricted_spectrum(seed, n, density, kind):
    # random M-matrix restrictions, and the working sets of an aspr solve
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
        rng = np.random.default_rng(seed + 10)
        S = np.flatnonzero(rng.uniform(size=n) < 0.6)
        sets = [S if S.size else np.arange(n), np.arange(n)]
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
        sets = []
        aspr(q, 1e-6, observe=lambda x, S, d: sets.append(S))
        # on the whole of a connected graph lambda_min is alpha itself
        assert _conditioning(restrict(q, np.arange(q.n)))[0] == q.alpha
    for S in sets:
        _assert_stage_bounds(q, S)


@common
@given(seed=seeds, n=dims, density=densities, bounded=st.booleans(),
       digits=st.integers(min_value=1, max_value=8))
def test_stage_ends_within_its_radius(seed, n, density, bounded, digits):
    # one aspr stage on a random M-matrix restriction, from the lower bound
    # (zero, or half the optimum): stopped by its certificate or at its
    # a-priori length T, it ends within r of the restricted optimum
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 11)
    S = np.flatnonzero(rng.uniform(size=n) < 0.7)
    S = S if S.size else np.arange(n)
    sub = restrict(q, S)
    x_star = subspace_solve(q, S).x_star[S]
    lower = 0.5 * x_star if bounded else None
    x0 = np.zeros(S.size) if lower is None else lower.copy()
    alpha_S, L_S = _conditioning(sub)
    g0 = _add_product(sub.Q, x0, np.zeros(S.size)) - sub.b
    r = 10.0 ** -digits * (1.0 + float(np.linalg.norm(x_star)))
    # aspr's stage length for the distance r
    norm2 = float(g0 @ g0)
    T = 0
    if norm2 > 0.0:
        T = 1
        log_arg = math.log((L_S - alpha_S) * norm2 / (alpha_S ** 3 * r * r)) \
            if L_S > alpha_S else 0.0
        if log_arg > 0.0:
            T = 1 + math.ceil(2.0 * math.sqrt(L_S / alpha_S) * log_arg)
    counters = Counters()
    x, aborted = _apgd_loop(sub, alpha_S, L_S, S, x0, T, counters,
                            lower=lower, radius=r)
    assert not aborted
    assert counters.inner_iters <= T
    # the reference solve rounds at about 1e-15 of x*, far below r
    assert np.linalg.norm(x - x_star) <= r + 1e-12


@common
@given(seed=seeds, sizes=st.lists(st.integers(min_value=0, max_value=40),
                                  min_size=1, max_size=4))
def test_sorted_union_is_union1d_byte_for_byte(seed, sizes):
    rng = np.random.default_rng(seed)
    ids = [rng.integers(0, 50, size).astype(dtype) for size, dtype in
           zip(sizes, (np.int64, np.int32, np.int64, np.int32))]
    merged = _sorted_union(*ids)
    # np.union1d is np.unique of the concatenation
    expected = np.unique(np.concatenate(ids))
    assert merged.dtype == expected.dtype
    assert merged.tobytes() == expected.tobytes()
