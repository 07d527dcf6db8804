"""Randomized structural properties, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sparsepr import (
    Counters,
    Graph,
    MQuadratic,
    PageRankInstance,
    aspr,
    build_pagerank_quadratic,
    cdpr,
    dense_solve_enumerate,
    gradient,
    internal_volume,
    ista_baseline,
    negative_tolerance,
    objective,
    random_graph_instance,
    select_pivot,
    validate_m_matrix,
    volume,
)
from sparsepr.oracle import GRAPH_KINDS, random_m_matrix
from sparsepr.problem import GradientWorkspace, restrict
from sparsepr.solvers import ASPR_VARIANTS

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
    made = np.zeros(q.n, dtype=bool)
    for _ in range(4):
        # grow the working set; some coordinates stay or fall back to zero
        ws.admit(rng.choice(q.n, size=rng.integers(0, 3), replace=False))
        S = ws.S
        ws.x[S] = rng.uniform(0.0, 2.0, S.size) * (
            rng.uniform(size=S.size) < 0.7)
        made |= ws.x > 0
        ws.refresh()
        assert np.array_equal(ws.ever, made)
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


@common
@given(seed=seeds, n=dims, density=densities,
       kind=st.sampled_from(("m-matrix",) + GRAPH_KINDS))
def test_ever_positive_records_what_each_solver_made_positive(seed, n, density,
                                                              kind):
    if kind == "m-matrix":
        q = random_m_matrix(n, density, seed=seed)
    else:
        q = build_pagerank_quadratic(random_graph_instance(kind, {}, seed))
    empty = np.empty(0, dtype=np.int64)

    # cdpr: every coordinate positive at some stage iterate
    made = [empty]
    sol = cdpr(q, observe=lambda x, S, d: made.append(np.flatnonzero(x > 0)))
    assert np.array_equal(sol.ever_positive, np.unique(np.concatenate(made)))

    # aspr: the working set of its last stage
    for variant in ASPR_VARIANTS:
        last = [empty]
        sol = aspr(q, 1e-6, variant=variant,
                   observe=lambda x, S, d: last.append(S.copy()))
        assert np.array_equal(sol.ever_positive, last[-1]), variant

    # ista: covers its support and stays inside the optimal support
    sol = ista_baseline(q, 1e-6)
    ever = set(sol.ever_positive.tolist())
    assert set(sol.support.tolist()) <= ever
    assert ever <= set(dense_solve_enumerate(q).support.tolist())


@common
@given(seed=seeds, kind=st.sampled_from(GRAPH_KINDS),
       queries=st.lists(st.tuples(st.sampled_from((0.1, 0.5, 0.9)),
                                  st.sampled_from((1e-3, 0.05, 0.2)),
                                  st.booleans(), seeds),
                        min_size=2, max_size=6))
def test_cached_operator_builds_what_a_fresh_graph_builds(seed, kind, queries):
    # one graph answers a run of queries that switch alpha, rho and seed
    # kind; each must equal the build on a graph that never cached anything
    graph = random_graph_instance(kind, {}, seed).graph
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


@common
@given(seed=seeds, n=dims, density=densities)
def test_restriction_matches_scipy_indexing(seed, n, density):
    q = random_m_matrix(n, density, seed=seed)
    rng = np.random.default_rng(seed + 6)
    S = np.flatnonzero(rng.uniform(size=n) < 0.6)
    sub = restrict(q, S)
    ref = MQuadratic(q.Q[S][:, S], q.b[S], q.alpha, q.L, validate=False)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sub.Q, name), getattr(ref.Q, name))
    assert np.array_equal(sub.b, ref.b)
    assert (sub.alpha, sub.L) == (ref.alpha, ref.L)


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
    q = random_m_matrix(n, density, seed=seed)
    ref = dense_solve_enumerate(q)
    sol = cdpr(q)
    scale = max(1e-12, float(np.max(np.abs(ref.x_star))))
    assert np.max(np.abs(sol.x - ref.x_star)) <= 1e-8 * scale
    assert sol.counters.stages == ref.support_size


@common
@given(st.lists(st.tuples(st.integers(0, 50),
                          st.floats(min_value=-10, max_value=-1e-6)),
                min_size=1, max_size=12, unique_by=lambda t: t[0]))
def test_pivot_choice_is_minimal_and_deterministic(pairs):
    candidates = [i for i, _ in pairs]
    grads = [g for _, g in pairs]
    chosen = select_pivot(candidates, grads)
    best = min(grads)
    winners = sorted(i for i, g in pairs if g == best)
    assert chosen == winners[0]
