"""The two solvers and ``predict`` against dense direct computations at small N."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, lstsq

import krrsolve.krr as krr_module

from krrsolve.diagnostics import clustered_dataset
from krrsolve.errors import InputError
from krrsolve.kernels import (
    DEFAULT_MEMORY_BUDGET,
    KERNEL_FAMILIES,
    SLAB_BYTES,
    DatasetKernelOracle,
    KernelSpec,
    pairwise_kernel,
)
from krrsolve.krr import (
    PREDICT_BUDGET,
    PRECONDITIONERS,
    FullKrrProblem,
    RestrictedKrrProblem,
    predict,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
)
from krrsolve.lowrank import GREEDY, PIVOT_RULES, UNIFORM, PivotRule, build_factor
from krrsolve.pcg import pcg
from krrsolve.precond import CholeskyPreconditioner
from krrsolve.sketch import build_embedding, practical_params

N = 200
K = 30
SPEC = KernelSpec("squared_exponential", 3.0)
MU = 1e-3 * N


def points(n=N, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return x, y


def oracle(x, columns=None, spec=SPEC):
    """An oracle whose budget holds ``columns`` kernel columns (default budget if None)."""
    if columns is None:
        return DatasetKernelOracle(x, spec)
    return DatasetKernelOracle(x, spec, memory_budget=8 * x.shape[0] * columns)


def full_problem(x, y, rule=PivotRule(seed=3), epsilon=1e-10, columns=None, spec=SPEC):
    return FullKrrProblem(oracle(x, columns, spec), y, MU, rank=40, epsilon=epsilon,
                          pivot_rule=rule, max_iter=500)


def restricted_problem(x, y, pre, epsilon=1e-10, columns=None, spec=SPEC):
    centers = select_centers_uniform(x.shape[0], K, seed=4)
    return RestrictedKrrProblem(oracle(x, columns, spec), centers, y, MU, epsilon=epsilon,
                                preconditioner=pre, embedding_seed=5, max_iter=500)


def each_family(values):
    """``(family, value)`` cases for every family in ``KERNEL_FAMILIES``;
    the cases of ``SPEC``'s family keep the value alone as their id."""
    return [pytest.param(family, value, id=str(value) if family == SPEC.family
                         else f"{family}-{value}")
            for family in KERNEL_FAMILIES for value in values]


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("family, kind", each_family(PIVOT_RULES))
def test_full_solve_matches_dense_cholesky(family, kind):
    spec = KernelSpec(family, 3.0)
    x, y = points()
    report = solve_full_krr(full_problem(x, y, PivotRule(kind, seed=3), spec=spec))
    assert report.converged
    a = pairwise_kernel(spec, x, x)
    dense = cho_solve(cho_factor(a + MU * np.eye(N)), y)
    assert relative_gap(report.solution, dense) <= 1e-9


@pytest.mark.parametrize("family, pre", each_family(PRECONDITIONERS))
def test_restricted_solve_matches_dense_solve(family, pre):
    spec = KernelSpec(family, 3.0)
    x, y = points()
    problem = restricted_problem(x, y, pre, spec=spec)
    report = solve_restricted_krr(problem)
    assert report.converged
    a_ns = pairwise_kernel(spec, x, x[problem.centers])
    system = a_ns.T @ a_ns + MU * pairwise_kernel(spec, x[problem.centers],
                                                  x[problem.centers])
    dense = cho_solve(cho_factor(system), a_ns.T @ y)
    assert relative_gap(report.solution, dense) <= 1e-8


@pytest.mark.parametrize("k,dim,nnz", [(20, 5, 5), (2, 10, 8), (20, 12, 8), (20, None, 8)])
def test_default_nnz_is_min_8_and_the_embedding_dim_used(monkeypatch, k, dim, nnz):
    x, y = points()
    drawn = []
    real = krr_module.build_embedding

    def build(d, n, zeta, seed=None):
        drawn.append((d, zeta))
        return real(d, n, zeta, seed)

    monkeypatch.setattr(krr_module, "build_embedding", build)
    centers = select_centers_uniform(N, k, seed=4)
    report = solve_restricted_krr(RestrictedKrrProblem(
        oracle(x), centers, y, MU, epsilon=1e-8, preconditioner="krill",
        embedding_dim=dim, embedding_seed=5))
    assert report.converged
    assert drawn == [(dim or practical_params(k)[0], nnz)]


@pytest.mark.parametrize("columns", [None, 7])
def test_krill_sketch_and_rhs_match_the_csr_to_csc_round_trip(monkeypatch, columns):
    """Phi built as CSC directly gives the bits of the COO -> CSR -> CSC path."""
    x, y = points()
    problem = restricted_problem(x, y, "krill", columns=columns)
    seen = {}
    real_krill, real_pcg = krr_module.krill_from_sketch, krr_module.pcg

    def krill(sketch, a_ss, mu):
        seen["sketch"] = sketch.copy()
        return real_krill(sketch, a_ss, mu)

    def pcg(op, b, *args, **kwargs):
        seen["b"] = b.copy()
        return real_pcg(op, b, *args, **kwargs)

    monkeypatch.setattr(krr_module, "krill_from_sketch", krill)
    monkeypatch.setattr(krr_module, "pcg", pcg)
    solve_restricted_krr(problem)

    d, zeta = practical_params(K)
    phi = build_embedding(d, N, zeta, seed=5)
    cols = np.repeat(np.arange(N), zeta)
    mat = sp.csr_matrix((phi.data, (phi.indices, cols)), shape=phi.shape).tocsc()
    sketch, b = np.zeros((d, K)), np.zeros(K)
    for start, stop, slab in krr_module._kernel_columns(problem.oracle, problem.centers):
        sketch += mat[:, start:stop] @ slab
        b += slab.T @ y[start:stop]
    np.testing.assert_array_equal(seen["sketch"], sketch)
    np.testing.assert_array_equal(seen["b"], b)


@pytest.mark.parametrize("mode", ["full", "restricted"])
def test_streaming_matches_in_memory(mode):
    x, y = points()
    if mode == "full":
        def solve(columns):
            return solve_full_krr(full_problem(x, y, epsilon=1e-6, columns=columns))
    else:
        def solve(columns):
            return solve_restricted_krr(restricted_problem(x, y, "krill", epsilon=1e-6,
                                                           columns=columns))
    kept, streamed = solve(None), solve(3)
    assert kept.converged and streamed.converged
    assert streamed.iterations == kept.iterations
    assert relative_gap(streamed.solution, kept.solution) <= 1e-10


# A of 1500 points is 18 MB: inside the default budget, beyond the two
# slabs a single-pass stream holds
N_BEYOND_TWO_SLABS = 1500


def counting_full_solve(n, columns, max_iter, epsilon=1e-14):
    """A full solve of n points, and the entries it generated beyond those
    its factor generated on its own."""
    x, y = points(n=n)
    budget = DEFAULT_MEMORY_BUDGET if columns is None else 8 * n * columns
    rule = PivotRule(seed=3)
    factor_oracle = DatasetKernelOracle(x, SPEC, budget)
    build_factor(factor_oracle, 40, rule)
    solve_oracle = DatasetKernelOracle(x, SPEC, budget)
    report = solve_full_krr(FullKrrProblem(solve_oracle, y, MU, rank=40, epsilon=epsilon,
                                           pivot_rule=rule, max_iter=max_iter))
    return report, solve_oracle.entries - factor_oracle.entries


# (points, budget in columns, iterations, passes over A, A kept): beyond two
# single-pass slabs the first pass streams and a second apply keeps A; within
# two it is kept from the first; over the budget every pass streams
@pytest.mark.parametrize("n, columns, iterations, passes, kept", [
    (N_BEYOND_TWO_SLABS, None, 1, 1, False),
    (N_BEYOND_TWO_SLABS, None, 2, 2, True),
    (N_BEYOND_TWO_SLABS, None, 5, 2, True),
    (N, None, 1, 1, True),
    (N, None, 2, 1, True),
    (N, None, 5, 1, True),
    (N, 3, 1, 1, False),
    (N, 3, 2, 2, False),
    (N, 3, 5, 5, False),
])
def test_full_solve_passes_over_a(n, columns, iterations, passes, kept):
    report, entries = counting_full_solve(n, columns, iterations)
    assert report.iterations == iterations
    assert entries == passes * n * n
    assert report.meta["operator_kept"] is kept


def test_full_solve_with_a_streamed_first_pass_matches_a_streamed_solve():
    x, y = points(n=N_BEYOND_TWO_SLABS)
    first_streamed, streamed = (solve_full_krr(full_problem(x, y, epsilon=1e-8,
                                                            columns=columns))
                                for columns in (None, 50))
    assert first_streamed.converged and streamed.converged
    assert first_streamed.iterations == streamed.iterations > 1
    assert first_streamed.meta["operator_kept"] and not streamed.meta["operator_kept"]
    assert relative_gap(first_streamed.solution, streamed.solution) <= 1e-8


def test_full_solve_frees_its_first_pass_before_keeping_a():
    # holding the first pass's slab buffer beside the kept A would add 8 MiB;
    # the two-iteration solve measured 18.84 MB against A's 18.0
    n = N_BEYOND_TWO_SLABS
    x, y = points(n=n)
    problem = full_problem(x, y, epsilon=1e-14)
    problem.max_iter = 2
    tracemalloc.start()
    try:
        report = solve_full_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == 2 and report.meta["operator_kept"]
    assert peak <= 8 * n * n + SLAB_BYTES // 4


def test_one_iteration_full_solve_never_holds_a():
    # the clustered set at r = N/3 converges in one iteration; keeping its
    # 72 MB A peaked at 104.9 MB, and streaming it measured 49.3 MB
    n = 3000
    x = clustered_dataset(n, 10, seed=0)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    y = 3.0 + np.sin(x[:, 0]) + 0.1 * np.random.default_rng(1).standard_normal(n)
    problem = FullKrrProblem(DatasetKernelOracle(x, KernelSpec("squared_exponential", 1.0)),
                             y, 1e-7 * n, rank=1000, pivot_rule=PivotRule(seed=0))
    tracemalloc.start()
    try:
        report = solve_full_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations == 1
    assert report.meta["operator_kept"] is False
    assert peak <= 52e6 < 8 * n * n


def test_full_solve_over_its_budget_holds_two_slabs():
    # A is 128 MB over a 64 MiB budget, so both passes stream it in slabs of
    # SLAB_BYTES; slabs as tall as the budget peaked at 136.2 MB, and these
    # measured 18.6 MB
    n, rank = 4000, 40
    x, y = points(n=n)
    problem = FullKrrProblem(DatasetKernelOracle(x, SPEC, 64 << 20), y, MU, rank=rank,
                             epsilon=1e-14, pivot_rule=PivotRule(seed=3), max_iter=2)
    tracemalloc.start()
    try:
        report = solve_full_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == 2 and report.meta["operator_kept"] is False
    # beside the slab and the slab buffer: the factor, the preconditioner
    # and PCG's vectors
    assert peak <= 2 * SLAB_BYTES + 4 * 8 * n * rank < problem.oracle.memory_budget


def test_krill_solve_over_its_budget_holds_two_slabs():
    # A(:,S) is 96 MB over a 48 MiB budget; slabs as tall as the budget
    # peaked at 120.3 MB, and these measured 36.1 MB
    n, k = 20000, 600
    x, y = points(n=n)
    centers = select_centers_uniform(n, k, seed=1)
    problem = RestrictedKrrProblem(DatasetKernelOracle(x, SPEC, 48 << 20), centers, y,
                                   MU, preconditioner="krill", embedding_seed=2)
    d = problem.embedding_shape()[0]
    tracemalloc.start()
    try:
        report = solve_restricted_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged and report.meta["operator_kept"] is False
    # beside the slab and the slab buffer: Y = Phi A(:,S), and k x k arrays
    # (A(S,S), each slab's share of Y, the preconditioner) and Phi below them
    assert peak <= 2 * SLAB_BYTES + 8 * d * k + 4 * 8 * k * k < problem.oracle.memory_budget


# (preconditioner, points, centers, budget in columns, A(:,S) kept): the PCG
# methods pass again every iteration, so they keep a block that fits from
# the first pass; the direct solve reads it once, so it keeps only a block
# of at most two slabs
@pytest.mark.parametrize("pre, n, k, columns, kept", [
    ("krill", N, K, None, True),
    ("falkon", N, K, None, True),
    ("none", N, K, None, True),
    ("krill", N, K, 3, False),
    ("direct", N, K, None, True),
    ("direct", 16000, 300, None, False),
])
def test_restricted_solve_records_whether_it_kept_a_ns(pre, n, k, columns, kept):
    x, y = points(n=n)
    problem = RestrictedKrrProblem(oracle(x, columns), select_centers_uniform(n, k, seed=4),
                                   y, MU, preconditioner=pre, embedding_seed=5)
    report = solve_restricted_krr(problem)
    assert report.converged
    assert report.meta["operator_kept"] is kept


# (solver, points, dimension, centers, mu, PCG runs): the last case is the
# direct solve's fallback, which runs PCG a second time on M + jitter I
@pytest.mark.parametrize("mode, n, dim, k, mu, runs", [
    ("full", N, 5, None, MU, 1),
    *((pre, N, 5, K, MU, 1) for pre in PRECONDITIONERS),
    ("direct", 400, 3, 80, 1e-12 * 400, 2),
], ids=["full", *PRECONDITIONERS, "direct-fallback"])
def test_solve_time_covers_the_build_and_every_pcg_run(monkeypatch, mode, n, dim, k, mu,
                                                       runs):
    spent = []

    def timed_pcg(*args, **kwargs):
        start = time.perf_counter()
        try:
            return pcg(*args, **kwargs)
        finally:  # a run that breaks down counts too
            spent.append(time.perf_counter() - start)

    monkeypatch.setattr(krr_module, "pcg", timed_pcg)
    x, y = points(n=n, dim=dim)
    if mode == "full":
        report = solve_full_krr(FullKrrProblem(oracle(x), y, mu, rank=40,
                                               pivot_rule=PivotRule(seed=3)))
    else:
        report = solve_restricted_krr(RestrictedKrrProblem(
            oracle(x), select_centers_uniform(n, k, seed=4), y, mu,
            preconditioner=mode, embedding_seed=5))
    meta = report.meta
    assert len(spent) == runs
    assert meta["solve_time"] >= meta["preconditioner_build_time"] > 0
    # the build and the PCG runs are disjoint parts of the one timed call
    assert meta["solve_time"] >= meta["preconditioner_build_time"] + sum(spent)


def test_predict_one_row_at_a_time_matches_dense():
    x, _ = points()
    test, _ = points(n=37, seed=9)
    beta = np.random.default_rng(10).standard_normal(N)
    expect = pairwise_kernel(SPEC, test, x) @ beta
    got = predict(beta, x, SPEC, test, memory_budget=8)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("budget", [8, PREDICT_BUDGET, DEFAULT_MEMORY_BUDGET])
def test_predict_streamed_matches_dense(family, budget):
    # 3000 x 200 entries take 4.8 MB, so every budget here streams the block
    spec = KernelSpec(family, 3.0)
    x, _ = points()
    test = np.random.default_rng(11).standard_normal((3000, 5)) + 2.0
    beta = np.random.default_rng(12).standard_normal(N)
    expect = pairwise_kernel(spec, test, x) @ beta
    got = predict(beta, x, spec, test, memory_budget=budget)
    np.testing.assert_allclose(got, expect, rtol=1e-12,
                               atol=1e-12 * np.abs(expect).max())


def test_predict_with_no_training_points_is_zero():
    test, _ = points(n=7, seed=9)
    got = predict(np.zeros(0), np.zeros((0, test.shape[1])), SPEC, test)
    np.testing.assert_array_equal(got, np.zeros(7))


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_predict_peak_memory_is_one_slab_buffer(family):
    rng = np.random.default_rng(13)
    train = rng.standard_normal((600, 20))
    test = rng.standard_normal((8000, 20))
    beta = rng.standard_normal(600)
    assert test.shape[0] * train.shape[0] * 8 >= 32 << 20  # the whole block
    tracemalloc.start()
    try:
        got = predict(beta, train, KernelSpec(family, 3.0), test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * PREDICT_BUDGET + test.nbytes + train.nbytes + got.nbytes


@pytest.mark.parametrize("mu", [np.nan, np.inf, 0.0, -1.0])
def test_problems_reject_mu_that_is_not_finite_and_positive(mu):
    x, y = points(n=20)
    with pytest.raises(InputError, match="mu"):
        FullKrrProblem(oracle(x), y, mu, rank=5)
    with pytest.raises(InputError, match="mu"):
        RestrictedKrrProblem(oracle(x), np.arange(5), y, mu)


def krill_fails_before_a_pass(match, **kwargs):
    """A KRILL solve over 5 centers raises ``InputError`` matching ``match``
    having generated only A(S,S), before any pass over A(:,S)."""
    x, y = points(n=20)
    counting = DatasetKernelOracle(x, SPEC)
    problem = RestrictedKrrProblem(counting, np.arange(5), y, MU,
                                   preconditioner="krill", **kwargs)
    with pytest.raises(InputError, match=match):
        solve_restricted_krr(problem)
    assert counting.entries == 5 * 5


def test_negative_seeds_are_input_errors():
    with pytest.raises(InputError, match="seed"):
        select_centers_uniform(5, 2, seed=-1)
    krill_fails_before_a_pass("seed", embedding_seed=-1)
    with pytest.raises(InputError, match="seed"):
        select_centers_uniform(10, 3, seed=2.5)
    with pytest.raises(InputError, match="seed"):
        PivotRule(seed=1.5)
    krill_fails_before_a_pass("seed", embedding_seed=1.5)


@pytest.mark.parametrize("kwargs,match", [
    ({"embedding_dim": 0}, "embedding_dim"),
    ({"embedding_dim": -3}, "embedding_dim"),
    ({"embedding_nnz": 0}, "embedding_nnz"),
    ({"embedding_dim": 4, "embedding_nnz": 5}, "embedding_nnz"),
    ({"embedding_nnz": practical_params(5)[0] + 1}, "embedding_nnz"),
])
def test_restricted_problem_rejects_a_bad_embedding_shape(kwargs, match):
    krill_fails_before_a_pass(match, **kwargs)


# tracemalloc peaks of the same KRILL solves at d = 2k (N = 4000, k = 300,
# dim 20), when the sketch pass made a d x k temporary per slab and the
# solver held Y and Phi through PCG; the default d = 4k must fit under them
PEAK_AT_D_2K = {None: 15.79e6, 50: 8.97e6}


@pytest.mark.parametrize("columns", [None, 50], ids=["kept", "streamed"])
def test_default_krill_solve_peaks_no_higher_than_d_2k(columns):
    n, k = 4000, 300
    x, y = points(n=n, dim=20)
    problem = RestrictedKrrProblem(oracle(x, columns), select_centers_uniform(n, k, seed=1),
                                   y, 1e-7 * n, preconditioner="krill", embedding_seed=2)
    tracemalloc.start()
    try:
        report = solve_restricted_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= PEAK_AT_D_2K[columns]


# the same solves' tracemalloc peaks with KRILL at its default d = 4k are
# 14.47 MB (kept) and 7.94 MB (streamed); the direct solve builds no sketch
# and forms no Cholesky factor beside its inverse, and measured 12.31 and
# 5.36 MB (A(:,S) is 9.6 MB, under the two slabs a single-pass stream holds,
# so the first solve keeps it)
DIRECT_PEAK = {None: 12.6e6, 50: 6.0e6}


@pytest.mark.parametrize("columns", [None, 50], ids=["kept", "streamed"])
def test_direct_solve_peaks_below_krill(columns):
    n, k = 4000, 300
    x, y = points(n=n, dim=20)
    problem = RestrictedKrrProblem(oracle(x, columns), select_centers_uniform(n, k, seed=1),
                                   y, 1e-7 * n, preconditioner="direct")
    tracemalloc.start()
    try:
        report = solve_restricted_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= DIRECT_PEAK[columns]


def test_direct_solve_streams_a_block_that_fits_the_budget():
    # A(:,S) is 38.4 MB, well inside the default budget, so KRILL would keep
    # it; the direct pass reads it once, so it holds one slab at a time
    # beside the slab buffer of KernelBlocks, G, A(S,S), M and X (k^2
    # arrays of 0.72 MB), where keeping A(:,S) peaked at 42.2 MB
    n, k = 16000, 300
    x, y = points(n=n, dim=20)
    problem = RestrictedKrrProblem(oracle(x), select_centers_uniform(n, k, seed=1),
                                   y, 1e-7 * n, preconditioner="direct")
    assert 8 * n * k < problem.oracle.memory_budget
    tracemalloc.start()
    try:
        report = solve_restricted_krr(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 2 * SLAB_BYTES + 4 * 8 * k * k < 8 * n * k


def test_direct_solve_matches_dense_solve_at_tiny_mu():
    x, y = points()
    mu = 1e-12 * N
    centers = select_centers_uniform(N, K, seed=4)
    report = solve_restricted_krr(RestrictedKrrProblem(oracle(x), centers, y, mu,
                                                       epsilon=1e-10, preconditioner="direct"))
    assert report.converged and report.iterations <= 3
    assert "system_jitter" not in report.meta
    a_ns = pairwise_kernel(SPEC, x, x[centers])
    system = a_ns.T @ a_ns + mu * pairwise_kernel(SPEC, x[centers], x[centers])
    dense = cho_solve(cho_factor(system), a_ns.T @ y)
    assert relative_gap(report.solution, dense) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_direct_solve_streamed_matches_kept(seed):
    x, y = points(n=500, dim=8, seed=seed)
    centers = select_centers_uniform(500, 60, seed=seed)
    kept, streamed = (solve_restricted_krr(RestrictedKrrProblem(
        oracle(x, columns), centers, y, 1e-7 * 500, preconditioner="direct"))
        for columns in (None, 7))
    assert kept.converged and streamed.converged
    assert relative_gap(streamed.solution, kept.solution) <= 1e-8


def test_direct_solve_falls_back_to_its_factored_system_when_cg_breaks_down():
    # 80 centers among 400 points in 3-d at mu/N = 1e-12: the formed matrix
    # has condition number about 1e18 and is indefinite at round-off, so CG
    # on it breaks down; the solve falls back to M + jitter I, whose solution
    # still meets epsilon against the matrix formed independently
    n, epsilon = 400, 1e-4
    x, y = points(n=n, dim=3)
    mu = 1e-12 * n
    centers = select_centers_uniform(n, 80, seed=4)
    report = solve_restricted_krr(RestrictedKrrProblem(oracle(x), centers, y, mu,
                                                       epsilon=epsilon))
    assert report.converged
    assert report.meta["system_jitter"] == report.meta["preconditioner_jitter"] > 0
    a_ns = pairwise_kernel(SPEC, x, x[centers])
    system = a_ns.T @ a_ns + mu * pairwise_kernel(SPEC, x[centers], x[centers])
    b = a_ns.T @ y
    assert np.linalg.norm(b - system @ report.solution) <= 10 * epsilon * np.linalg.norm(b)


@pytest.mark.parametrize("n,dim,k,mu,rtol,fallback", [
    (N, 5, K, MU, 1e-2, False),
    (400, 3, 80, 1e-12 * 400, 1e-4, True),  # the breakdown case above
], ids=["one-iteration", "jitter-fallback"])
def test_direct_solve_records_its_true_residual(n, dim, k, mu, rtol, fallback):
    # against M formed densely; the tolerance covers the rounding of the two
    # formations of M, near the 5e-11 residual of the first case
    x, y = points(n=n, dim=dim)
    centers = select_centers_uniform(n, k, seed=4)
    report = solve_restricted_krr(RestrictedKrrProblem(oracle(x), centers, y, mu,
                                                       epsilon=1e-4))
    a_ns = pairwise_kernel(SPEC, x, x[centers])
    system = a_ns.T @ a_ns + mu * pairwise_kernel(SPEC, x[centers], x[centers])
    b = a_ns.T @ y
    dense = np.linalg.norm(b - system @ report.solution) / np.linalg.norm(b)
    assert report.meta["true_rel_residual"] == pytest.approx(dense, rel=rtol)
    assert ("system_jitter" in report.meta) == fallback


def test_direct_true_residual_takes_the_jitter_back_off():
    # CG on the indefinite M breaks down at once, so the solve falls back to
    # M + I, whose solution leaves a residual of ||(1/3, 1/2, 2)|| against M
    m = np.diag([2.0, 1.0, -0.5])
    b = np.ones(3)
    pre = CholeskyPreconditioner(np.diag(1.0 / np.sqrt([3.0, 2.0, 0.5])), jitter=1.0)
    report = krr_module._solve_direct(m, b, pre, 1e-10, 10)
    assert report.meta["system_jitter"] == 1.0
    np.testing.assert_allclose(report.solution, [1 / 3, 1 / 2, 2])
    np.testing.assert_array_equal(m, np.diag([2.0, 1.0, -0.5]))
    assert report.meta["true_rel_residual"] == pytest.approx(
        np.linalg.norm([1 / 3, 1 / 2, 2]) / np.sqrt(3), rel=1e-12)


@pytest.mark.parametrize("centers", [[0.9, 2.7, 5.2], np.arange(N) < 3, [True, False]],
                         ids=["fractions", "mask", "bool"])
def test_restricted_problem_rejects_non_integer_centers(centers):
    x, y = points()
    with pytest.raises(InputError, match="integers"):
        RestrictedKrrProblem(oracle(x), centers, y, MU)


def test_restricted_problem_takes_any_integer_centers():
    x, y = points()
    for centers in ([0, 2, 5], np.array([0, 2, 5], dtype=np.int32),
                    np.array([0, 2, 5], dtype=np.uint16)):
        problem = RestrictedKrrProblem(oracle(x), centers, y, MU)
        assert problem.centers.dtype == np.int64
        np.testing.assert_array_equal(problem.centers, [0, 2, 5])
    with pytest.raises(InputError, match="range"):
        RestrictedKrrProblem(oracle(x), [0, N], y, MU)


@pytest.mark.parametrize("kind", PIVOT_RULES)
def test_full_solve_with_duplicate_points_matches_dense(kind):
    x, y = points()
    x = np.vstack([x, x[:50]])  # 50 points appear twice, with different targets
    y = np.concatenate([y, y[:50] + 0.1])
    report = solve_full_krr(full_problem(x, y, PivotRule(kind, seed=3)))
    assert report.converged
    a = pairwise_kernel(SPEC, x, x)
    dense = cho_solve(cho_factor(a + MU * np.eye(x.shape[0])), y)
    assert relative_gap(report.solution, dense) <= 1e-9


@pytest.mark.parametrize("kind", PIVOT_RULES)
def test_full_solve_at_tiny_mu_meets_its_tolerance(kind):
    # mu/N = 1e-12 leaves A + mu I about as ill-conditioned as A itself; a
    # rank-150 factor of this 3-d cloud still captures the spectrum down to
    # where P^-1 (A + mu I) is well conditioned, so PCG converges, and its
    # recursive residual must not hide a true residual far above epsilon
    n, epsilon = 400, 1e-3
    x, y = points(n=n, dim=3)
    mu = 1e-12 * n
    report = solve_full_krr(FullKrrProblem(oracle(x), y, mu, rank=150, epsilon=epsilon,
                                           pivot_rule=PivotRule(kind, seed=3),
                                           max_iter=250))
    assert report.converged
    a = pairwise_kernel(SPEC, x, x)
    residual = y - (a @ report.solution + mu * report.solution)
    assert np.linalg.norm(residual) <= 10 * epsilon * np.linalg.norm(y)


@pytest.mark.parametrize("kind", [GREEDY, UNIFORM])
def test_full_solve_reports_rank_reached_below_rank_requested(kind):
    # 20 distinct points, each five times: A has rank 20, so a factor of
    # requested rank 40 stops short once the residual diagonal is exhausted
    # (random pivots still sample the roundoff left on duplicates, so they
    # can reach 40 columns here)
    x, y = points(n=100)
    x = np.repeat(x[:20], 5, axis=0)
    report = solve_full_krr(full_problem(x, y, PivotRule(kind, seed=3)))
    assert report.converged
    assert report.meta["factor_rank_requested"] == 40
    assert report.meta["factor_rank"] <= 20
    a = pairwise_kernel(SPEC, x, x)
    dense = cho_solve(cho_factor(a + MU * np.eye(x.shape[0])), y)
    assert relative_gap(report.solution, dense) <= 1e-9


@pytest.mark.parametrize("pre", PRECONDITIONERS)
def test_restricted_solve_with_coincident_centers_matches_dense(pre):
    # two distinct center indices with identical features: A(S,S) and the
    # restricted system are singular, so beta is not unique but A(:,S) beta is
    x, y = points()
    centers = select_centers_uniform(N, K, seed=4)
    x[centers[1]] = x[centers[0]]
    report = solve_restricted_krr(RestrictedKrrProblem(
        oracle(x), centers, y, MU, epsilon=1e-10, preconditioner=pre,
        embedding_seed=5, max_iter=500))
    assert report.converged
    a_ns = pairwise_kernel(SPEC, x, x[centers])
    system = a_ns.T @ a_ns + MU * pairwise_kernel(SPEC, x[centers], x[centers])
    dense = lstsq(system, a_ns.T @ y)[0]
    assert relative_gap(a_ns @ report.solution, a_ns @ dense) <= 1e-8


@pytest.mark.parametrize("pre", PRECONDITIONERS)
def test_restricted_solve_with_every_point_a_center_is_the_full_solution(pre):
    # with S = all N points, [A^2 + mu A] beta = A y has the full solution
    n = 40
    x, y = points(n=n)
    mu = 1e-3 * n
    report = solve_restricted_krr(RestrictedKrrProblem(
        oracle(x), np.arange(n), y, mu, epsilon=1e-10, preconditioner=pre,
        embedding_seed=5, max_iter=500))
    assert report.converged
    a = pairwise_kernel(SPEC, x, x)
    dense = cho_solve(cho_factor(a + mu * np.eye(n)), y)
    # the system squares A's conditioning, so compare the fitted values A beta;
    # a residual r moves them by (A + mu I)^{-1} r, at most epsilon ||A y|| / mu
    assert relative_gap(a @ report.solution, a @ dense) <= 1e-7


@pytest.mark.parametrize("mode,option", [("full", kind) for kind in PIVOT_RULES]
                         + [("restricted", pre) for pre in PRECONDITIONERS])
def test_single_point_solves_in_closed_form(mode, option):
    x, y = points(n=1)
    if mode == "full":
        report = solve_full_krr(FullKrrProblem(oracle(x), y, MU, rank=1,
                                               pivot_rule=PivotRule(option, seed=3)))
    else:
        report = solve_restricted_krr(RestrictedKrrProblem(
            oracle(x), [0], y, MU, preconditioner=option, embedding_seed=5))
    assert report.converged
    # A = [1], so both systems reduce to (1 + mu) beta = y
    np.testing.assert_allclose(report.solution, y / (1.0 + MU), rtol=1e-12)
