"""The two solvers and ``predict`` against dense direct computations at small N."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, lstsq

import krrsolve.krr as krr_module

from krrsolve.errors import InputError
from krrsolve.kernels import (
    DEFAULT_MEMORY_BUDGET,
    KERNEL_FAMILIES,
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
from krrsolve.lowrank import GREEDY, PIVOT_RULES, UNIFORM, PivotRule
from krrsolve.sketch import build_embedding

N = 200
K = 30
SPEC = KernelSpec("squared_exponential", 3.0)
MU = 1e-3 * N


def points(n=N, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return x, y


def oracle(x, columns=None):
    """An oracle whose budget holds ``columns`` kernel columns (default budget if None)."""
    if columns is None:
        return DatasetKernelOracle(x, SPEC)
    return DatasetKernelOracle(x, SPEC, memory_budget=8 * x.shape[0] * columns)


def full_problem(x, y, rule=PivotRule(seed=3), epsilon=1e-10, columns=None):
    return FullKrrProblem(oracle(x, columns), y, MU, rank=40, epsilon=epsilon,
                          pivot_rule=rule, max_iter=500)


def restricted_problem(x, y, pre, epsilon=1e-10, columns=None):
    centers = select_centers_uniform(x.shape[0], K, seed=4)
    return RestrictedKrrProblem(oracle(x, columns), centers, y, MU, epsilon=epsilon,
                                preconditioner=pre, embedding_seed=5, max_iter=500)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("kind", PIVOT_RULES)
def test_full_solve_matches_dense_cholesky(kind):
    x, y = points()
    report = solve_full_krr(full_problem(x, y, PivotRule(kind, seed=3)))
    assert report.converged
    a = pairwise_kernel(SPEC, x, x)
    dense = cho_solve(cho_factor(a + MU * np.eye(N)), y)
    assert relative_gap(report.solution, dense) <= 1e-9


@pytest.mark.parametrize("pre", PRECONDITIONERS)
def test_restricted_solve_matches_dense_solve(pre):
    x, y = points()
    problem = restricted_problem(x, y, pre)
    report = solve_restricted_krr(problem)
    assert report.converged
    a_ns = pairwise_kernel(SPEC, x, x[problem.centers])
    system = a_ns.T @ a_ns + MU * pairwise_kernel(SPEC, x[problem.centers],
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
        oracle(x), centers, y, MU, epsilon=1e-8, embedding_dim=dim, embedding_seed=5))
    assert report.converged
    assert drawn == [(dim or 2 * k, nnz)]


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

    phi = build_embedding(2 * K, N, 8, seed=5)
    cols = np.repeat(np.arange(N), 8)
    mat = sp.csr_matrix((phi.data, (phi.indices, cols)), shape=phi.shape).tocsc()
    sketch, b = np.zeros((2 * K, K)), np.zeros(K)
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
