"""The two solvers and ``predict`` against dense direct computations at small N."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from krrsolve.errors import InputError
from krrsolve.kernels import DatasetKernelOracle, KernelSpec, pairwise_kernel
from krrsolve.krr import (
    PIVOT_RULES,
    PRECONDITIONERS,
    FullKrrProblem,
    PivotRule,
    RestrictedKrrProblem,
    predict,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
)

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


@pytest.mark.parametrize("mu", [np.nan, np.inf, 0.0, -1.0])
def test_problems_reject_mu_that_is_not_finite_and_positive(mu):
    x, y = points(n=20)
    with pytest.raises(InputError, match="mu"):
        FullKrrProblem(oracle(x), y, mu, rank=5)
    with pytest.raises(InputError, match="mu"):
        RestrictedKrrProblem(oracle(x), np.arange(5), y, mu)
