"""The paper's claims, checked by the diagnostics module at small size."""

import numpy as np
import pytest

from krrsolve.diagnostics import (
    crossover_experiment,
    separation_experiment,
    verify_krill_theorem,
    verify_rpc_theorem,
)
from krrsolve.errors import InputError

from .test_precond import BAD_MU


def test_krill_bound_holds_whenever_the_embedding_is_a_good_subspace_embedding():
    # kappa <= 3 must follow deterministically from distortion in [1/2, 3/2]
    result = verify_krill_theorem(n=400, k=20, mu=0.4, n_seeds=20)
    assert result["event_count"] >= 1
    assert result["conditional_violations"] == 0


def test_rpc_bound_holds_at_the_guarantee_rank():
    # kappa <= 3/delta with probability >= 1 - delta, less the verify-theorems
    # command's slack of 0.05 for the sampling error of a finite seed count
    delta = 0.1
    result = verify_rpc_theorem(2.0 ** -np.arange(1, 101), mu=1e-3, delta=delta,
                                n_seeds=40)
    assert len(result["records"]) == 40
    assert result["event_fraction"] >= 1.0 - delta - 0.05
    assert result["mean_trace_residual"] <= result["trace_bound"]


@pytest.mark.parametrize("kind", ["uniform", "greedy"])
def test_random_pivots_beat_the_baseline_on_its_adversarial_matrix(kind):
    # at n = 300 the uniform case is not separated at 10 seeds by chance; at
    # n = 1000 the small block holds 10 points and 20 seeds separate both
    result = separation_experiment(kind, n=1000, rank=10, n_seeds=20)
    assert result["separated"]


def test_crossover_counts_one_pass_for_direct_and_one_per_iteration_for_krill():
    # a budget below 10 columns of 150 rows streams every A(:,S) here, so each
    # pass generates it
    n_values, k_values = (150, 300), (10, 25)
    result = crossover_experiment(n_values, k_values, seed=3, memory_budget=8 * 150 * 7)
    records = result["records"]
    assert [(r["n"], r["k"], r["method"]) for r in records] == [
        (n, k, method) for n in n_values for k in k_values for method in ("direct", "krill")]
    for r in records:
        n, k = r["n"], r["k"]
        assert r["converged"]
        assert 0 < r["seconds_min"] <= r["seconds"] <= r["seconds_max"]
        if r["method"] == "direct":
            assert r["iterations"] == 1 and r["passes"] == 1
            assert r["entries"] == k * k + n * k
        else:
            assert r["passes"] == 1 + r["iterations"] > 2
            assert r["entries"] == k * k + (1 + r["iterations"]) * n * k


@pytest.mark.parametrize("experiment", [
    lambda: verify_rpc_theorem(2.0 ** -np.arange(1, 21), mu=1e-3, delta=0.1, n_seeds=0),
    lambda: verify_krill_theorem(n=100, k=5, mu=0.4, n_seeds=0),
    lambda: separation_experiment("uniform", n=100, n_seeds=0),
    lambda: separation_experiment("greedy", n=100, n_seeds=0),
], ids=["rpc", "krill", "uniform", "greedy"])
def test_no_seeds_is_an_input_error(experiment):
    with pytest.raises(InputError, match="n_seeds >= 1"):
        experiment()


@pytest.mark.parametrize("mu", BAD_MU)
@pytest.mark.parametrize("experiment", [
    lambda mu: verify_rpc_theorem(2.0 ** -np.arange(1, 21), mu=mu, delta=0.1, n_seeds=1),
    lambda mu: verify_krill_theorem(n=100, k=5, mu=mu, n_seeds=1),
], ids=["rpc", "krill"])
def test_mu_that_is_not_finite_and_positive_is_an_input_error(experiment, mu):
    with pytest.raises(InputError, match="mu must be finite and positive"):
        experiment(mu)
