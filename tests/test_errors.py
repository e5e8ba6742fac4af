"""``errors.rng``, the one draw from a caller's seed, and the exported
functions that take a seed, each of which reports a bad one as an
``InputError``."""

import math

import numpy as np
import pytest

from krrsolve.data import Dataset
from krrsolve.diagnostics import (
    clustered_dataset,
    crossover_experiment,
    psd_matrix_with_spectrum,
    separation_experiment,
    verify_krill_theorem,
    verify_rpc_theorem,
)
from krrsolve.errors import InputError, rng
from krrsolve.harness import split_train_test
from krrsolve.kernels import DatasetKernelOracle, KernelSpec
from krrsolve.krr import RestrictedKrrProblem, select_centers_uniform, solve_restricted_krr
from krrsolve.lowrank import PivotRule
from krrsolve.sketch import build_embedding


def krill_solve(seed):
    x = np.random.default_rng(0).standard_normal((20, 3))
    oracle = DatasetKernelOracle(x, KernelSpec())
    return solve_restricted_krr(RestrictedKrrProblem(
        oracle, np.arange(5), np.ones(20), 0.1, preconditioner="krill",
        embedding_seed=seed))


SEEDED = {
    "select_centers_uniform": lambda s: select_centers_uniform(5, 2, seed=s),
    "PivotRule": lambda s: PivotRule(seed=s),
    "build_embedding": lambda s: build_embedding(4, 10, 2, seed=s),
    "split_train_test": lambda s: split_train_test(Dataset(np.ones((10, 2))), 0.5, seed=s),
    "psd_matrix_with_spectrum": lambda s: psd_matrix_with_spectrum([1.0, 0.5], seed=s),
    "clustered_dataset": lambda s: clustered_dataset(100, seed=s),
    "solve_restricted_krr": krill_solve,
    "verify_rpc_theorem": lambda s: verify_rpc_theorem(
        2.0 ** -np.arange(1, 21), mu=1e-3, delta=0.1, n_seeds=1, seed0=s),
    "verify_krill_theorem": lambda s: verify_krill_theorem(n=100, k=5, mu=0.4,
                                                           n_seeds=1, seed0=s),
    "separation_experiment": lambda s: separation_experiment("uniform", n=100,
                                                             n_seeds=1, seed0=s),
    "crossover_experiment": lambda s: crossover_experiment((150,), (10,), seed=s),
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_a_negative_seed_is_an_input_error(call):
    # numpy's own ValueError would leave the CLI with a traceback
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        call(-1)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_a_fractional_seed_is_an_input_error(call):
    # numpy's own TypeError would leave the CLI with a traceback
    with pytest.raises(InputError, match=r"seed must be a nonnegative integer, got 1\.5"):
        call(1.5)


@pytest.mark.parametrize("seed", [1.5, math.nan, 2.0, "3", [1, 2]],
                         ids=["fraction", "nan", "integral-float", "str", "list"])
def test_rng_takes_no_seed_but_an_integer(seed):
    with pytest.raises(InputError, match="seed must be a nonnegative integer, got"):
        rng(seed)


def test_rng_draws_the_stream_of_its_seed_and_passes_a_generator_through():
    assert rng(7).standard_normal() == np.random.default_rng(7).standard_normal()
    assert rng(np.uint8(7)).standard_normal() == np.random.default_rng(7).standard_normal()
    gen = np.random.default_rng(3)
    assert rng(gen) is gen

