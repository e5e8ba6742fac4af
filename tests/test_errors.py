"""``errors.rng``, the one draw from a caller's seed, ``errors.check_count``,
the one rule for integer counts, ``check_positive`` and ``check_fraction``,
the rules for real numbers, and ``check_choice``, the rule for allowed
names, with the exported functions that take such a value, each of which
reports a bad one as an ``InputError``."""

import dataclasses
import math

import numpy as np
import pytest

from krrsolve import data, kernels, krr, lowrank
from krrsolve.config import ExperimentConfig
from krrsolve.data import Dataset
from krrsolve.diagnostics import (
    build_greedy_failure_matrix,
    build_uniform_failure_matrix,
    clustered_dataset,
    crossover_experiment,
    psd_matrix_with_spectrum,
    separation_experiment,
    verify_krill_theorem,
    verify_rpc_theorem,
)
from krrsolve.errors import InputError, check_count, check_fraction, check_positive, rng
from krrsolve.harness import split_train_test
from krrsolve.kernels import DatasetKernelOracle, ExplicitMatrixOracle, KernelSpec
from krrsolve.krr import (
    FullKrrProblem,
    RestrictedKrrProblem,
    predict,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
)
from krrsolve.lowrank import PivotRule, build_factor, tail_rank
from krrsolve.pcg import LinearOperator, pcg
from krrsolve.precond import build_rpc_preconditioner, krill_from_sketch
from krrsolve.sketch import build_embedding, theory_params


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


@pytest.mark.parametrize("seed", [1.5, math.nan, 2.0, "3", [1, 2], True, False],
                         ids=["fraction", "nan", "integral-float", "str", "list", "True",
                              "False"])
def test_rng_takes_no_seed_but_an_integer(seed):
    with pytest.raises(InputError, match="seed must be a nonnegative integer, got"):
        rng(seed)


def test_rng_draws_the_stream_of_its_seed_and_passes_a_generator_through():
    assert rng(7).standard_normal() == np.random.default_rng(7).standard_normal()
    assert rng(np.uint8(7)).standard_normal() == np.random.default_rng(7).standard_normal()
    gen = np.random.default_rng(3)
    assert rng(gen) is gen



def test_check_count_returns_a_python_int():
    for value in (3, np.int32(3), np.int64(3), np.uint8(3)):
        assert type(check_count("n", value)) is int and check_count("n", value) == 3
    assert check_count("n", 0, low=0) == 0
    assert check_count("k", 5, high=5) == 5
    with pytest.raises(InputError, match=r"need an integer k >= 1 and <= 5, got 6"):
        check_count("k", 6, high=5)


def _x(n=20):
    return np.random.default_rng(0).standard_normal((n, 3))


def _config(**overrides):
    return ExperimentConfig(**{"dataset": "d.txt", "seed": 0, "rank": 5, "centers": 5,
                               **overrides})


# every place a count is checked: (call with the count, its name, its least
# legal value, a legal value)
COUNTS = {
    "build_factor.rank": (lambda v: build_factor(ExplicitMatrixOracle(np.eye(3)), v),
                          "rank", 1, 2),
    "PivotRule.block_size": (lambda v: PivotRule(block_size=v), "block_size", 1, 2),
    "select_centers_uniform.n": (lambda v: select_centers_uniform(v, 1, seed=0), "n", 1, 5),
    "select_centers_uniform.k": (lambda v: select_centers_uniform(50, v, seed=0), "k", 1, 5),
    "pcg.max_iter": (lambda v: pcg(LinearOperator(2, lambda x: x), np.ones(2), 1e-6,
                                   max_iter=v), "max_iter", 1, 2),
    "solve_full_krr.max_iter": (lambda v: solve_full_krr(FullKrrProblem(
        DatasetKernelOracle(_x(), KernelSpec()), np.ones(20), 0.1, 5, max_iter=v)),
        "max_iter", 1, 2),
    "solve_restricted_krr.max_iter": (lambda v: solve_restricted_krr(RestrictedKrrProblem(
        DatasetKernelOracle(_x(), KernelSpec()), np.arange(5), np.ones(20), 0.1,
        max_iter=v)), "max_iter", 1, 2),
    "build_embedding.embedding_dim": (lambda v: build_embedding(v, 10, 1),
                                      "embedding_dim", 1, 4),
    "build_embedding.n": (lambda v: build_embedding(4, v, 2), "n", 1, 10),
    "build_embedding.embedding_nnz": (lambda v: build_embedding(4, 10, v),
                                      "embedding_nnz", 1, 2),
    "theory_params.k": (theory_params, "k", 1, 5),
    "verify_rpc_theorem.n_seeds": (lambda v: verify_rpc_theorem(
        2.0 ** -np.arange(1, 101), mu=1e-3, delta=0.1, n_seeds=v), "n_seeds", 1, 1),
    "verify_krill_theorem.n_seeds": (lambda v: verify_krill_theorem(
        n=30, k=3, mu=0.4, n_seeds=v), "n_seeds", 1, 1),
    "verify_krill_theorem.n": (lambda v: verify_krill_theorem(n=v, k=1, mu=0.4, n_seeds=1),
                               "n", 1, 30),
    "separation_experiment.n_seeds": (lambda v: separation_experiment(
        "uniform", n=30, rank=2, n_seeds=v), "n_seeds", 1, 1),
    "build_uniform_failure_matrix.n": (build_uniform_failure_matrix, "n", 8, 8),
    "build_greedy_failure_matrix.n": (lambda v: build_greedy_failure_matrix(v, 0.1),
                                      "n", 8, 8),
    "clustered_dataset.n": (clustered_dataset, "n", 100, 100),
    "clustered_dataset.dim": (lambda v: clustered_dataset(100, v), "dim", 1, 2),
    "crossover_experiment.n": (lambda v: crossover_experiment((v,), (1,)), "n", 1, 20),
    **{f"ExperimentConfig.{name}": (lambda v, name=name: _config(**{name: v}).validate(),
                                    name, 0, 1)
       for name in ("subsample", "rank", "centers", "block_size", "embedding_dim",
                    "embedding_nnz", "max_iter")},
}


@pytest.mark.parametrize("bad", ["fraction", "nan", "bool", "below"])
@pytest.mark.parametrize("call,name,low,_", COUNTS.values(), ids=COUNTS.keys())
def test_a_count_that_is_not_an_integer_in_range_is_an_input_error(call, name, low, _, bad):
    value = {"fraction": 2.5, "nan": math.nan, "bool": True, "below": low - 1}[bad]
    if bad == "bool" and low == 0:
        value = False  # True is 1, legal where 0 is
    with pytest.raises(InputError, match=rf"\b{name} >= {low}"):
        call(value)


@pytest.mark.parametrize("call,name,low,legal", COUNTS.values(), ids=COUNTS.keys())
def test_numpy_integer_counts_are_accepted(call, name, low, legal):
    for value in (np.int32(legal), np.int64(legal)):
        call(value)


@pytest.mark.parametrize("mode,name", [("full", "rank"), ("restricted", "centers")])
def test_the_count_of_the_run_mode_must_be_positive(mode, name):
    # 0 passes the loop over the integer keys, where it selects a default
    _config(mode=mode, **{name: 1}).validate()
    with pytest.raises(InputError, match=f"{name} >= 1, got 0"):
        _config(mode=mode, **{name: 0}).validate()


@pytest.mark.parametrize("budget", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda b: DatasetKernelOracle(_x(), KernelSpec(), memory_budget=b),
    lambda b: predict(np.ones(3), _x(3), KernelSpec(), _x(4), memory_budget=b),
    lambda b: _config(memory_budget_bytes=b).validate(),
], ids=["DatasetKernelOracle", "predict", "validate"])
def test_a_memory_budget_that_is_not_finite_is_an_input_error(call, budget):
    # floats stay legal: a budget is a byte size, not a count
    with pytest.raises(InputError, match="memory budget must be finite and positive"):
        call(budget)


def _factor():
    return build_factor(ExplicitMatrixOracle(np.eye(3)), 2)


# every place a finite positive number is checked: (call with the value, its
# name, a legal value)
POSITIVES = {
    "FullKrrProblem.mu": (lambda v: FullKrrProblem(
        DatasetKernelOracle(_x(), KernelSpec()), np.ones(20), v, 5), "mu", 0.1),
    "RestrictedKrrProblem.mu": (lambda v: RestrictedKrrProblem(
        DatasetKernelOracle(_x(), KernelSpec()), np.arange(5), np.ones(20), v), "mu", 0.1),
    "build_rpc_preconditioner.mu": (lambda v: build_rpc_preconditioner(_factor(), v),
                                    "mu", 0.1),
    "krill_from_sketch.mu": (lambda v: krill_from_sketch(np.eye(2), np.eye(2), v), "mu", 0.1),
    "tail_rank.mu": (lambda v: tail_rank([1.0, 0.5], v), "mu", 0.1),
    "verify_rpc_theorem.mu": (lambda v: verify_rpc_theorem(
        2.0 ** -np.arange(1, 101), mu=v, delta=0.1, n_seeds=1), "mu", 1e-3),
    "KernelSpec.bandwidth": (lambda v: KernelSpec(bandwidth=v), "bandwidth", 2.0),
    "pcg.epsilon": (lambda v: pcg(LinearOperator(2, lambda x: x), np.ones(2), v),
                    "epsilon", 1e-6),
    "DatasetKernelOracle.memory_budget": (lambda v: DatasetKernelOracle(
        _x(), KernelSpec(), memory_budget=v), "memory budget", 1 << 20),
    "predict.memory_budget": (lambda v: predict(np.ones(3), _x(3), KernelSpec(), _x(4),
                                                memory_budget=v), "memory budget", 1 << 20),
    **{f"ExperimentConfig.{key}": (lambda v, key=key: _config(**{key: v}).validate(),
                                   name, legal)
       for key, name, legal in (("mu_over_n", "mu_over_n", 1e-7),
                                ("bandwidth", "bandwidth", 2.0),
                                ("epsilon", "epsilon", 1e-3),
                                ("memory_budget_bytes", "memory budget", 1 << 20))},
}


@pytest.mark.parametrize("value", [True, None, "3", -1.0, math.nan, math.inf],
                         ids=["True", "None", "str", "negative", "nan", "inf"])
@pytest.mark.parametrize("call,name,_", POSITIVES.values(), ids=POSITIVES.keys())
def test_a_value_that_is_not_a_positive_number_is_an_input_error(call, name, _, value):
    # True is not 1, and None or "3" is not numpy's TypeError
    with pytest.raises(InputError, match=f"{name} must be finite and positive, got"):
        call(value)


@pytest.mark.parametrize("call,name,_", POSITIVES.values(), ids=POSITIVES.keys())
def test_zero_is_not_positive_except_where_it_selects_a_default(call, name, _):
    if call is POSITIVES["ExperimentConfig.epsilon"][0]:
        call(0.0)  # the mode default
        assert _config(epsilon=0.0).effective_epsilon == 1e-3
        return
    with pytest.raises(InputError, match=f"{name} must be finite and positive, got 0"):
        call(0.0)


@pytest.mark.parametrize("call,name,legal", POSITIVES.values(), ids=POSITIVES.keys())
def test_numpy_scalars_are_positive_numbers(call, name, legal):
    for value in (legal, np.float64(legal), np.float32(legal)):
        call(value)


def test_check_positive_and_check_fraction_name_the_value():
    with pytest.raises(InputError, match=r"^mu must be finite and positive, got '3'$"):
        check_positive("mu", "3")
    with pytest.raises(InputError, match=r"^delta must lie in \(0, 1\), got True$"):
        check_fraction("delta", True)
    check_positive("mu", np.int64(2))
    check_fraction("delta", np.float32(0.5))


# every place a number in (0, 1) is checked: (call with the value, its name)
FRACTIONS = {
    "build_greedy_failure_matrix.delta": (lambda v: build_greedy_failure_matrix(10, v),
                                          "delta"),
    "verify_rpc_theorem.delta": (lambda v: verify_rpc_theorem(
        2.0 ** -np.arange(1, 101), mu=1e-3, delta=v, n_seeds=1), "delta"),
    "split_train_test.test_fraction": (lambda v: split_train_test(
        Dataset(np.ones((10, 2))), v, seed=0), "test_fraction"),
    "ExperimentConfig.test_fraction": (lambda v: _config(test_fraction=v).validate(),
                                       "test_fraction"),
}


@pytest.mark.parametrize("value", [True, None, "3", 1.0, -0.5, math.nan, math.inf],
                         ids=["True", "None", "str", "one", "negative", "nan", "inf"])
@pytest.mark.parametrize("call,name", FRACTIONS.values(), ids=FRACTIONS.keys())
def test_a_value_outside_the_open_unit_interval_is_an_input_error(call, name, value):
    with pytest.raises(InputError, match=rf"{name} must lie in \(0, 1\), got"):
        call(value)


@pytest.mark.parametrize("call,name", FRACTIONS.values(), ids=FRACTIONS.keys())
def test_fractions_in_the_open_unit_interval_are_accepted(call, name):
    for value in (0.5, np.float64(0.5)):
        call(value)


def test_a_test_fraction_of_zero_means_no_split():
    _config(test_fraction=0.0).validate()
    _config(test_fraction=0).validate()
    with pytest.raises(InputError, match="test_fraction"):
        split_train_test(Dataset(np.ones((10, 2))), 0.0, seed=0)


def test_each_config_choice_is_its_modules_own_tuple():
    owners = {"format": data.FORMATS, "task": krr.TASKS, "kernel": kernels.KERNEL_FAMILIES,
              "mode": krr.MODES, "pivot_rule": lowrank.PIVOT_RULES,
              "preconditioner": krr.PRECONDITIONERS}
    choices = {f.name: f.metadata["choices"] for f in dataclasses.fields(ExperimentConfig)
               if f.metadata.get("choices")}
    assert choices.keys() == owners.keys()
    for name, names in choices.items():
        assert names is owners[name], name


def _load(fmt, tmp_path):
    path = tmp_path / f"data.{fmt}"
    path.write_text("y,a\n1,2\n" if fmt == data.CSV else "1 1:2\n")
    return data.load_dataset(str(path), fmt, "y" if fmt == data.CSV else None)


# every place an allowed name is checked: (call with the name and a scratch
# directory, the name in the message, the allowed names)
CHOICES = {
    "load_dataset": (_load, "dataset format", data.FORMATS),
    "KernelSpec": (lambda v, _: KernelSpec(v), "kernel family", kernels.KERNEL_FAMILIES),
    "PivotRule": (lambda v, _: PivotRule(v), "pivot rule", lowrank.PIVOT_RULES),
    "RestrictedKrrProblem": (lambda v, _: RestrictedKrrProblem(
        DatasetKernelOracle(_x(), KernelSpec()), np.arange(5), np.ones(20), 0.1,
        preconditioner=v), "preconditioner", krr.PRECONDITIONERS),
    "test_error": (lambda v, _: krr.test_error(np.ones(2), np.ones(2), v), "task", krr.TASKS),
    "separation_experiment": (lambda v, _: separation_experiment(v, n=20, rank=2, n_seeds=1),
                              "kind", (lowrank.UNIFORM, lowrank.GREEDY)),
    **{f"ExperimentConfig.{key}": (lambda v, _, key=key: _config(**{key: v}).validate(),
                                   key, names)
       for key, names in (("format", data.FORMATS), ("task", krr.TASKS),
                          ("kernel", kernels.KERNEL_FAMILIES), ("mode", krr.MODES),
                          ("pivot_rule", lowrank.PIVOT_RULES),
                          ("preconditioner", krr.PRECONDITIONERS))},
}


@pytest.mark.parametrize("call,name,names", CHOICES.values(), ids=CHOICES.keys())
def test_every_allowed_name_is_accepted(call, name, names, tmp_path):
    for value in names:
        call(value, tmp_path)


@pytest.mark.parametrize("value", ["bogus", None, 1])
@pytest.mark.parametrize("call,name,names", CHOICES.values(), ids=CHOICES.keys())
def test_a_name_that_is_not_allowed_is_an_input_error(call, name, names, value, tmp_path):
    with pytest.raises(InputError, match=rf"^unknown {name} {value!r}: {name} must be one "
                                         rf"of {', '.join(names)}$"):
        call(value, tmp_path)
