"""The input checks that no other test reaches, one bad input each.

Each row of ``BAD_INPUTS`` calls an exported function with one invalid
argument and names the ``InputError`` message it must raise; the tests
below it cover the checks that need a file or the CLI.
"""

import numpy as np
import pytest

from krrsolve import krr
from krrsolve.cli import EXIT_INPUT, main
from krrsolve.data import Dataset, load_csv
from krrsolve.diagnostics import (
    build_greedy_failure_matrix,
    guarantee_rank,
    psd_matrix_with_spectrum,
    separation_experiment,
    verify_rpc_theorem,
)
from krrsolve.errors import InputError
from krrsolve.harness import split_train_test
from krrsolve.kernels import DatasetKernelOracle, ExplicitMatrixOracle, KernelSpec, predict
from krrsolve.krr import FullKrrProblem, RestrictedKrrProblem, smape
from krrsolve.lowrank import build_factor, trace_residual
from krrsolve.precond import precond_condition_number
from krrsolve.sketch import build_embedding, distortion_check


def _oracle(n=6):
    return DatasetKernelOracle(np.random.default_rng(0).standard_normal((n, 2)), KernelSpec())


BAD_INPUTS = {
    "Dataset, non-finite features": (
        lambda: Dataset(np.array([[1.0], [np.nan]])), "features contain non-finite"),
    "Dataset, non-finite targets": (
        lambda: Dataset(np.ones((2, 1)), np.array([1.0, np.inf])),
        "targets contain non-finite"),
    "split_train_test, fraction 0": (
        lambda: split_train_test(Dataset(np.ones((10, 1))), 0.0, seed=0), r"\(0, 1\)"),
    "split_train_test, fraction 1": (
        lambda: split_train_test(Dataset(np.ones((10, 1))), 1.0, seed=0), r"\(0, 1\)"),
    "split_train_test, empty split": (
        lambda: split_train_test(Dataset(np.ones((3, 1))), 0.1, seed=0), "empty split"),
    "KernelSpec, unknown family": (lambda: KernelSpec("cosine"), "unknown kernel family"),
    "DatasetKernelOracle, 1-d features": (
        lambda: DatasetKernelOracle(np.ones(5), KernelSpec()), "nonempty N x dim"),
    "DatasetKernelOracle, no features": (
        lambda: DatasetKernelOracle(np.ones((0, 2)), KernelSpec()), "nonempty N x dim"),
    "ExplicitMatrixOracle, not square": (
        lambda: ExplicitMatrixOracle(np.ones((2, 3))), "square"),
    "ExplicitMatrixOracle, not finite": (
        lambda: ExplicitMatrixOracle(np.array([[1.0, np.nan], [np.nan, 1.0]])),
        "non-finite"),
    "ExplicitMatrixOracle, not symmetric": (
        lambda: ExplicitMatrixOracle(np.array([[1.0, 0.5], [0.0, 1.0]])), "not symmetric"),
    "FullKrrProblem, target length": (
        lambda: FullKrrProblem(_oracle(), np.ones(5), 0.1, 2), "target length"),
    "RestrictedKrrProblem, target length": (
        lambda: RestrictedKrrProblem(_oracle(), [0, 1], np.ones(5), 0.1), "target length"),
    "RestrictedKrrProblem, no centers": (
        lambda: RestrictedKrrProblem(_oracle(), [], np.ones(6), 0.1), "between 1 and N"),
    "RestrictedKrrProblem, repeated centers": (
        lambda: RestrictedKrrProblem(_oracle(), [1, 1], np.ones(6), 0.1), "distinct"),
    "RestrictedKrrProblem, unknown preconditioner": (
        lambda: RestrictedKrrProblem(_oracle(), [0, 1], np.ones(6), 0.1,
                                     preconditioner="jacobi"), "unknown preconditioner"),
    "predict, coefficient length": (
        lambda: predict(np.ones(2), np.ones((3, 2)), KernelSpec(), np.ones((1, 2))),
        "coefficient length"),
    "smape, lengths": (lambda: smape(np.ones(2), np.ones(3)), "equal nonempty"),
    "test_error, lengths": (
        lambda: krr.test_error(np.ones(2), np.ones(3), "regression"), "equal length"),
    "trace_residual, factor size": (
        lambda: trace_residual(_oracle(4), build_factor(_oracle(6), 2)), "factor size"),
    "precond_condition_number, not square": (
        lambda: precond_condition_number(np.ones((2, 3)), lambda v: v), "square"),
    "distortion_check, 1-d basis": (
        lambda: distortion_check(build_embedding(4, 3, 2, seed=0), np.ones(3)), "2-d"),
    "build_greedy_failure_matrix, delta": (
        lambda: build_greedy_failure_matrix(10, 1.0), r"delta must lie in \(0, 1\)"),
    "verify_rpc_theorem, delta": (
        lambda: verify_rpc_theorem([1.0, 0.5], mu=0.1, delta=0.0, n_seeds=1),
        r"delta must lie in \(0, 1\)"),
    "verify_rpc_theorem, guarantee rank beyond the spectrum": (
        lambda: verify_rpc_theorem([1.0, 0.5], mu=1e-3, delta=0.1, n_seeds=1),
        "guarantee rank >= 1 and <= 2, got 17"),
    "psd_matrix_with_spectrum, empty": (
        lambda: psd_matrix_with_spectrum([]), "nonempty nonnegative"),
    "psd_matrix_with_spectrum, negative": (
        lambda: psd_matrix_with_spectrum([1.0, -0.5]), "nonempty nonnegative"),
    "separation_experiment, unknown kind": (
        lambda: separation_experiment("random", n=20, n_seeds=1), "kind must be"),
}


@pytest.mark.parametrize("call,match", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_a_bad_input_is_an_input_error(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_guarantee_rank_is_one_when_mu_covers_the_whole_spectrum():
    assert guarantee_rank([0.5, 0.25], mu=0.75) == 1
    assert guarantee_rank([0.5, 0.25], mu=1.0) == 1


def test_an_empty_csv_is_an_input_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InputError, match="empty file"):
        load_csv(str(path))


def test_a_csv_header_without_rows_is_an_input_error(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b,y\n\n")
    with pytest.raises(InputError, match="no data rows"):
        load_csv(str(path), "y")


def test_blank_csv_rows_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,y\n1,2\n\n , \n3,4\n")
    data = load_csv(str(path), "y")
    np.testing.assert_array_equal(data.features, [[1.0], [3.0]])
    np.testing.assert_array_equal(data.targets, [2.0, 4.0])


def test_a_missing_config_file_exits_with_an_input_error(tmp_path, capsys):
    code = main(["solve-full", "--config", str(tmp_path / "missing.cfg")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "cannot read config" in err and "Traceback" not in err
