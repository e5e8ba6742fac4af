"""``errors.check_array``, the one rule for array inputs, and the exported
functions that take an array: each rejects a non-finite value with an
``InputError`` that names the array, before it does any work.

Before the rule, a NaN prediction scored as a perfect 0.0 in ``smape`` and
as the class -1 in ``test_error``; one NaN test point made every prediction
NaN; a NaN target reached ``pcg`` only after the factor or the pass over
A(:,S) was paid for; and ``tail_rank``, ``psd_matrix_with_spectrum`` and
``distortion_check`` returned a result.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrsolve import harness, krr
from krrsolve.cli import EXIT_INPUT, main
from krrsolve.data import Dataset
from krrsolve.diagnostics import guarantee_rank, psd_matrix_with_spectrum, verify_rpc_theorem
from krrsolve.errors import InputError, check_array
from krrsolve.kernels import (
    KERNEL_FAMILIES,
    DatasetKernelOracle,
    ExplicitMatrixOracle,
    KernelSpec,
    _point_sets,
    pairwise_kernel,
    predict,
)
from krrsolve.krr import (
    FullKrrProblem,
    RestrictedKrrProblem,
    smape,
    solve_full_krr,
    solve_restricted_krr,
)
from krrsolve.lowrank import tail_rank
from krrsolve.pcg import LinearOperator, pcg
from krrsolve.precond import krill_from_sketch, precond_condition_number
from krrsolve.sketch import build_embedding, distortion_check

POINTS = np.random.default_rng(0).standard_normal((6, 3))
SPEC = KernelSpec()


def _oracle(family=KERNEL_FAMILIES[0]):
    return DatasetKernelOracle(POINTS, KernelSpec(family))


# entry point -> (a valid array, the call on it, the name its error gives)
ENTRY_POINTS = {
    "Dataset features": (POINTS, lambda a: Dataset(a), "features"),
    "Dataset targets": (np.ones(6), lambda a: Dataset(POINTS, a), "targets"),
    "DatasetKernelOracle": (POINTS, lambda a: DatasetKernelOracle(a, SPEC), "features"),
    "ExplicitMatrixOracle": (np.eye(4), ExplicitMatrixOracle, "matrix entries"),
    "pairwise_kernel x": (POINTS, lambda a: pairwise_kernel(SPEC, a, POINTS), "points x"),
    "pairwise_kernel y": (POINTS, lambda a: pairwise_kernel(SPEC, POINTS, a), "points y"),
    "FullKrrProblem targets": (
        np.ones(6), lambda a: FullKrrProblem(_oracle(), a, 0.1, 2), "targets"),
    "RestrictedKrrProblem targets": (
        np.ones(6), lambda a: RestrictedKrrProblem(_oracle(), [0, 1], a, 0.1), "targets"),
    "predict coefficients": (
        np.ones(6), lambda a: predict(a, POINTS, SPEC, POINTS), "coefficients"),
    "predict training points": (
        POINTS, lambda a: predict(np.ones(6), a, SPEC, POINTS), "training points"),
    "predict test points": (
        POINTS, lambda a: predict(np.ones(6), POINTS, SPEC, a), "test points"),
    "smape predictions": (np.ones(4), lambda a: smape(a, np.ones(4)), "predictions"),
    "smape actuals": (np.ones(4), lambda a: smape(np.ones(4), a), "actuals"),
    "test_error predictions": (
        np.ones(4), lambda a: krr.test_error(a, np.ones(4), "classification"), "predictions"),
    "test_error labels": (
        np.ones(4), lambda a: krr.test_error(np.ones(4), a, "regression"), "labels"),
    "pcg b": (
        np.ones(4), lambda a: pcg(LinearOperator(4, lambda v: v), a, 1e-6),
        "right-hand side values"),
    "tail_rank": (np.array([3.0, 2.0, 1.0, 0.5]), lambda a: tail_rank(a, 0.1), "eigenvalues"),
    "guarantee_rank": (
        np.array([3.0, 2.0, 1.0, 0.5]), lambda a: guarantee_rank(a, 0.1), "eigenvalues"),
    "psd_matrix_with_spectrum": (
        np.array([3.0, 2.0, 1.0, 0.5]), lambda a: psd_matrix_with_spectrum(a, seed=0),
        "eigenvalues"),
    "verify_rpc_theorem": (
        # a guarantee rank of 8, within the 12 points
        np.array([1.0, 1.0] + [1e-6] * 10),
        lambda a: verify_rpc_theorem(a, 0.1, 0.5, n_seeds=2), "eigenvalues"),
    "krill_from_sketch sketch": (
        np.ones((4, 2)), lambda a: krill_from_sketch(a, np.eye(2), 1.0), "sketch entries"),
    "krill_from_sketch A(S,S)": (
        np.eye(2), lambda a: krill_from_sketch(np.ones((4, 2)), a, 1.0), "A(S,S) entries"),
    "precond_condition_number M": (
        np.eye(3), lambda a: precond_condition_number(a, lambda v: v), "M entries"),
    "distortion_check": (
        np.eye(6)[:, :2], lambda a: distortion_check(build_embedding(8, 6, 2, seed=0), a),
        "basis vectors"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_POINTS.keys())
def test_each_entry_point_takes_its_finite_array(entry):
    # so that the error below comes from the one bad value alone
    valid, call, _ = ENTRY_POINTS[entry]
    call(valid.copy())


@settings(max_examples=200, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)), position=st.integers(0, 10 ** 6),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_one_non_finite_value_anywhere_is_an_input_error(entry, position, bad):
    valid, call, name = ENTRY_POINTS[entry]
    array = valid.copy()
    array.flat[position % array.size] = bad
    with pytest.raises(InputError, match=f"^{re.escape(name)} contain non-finite values$"):
        call(array)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("problem,solve", [
    (lambda o, y: FullKrrProblem(o, y, 0.1, 3), solve_full_krr),
    (lambda o, y: RestrictedKrrProblem(o, [0, 2, 4], y, 0.1), solve_restricted_krr),
], ids=["full", "restricted"])
def test_a_bad_target_fails_before_any_kernel_entry(family, problem, solve):
    oracle = _oracle(family)
    for bad in (math.nan, math.inf):
        y = np.ones(6)
        y[3] = bad
        with pytest.raises(InputError, match="targets contain non-finite"):
            problem(oracle, y)
    with pytest.raises(InputError, match="target length is 5, need 6"):
        problem(oracle, np.ones(5))
    assert oracle.entries == 0
    # the same oracle then solves, so nothing but the targets was wrong
    assert solve(problem(oracle, np.ones(6))).converged and oracle.entries > 0


def test_scores_no_longer_take_a_nan_prediction_as_perfect():
    with pytest.raises(InputError, match="predictions contain non-finite"):
        smape([1.0, math.nan], [1.0, 2.0])
    with pytest.raises(InputError, match="predictions contain non-finite"):
        krr.test_error([math.nan, 1.0], [-1.0, 1.0], "classification")


def test_check_array_shapes_and_messages():
    assert check_array("v", [[1, 2], [3, 4]]).tolist() == [1.0, 2.0, 3.0, 4.0]
    assert check_array("v", 2.5).shape == (1,)
    assert check_array("v", np.empty((0, 3)), ndim=None).shape == (0, 3)
    assert check_array("m", [[1, 2]], ndim=2).shape == (1, 2)
    for bad in (np.ones(3), np.ones((0, 2)), np.ones((2, 2, 2))):
        with pytest.raises(InputError, match=r"m must be a nonempty N x dim array \(2-d\)"):
            check_array("m", bad, ndim=2)
    with pytest.raises(InputError, match="^coefficient length is 2, need 3$"):
        check_array("coefficients", [1, 2], length=3)
    with pytest.raises(InputError, match="^matrix entries contain non-finite values$"):
        check_array("matrix entries", [[1, math.inf]], ndim=2)


def test_check_array_copies_no_float64_array():
    # a Dataset's features and predict's test points are checked in place
    matrix = np.random.default_rng(1).standard_normal((50, 4))
    assert check_array("features", matrix, ndim=2) is matrix
    column = matrix[:, 0].copy()
    assert np.shares_memory(check_array("targets", column), column)
    x, y = _point_sets(matrix, matrix[:3])
    assert x is matrix and np.shares_memory(y, matrix)
    data = Dataset(matrix, column)
    assert data.features is matrix and np.shares_memory(data.targets, column)


def test_point_sets_keep_one_point_and_empty_sets():
    block = pairwise_kernel(SPEC, POINTS[0], POINTS)
    assert block.shape == (1, 6) and block[0, 0] == 1.0
    assert pairwise_kernel(SPEC, np.empty((0, 3)), POINTS).shape == (0, 6)
    assert predict([], np.empty((0, 3)), SPEC, POINTS).tolist() == [0.0] * 6


@pytest.mark.parametrize("workers", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "True"])
def test_run_batch_checks_its_worker_count_before_any_config_runs(tmp_path, monkeypatch,
                                                                  workers):
    (tmp_path / "a.cfg").write_text("dataset = missing.txt\n")

    def run_one(path):
        raise AssertionError("a config ran")
    monkeypatch.setattr(harness, "_run_one", run_one)
    with pytest.raises(InputError, match=r"need an integer workers >= 1, got"):
        harness.run_batch(str(tmp_path), workers=workers)


def test_bench_with_no_workers_exits_as_an_input_error(tmp_path, capsys):
    (tmp_path / "a.cfg").write_text("dataset = missing.txt\n")
    assert main(["bench", str(tmp_path), "--workers", "0"]) == EXIT_INPUT
    assert "need an integer workers >= 1, got 0" in capsys.readouterr().err
