"""The benchmark's trace contract: every kernel entry a solve generates goes
through ``oracle.block``, and every layer the benchmark rebinds in
``krrsolve.krr`` is still called through that module's namespace.

``perfbench/tracing.py`` counts entries in a ``DatasetKernelOracle``
subclass that overrides ``block`` and times the layers by rebinding
``build_factor``, ``build_rpc_preconditioner``, ``krill_from_sketch``,
``build_embedding`` and ``pcg``.  A solver that generated entries another
way, or called a layer by a name imported elsewhere, would make its per-layer
metrics read low without failing anything else.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from krrsolve.kernels import KernelSpec
from krrsolve.krr import (
    FullKrrProblem,
    PivotRule,
    RestrictedKrrProblem,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

N, DIM, RANK, CENTERS, SEED = 400, 5, 40, 60, 1
BUDGET = 8 * N * 50  # 50 kernel columns, so both solves stream their blocks
MU = 1e-3 * N


def traced_solve(solve, make_problem):
    """Per-layer metrics and span names of one solve on a counting oracle."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((N, DIM))  # distinct points: no pivot is skipped
    y = np.sin(x.sum(axis=1))
    tracer = tracing.Tracer()
    oracle = tracing.CountingOracle(x, KernelSpec(), BUDGET, tracer)
    problem = make_problem(oracle, y)
    with tracer.span(tracing.SOLVE), tracing.traced_layers(tracer):
        report = solve(problem)
    assert report.converged
    spans = tracer.as_dicts()
    return tracing.layer_metrics(spans), {s["name"] for s in spans}


def test_full_solve_generates_every_entry_through_block():
    metrics, names = traced_solve(solve_full_krr, lambda oracle, y: FullKrrProblem(
        oracle, y, MU, RANK, pivot_rule=PivotRule(seed=SEED)))
    assert {tracing.FACTOR, tracing.RPC_BUILD, tracing.PCG, tracing.OPERATOR,
            tracing.PRECOND_APPLY} <= names
    assert metrics["lowrank.rank"] == metrics["lowrank.rank_requested"] == RANK
    assert metrics["lowrank.entries"] == N * RANK
    ops = metrics["pcg.operator_calls"]
    assert ops >= 1
    assert metrics["kernels.entries"] == N * RANK + ops * N * N


def test_restricted_solve_generates_every_entry_through_block():
    k = CENTERS
    metrics, names = traced_solve(solve_restricted_krr, lambda oracle, y: RestrictedKrrProblem(
        oracle, select_centers_uniform(N, k, seed=SEED), y, MU, preconditioner="krill",
        embedding_seed=SEED))
    assert {tracing.EMBEDDING, tracing.KRILL_BUILD, tracing.PCG, tracing.OPERATOR,
            tracing.PRECOND_APPLY} <= names
    ops = metrics["pcg.operator_calls"]
    assert ops >= 1
    # A(S,S) once, then one pass over A(:,S) for the sketch and the
    # right-hand side, and one more for every operator apply
    assert metrics["kernels.entries"] == k * k + (1 + ops) * N * k


def test_direct_solve_generates_each_entry_once():
    k = CENTERS
    metrics, names = traced_solve(solve_restricted_krr, lambda oracle, y: RestrictedKrrProblem(
        oracle, select_centers_uniform(N, k, seed=SEED), y, MU))
    assert {tracing.PCG, tracing.OPERATOR, tracing.PRECOND_APPLY} <= names
    assert tracing.EMBEDDING not in names and tracing.KRILL_BUILD not in names
    assert metrics["pcg.operator_calls"] >= 1
    # A(S,S) once and one pass over A(:,S): PCG runs on the formed k x k
    # matrix, so its operator applies generate no entry
    assert metrics["kernels.entries"] == k * k + N * k


def test_falkon_solve_builds_through_krill_from_sketch():
    k = CENTERS
    metrics, names = traced_solve(solve_restricted_krr, lambda oracle, y: RestrictedKrrProblem(
        oracle, select_centers_uniform(N, k, seed=SEED), y, MU, preconditioner="falkon"))
    assert {tracing.KRILL_BUILD, tracing.PCG, tracing.OPERATOR,
            tracing.PRECOND_APPLY} <= names
    assert tracing.EMBEDDING not in names
    ops = metrics["pcg.operator_calls"]
    assert ops >= 1
    # Falkon's sketch is A(S,S) itself: its one pass over A(:,S) forms only
    # the right-hand side
    assert metrics["kernels.entries"] == k * k + (1 + ops) * N * k


def test_default_krill_embedding_takes_fewer_operator_passes_than_d_2k():
    k = CENTERS

    def metrics(embedding_dim):
        return traced_solve(solve_restricted_krr, lambda oracle, y: RestrictedKrrProblem(
            oracle, select_centers_uniform(N, k, seed=SEED), y, MU, preconditioner="krill",
            embedding_dim=embedding_dim, embedding_seed=SEED))[0]

    default, d_2k = metrics(None), metrics(2 * k)
    ops = default["pcg.operator_calls"]
    assert default["kernels.entries"] == k * k + (1 + ops) * N * k
    assert ops < d_2k["pcg.operator_calls"]
