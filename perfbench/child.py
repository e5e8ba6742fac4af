"""One benchmark job in a fresh process: ``python3 child.py JOB.json``.

Jobs are written by ``run.py``; each writes its result as JSON to the path
named in the job.  A fresh process per repetition makes the peak resident
set size a property of one workload run, not of everything run before it.

* ``rep``: the staged user pipeline (set-up, solve, predict), timed stage by
  stage, then the correctness checks outside the timed region.  With
  ``trace`` set, the solve runs on a counting oracle with the package's
  layers rebound, and the result carries the per-layer metrics.
* ``check``: the same configuration through ``harness.run_experiment``, the
  path the CLI takes; for a streaming workload also the in-memory solution
  its repetitions must reproduce.
* ``sweep``: the untimed coverage sweep over the pivot rules and
  preconditioners that the gated workloads do not use.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

import bootstrap

bootstrap.import_package()

import numpy as np  # noqa: E402

from krrsolve import (  # noqa: E402
    DatasetKernelOracle,
    FullKrrProblem,
    KernelSpec,
    KrrSolveError,
    PivotRule,
    RestrictedKrrProblem,
    load_dataset,
    pairwise_kernel,
    predict,
    run_experiment,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
    split_train_test,
    test_error,
)
from krrsolve.config import ExperimentConfig  # noqa: E402
from krrsolve.data import apply_standardization, standardization_params  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    MU_OVER_N,
    WORKLOADS,
    Workload,
    clustered,
    gaussian_cloud,
)

KERNEL = "squared_exponential"
RESIDUAL_FACTOR = 10.0  # a solution passes if its true residual is <= 10 eps
ROUND_OFF = 1e-8  # relative gap allowed between two orderings of one solve
CHECK_BLOCK_BYTES = 32 << 20
SETUP_REPEATS = 3  # set-up is short, so take several samples per process
# Back-to-back predict calls alternate between two speeds, apparently with
# how fresh their large blocks' pages are, so one sample averages a pair.
PREDICT_REPEATS = 2


def experiment_config(w: Workload, data_path: str, seed: int,
                      out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=data_path, format="libsvm", seed=seed, kernel=KERNEL,
        bandwidth=w.bandwidth, mu_over_n=MU_OVER_N, mode=w.mode,
        rank=w.rank, centers=w.centers, epsilon=w.epsilon,
        memory_budget_bytes=w.memory_budget, test_fraction=w.test_fraction,
        output_dir=out_dir)


def setup(w: Workload, data_path: str, seed: int, tracer):
    """The steps ``run_experiment`` takes before it solves, one span each."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span(tracing.LOAD):
        data = load_dataset(data_path, "libsvm")
    with span("data.split"):
        train, test = split_train_test(data, w.test_fraction,
                                       seed=np.random.default_rng(seed))
    with span(tracing.STANDARDIZE):
        params = standardization_params(train.features)
        x_train = apply_standardization(train.features, params)
        x_test = apply_standardization(test.features, params)
    spec = KernelSpec(KERNEL, w.bandwidth)
    with span("kernels.oracle"):
        if tracer:
            oracle = tracing.CountingOracle(x_train, spec, w.memory_budget, tracer)
        else:
            oracle = DatasetKernelOracle(x_train, spec, memory_budget=w.memory_budget)
    mu = MU_OVER_N * oracle.n
    centers = None
    if w.mode == FULL:
        problem = FullKrrProblem(oracle, train.targets, mu, rank=min(w.rank, oracle.n),
                                 epsilon=w.epsilon, pivot_rule=PivotRule(seed=seed))
    else:
        with span("krr.select_centers"):
            centers = select_centers_uniform(oracle.n, w.centers, seed=seed)
        problem = RestrictedKrrProblem(oracle, centers, train.targets, mu,
                                       epsilon=w.epsilon, embedding_seed=seed)
    return problem, x_train, x_test, test.targets, centers


def solve(problem):
    if isinstance(problem, FullKrrProblem):
        return solve_full_krr(problem)
    return solve_restricted_krr(problem)


def true_relative_residual(problem, x_train, spec, beta) -> float:
    """||b - M beta|| / ||b|| from blocked ``pairwise_kernel`` products.

    Independent of the solvers' operators: the full system is
    M = A + mu I, b = y; the restricted one is
    M = A(S,:) A(:,S) + mu A(S,S), b = A(S,:) y.
    """
    y, mu = problem.y, problem.mu
    restricted = isinstance(problem, RestrictedKrrProblem)
    cols = x_train[problem.centers] if restricted else x_train
    rows_per_block = max(1, CHECK_BLOCK_BYTES // (8 * cols.shape[0]))
    m_beta = np.zeros_like(beta)
    b = np.zeros_like(beta) if restricted else y
    for start in range(0, x_train.shape[0], rows_per_block):
        stop = min(start + rows_per_block, x_train.shape[0])
        k_rows = pairwise_kernel(spec, x_train[start:stop], cols)
        if restricted:
            m_beta += k_rows.T @ (k_rows @ beta)
            b += k_rows.T @ y[start:stop]
        else:
            m_beta[start:stop] = k_rows @ beta
    if restricted:
        m_beta += mu * (pairwise_kernel(spec, cols, cols) @ beta)
    else:
        m_beta += mu * beta
    return float(np.linalg.norm(b - m_beta) / np.linalg.norm(b))


def run_rep(job: dict) -> dict:
    w = WORKLOADS[job["workload"]]
    seed = job["seed"]
    tracer = tracing.Tracer() if job["trace"] else None
    out = {"trace": job["trace"], "failures": []}

    out.update(setup_s=[], solve_s=[], predict_s=[])
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        problem, x_train, x_test, y_test, centers = setup(w, job["data"], seed, tracer)
        t1 = time.perf_counter()
        out["setup_s"].append(t1 - t0)
    points = x_train if centers is None else x_train[centers]
    spec = KernelSpec(KERNEL, w.bandwidth)

    def solve_and_predict(traced=False):
        start = time.perf_counter()
        if traced:
            with tracer.span(tracing.SOLVE), tracing.traced_layers(tracer):
                report = solve(problem)
        else:
            report = solve(problem)
        solved = time.perf_counter()
        for _ in range(PREDICT_REPEATS):
            predictions = predict(report.solution, points, spec, x_test,
                                  memory_budget=w.memory_budget)
        predicted = time.perf_counter()
        return report, predictions, solved - start, (predicted - solved) / PREDICT_REPEATS

    # The first solve in a process also pays first-touch page faults that
    # later ones do not, so it is not timed.  The timed loop repeats until
    # the job's time is used, for more samples per process start; the checks
    # below run on its last solution.
    try:
        report, predictions, _, _ = solve_and_predict()
        t1 = time.perf_counter()
        while not out["solve_s"] or (
                not tracer and time.perf_counter() - t1 < job["inner_seconds"]):
            timed = solve_and_predict(traced=tracer is not None)
            report, predictions = timed[:2]
            out["solve_s"].append(timed[2])
            out["predict_s"].append(timed[3])
    except KrrSolveError as exc:
        out["failures"].append(f"{type(exc).__name__}: {exc}")
        return out
    finally:
        out["solves"] = 1 + len(out["solve_s"])

    out.update(iterations=report.iterations,
               test_error=test_error(predictions, y_test, "regression"))
    out["true_rel_residual"] = true_relative_residual(problem, x_train, spec,
                                                      report.solution)
    if not report.converged:
        out["failures"].append(f"not converged in {report.iterations} iterations")
    if not out["true_rel_residual"] <= RESIDUAL_FACTOR * w.epsilon:
        out["failures"].append(
            f"true residual {out['true_rel_residual']:.3e} > "
            f"{RESIDUAL_FACTOR:g} * eps = {RESIDUAL_FACTOR * w.epsilon:.1e}")
    expected = job["expected"]
    if report.iterations != expected["iterations"]:
        out["failures"].append(f"{report.iterations} iterations, run_experiment "
                               f"took {expected['iterations']}")
    if not np.isclose(out["test_error"], expected["test_error"], rtol=1e-9, atol=0):
        out["failures"].append(f"test error {out['test_error']!r}, run_experiment "
                               f"gave {expected['test_error']!r}")
    if job.get("reference"):
        ref = np.load(job["reference"])
        gap = float(np.linalg.norm(report.solution - ref) / np.linalg.norm(ref))
        out["reference_gap"] = gap
        if not gap <= ROUND_OFF:
            out["failures"].append(f"solution differs from the in-memory "
                                   f"solution by {gap:.2e} (relative)")
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.as_dicts())
        out["layers"]["krr.predict_entries"] = x_test.shape[0] * points.shape[0]
        out["layers"]["pcg.iterations"] = report.iterations
        with open(job["spans"], "w") as fh:
            json.dump(tracer.as_dicts(), fh)
    return out


def run_check(job: dict) -> dict:
    """The CLI's path on this workload, and the in-memory reference solution."""
    w = WORKLOADS[job["workload"]]
    summary = run_experiment(experiment_config(w, job["data"], job["seed"], job["out_dir"]))
    out = {"iterations": summary["iterations"], "test_error": summary["test_error"]}
    if w.stream:
        problem = setup(replace(w, stream=False), job["data"], job["seed"], None)[0]
        np.save(job["reference"], solve(problem).solution)
    return out


SWEEP_FULL = dict(n=800, dim=10, bandwidth=1.0, rank=200)
SWEEP_RESTRICTED = dict(n=4000, dim=20, bandwidth=3.0, centers=200)


def run_sweep(job: dict) -> dict:
    """Iterations and kernel entries for every pivot rule and preconditioner,
    at reduced size; the gated workloads run only RPCholesky and KRILL."""
    seed = job["seed"]
    out = {}

    def record(tag, problem, tracer):
        out[f"sweep.{tag}.iterations"] = solve(problem).iterations
        out[f"sweep.{tag}.entries"] = sum(s["entries"] for s in tracer.as_dicts()
                                          if s["name"] == tracing.BLOCK)

    cfg = SWEEP_FULL
    x, y = clustered(cfg["n"], cfg["dim"], seed)
    x = apply_standardization(x, standardization_params(x))
    spec = KernelSpec(KERNEL, cfg["bandwidth"])
    for rule in ("rpcholesky", "greedy", "uniform"):
        tracer = tracing.Tracer()
        oracle = tracing.CountingOracle(x, spec, 1 << 30, tracer)
        record(rule, FullKrrProblem(oracle, y, MU_OVER_N * cfg["n"], cfg["rank"],
                                    pivot_rule=PivotRule(rule, seed=seed)), tracer)

    cfg = SWEEP_RESTRICTED
    x, y = gaussian_cloud(cfg["n"], cfg["dim"], seed)
    x = apply_standardization(x, standardization_params(x))
    spec = KernelSpec(KERNEL, cfg["bandwidth"])
    centers = select_centers_uniform(cfg["n"], cfg["centers"], seed=seed)
    for pre in ("krill", "falkon", "none"):
        tracer = tracing.Tracer()
        oracle = tracing.CountingOracle(x, spec, 1 << 30, tracer)
        record(pre, RestrictedKrrProblem(oracle, centers, y, MU_OVER_N * cfg["n"],
                                         preconditioner=pre, embedding_seed=seed),
               tracer)
    return out


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"rep": run_rep, "check": run_check, "sweep": run_sweep}[job["mode"]](job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
