"""Benchmark harness: run configured experiments and write result artifacts.

Each run produces, inside the configured output directory:

* ``residuals.csv``  -- iteration, relative_residual
* ``summary.json``   -- convergence flag, iteration counts, timings
  (``load_time`` for reading the dataset; ``solve_time``, the solver's
  whole call, of which ``preconditioner_build_time`` is the part before
  PCG; ``total_time``), the solver's other ``meta`` records, and test
  metrics when a test split is configured: ``test_error``, ``test_size``
  and ``predict_time``, the wall time of predicting the test targets.

Batch mode runs a directory of configs (in parallel up to a worker limit)
and additionally writes ``fraction_solved.csv``, the fraction of runs whose
relative residual has dropped below their tolerance by each iteration.
"""

from __future__ import annotations

import csv
import json
import os
import time
from typing import Optional

import numpy as np

from .config import ExperimentConfig, load_config
from .data import Dataset, apply_standardization, load_dataset, standardization_params
from .errors import InputError, check_count, check_fraction, rng
from .kernels import DatasetKernelOracle, KernelSpec, predict
from .krr import (
    FULL,
    FullKrrProblem,
    PivotRule,
    RestrictedKrrProblem,
    select_centers_uniform,
    solve_full_krr,
    solve_restricted_krr,
    test_error,
)


def split_train_test(data: Dataset, test_fraction: float, seed=None):
    """Disjoint, exhaustive, seed-deterministic split into (train, test)."""
    check_fraction("test_fraction", test_fraction)
    n_test = int(round(data.n * test_fraction))
    if n_test < 1 or n_test >= data.n:
        raise InputError(
            f"test_fraction {test_fraction} leaves an empty split for N={data.n}"
        )
    perm = rng(seed).permutation(data.n)
    return data.subset(np.sort(perm[n_test:])), data.subset(np.sort(perm[:n_test]))


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one configured run and write its artifacts to disk."""
    config.validate()
    t_start = time.perf_counter()
    data = load_dataset(config.dataset, config.format, config.target_column)
    load_time = time.perf_counter() - t_start
    if data.targets is None:
        raise InputError("dataset has no targets; configure target_column")

    gen = rng(config.seed)
    if config.subsample and config.subsample < data.n:
        keep = np.sort(gen.choice(data.n, size=config.subsample, replace=False))
        data = data.subset(keep)

    test_set: Optional[Dataset] = None
    if config.test_fraction > 0:
        data, test_set = split_train_test(data, config.test_fraction, seed=gen)

    params = standardization_params(data.features)
    train_feats = apply_standardization(data.features, params)
    targets = data.targets
    if config.center_targets:
        shift = targets.mean()
        targets = targets - shift
    else:
        shift = 0.0

    oracle = DatasetKernelOracle(
        train_feats,
        KernelSpec(config.kernel, config.bandwidth),
        memory_budget=config.memory_budget_bytes,
    )
    mu = config.mu_over_n * oracle.n

    if config.mode == FULL:
        problem = FullKrrProblem(
            oracle, targets, mu,
            rank=min(config.rank, oracle.n),
            epsilon=config.effective_epsilon,
            pivot_rule=PivotRule(config.pivot_rule,
                                 config.block_size or None,
                                 seed=config.seed),
            max_iter=config.effective_max_iter,
        )
        report = solve_full_krr(problem)
        coeff_points = train_feats
    else:
        centers = select_centers_uniform(oracle.n, min(config.centers, oracle.n),
                                         seed=config.seed)
        problem = RestrictedKrrProblem(
            oracle, centers, targets, mu,
            epsilon=config.effective_epsilon,
            preconditioner=config.preconditioner,
            embedding_dim=config.embedding_dim or None,
            embedding_nnz=config.embedding_nnz or None,
            embedding_seed=config.seed,
            max_iter=config.effective_max_iter,
        )
        report = solve_restricted_krr(problem)
        coeff_points = train_feats[centers]

    summary = {
        "mode": config.mode,
        "n_train": int(oracle.n),
        "mu": float(mu),
        "epsilon": config.effective_epsilon,
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        # PCG stops at the first residual below epsilon
        "iterations_to_epsilon": int(report.iterations) if report.converged else None,
        "final_relative_residual": float(report.residual_history[-1]),
        "load_time": load_time,
        "total_time": None,  # filled below
        "seed": config.seed,
        **report.meta,
    }

    if test_set is not None:
        test_feats = apply_standardization(test_set.features, params)
        t_predict = time.perf_counter()
        preds = predict(report.solution, coeff_points, oracle.spec, test_feats,
                        memory_budget=config.memory_budget_bytes) + shift
        summary["predict_time"] = time.perf_counter() - t_predict
        summary["test_error"] = test_error(preds, test_set.targets, config.task)
        summary["test_size"] = int(test_set.n)

    summary["total_time"] = time.perf_counter() - t_start
    _write_artifacts(config.output_dir, report.residual_history, summary)
    return summary


def _write_artifacts(out_dir: str, history: np.ndarray, summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "residuals.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "relative_residual"])
        for it, res in enumerate(history):
            writer.writerow([it, f"{res:.17g}"])
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(path: str) -> tuple[str, dict]:
    config = load_config(path)
    return path, run_experiment(config)


def run_batch(config_dir: str, workers: int = 1) -> dict:
    """Run every ``*.cfg`` file in a directory; aggregate fraction-solved."""
    workers = check_count("workers", workers)
    paths = sorted(
        os.path.join(config_dir, name)
        for name in os.listdir(config_dir)
        if name.endswith(".cfg")
    )
    if not paths:
        raise InputError(f"no .cfg files in {config_dir}")
    results = {}
    if workers > 1:
        # imported here so that importing krrsolve does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for path, summary in pool.map(_run_one, paths):
                results[path] = summary
    else:
        for path in paths:
            results[path] = _run_one(path)[1]

    # a run counts as solved from the first iteration its residual is below
    # its own epsilon; runs that never get there count as unsolved throughout
    solved_at = [s["iterations_to_epsilon"] for s in results.values()]
    fractions = [
        sum(1 for t in solved_at if t is not None and t <= it) / len(solved_at)
        for it in range(max(s["iterations"] for s in results.values()) + 1)
    ]
    agg_path = os.path.join(config_dir, "fraction_solved.csv")
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "fraction_solved"])
        for it, frac in enumerate(fractions):
            writer.writerow([it, f"{frac:.6f}"])
    return {"runs": results, "fraction_solved_csv": agg_path}
