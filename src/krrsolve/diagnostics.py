"""Adversarial inputs and empirical verification of the conditioning bounds.

Two explicit matrix families reproduce the known failure modes of the
baseline pivot rules:

* uniform failure: two disjoint rank-one blocks of sizes N - ceil(N^(1/3))
  and ceil(N^(1/3)).  Uniform sampling keeps drawing from the big block and
  misses the small one, even though only two directions matter.
* greedy failure: a global rank-one component plus a (delta/2) rank-one
  bump on the big block and a delta identity bump on the small block.  The
  small block carries the largest diagonal entries, so greedy burns its
  pivot budget there while the bulk stays unexplored.

The verification experiments sample many seeded runs and report how often
the theoretical conditioning events hold, as JSON-friendly records.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InputError,
    check_array,
    check_choice,
    check_count,
    check_fraction,
    check_positive,
    rng,
)
from .kernels import (
    DEFAULT_MEMORY_BUDGET,
    DatasetKernelOracle,
    ExplicitMatrixOracle,
    KernelSpec,
)
from .krr import (
    DIRECT,
    KRILL,
    RestrictedKrrProblem,
    select_centers_uniform,
    solve_restricted_krr,
)
from .lowrank import (
    GREEDY,
    UNIFORM,
    PivotRule,
    build_factor,
    tail_rank,
    trace_residual,
)
from .precond import build_rpc_preconditioner, krill_from_sketch, precond_condition_number
from .sketch import build_embedding, distortion_check, theory_params


def _cube_root_block(n: int) -> int:
    return int(math.ceil(n ** (1.0 / 3.0) - 1e-9))


def _two_thirds_block(n: int) -> int:
    return int(math.ceil(n ** (2.0 / 3.0) - 1e-9))


def build_uniform_failure_matrix(n: int) -> np.ndarray:
    """Block-diagonal ones matrix with blocks N - ceil(N^(1/3)), ceil(N^(1/3))."""
    n = check_count("n", n, low=8)
    m = _cube_root_block(n)
    a = np.zeros((n, n))
    a[: n - m, : n - m] = 1.0
    a[n - m:, n - m:] = 1.0
    return a


def build_greedy_failure_matrix(n: int, delta: float) -> np.ndarray:
    """Global ones matrix plus (delta/2) ones on the left block and delta I
    on the right block of size ceil(N^(2/3))."""
    n = check_count("n", n, low=8)
    check_fraction("delta", delta)
    m = _two_thirds_block(n)
    a = np.ones((n, n))
    a[: n - m, : n - m] += delta / 2.0
    a[n - m:, n - m:] += delta * np.eye(m)
    return a


def psd_matrix_with_spectrum(eigenvalues, seed=None) -> np.ndarray:
    """Random-orthogonal conjugation of a prescribed nonnegative spectrum."""
    lam = check_array("eigenvalues", eigenvalues)
    if lam.size < 1 or lam.min() < 0:
        raise InputError("need a nonempty nonnegative spectrum")
    q, _ = np.linalg.qr(rng(seed).standard_normal((lam.size, lam.size)))
    return (q * lam) @ q.T


def guarantee_rank(eigenvalues, mu: float) -> int:
    """Approximation rank that activates the conditioning guarantee:
    rank_mu(A) * (1 + log(tr A / mu)), rounded up."""
    r_mu = tail_rank(eigenvalues, mu)
    if r_mu == 0:
        return 1
    return int(math.ceil(r_mu * (1.0 + math.log(np.sum(eigenvalues) / mu))))


def verify_rpc_theorem(spectrum, mu: float, delta: float, n_seeds: int = 200,
                       seed0: int = 0) -> dict:
    """Monte Carlo check of the random-pivot conditioning guarantee.

    For each seed, builds the factor at ``guarantee_rank``, measures the
    condition number of the preconditioned regularized matrix, and records
    the trace residual.  The theorem predicts kappa <= 3/delta with
    probability at least 1 - delta, and mean trace residual at most twice
    the tail sum past rank_mu.
    """
    lam = np.sort(check_array("eigenvalues", spectrum))[::-1]
    check_positive("mu", mu)
    check_fraction("delta", delta)
    n_seeds = check_count("n_seeds", n_seeds)
    a = psd_matrix_with_spectrum(lam, seed=seed0)
    oracle = ExplicitMatrixOracle(a)
    r_mu = tail_rank(lam, mu)
    r = check_count("guarantee rank", guarantee_rank(lam, mu), high=lam.size)
    m = a + mu * np.eye(lam.size)
    tail_sum = float(lam[r_mu:].sum())
    records = []
    for s in range(n_seeds):
        # the theorem is about sequential RPCholesky: one pivot per step
        factor = build_factor(oracle, r, PivotRule(block_size=1, seed=seed0 + 1 + s))
        pre = build_rpc_preconditioner(factor, mu)
        kappa = precond_condition_number(m, pre.apply_inverse)
        resid = trace_residual(oracle, factor)
        records.append({
            "seed": seed0 + 1 + s,
            "kappa": kappa,
            "trace_residual": resid,
            "kappa_event": bool(kappa <= 3.0 / delta),
        })
    kappas = np.array([rec["kappa"] for rec in records])
    resids = np.array([rec["trace_residual"] for rec in records])
    return {
        "experiment": "rpc_conditioning",
        "n": int(lam.size),
        "mu": float(mu),
        "delta": float(delta),
        "rank": int(r),
        "rank_mu": int(r_mu),
        "kappa_bound": 3.0 / delta,
        "event_fraction": float(np.mean(kappas <= 3.0 / delta)),
        "mean_trace_residual": float(resids.mean()),
        "trace_bound": 2.0 * tail_sum,
        "tail_sum": tail_sum,
        "records": records,
    }


def verify_krill_theorem(n: int, k: int, mu: float, n_seeds: int = 100,
                         seed0: int = 0) -> dict:
    """Monte Carlo check of the sketched-preconditioner guarantee.

    Per seed: draw an embedding of the theory-mode size ``theory_params(k)``,
    measure its distortion on an orthonormal basis of range(A(:,S)) for a
    squared-exponential kernel of bandwidth ``kernels.DEFAULT_BANDWIDTH``, and
    measure kappa of the preconditioned restricted system.  Whenever the
    distortion lands in [1/2, 3/2] the bound kappa <= 3 must hold; that
    implication is deterministic.
    """
    n = check_count("n", n)
    n_seeds = check_count("n_seeds", n_seeds)
    d, zeta = theory_params(k)
    feats = rng(seed0).standard_normal((n, 8)) * 2.0
    oracle = DatasetKernelOracle(feats, KernelSpec())
    centers = select_centers_uniform(n, k, seed=seed0)
    a_cols = oracle.block(np.arange(n), centers)
    a_ss = a_cols[centers]
    a_ss = 0.5 * (a_ss + a_ss.T)
    m = a_cols.T @ a_cols + mu * a_ss
    basis, _ = np.linalg.qr(a_cols)

    records = []
    for s in range(n_seeds):
        phi = build_embedding(d, n, zeta, seed=seed0 + 1 + s)
        lo, hi = distortion_check(phi, basis)
        pre = krill_from_sketch(phi @ a_cols, a_ss, mu)
        kappa = precond_condition_number(m, pre.apply_inverse)
        event = bool(lo >= 0.5 and hi <= 1.5)
        records.append({
            "seed": seed0 + 1 + s,
            "distortion_min": lo,
            "distortion_max": hi,
            "kappa": kappa,
            "distortion_event": event,
            "conditional_ok": bool((not event) or kappa <= 3.0 + 1e-6),
        })
    kappas = np.array([rec["kappa"] for rec in records])
    n_event = sum(rec["distortion_event"] for rec in records)
    return {
        "experiment": "krill_conditioning",
        "n": int(n),
        "k": int(k),
        "mu": float(mu),
        "embedding_dim": int(d),
        "embedding_nnz": int(zeta),
        "params": "theory",
        "event_count": int(n_event),
        "n_seeds": int(n_seeds),
        "conditional_violations": int(sum(not rec["conditional_ok"] for rec in records)),
        "kappa_median": float(np.median(kappas)),
        "kappa_max": float(kappas.max()),
        "records": records,
    }


def separation_experiment(kind: str, n: int = 1000, rank: int = 10,
                          delta: float = 1e-3, n_seeds: int = 50,
                          seed0: int = 0) -> dict:
    """Trace-residual comparison on the adversarial matrices.

    ``kind`` selects the matrix: 'uniform' compares random pivoting against
    uniform pivoting, 'greedy' against the deterministic greedy rule.
    """
    n_seeds = check_count("n_seeds", n_seeds)
    check_choice("kind", kind, (UNIFORM, GREEDY))
    if kind == UNIFORM:
        a = build_uniform_failure_matrix(n)
    else:
        a = build_greedy_failure_matrix(n, delta)
    oracle = ExplicitMatrixOracle(a)
    rpc_resids, base_resids = [], []
    for s in range(n_seeds):
        f = build_factor(oracle, rank, PivotRule(seed=seed0 + s))
        rpc_resids.append(trace_residual(oracle, f))
        if kind == UNIFORM:
            g = build_factor(oracle, rank, PivotRule(UNIFORM, seed=seed0 + 10_000 + s))
            base_resids.append(trace_residual(oracle, g))
    if kind == GREEDY:
        g = build_factor(oracle, rank, PivotRule(GREEDY))
        base_resids = [trace_residual(oracle, g)]
    return {
        "experiment": f"{kind}_failure_separation",
        "n": int(n),
        "rank": int(rank),
        "delta": float(delta) if kind == GREEDY else None,
        "n_seeds": int(n_seeds),
        "rpcholesky_median": float(np.median(rpc_resids)),
        "baseline_median": float(np.median(base_resids)),
        "rpcholesky_residuals": [float(x) for x in rpc_resids],
        "baseline_residuals": [float(x) for x in base_resids],
        "separated": bool(np.median(rpc_resids) < np.median(base_resids)),
    }


# solves timed per (N, k, method) by ``crossover_experiment``: single
# timings of one direct solve at N = 20000, k = 1000 spread over 0.63-0.74 s,
# wider than the gap to the streamed solve they were compared with
CROSSOVER_REPEATS = 5


def crossover_experiment(n_values, k_values, seed: int = 0,
                         memory_budget: int = DEFAULT_MEMORY_BUDGET) -> dict:
    """Wall time, passes over A(:,S) and kernel entries of the direct and
    KRILL restricted solves at every (N, k), to locate where KRILL's cheaper
    passes start to beat the direct solve's one pass of N k^2 flops.

    The inputs follow the measurements in the ``krr`` module docstring: N
    standard-normal points in 20 dimensions, centered targets sin(sum x),
    the default squared-exponential kernel, mu = 1e-7 N and k uniform
    centers.  ``passes`` counts the passes that generate A(:,S), from the
    entries: (entries - k^2) / (N k), as A(S,S) is generated once.  Under a
    ``memory_budget`` that holds A(:,S) it is kept, so both methods make one
    such pass; under a smaller one, KRILL makes 1 + iterations.  Each
    method is solved ``CROSSOVER_REPEATS`` times on one oracle per N, and
    ``entries`` and ``passes`` count the last solve, by the growth of the
    oracle's ``entries``;
    ``seconds`` is the median of the repeats' ``meta["solve_time"]``, and
    ``seconds_min`` and ``seconds_max`` their range.
    """
    records = []
    for n in n_values:
        n = check_count("n", n)
        x = rng(seed).standard_normal((n, 20))
        y = np.sin(x.sum(axis=1))
        y -= y.mean()
        oracle = DatasetKernelOracle(x, KernelSpec(), memory_budget)
        for k in k_values:
            centers = select_centers_uniform(n, k, seed=seed)
            for method in (DIRECT, KRILL):
                seconds = []
                for _ in range(CROSSOVER_REPEATS):
                    before = oracle.entries
                    report = solve_restricted_krr(RestrictedKrrProblem(
                        oracle, centers, y, 1e-7 * n, preconditioner=method,
                        embedding_seed=seed))
                    seconds.append(report.meta["solve_time"])
                entries = oracle.entries - before
                records.append({
                    "n": int(n),
                    "k": int(k),
                    "method": method,
                    "seconds": float(np.median(seconds)),
                    "seconds_min": min(seconds),
                    "seconds_max": max(seconds),
                    "passes": (entries - k * k) // (n * k),
                    "entries": entries,
                    "iterations": report.iterations,
                    "converged": report.converged,
                })
    return {"experiment": "crossover", "seed": int(seed),
            "memory_budget": int(memory_budget), "records": records}


def clustered_dataset(n: int, dim: int = 10, seed: int = 0) -> np.ndarray:
    """Synthetic feature matrix with heavily imbalanced cluster sizes.

    One dominant tight cluster, a geometric tail of smaller clusters, and a
    sprinkling of loose near-duplicate groups.  Cluster centers are spread
    far apart relative to the default bandwidth so each cluster contributes
    its own block to the kernel matrix.
    """
    n = check_count("n", n, low=100)
    dim = check_count("dim", dim)
    gen = rng(seed)
    weights = np.array([0.42, 0.20, 0.10, 0.07, 0.05, 0.04, 0.03,
                        0.02, 0.015, 0.012, 0.01, 0.008, 0.006, 0.005,
                        0.004, 0.003, 0.002, 0.002, 0.002, 0.001])
    weights /= weights.sum()
    sizes = np.maximum(1, (weights * n).astype(int))
    while sizes.sum() < n:
        sizes[0] += 1
    while sizes.sum() > n:
        sizes[np.argmax(sizes)] -= 1
    centers = gen.standard_normal((len(sizes), dim)) * 40.0
    spreads = gen.uniform(0.3, 1.2, size=len(sizes))
    blocks = [centers[i] + spreads[i] * gen.standard_normal((sz, dim))
              for i, sz in enumerate(sizes)]
    feats = np.vstack(blocks)
    return feats[gen.permutation(n)]
