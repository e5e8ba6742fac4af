"""Problem-level drivers: assemble and solve the two regression systems.

Full-data problem: (A + mu I) beta = y, solved by PCG with a
partial-Cholesky Nystrom preconditioner built by the configured pivot rule.

Restricted problem: [A(S,:) A(:,S) + mu A(S,S)] beta = A(S,:) y over k
selected centers.

Both solvers apply their kernel block (A for the full problem, A(:,S) for
the restricted one) as ``KernelBlocks`` under the oracle's byte budget: the
block is generated once and kept when it fits, and otherwise regenerated in
row slabs on every product.  ``predict`` uses its block K(test, points)
once, so it never keeps it: it streams the block through one reused slab
buffer of at most ``PREDICT_BUDGET`` bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError
from .kernels import (
    DEFAULT_MEMORY_BUDGET,
    KernelBlocks,
    KernelOracle,
    KernelSpec,
    kernel_rows,
)
from .lowrank import PivotRule, build_factor
from .pcg import LinearOperator, SolveReport, pcg
from .precond import build_falkon, build_rpc_preconditioner, krill_from_sketch
from .sketch import build_embedding, practical_params

FULL = "full"
RESTRICTED = "restricted"
MODES = (FULL, RESTRICTED)

# stopping defaults of each mode's problem
DEFAULT_EPSILON = {FULL: 1e-3, RESTRICTED: 1e-4}
DEFAULT_MAX_ITER = {FULL: 250, RESTRICTED: 100}

KRILL = "krill"
FALKON = "falkon"
NO_PRECONDITIONER = "none"
PRECONDITIONERS = (KRILL, FALKON, NO_PRECONDITIONER)

# bytes of the slab buffer ``predict`` streams its test kernel through; of
# 2, 4, 8 and 16 MiB, 4 MiB predicted fastest
PREDICT_BUDGET = 4 << 20


def _kernel_columns(oracle: KernelOracle, cols: np.ndarray) -> KernelBlocks:
    """A(:, cols) in row slabs under the oracle's memory budget."""
    return KernelBlocks(lambda start, stop, out: oracle.block(np.arange(start, stop), cols),
                        oracle.n, cols.size, oracle.memory_budget)


@dataclass
class FullKrrProblem:
    oracle: KernelOracle
    y: np.ndarray
    mu: float
    rank: int
    epsilon: float = DEFAULT_EPSILON[FULL]
    pivot_rule: PivotRule = field(default_factory=PivotRule)
    max_iter: int = DEFAULT_MAX_ITER[FULL]

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        if not 0 < self.mu < np.inf:
            raise InputError(f"mu must be finite and positive, got {self.mu}")
        if not 1 <= self.rank <= self.oracle.n:
            raise InputError(f"rank must be in [1, {self.oracle.n}]")
        if self.y.shape[0] != self.oracle.n:
            raise InputError("target length does not match oracle size")


def solve_full_krr(problem: FullKrrProblem) -> SolveReport:
    """Preconditioned CG on (A + mu I) beta = y."""
    oracle, mu = problem.oracle, problem.mu
    t0 = time.perf_counter()
    factor = build_factor(oracle, problem.rank, problem.pivot_rule)
    pre = build_rpc_preconditioner(factor, mu)
    build_time = time.perf_counter() - t0

    kernel = _kernel_columns(oracle, np.arange(oracle.n))
    op = LinearOperator(oracle.n, lambda v: kernel.apply(v) + mu * v)
    report = pcg(op, problem.y, problem.epsilon, pre.apply_inverse,
                 max_iter=problem.max_iter)
    report.meta.update(
        mode=FULL,
        pivot_rule=problem.pivot_rule.kind,
        factor_rank=factor.rank,
        factor_rank_requested=problem.rank,
        preconditioner_build_time=build_time,
    )
    return report


@dataclass
class RestrictedKrrProblem:
    oracle: KernelOracle
    centers: np.ndarray
    y: np.ndarray
    mu: float
    epsilon: float = DEFAULT_EPSILON[RESTRICTED]
    preconditioner: str = KRILL
    embedding_dim: Optional[int] = None  # default 2k
    embedding_nnz: Optional[int] = None  # default min(8, d)
    embedding_seed: Optional[int] = None
    max_iter: int = DEFAULT_MAX_ITER[RESTRICTED]

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.int64).ravel()
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        n = self.oracle.n
        if self.centers.size < 1 or self.centers.size > n:
            raise InputError("need between 1 and N centers")
        if len(np.unique(self.centers)) != self.centers.size:
            raise InputError("centers must be distinct")
        if self.centers.min() < 0 or self.centers.max() >= n:
            raise InputError("center index out of range")
        if not 0 < self.mu < np.inf:
            raise InputError(f"mu must be finite and positive, got {self.mu}")
        if self.y.shape[0] != n:
            raise InputError("target length does not match oracle size")
        if self.preconditioner not in PRECONDITIONERS:
            raise InputError(f"unknown preconditioner {self.preconditioner!r}")


def solve_restricted_krr(problem: RestrictedKrrProblem) -> SolveReport:
    """Preconditioned CG on the restricted system over the chosen centers.

    The Gram apply fuses both rectangular products per row slab:
    A(S,:) A(:,S) v = sum over slabs I of A(I,S)^T (A(I,S) v).

    One pass over the slabs of A(:,S) accumulates the right-hand side
    A(S,:) y and, with KRILL, the sketch Phi A(:,S); it counts towards
    ``meta["preconditioner_build_time"]``.  With KRILL or Falkon,
    ``meta["preconditioner_jitter"]`` is the multiple of the identity the
    build added to make the k x k matrix factorable.
    """
    oracle, centers, mu, y = problem.oracle, problem.centers, problem.mu, problem.y
    k = centers.size
    t0 = time.perf_counter()
    a_ns = _kernel_columns(oracle, centers)
    a_ss = oracle.block(centers, centers)
    a_ss = 0.5 * (a_ss + a_ss.T)

    sketch = None  # Phi A(:,S), KRILL only
    if problem.preconditioner == KRILL:
        d = problem.embedding_dim or practical_params(k)[0]
        zeta = problem.embedding_nnz or min(8, d)
        phi = build_embedding(d, oracle.n, zeta, seed=problem.embedding_seed)
        sketch = np.zeros((phi.shape[0], k))
    b = np.zeros(k)  # A(S,:) y
    for start, stop, slab in a_ns:
        if sketch is not None:
            sketch += phi[:, start:stop] @ slab
        b += slab.T @ y[start:stop]

    pre = None  # NO_PRECONDITIONER: pcg applies the identity
    if sketch is not None:
        pre = krill_from_sketch(sketch, a_ss, mu)
    elif problem.preconditioner == FALKON:
        pre = build_falkon(a_ss, k, oracle.n, mu)
    build_time = time.perf_counter() - t0

    def gram_apply(v):
        out = np.zeros(k)
        for _, _, slab in a_ns:
            out += slab.T @ (slab @ v)
        return out + mu * (a_ss @ v)

    report = pcg(LinearOperator(k, gram_apply), b, problem.epsilon,
                 None if pre is None else pre.apply_inverse, max_iter=problem.max_iter)
    report.meta.update(
        mode=RESTRICTED,
        preconditioner=problem.preconditioner,
        centers=k,
        preconditioner_build_time=build_time,
    )
    if pre is not None:
        report.meta["preconditioner_jitter"] = pre.jitter
    return report


def select_centers_uniform(n: int, k: int, seed=None) -> np.ndarray:
    """k distinct indices drawn uniformly without replacement."""
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))


def predict(coefficients: np.ndarray, train_points: np.ndarray, spec: KernelSpec,
            test_points: np.ndarray,
            memory_budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Kernel expansion sum_i beta_i K(x_i, x) at every test point x.

    K(test, train) is used once, so it is never kept: it is streamed in row
    slabs through one reused buffer of at most min(memory_budget,
    ``PREDICT_BUDGET``) bytes, from points shifted and scaled once (see
    ``kernel_rows``).  An empty expansion predicts 0 everywhere.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    train_points = np.atleast_2d(np.asarray(train_points, dtype=np.float64))
    test_points = np.atleast_2d(np.asarray(test_points, dtype=np.float64))
    if coefficients.shape[0] != train_points.shape[0]:
        raise InputError("coefficient length does not match training points")
    kernel = KernelBlocks(kernel_rows(spec, test_points, train_points),
                          test_points.shape[0], train_points.shape[0],
                          min(memory_budget, PREDICT_BUDGET))
    return kernel.apply(coefficients)


def smape(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Symmetric mean absolute percentage error; 0/0 terms contribute 0."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if predicted.shape != actual.shape or predicted.size == 0:
        raise InputError("predictions and actuals must be equal nonempty lengths")
    denom = 0.5 * (np.abs(predicted) + np.abs(actual))
    terms = np.zeros_like(denom)
    mask = denom > 0
    terms[mask] = np.abs(predicted[mask] - actual[mask]) / denom[mask]
    return float(terms.mean())


REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)


def test_error(predictions: np.ndarray, labels: np.ndarray, task: str) -> float:
    """SMAPE for regression; sign misclassification rate for classification."""
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}")
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if predictions.shape != labels.shape:
        raise InputError("predictions and labels must have equal length")
    if task == REGRESSION:
        return smape(predictions, labels)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InputError("classification labels must be -1 or +1")
    signs = np.where(predictions >= 0, 1.0, -1.0)
    return float(np.mean(signs != labels))
