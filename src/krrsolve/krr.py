"""Problem-level drivers: assemble and solve the two regression systems.

Full-data problem: (A + mu I) beta = y, solved by PCG with a
partial-Cholesky Nystrom preconditioner built by the configured pivot rule.

Restricted problem: [A(S,:) A(:,S) + mu A(S,S)] beta = A(S,:) y over k
selected centers.

Both solvers, and ``predict``, apply their kernel block (A for the full
problem, A(:,S) for the restricted one, K(test, points) for prediction) as
``KernelBlocks`` under a byte budget: the block is generated once and kept
when it fits, and otherwise regenerated in row slabs on every product.
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
    pairwise_kernel,
)
from .lowrank import (
    PartialCholeskyFactor,
    default_block_size,
    greedy_cholesky,
    rpcholesky,
    uniform_nystrom,
)
from .pcg import LinearOperator, SolveReport, pcg
from .precond import build_falkon, build_rpc_preconditioner, krill_from_sketch
from .sketch import build_embedding, practical_params

FULL = "full"
RESTRICTED = "restricted"
MODES = (FULL, RESTRICTED)

# stopping defaults of each mode's problem
DEFAULT_EPSILON = {FULL: 1e-3, RESTRICTED: 1e-4}
DEFAULT_MAX_ITER = {FULL: 250, RESTRICTED: 100}

RPCHOLESKY = "rpcholesky"
GREEDY = "greedy"
UNIFORM = "uniform"
PIVOT_RULES = (RPCHOLESKY, GREEDY, UNIFORM)

KRILL = "krill"
FALKON = "falkon"
NO_PRECONDITIONER = "none"
PRECONDITIONERS = (KRILL, FALKON, NO_PRECONDITIONER)


@dataclass(frozen=True)
class PivotRule:
    """Pivot selection strategy for the low-rank factor."""

    kind: str = RPCHOLESKY
    block_size: Optional[int] = None  # random rule only; None = min(100, r/10)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in PIVOT_RULES:
            raise InputError(f"unknown pivot rule {self.kind!r}")
        if self.block_size is not None and self.block_size < 1:
            raise InputError("block size must be >= 1")


def build_factor(oracle: KernelOracle, rank: int, rule: PivotRule) -> PartialCholeskyFactor:
    if rule.kind == RPCHOLESKY:
        block = rule.block_size or default_block_size(rank)
        return rpcholesky(oracle, rank, block, seed=rule.seed)
    if rule.kind == GREEDY:
        return greedy_cholesky(oracle, rank)
    return uniform_nystrom(oracle, rank, seed=rule.seed)


def _kernel_columns(oracle: KernelOracle, cols: np.ndarray) -> KernelBlocks:
    """A(:, cols) in row slabs under the oracle's memory budget."""
    return KernelBlocks(lambda start, stop: oracle.block(np.arange(start, stop), cols),
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
    embedding_nnz: Optional[int] = None  # default min(8, 2k)
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
    """
    oracle, centers, mu, y = problem.oracle, problem.centers, problem.mu, problem.y
    k = centers.size
    t0 = time.perf_counter()
    a_ns = _kernel_columns(oracle, centers)
    a_ss = oracle.block(centers, centers)
    a_ss = 0.5 * (a_ss + a_ss.T)

    pre = None  # NO_PRECONDITIONER: pcg applies the identity
    if problem.preconditioner == KRILL:
        d_def, zeta_def = practical_params(k)
        d = problem.embedding_dim or d_def
        zeta = problem.embedding_nnz or zeta_def
        phi = build_embedding(d, oracle.n, zeta, seed=problem.embedding_seed)
        mat = phi.matrix().tocsc()
        sketch = np.zeros((phi.d, k))  # Phi A(:,S)
        for start, stop, slab in a_ns:
            sketch += mat[:, start:stop] @ slab
        pre = krill_from_sketch(sketch, a_ss, mu)
    elif problem.preconditioner == FALKON:
        pre = build_falkon(a_ss, k, oracle.n, mu)
    build_time = time.perf_counter() - t0

    def gram_apply(v):
        out = np.zeros(k)
        for _, _, slab in a_ns:
            out += slab.T @ (slab @ v)
        return out + mu * (a_ss @ v)

    b = np.zeros(k)
    for start, stop, slab in a_ns:
        b += slab.T @ y[start:stop]
    report = pcg(LinearOperator(k, gram_apply), b, problem.epsilon,
                 None if pre is None else pre.apply_inverse, max_iter=problem.max_iter)
    report.meta.update(
        mode=RESTRICTED,
        preconditioner=problem.preconditioner,
        centers=k,
        preconditioner_build_time=build_time,
    )
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
    """Kernel expansion sum_i beta_i K(x_i, x) over row slabs of test points."""
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    train_points = np.atleast_2d(np.asarray(train_points, dtype=np.float64))
    test_points = np.atleast_2d(np.asarray(test_points, dtype=np.float64))
    if coefficients.shape[0] != train_points.shape[0]:
        raise InputError("coefficient length does not match training points")
    kernel = KernelBlocks(
        lambda start, stop: pairwise_kernel(spec, test_points[start:stop], train_points),
        test_points.shape[0], train_points.shape[0], memory_budget)
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
