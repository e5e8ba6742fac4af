"""Problem-level drivers: assemble and solve the two regression systems.

Full-data problem: (A + mu I) beta = y, solved by PCG with a
partial-Cholesky Nystrom preconditioner built by the configured pivot rule.

Restricted problem: [A(S,:) A(:,S) + mu A(S,S)] beta = A(S,:) y over k
selected centers.  The default method, ``DIRECT``, forms the exact k x k
matrix in one pass over A(:,S) and factors it; ``KRILL``, ``FALKON`` and
``NO_PRECONDITIONER`` run PCG with a preconditioner built from a sketch
(or none), which passes over A(:,S) once more per iteration.  Per solve:

* direct: 1 pass, N k^2 flops for G = A(S,:) A(:,S) (one SYRK per slab),
  plus O(k^3) for the inverse Cholesky factor X = L^{-1};
* KRILL: 1 + iterations passes, 4 N k flops per Gram apply, plus
  d k^2 = 4 k^3 flops for Y^T Y at the default d = 4k, plus the same O(k^3).

The paper prices KRILL at O((N + k^2) k log k) against the direct
O(N k^2), but on this code the direct solve is the faster one at the sizes
measured.  ``diagnostics.crossover_experiment`` measures both methods at
any (N, k); with the folded kernel tile of ``kernels.pairwise_kernel``, at
N = 20000, k = 1000 (median of 5) and N = 40000, k = 500 (median of 3),
KRILL's extra streamed passes cost 3.8 and 3.3 ns per entry, the direct
solve beyond its pass ran at an effective 44 and 53 GFLOP/s (SYRK plus the
k^3 factorization), and KRILL took 14 and 15 iterations.  So streamed
KRILL should overtake the direct solve only once
k >~ iterations * 3.8 ns * 44 GFLOP/s, about 2400, and N >> 4k, where
Y^T Y costs less than the exact Gram.

Both solvers apply their kernel block (A for the full problem, A(:,S) for
the restricted one) through ``KernelOracle.columns``, as ``KernelBlocks``
under the oracle's memory budget, which keeps the block or streams it.  The
full solve and the direct restricted solve may read their block once, so
they keep it only from a second pass; the PCG restricted methods pass
again every iteration, so they keep it from the first.
``meta["operator_kept"]`` records whether the solve ended holding its block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InputError,
    NumericalError,
    check_array,
    check_choice,
    check_count,
    check_indices,
    check_positive,
    rng,
)
from .kernels import KernelBlocks, KernelOracle
from .lowrank import PivotRule, build_factor
from .pcg import LinearOperator, SolveReport, pcg
from .precond import (
    CholeskyPreconditioner,
    _stabilized_cholesky,
    build_rpc_preconditioner,
    krill_from_sketch,
)
from .sketch import build_embedding, practical_params

FULL = "full"
RESTRICTED = "restricted"
MODES = (FULL, RESTRICTED)

# stopping defaults of each mode's problem
DEFAULT_EPSILON = {FULL: 1e-3, RESTRICTED: 1e-4}
DEFAULT_MAX_ITER = {FULL: 250, RESTRICTED: 100}

DIRECT = "direct"
KRILL = "krill"
FALKON = "falkon"
NO_PRECONDITIONER = "none"
PRECONDITIONERS = (DIRECT, KRILL, FALKON, NO_PRECONDITIONER)
DEFAULT_PRECONDITIONER = DIRECT


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
        self.y = check_array("targets", self.y, length=self.oracle.n)
        check_positive("mu", self.mu)  # both here, so they fail before the N r^2 factor


def solve_full_krr(problem: FullKrrProblem) -> SolveReport:
    """Preconditioned CG on (A + mu I) beta = y.

    PCG may stop after its first A.v, so A is a block that may be read once
    (see ``kernels.KernelBlocks``): a solve of one iteration never holds an
    A larger than two slabs.  ``meta["operator_kept"]`` records whether PCG
    read a kept A.
    """
    oracle, mu = problem.oracle, problem.mu
    t0 = time.perf_counter()
    factor = build_factor(oracle, problem.rank, problem.pivot_rule)
    pre = build_rpc_preconditioner(factor, mu)
    build_time = time.perf_counter() - t0

    kernel = oracle.columns(np.arange(oracle.n))
    report = pcg(LinearOperator(oracle.n, lambda v: kernel.apply(v) + mu * v), problem.y,
                 problem.epsilon, pre.apply_inverse, max_iter=problem.max_iter)
    report.meta.update(
        mode=FULL,
        pivot_rule=problem.pivot_rule.kind,
        factor_rank=factor.rank,
        factor_rank_requested=problem.rank,
        preconditioner_build_time=build_time,
        solve_time=time.perf_counter() - t0,
        operator_kept=kernel.kept,
    )
    return report


@dataclass
class RestrictedKrrProblem:
    oracle: KernelOracle
    centers: np.ndarray
    y: np.ndarray
    mu: float
    epsilon: float = DEFAULT_EPSILON[RESTRICTED]
    preconditioner: str = DEFAULT_PRECONDITIONER
    embedding_dim: Optional[int] = None  # default sketch.practical_params(k)
    embedding_nnz: Optional[int] = None  # default min(8, d) for the d used
    embedding_seed: Optional[int] = None
    max_iter: int = DEFAULT_MAX_ITER[RESTRICTED]

    def __post_init__(self):
        n = self.oracle.n
        self.centers = check_indices(self.centers, n)
        if self.centers.size < 1:  # in range and distinct, so at most N
            raise InputError("need between 1 and N centers")
        if len(np.unique(self.centers)) != self.centers.size:
            raise InputError("centers must be distinct")
        self.y = check_array("targets", self.y, length=n)
        check_positive("mu", self.mu)  # both here, so they fail before the pass over A(:,S)
        check_choice("preconditioner", self.preconditioner, PRECONDITIONERS)

    def embedding_shape(self) -> tuple[int, int]:
        """The (d, zeta) of KRILL's embedding: the explicit values, else d
        from ``sketch.practical_params(k)`` and zeta = min(8, d).
        ``build_embedding`` checks them, and the seed, when it draws Phi."""
        d, zeta = self.embedding_dim, self.embedding_nnz
        if d is None:
            d = practical_params(self.centers.size)[0]
        return d, min(8, d) if zeta is None else zeta


def _first_pass(a_ns: KernelBlocks, y: np.ndarray, b: np.ndarray, phi=None,
                gram: bool = False):
    """Add A(S,:) y into ``b`` and return, given Phi, Y = Phi A(:,S), or, with
    ``gram``, G = A(S,:) A(:,S), in one pass over A(:,S), whose slabs
    ``kernels.KernelBlocks`` sizes.

    Y is accumulated k rows at a time, so no d x k temporary is made; each
    entry is the same sum, in the same order, as in Y += Phi(:,I) A(I,S).
    G is the sum of one SYRK A(I,S)^T A(I,S) per slab.
    """
    k = b.size
    if phi is not None:
        out = np.zeros((phi.shape[0], k))
    elif gram:
        out = np.zeros((k, k))
    else:
        out = None
    for start, stop, slab in a_ns:
        if phi is not None:
            for i in range(0, out.shape[0], k):
                out[i:i + k] += phi[i:i + k, start:stop] @ slab
        elif gram:
            out += slab.T @ slab
        b += slab.T @ y[start:stop]
        del slab  # a streamed slab is freed before the next is generated
    return out


def _solve_direct(m: np.ndarray, b: np.ndarray, pre: CholeskyPreconditioner,
                  epsilon: float, max_iter: int) -> SolveReport:
    """PCG on the formed k x k matrix M, preconditioned by the factor of
    M + jitter I, so it generates no kernel entry.

    A jitter at round-off gives one iteration, and a larger one is refined
    away.  A numerically rank-deficient A(:,S) can leave the formed M
    indefinite at round-off, and CG on it then breaks down or stalls; the
    solve then falls back to the system M + jitter I that was factored, and
    ``meta["system_jitter"]`` records the shift.  That system is the operator
    v -> M v + jitter v; M itself is never edited, even when the fallback
    breaks down too.  The solution then meets epsilon against M + jitter I;
    against M its residual grows by at most jitter * ||beta||.
    ``meta["true_rel_residual"]`` is ||b - M beta|| / ||b|| against the
    formed M: k^2 flops and no kernel entry.
    """
    try:
        report = pcg(LinearOperator(b.size, lambda v: m @ v), b, epsilon,
                     pre.apply_inverse, max_iter=max_iter)
    except NumericalError:  # a breakdown on M's negative curvature
        report = None
    if report is None or not report.converged:
        shifted = LinearOperator(b.size, lambda v: m @ v + pre.jitter * v)
        report = pcg(shifted, b, epsilon, pre.apply_inverse, max_iter=max_iter)
        report.meta["system_jitter"] = pre.jitter
    b_norm = np.linalg.norm(b)
    residual = np.linalg.norm(b - m @ report.solution)
    report.meta["true_rel_residual"] = float(residual / b_norm) if b_norm else 0.0
    return report


def solve_restricted_krr(problem: RestrictedKrrProblem) -> SolveReport:
    """Solve the restricted system over the chosen centers.

    ``DIRECT`` (the default) accumulates the exact matrix
    M = A(S,:) A(:,S) + mu A(S,S) and the right-hand side A(S,:) y in one
    pass over A(:,S), a block read once (see ``kernels.KernelBlocks``).
    It factors M + jitter I into X = L^{-1} by ``lowrank._inverse_cholesky``
    (see ``precond._stabilized_cholesky``, which returns X with its jitter)
    and runs PCG on M itself, held in memory and never edited after its
    factor (see ``_solve_direct``).  It builds no sketch: it holds one slab,
    G and A(S,S) during the pass, then M, A(S,S) and X; L is never formed.

    ``KRILL``, ``FALKON`` and ``NO_PRECONDITIONER`` run PCG with the Gram
    apply, which passes over A(:,S) once per iteration.  The first pass
    accumulates the right-hand side and, with KRILL, the sketch
    Y = Phi A(:,S); ``meta`` records the embedding's ``embedding_dim`` and
    ``embedding_nnz``.  Falkon's sketch is Y = sqrt(N/k) A(S,S):
    (N/k) A(S,S)^2 estimates the Gram matrix when the centers are uniform.
    ``krill_from_sketch`` builds either preconditioner as Y^T Y + mu A(S,S).

    ``meta["preconditioner_build_time"]`` counts the first pass and the
    factorization, ``meta["solve_time"]`` the whole call, and
    ``meta["preconditioner_jitter"]`` is the multiple of the identity added
    to make the k x k matrix factorable.  See the module docstring for what
    each method costs.
    """
    oracle, centers, mu, y = problem.oracle, problem.centers, problem.mu, problem.y
    k = centers.size
    t0 = time.perf_counter()
    # the direct solve reads A(:,S) once; the others pass again every PCG
    # iteration.  a_ns stays bound until the solve returns: freeing the
    # direct pass's streamed blocks early left a higher peak RSS behind,
    # through glibc's heap
    a_ns = oracle.columns(centers, reread=problem.preconditioner != DIRECT)
    a_ss = oracle.block(centers, centers)
    a_ss = 0.5 * (a_ss + a_ss.T)

    b = np.zeros(k)  # A(S,:) y
    pre = None  # NO_PRECONDITIONER: pcg applies the identity
    if problem.preconditioner == DIRECT:
        m = _first_pass(a_ns, y, b, gram=True)
        m += mu * a_ss
        pre = _stabilized_cholesky(m)  # leaves m symmetrized and unshifted
    elif problem.preconditioner == KRILL:
        d, zeta = problem.embedding_shape()
        # Phi and Y are passed on, never bound here, so neither is held
        # longer than it is used: Phi is freed after the pass, and Y as soon
        # as the build has formed Y^T Y
        pre = krill_from_sketch(
            _first_pass(a_ns, y, b, build_embedding(d, oracle.n, zeta,
                                                    seed=problem.embedding_seed)),
            a_ss, mu)
    else:
        _first_pass(a_ns, y, b)
        if problem.preconditioner == FALKON:
            pre = krill_from_sketch(np.sqrt(oracle.n / k) * a_ss, a_ss, mu)
    build_time = time.perf_counter() - t0

    def gram_apply(v):
        out = np.zeros(k)
        for _, _, slab in a_ns:
            out += slab.T @ (slab @ v)
            del slab  # a streamed slab is freed before the next is generated
        return out + mu * (a_ss @ v)

    if problem.preconditioner == DIRECT:
        report = _solve_direct(m, b, pre, problem.epsilon, problem.max_iter)
    else:
        report = pcg(LinearOperator(k, gram_apply), b, problem.epsilon,
                     None if pre is None else pre.apply_inverse, max_iter=problem.max_iter)
    report.meta.update(
        mode=RESTRICTED,
        preconditioner=problem.preconditioner,
        centers=k,
        preconditioner_build_time=build_time,
        solve_time=time.perf_counter() - t0,
        operator_kept=a_ns.kept,
    )
    if pre is not None:
        report.meta["preconditioner_jitter"] = pre.jitter
    if problem.preconditioner == KRILL:
        report.meta.update(embedding_dim=d, embedding_nnz=zeta)
    return report


def select_centers_uniform(n: int, k: int, seed=None) -> np.ndarray:
    """k distinct indices drawn uniformly without replacement."""
    n = check_count("n", n)
    k = check_count("k", k, high=n)
    return np.sort(rng(seed).choice(n, size=k, replace=False))


def smape(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Symmetric mean absolute percentage error; 0/0 terms contribute 0."""
    predicted = check_array("predictions", predicted)
    actual = check_array("actuals", actual)
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
    check_choice("task", task, TASKS)
    predictions = check_array("predictions", predictions)
    labels = check_array("labels", labels)
    if predictions.shape != labels.shape:
        raise InputError("predictions and labels must have equal length")
    if task == REGRESSION:
        return smape(predictions, labels)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InputError("classification labels must be -1 or +1")
    signs = np.where(predictions >= 0, 1.0, -1.0)
    return float(np.mean(signs != labels))
