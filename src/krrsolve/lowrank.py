"""Partial-Cholesky column Nystrom approximation with three pivot rules.

``build_factor(oracle, rank, rule)`` is the one entry point.  All three
rules produce a factor F (N x r') with A_hat = F F^T psd and A_hat <= A in
the Loewner order.  They share one block Cholesky loop and differ only in
the candidate pivots they propose each round:

* randomly pivoted Cholesky: each round samples ``min(block_size, rank - i)``
  iid indices with probability proportional to the residual diagonal d,
  then deduplicates them; the block size defaults to min(100, rank/10).
  This adapts to the spectrum and avoids the failure modes of the other two
  rules.
* greedy: the largest residual diagonal entry (ties to the lowest index).
* uniform: ``rank`` distinct pivots drawn uniformly without replacement up
  front; one block step takes those still live, in the order drawn.

One exhaustion rule serves all three.  A residual diagonal entry is live
while it exceeds a roundoff threshold, 1e-10 tr(A)/N; once it falls to the
threshold it is zeroed, and only live entries are proposed.  Within a block,
a candidate whose residual given the candidates taken before it is at or
below the same threshold is skipped, so nearly dependent candidates (copies
of one point, say) are never factored.

The returned factor has fewer columns than requested when the residual is
exhausted first, that is when the numerical rank of A is below the request,
and with the uniform rule also when some of its pre-drawn pivots are
exhausted by the time they are reached: those are skipped, not replaced.
Callers must read ``factor.rank`` rather than assume the requested rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .kernels import KernelOracle

RPCHOLESKY = "rpcholesky"
GREEDY = "greedy"
UNIFORM = "uniform"
PIVOT_RULES = (RPCHOLESKY, GREEDY, UNIFORM)

# residual diagonal entries at or below this multiple of tr(A)/N are roundoff
_CLAMP_REL = 1e-10


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


@dataclass
class PartialCholeskyFactor:
    """Low-rank factor F with its pivot set and final residual diagonal."""

    F: np.ndarray
    pivots: np.ndarray
    residual_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def rank(self) -> int:
        return self.F.shape[1]


def _clamp_threshold(trace: float, n: int) -> float:
    return _CLAMP_REL * trace / n


def _skip_cholesky(H: np.ndarray, thr: float):
    """Cholesky factor of the candidates' block H under the skip rule.

    Returns (taken, L): the positions taken, in order, and the lower
    Cholesky factor of H[taken][:, taken].  One LAPACK call serves the
    common case, where every pivot's residual L_jj^2 exceeds thr.
    Otherwise a left-looking loop takes the candidates in order and skips
    each one whose residual, given those taken before it, is at most thr.
    """
    m = H.shape[0]
    try:
        L = np.linalg.cholesky(H)
        if np.all(np.diagonal(L) ** 2 > thr):
            return np.arange(m), L
    except np.linalg.LinAlgError:
        pass
    C = np.zeros((m, m))  # factor columns over all candidate rows
    taken: list[int] = []
    for j in range(m):
        t = len(taken)
        v = H[j:, j] - C[j:, :t] @ C[j, :t]
        if v[0] > thr:
            C[j:, t] = v / np.sqrt(v[0])
            taken.append(j)
    return np.asarray(taken, dtype=np.int64), C[taken, :len(taken)]


def _partial_cholesky(oracle: KernelOracle, rank: int, propose) -> PartialCholeskyFactor:
    """Block partial Cholesky over the candidates a pivot rule proposes.

    ``propose(d, i)`` receives the residual diagonal d, whose exhausted
    entries are zero, and the number i of columns so far.  It returns at
    most ``rank - i`` distinct live candidates (d > 0), or none to stop.
    Each round forms the candidates' residual columns G, takes the
    candidates that ``_skip_cholesky`` keeps, and appends G(:, taken) L^{-T}.
    """
    n = oracle.n
    d = oracle.diag().astype(np.float64).copy()
    thr = _clamp_threshold(max(d.sum(), np.finfo(float).tiny), n)
    d[d <= thr] = 0.0
    F = np.zeros((n, rank))
    pivots: list[int] = []
    i = 0
    while i < rank:
        cand = np.asarray(propose(d, i), dtype=np.int64)
        if cand.size == 0:
            break
        G = oracle.columns(cand) - F[:, :i] @ F[cand, :i].T
        taken, L = _skip_cholesky(G[cand, :], thr)
        if taken.size < cand.size:
            G = G[:, taken]  # copy only when needed: it is N x m
        # G L^{-T} through the m x m inverse: numpy has no triangular solve,
        # and one product is 5x faster than an LU solve with N right-hand
        # sides, at a backward error still near eps
        cols = G @ np.linalg.inv(L).T
        F[:, i:i + taken.size] = cols
        d -= np.einsum("ij,ij->i", cols, cols)
        d[cand] = 0.0  # taken, or skipped as exhausted
        d[d <= thr] = 0.0
        pivots.extend(cand[taken].tolist())
        i += taken.size
    return PartialCholeskyFactor(F[:, :i], np.asarray(pivots, dtype=np.int64), d)


def build_factor(oracle: KernelOracle, rank: int,
                 rule: PivotRule = PivotRule()) -> PartialCholeskyFactor:
    """Partial-Cholesky factor of at most ``rank`` columns under ``rule``."""
    if not 1 <= rank <= oracle.n:
        raise InputError(f"rank must be in [1, {oracle.n}], got {rank}")
    rng = np.random.default_rng(rule.seed)

    if rule.kind == RPCHOLESKY:
        block_size = rule.block_size or min(100, -(-rank // 10))  # ceil(rank/10)

        def propose(d, i):
            total = d.sum()
            if total <= 0.0:
                return []
            return np.unique(rng.choice(d.size, size=min(block_size, rank - i), p=d / total))
    elif rule.kind == GREEDY:
        def propose(d, i):
            s = int(np.argmax(d))
            return [s] if d[s] > 0.0 else []
    else:
        chosen = rng.choice(oracle.n, size=rank, replace=False)

        def propose(d, i):
            return chosen[d[chosen] > 0.0]

    return _partial_cholesky(oracle, rank, propose)


def tail_rank(eigenvalues, mu: float) -> int:
    """Smallest r >= 0 such that the eigenvalues beyond the top r sum to <= mu."""
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    if lam.size and lam.min() < 0:
        raise InputError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise InputError("eigenvalues must be sorted in descending order")
    # tails[r] = sum of lam[r:]
    tails = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])
    return int(np.argmax(tails <= mu))


def trace_residual(oracle: KernelOracle, factor: PartialCholeskyFactor) -> float:
    """tr(A - F F^T), clamped at zero against roundoff."""
    if factor.n != oracle.n:
        raise InputError("factor size does not match oracle")
    return max(0.0, float(oracle.diag().sum() - np.sum(factor.F**2)))
