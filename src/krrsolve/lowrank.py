"""Partial-Cholesky column Nystrom approximation with three pivot rules.

All three rules produce a factor F (N x r') with A_hat = F F^T psd and
A_hat <= A in the Loewner order.  They differ only in pivot selection:

* randomly pivoted Cholesky: at each round, a block of candidate pivots is
  sampled iid with probability proportional to the residual diagonal, then
  deduplicated.  This adapts to the spectrum and avoids the failure modes
  of the other two rules.
* greedy: the largest residual diagonal entry (ties to the lowest index).
* uniform: pivots drawn uniformly without replacement up front.

The returned factor can have fewer columns than requested: block
deduplication, or a residual that hits zero early, both shrink it.  Callers
must read ``factor.rank`` rather than assume the requested rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .kernels import KernelOracle

# relative clamp threshold for roundoff negatives in the residual diagonal
_CLAMP_REL = 1e-10


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


def default_block_size(rank: int) -> int:
    """Default sampling block: min(100, rank/10), at least 1."""
    return max(1, min(100, -(-rank // 10)))


def _clamp_threshold(trace: float, n: int) -> float:
    return _CLAMP_REL * trace / n


def _clamp(d: np.ndarray, thr: float) -> None:
    d[d < -thr] = 0.0


def rpcholesky(oracle: KernelOracle, rank: int, block_size: Optional[int] = None,
               seed: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> PartialCholeskyFactor:
    """Randomly pivoted partial Cholesky with blockwise sampling.

    Each round samples ``min(block_size, rank - i)`` iid indices with
    probability proportional to the residual diagonal d, deduplicates them,
    extends the factor by a block Cholesky step, and subtracts the new
    columns' squared row norms from d.  Stops at ``rank`` columns or when
    the residual diagonal is exhausted.
    """
    n = oracle.n
    if not 1 <= rank <= n:
        raise InputError(f"rank must be in [1, {n}], got {rank}")
    if block_size is None:
        block_size = default_block_size(rank)
    if block_size < 1:
        raise InputError("block size must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)

    d = oracle.diag().astype(np.float64).copy()
    trace = d.sum()
    thr = _clamp_threshold(max(trace, np.finfo(float).tiny), n)
    F = np.zeros((n, rank))
    pivots: list[int] = []
    i = 0
    cur_block = block_size
    while i < rank:
        weights = np.clip(d, 0.0, None)
        total = weights.sum()
        if total <= 0.0:
            break  # residual exhausted: exact recovery with fewer columns
        m = min(cur_block, rank - i)
        cand = rng.choice(n, size=m, replace=True, p=weights / total)
        new = np.unique(cand)
        G = oracle.columns(new) - F[:, :i] @ F[new, :i].T
        H = G[new, :]
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            # nearly dependent block pivots: jitter once, then shrink the
            # block and resample fresh candidates
            try:
                L = np.linalg.cholesky(H + 1e-12 * np.trace(H) * np.eye(len(new)))
            except np.linalg.LinAlgError:
                if m == 1:
                    # a single pivot whose residual column lost positivity
                    # to roundoff carries no usable mass; drop it
                    d[new] = 0.0
                    continue
                cur_block = max(1, m // 2)
                continue
        cur_block = block_size
        # G L^{-T} through the m x m inverse: numpy has no triangular solve,
        # and one product is 5x faster than an LU solve with N right-hand
        # sides, at a backward error still near eps
        cols = G @ np.linalg.inv(L).T
        F[:, i:i + len(new)] = cols
        d -= np.einsum("ij,ij->i", cols, cols)
        _clamp(d, thr)
        pivots.extend(int(s) for s in new)
        d[pivots] = 0.0
        i += len(new)
    return PartialCholeskyFactor(F[:, :i], np.asarray(pivots, dtype=np.int64), d)


def _sequential_cholesky(oracle: KernelOracle, pivot_order, rank: int,
                         skip_exhausted: bool) -> PartialCholeskyFactor:
    """Rank-1 partial Cholesky steps over a pivot stream.

    ``pivot_order`` is either an explicit index sequence (uniform rule) or
    None, which means greedy argmax selection on the residual diagonal.
    """
    n = oracle.n
    d = oracle.diag().astype(np.float64).copy()
    trace = d.sum()
    thr = _clamp_threshold(max(trace, np.finfo(float).tiny), n)
    F = np.zeros((n, rank))
    pivots: list[int] = []
    i = 0
    stream = iter(pivot_order) if pivot_order is not None else None
    while i < rank:
        if stream is None:
            s = int(np.argmax(d))
            if d[s] <= thr:
                break  # zero residual diagonal: early return
        else:
            try:
                s = int(next(stream))
            except StopIteration:
                break
            if d[s] <= thr:
                if skip_exhausted:
                    continue
                break
        g = oracle.columns([s])[:, 0] - F[:, :i] @ F[s, :i]
        if g[s] <= 0.0:
            d[s] = 0.0
            continue
        col = g / np.sqrt(g[s])
        F[:, i] = col
        d -= col * col
        _clamp(d, thr)
        pivots.append(s)
        d[pivots] = 0.0
        i += 1
    return PartialCholeskyFactor(F[:, :i], np.asarray(pivots, dtype=np.int64), d)


def greedy_cholesky(oracle: KernelOracle, rank: int) -> PartialCholeskyFactor:
    """Partial Cholesky pivoting on the largest residual diagonal entry."""
    if not 1 <= rank <= oracle.n:
        raise InputError(f"rank must be in [1, {oracle.n}], got {rank}")
    return _sequential_cholesky(oracle, None, rank, skip_exhausted=False)


def uniform_nystrom(oracle: KernelOracle, rank: int, seed: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> PartialCholeskyFactor:
    """Column Nystrom approximation on uniformly sampled distinct pivots."""
    if not 1 <= rank <= oracle.n:
        raise InputError(f"rank must be in [1, {oracle.n}], got {rank}")
    if rng is None:
        rng = np.random.default_rng(seed)
    chosen = rng.choice(oracle.n, size=rank, replace=False)
    return _sequential_cholesky(oracle, chosen, rank, skip_exhausted=True)


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
