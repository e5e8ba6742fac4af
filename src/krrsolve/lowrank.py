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
  front; each round takes the next ``min(block_size, rank - i)`` of them
  still live, in the order drawn, with the same default block size.  So a
  round forms at most ``block_size`` kernel rows, not all ``rank`` at once;
  in exact arithmetic it takes the pivots one round over all of them would.

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

The factor is held transposed: ``factor.F`` is the N x r' view of a
row-major r' x N array Ft = F^T, allocated once, so ``factor.F.T`` is the
contiguous one.  The loop grows Ft row by row (see ``_partial_cholesky``),
and products with F^T, such as the preconditioner's F^T F and F^T v, run
on contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, check_array, check_choice, check_count, check_positive, rng
from .kernels import KernelOracle

RPCHOLESKY = "rpcholesky"
GREEDY = "greedy"
UNIFORM = "uniform"
PIVOT_RULES = (RPCHOLESKY, GREEDY, UNIFORM)

# residual diagonal entries at or below this multiple of tr(A)/N are roundoff
_CLAMP_REL = 1e-10

# order at and below which ``_inverse_cholesky`` stops splitting M in two
# and calls LAPACK's Cholesky, then its general inverse on the triangular
# factor; at orders 600 and 1000 bases of 32, 64 and 128 measured within 7%
# of each other (medians of 15)
_TRIANGULAR_BASE = 64


def _inverse_cholesky(m: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """X = L^{-1} for the lower Cholesky factor L of a symmetric positive
    definite M = L L^T, zero above the diagonal; L itself is never formed.

    With M = [[A, B^T], [B, C]], the recursion (Gustavson, *Recursion leads
    to automatic variable blocking*, 1997) is

        X_A = X(A),  L21 = B X_A^T,  S = C - L21 L21^T,  X_S = X(S),
        X = [[X_A, 0], [-X_S L21 X_A, X_S]],

    so beyond the base case, of order at most ``_TRIANGULAR_BASE``, it runs
    on matrix products alone (L21 L21^T is one SYRK), each written into its
    block of the one output.  numpy has no triangular solve, and LAPACK's
    Cholesky runs at about a fifth of the rate of a product: with two BLAS
    threads (medians of 15, alternated) this took 13.3 ms at order 600 and
    30.8 ms at order 1000, where Cholesky and then a recursive triangular
    inverse took 20.6 and 50.9 ms, at no larger residual ||X M X^T - I||.
    Only M's lower triangle is read.  ``np.linalg.LinAlgError`` from any
    base case means M is not numerically positive definite.  The factor
    rounds and every preconditioner build share it.

    ``out``, used by the recursion, is the n x n float64 block X is written
    into; by default a new array.
    """
    n = m.shape[0]
    if out is None:
        out = np.empty((n, n))
    if n <= _TRIANGULAR_BASE:
        out[...] = np.tril(np.linalg.inv(np.linalg.cholesky(m)))
        return out
    h = n // 2
    out[:h, h:] = 0.0
    x_a = _inverse_cholesky(m[:h, :h], out[:h, :h])
    l21 = m[h:, :h] @ x_a.T
    s = l21 @ l21.T
    np.subtract(m[h:, h:], s, out=s)
    x_s = _inverse_cholesky(s, out[h:, h:])
    x_21 = out[h:, :h]
    np.matmul(x_s, l21 @ x_a, out=x_21)
    np.negative(x_21, out=x_21)
    return out


@dataclass(frozen=True)
class PivotRule:
    """Pivot selection strategy for the low-rank factor."""

    kind: str = RPCHOLESKY
    block_size: Optional[int] = None  # rpcholesky and uniform; None = min(100, r/10)
    seed: Optional[int] = None

    def __post_init__(self):
        check_choice("pivot rule", self.kind, PIVOT_RULES)
        if self.block_size is not None:
            check_count("block_size", self.block_size)
        rng(self.seed)  # a bad seed fails here, where the rule is made


@dataclass
class PartialCholeskyFactor:
    """Low-rank factor F with its pivot set and final residual diagonal.

    ``F`` (N x r') is the transpose view of a row-major r' x N array, so
    ``F.T`` is C-contiguous and F itself is Fortran-ordered.
    """

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
    """Inverse Cholesky factor of the candidates' block H under the skip rule.

    Returns (taken, X): the positions taken, in order, and X = L^{-1} for
    the lower Cholesky factor L of H[taken][:, taken], from
    ``_inverse_cholesky``.  One call serves the common case, where every
    pivot's residual L_jj^2 = X_jj^{-2} exceeds thr.  Otherwise a
    left-looking loop takes the candidates in order and skips each one
    whose residual, given those taken before it, is at most thr; the taken
    block is then factored by the same routine.
    """
    m = H.shape[0]
    try:
        X = _inverse_cholesky(H)
        if np.all(np.diagonal(X) ** -2.0 > thr):
            return np.arange(m), X
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
    taken = np.asarray(taken, dtype=np.int64)
    return taken, _inverse_cholesky(H[np.ix_(taken, taken)])


def _partial_cholesky(oracle: KernelOracle, rank: int, propose) -> PartialCholeskyFactor:
    """Block partial Cholesky over the candidates a pivot rule proposes.

    ``propose(d, i)`` receives the residual diagonal d, whose exhausted
    entries are zero, and the number i of columns so far.  It returns at
    most ``rank - i`` distinct live candidates (d > 0), or none to stop.
    The factor is grown as the rows of Ft = F^T, one rank x N array
    allocated once.  Each round forms the candidates' residual rows
    Gt = A(cand, :) - Ft(:i, cand)^T Ft(:i, :), takes the candidates that
    ``_skip_cholesky`` keeps, and writes X Gt(taken, :), X = L^{-1}, into
    the next rows of Ft; every product reads and writes contiguous rows.
    """
    n = oracle.n
    d = oracle.diag().astype(np.float64).copy()
    thr = _clamp_threshold(max(d.sum(), np.finfo(float).tiny), n)
    d[d <= thr] = 0.0
    Ft = np.empty((rank, n))  # row j is column j of F; rows past i unset
    every = np.arange(n)
    pivots: list[int] = []
    i = 0
    while i < rank:
        cand = np.asarray(propose(d, i), dtype=np.int64)
        if cand.size == 0:
            break
        Gt = oracle.block(cand, every)
        Gt -= Ft[:i, cand].T @ Ft[:i]
        taken, X = _skip_cholesky(Gt[:, cand].T, thr)
        if taken.size < cand.size:
            Gt = Gt[taken]
        # L^{-1} Gt through the m x m inverse: one product is 5x faster than
        # an LU solve with N right-hand sides, at a backward error near eps
        rows = Ft[i:i + taken.size]
        np.matmul(X, Gt, out=rows)
        d -= np.einsum("ij,ij->j", rows, rows)
        d[cand] = 0.0  # taken, or skipped as exhausted
        d[d <= thr] = 0.0
        pivots.extend(cand[taken].tolist())
        i += taken.size
    return PartialCholeskyFactor(Ft[:i].T, np.asarray(pivots, dtype=np.int64), d)


def build_factor(oracle: KernelOracle, rank: int,
                 rule: PivotRule = PivotRule()) -> PartialCholeskyFactor:
    """Partial-Cholesky factor of at most ``rank`` columns under ``rule``."""
    rank = check_count("rank", rank, high=oracle.n)
    gen = rng(rule.seed)
    block_size = rule.block_size or min(100, -(-rank // 10))  # ceil(rank/10)

    if rule.kind == RPCHOLESKY:
        def propose(d, i):
            total = d.sum()
            if total <= 0.0:
                return []
            return np.unique(gen.choice(d.size, size=min(block_size, rank - i), p=d / total))
    elif rule.kind == GREEDY:
        def propose(d, i):
            s = int(np.argmax(d))
            return [s] if d[s] > 0.0 else []
    else:
        chosen = gen.choice(oracle.n, size=rank, replace=False)
        start = 0  # chosen[:start] have been proposed or passed over

        def propose(d, i):
            nonlocal start
            rest = chosen[start:]
            live = np.flatnonzero(d[rest] > 0.0)[:min(block_size, rank - i)]
            if live.size:
                start += int(live[-1]) + 1
            return rest[live]

    return _partial_cholesky(oracle, rank, propose)


def tail_rank(eigenvalues, mu: float) -> int:
    """Smallest r >= 0 such that the eigenvalues beyond the top r sum to <= mu."""
    lam = check_array("eigenvalues", eigenvalues)
    check_positive("mu", mu)
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
