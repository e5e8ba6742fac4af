"""Sparse sign embeddings and subspace-embedding diagnostics.

An embedding is a d x N ``scipy.sparse.csc_matrix`` with exactly ``zeta``
nonzeros per column, placed at distinct uniformly random rows, each equal
to +1/sqrt(zeta) or -1/sqrt(zeta) with equal probability.  Applying it to
a tall N x k matrix, ``phi @ m``, costs O(zeta N k).

The rows of each column are a uniform zeta-subset of range(d) drawn by
Floyd's algorithm (Bentley and Floyd, "A sample of brilliance", 1987),
vectorized over the N columns, so drawing an embedding costs O(N zeta^2)
time and O(N zeta) memory whatever d is.  The embedding drawn for a given
seed is not the one that earlier versions, which ranked a block of N x d
uniforms per column, drew for that seed; the law is the same.

The solvers' defaults come from ``practical_params``; the theory-mode
scalings d ~ k log k and zeta ~ log k are exposed for the diagnostics
experiments with calibration constants recorded below.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, check_count, rng

if TYPE_CHECKING:
    import scipy.sparse as sp

# calibration constants for the theory-mode scalings d ~ k log(k/delta),
# zeta ~ log(k/delta); configuration defaults, not asserted ground truth.
# The dimension constant is calibrated so the [1/2, 3/2] distortion event
# actually holds with ~95% rate on subspaces of dimension 10..50.
THEORY_DIM_CONST = 6.0
THEORY_NNZ_CONST = 2.0
THEORY_DEFAULT_DELTA = 0.05


def practical_params(k: int) -> tuple[int, int]:
    """Default embedding dimension and per-column sparsity for k centers.

    d = 4k: against d = 2k it about halves KRILL's PCG iterations on the
    restricted benchmark workloads (15-16 to 8-9), and so the passes over
    A(:,S), for a d k^2 build that stays a small part of the solve.
    """
    return 4 * k, min(8, 4 * k)


def theory_params(k: int) -> tuple[int, int]:
    """Theory-mode (d, zeta) for k >= 1 centers at failure probability
    ``THEORY_DEFAULT_DELTA``."""
    k = check_count("k", k)
    logterm = max(math.log(k / THEORY_DEFAULT_DELTA), 1.0)
    d = max(int(math.ceil(THEORY_DIM_CONST * k * logterm)), 1)
    zeta = max(int(math.ceil(THEORY_NNZ_CONST * logterm)), 1)
    return d, min(zeta, d)


def _distinct_rows(gen: np.random.Generator, n_cols: int, d: int,
                   zeta: int) -> np.ndarray:
    """n_cols x zeta distinct uniform indices from range(d), by Floyd's algorithm.

    Step i of a column draws t uniformly from [0, j] with j = d - zeta + i
    and takes t, or j when t is already among the column's picks; after
    zeta steps the picks are a uniformly random zeta-subset.  The steps
    run over all columns at once, with every t drawn up front.
    """
    rows = gen.integers(0, np.arange(d - zeta, d) + 1, size=(n_cols, zeta))
    for i in range(1, zeta):
        taken = (rows[:, :i] == rows[:, i, None]).any(axis=1)
        rows[taken, i] = d - zeta + i
    return rows


def build_embedding(d: int, n: int, zeta: int, seed=None) -> sp.csc_matrix:
    """Draw a d x n sparse sign embedding; deterministic for a given seed.

    Column j holds its zeta entries at its distinct rows, in the order
    drawn, so ``indices.reshape(n, zeta)`` and ``data.reshape(n, zeta)``
    give each column's rows and values; the rows are not sorted.
    """
    d = check_count("embedding_dim", d)
    n = check_count("n", n)
    zeta = check_count("embedding_nnz", zeta, high=d)
    # imported here so that importing krrsolve does not load scipy
    import scipy.sparse as sp

    gen = rng(seed)
    rows = _distinct_rows(gen, n, d, zeta)
    signs = gen.integers(0, 2, size=(n, zeta)) * 2 - 1
    values = signs / math.sqrt(zeta)
    return sp.csc_matrix((values.ravel(), rows.ravel(), zeta * np.arange(n + 1)),
                         shape=(d, n))


def distortion_check(phi: sp.csc_matrix, basis: np.ndarray) -> tuple[float, float]:
    """Extreme values of ||Phi v||^2 / ||v||^2 over the span of ``basis``.

    ``basis`` must have orthonormal columns; the extremes are the smallest
    and largest eigenvalues of (Phi B)^T (Phi B).
    """
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise InputError("basis must be a 2-d array")
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max() > 1e-8:
        raise InputError("basis columns are not orthonormal")
    if basis.shape[0] != phi.shape[1]:
        raise InputError(f"basis has {basis.shape[0]} rows, "
                         f"embedding expects {phi.shape[1]}")
    y = phi @ basis
    evals = np.linalg.eigvalsh(y.T @ y)
    return float(evals[0]), float(evals[-1])
