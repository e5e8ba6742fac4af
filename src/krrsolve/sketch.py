"""Sparse sign embeddings and subspace-embedding diagnostics.

An embedding is a d x N sparse matrix with exactly ``zeta`` nonzeros per
column, placed at distinct uniformly random rows, each equal to
+1/sqrt(zeta) or -1/sqrt(zeta) with equal probability.  Applying it to a
tall matrix costs O(zeta N k).

The rows of each column are a uniform zeta-subset of range(d) drawn by
Floyd's algorithm (Bentley and Floyd, "A sample of brilliance", 1987),
vectorized over the N columns, so drawing an embedding costs O(N zeta^2)
time and O(N zeta) memory whatever d is.  The embedding drawn for a given
seed is not the one that earlier versions, which ranked a block of N x d
uniforms per column, drew for that seed; the law is the same.

Practical parameter defaults are d = 2k and zeta = min(8, 2k); the
theory-mode scalings d ~ k log k and zeta ~ log k are exposed for the
diagnostics experiments with calibration constants recorded below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputError

# calibration constants for the theory-mode scalings d ~ k log(k/delta),
# zeta ~ log(k/delta); configuration defaults, not asserted ground truth.
# The dimension constant is calibrated so the [1/2, 3/2] distortion event
# actually holds with ~95% rate on subspaces of dimension 10..50.
THEORY_DIM_CONST = 6.0
THEORY_NNZ_CONST = 2.0
THEORY_DEFAULT_DELTA = 0.05


def practical_params(k: int) -> tuple[int, int]:
    """Default embedding dimension and per-column sparsity for k centers."""
    return 2 * k, min(8, 2 * k)


def theory_params(k: int, delta: float = THEORY_DEFAULT_DELTA) -> tuple[int, int]:
    """Theory-mode (d, zeta) for failure probability ``delta``."""
    logterm = max(math.log(k / delta), 1.0)
    d = max(int(math.ceil(THEORY_DIM_CONST * k * logterm)), 1)
    zeta = max(int(math.ceil(THEORY_NNZ_CONST * logterm)), 1)
    return d, min(zeta, d)


@dataclass(eq=False)
class SparseSignEmbedding:
    """d x N sparse sign matrix, zeta nonzeros per column."""

    d: int
    n: int
    zeta: int
    rows: np.ndarray  # (n, zeta) distinct row indices per column
    values: np.ndarray  # (n, zeta) entries, +-1/sqrt(zeta)
    seed: object = None
    _csc: sp.csc_matrix = field(default=None, repr=False)

    def matrix(self) -> sp.csc_matrix:
        """The embedding as a scipy CSC matrix (built once, then cached).

        Column j holds ``values[j]`` at ``rows[j]``, so the arrays are the
        CSC data and indices as they stand, with zeta entries per column.
        The row indices within a column are not sorted.
        """
        if self._csc is None:
            indptr = self.zeta * np.arange(self.n + 1)
            self._csc = sp.csc_matrix(
                (self.values.ravel(), self.rows.ravel(), indptr),
                shape=(self.d, self.n),
            )
        return self._csc


def _distinct_rows(rng: np.random.Generator, n_cols: int, d: int,
                   zeta: int) -> np.ndarray:
    """n_cols x zeta distinct uniform indices from range(d), by Floyd's algorithm.

    Step i of a column draws t uniformly from [0, j] with j = d - zeta + i
    and takes t, or j when t is already among the column's picks; after
    zeta steps the picks are a uniformly random zeta-subset.  The steps
    run over all columns at once, with every t drawn up front.
    """
    rows = rng.integers(0, np.arange(d - zeta, d) + 1, size=(n_cols, zeta))
    for i in range(1, zeta):
        taken = (rows[:, :i] == rows[:, i, None]).any(axis=1)
        rows[taken, i] = d - zeta + i
    return rows


def build_embedding(d: int, n: int, zeta: int, seed=None) -> SparseSignEmbedding:
    """Draw a sparse sign embedding; deterministic for a given seed."""
    if n < 1:
        raise InputError("input dimension must be >= 1")
    if not 1 <= zeta <= d:
        raise InputError(f"need 1 <= zeta <= d, got zeta={zeta}, d={d}")
    rng = np.random.default_rng(seed)
    rows = _distinct_rows(rng, n, d, zeta)
    signs = rng.integers(0, 2, size=(n, zeta)) * 2 - 1
    values = signs / math.sqrt(zeta)
    return SparseSignEmbedding(d, n, zeta, rows, values, seed)


def apply_embedding(phi: SparseSignEmbedding, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product Phi @ M for an N x k (or length-N) array."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != phi.n:
        raise InputError(f"matrix has {m.shape[0]} rows, embedding expects {phi.n}")
    return phi.matrix() @ m


def distortion_check(phi: SparseSignEmbedding, basis: np.ndarray) -> tuple[float, float]:
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
    y = apply_embedding(phi, basis)
    evals = np.linalg.eigvalsh(y.T @ y)
    return float(evals[0]), float(evals[-1])
