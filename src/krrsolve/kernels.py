"""Kernel functions and matrix-free access to the kernel matrix.

Two kernel families are supported, both with unit diagonal:

* squared exponential,  K(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* l1 Laplace,           K(x, y) = exp(-||x - y||_1 / sigma)

The kernel matrix of N data points is accessed through a ``KernelOracle``,
which generates entries, columns and dense blocks on demand and carries the
byte budget for generated blocks.  Products with a kernel block A(R, C) go
through ``KernelBlocks``, which holds the one slab rule: when all of A(R, C)
fits in the budget it is generated once and kept, otherwise each product
regenerates it in row slabs as tall as the budget allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError

SQUARED_EXPONENTIAL = "squared_exponential"
LAPLACE1 = "laplace1"

KERNEL_FAMILIES = (SQUARED_EXPONENTIAL, LAPLACE1)
DEFAULT_BANDWIDTH = 3.0

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of scratch for generated kernel blocks


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth."""

    family: str = SQUARED_EXPONENTIAL
    bandwidth: float = DEFAULT_BANDWIDTH

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if not self.bandwidth > 0:
            raise InputError(f"bandwidth must be positive, got {self.bandwidth}")


def pairwise_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense kernel block K(x_i, y_j) for row sets ``x`` (m x dim), ``y`` (n x dim)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise InputError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]} features"
        )
    if spec.family == SQUARED_EXPONENTIAL:
        sq = cdist(x, y, "sqeuclidean")
        return np.exp(-sq / (2.0 * spec.bandwidth**2))
    dist = cdist(x, y, "cityblock")
    return np.exp(-dist / spec.bandwidth)


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate K(x, y) for a single pair of points."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(pairwise_kernel(spec, x[None, :], y[None, :])[0, 0])


class KernelOracle:
    """Matrix-free view of a symmetric psd matrix A.

    Subclasses provide ``block``; everything else is derived from it.
    """

    n: int
    memory_budget: int = DEFAULT_MEMORY_BUDGET  # bytes per generated block

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense submatrix A(rows, cols)."""
        raise NotImplementedError

    def _check_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InputError(
                f"index out of range [0, {self.n}): {idx.min()}..{idx.max()}"
            )
        return idx

    def entry(self, i: int, j: int) -> float:
        return float(self.block(np.array([i]), np.array([j]))[0, 0])

    def columns(self, indices) -> np.ndarray:
        """Columns A(:, S) as an N x |S| array.  Duplicate indices allowed."""
        idx = self._check_indices(indices)
        return self.block(np.arange(self.n), idx)

    def diag(self) -> np.ndarray:
        raise NotImplementedError


class DatasetKernelOracle(KernelOracle):
    """Kernel matrix entries a_ij = K(x_i, x_j) generated from stored features."""

    def __init__(self, features: np.ndarray, spec: KernelSpec,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise InputError("features must be a nonempty N x dim array")
        if not np.isfinite(features).all():
            raise InputError("features contain non-finite values")
        if memory_budget < 8 * features.shape[0]:
            raise InputError("memory budget below one kernel column")
        self.features = features
        self.spec = spec
        self.memory_budget = int(memory_budget)
        self.n = features.shape[0]

    def block(self, rows, cols) -> np.ndarray:
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        return pairwise_kernel(self.spec, self.features[rows], self.features[cols])

    def diag(self) -> np.ndarray:
        # both families satisfy K(x, x) = 1
        return np.ones(self.n)


class ExplicitMatrixOracle(KernelOracle):
    """Oracle backed by a stored symmetric psd matrix.

    Used by the diagnostics suite and by adversarial tests, where the matrix
    is given directly rather than induced by data points.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InputError("explicit oracle needs a square matrix")
        if not np.isfinite(matrix).all():
            raise InputError("matrix contains non-finite values")
        if not np.allclose(matrix, matrix.T, atol=1e-12 * max(1.0, abs(matrix).max())):
            raise InputError("matrix is not symmetric")
        self.matrix = matrix
        self.n = matrix.shape[0]

    def block(self, rows, cols) -> np.ndarray:
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        return self.matrix[np.ix_(rows, cols)]

    def diag(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


class KernelBlocks:
    """Products with a kernel block A(R, C), one budgeted row slab at a time.

    ``generate(start, stop)`` returns the dense rows A(R[start:stop], C).
    Iterating yields ``(start, stop, slab)`` over row slabs of at most
    ``budget`` bytes (at least one row).  When one slab holds all of
    A(R, C), it is generated on first use and kept; otherwise every pass
    regenerates the slabs.
    """

    def __init__(self, generate, n_rows: int, n_cols: int,
                 budget: int = DEFAULT_MEMORY_BUDGET):
        self.generate = generate
        self.n_rows = n_rows
        self.height = max(1, int(budget // (8 * n_cols)))
        self._kept = None

    def __iter__(self):
        if self.height >= self.n_rows:
            if self._kept is None:
                self._kept = self.generate(0, self.n_rows)
            yield 0, self.n_rows, self._kept
            return
        for start in range(0, self.n_rows, self.height):
            stop = min(start + self.height, self.n_rows)
            yield start, stop, self.generate(start, stop)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A(R, C) @ v for a vector or a block of columns v."""
        v = np.asarray(v, dtype=np.float64)
        out = np.empty((self.n_rows,) + v.shape[1:])
        for start, stop, slab in self:
            out[start:stop] = slab @ v
        return out
