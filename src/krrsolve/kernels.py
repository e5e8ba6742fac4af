"""Kernel functions and matrix-free access to the kernel matrix.

Two kernel families are supported, both with unit diagonal:

* squared exponential,  K(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* l1 Laplace,           K(x, y) = exp(-||x - y||_1 / sigma)

A squared-exponential block is built in its own output buffer from the
norm expansion ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, so its cost is one
BLAS-3 product (see ``pairwise_kernel`` for the shift, the coincident-point
floor and the accuracy bound).  A ``DatasetKernelOracle`` shifts and scales
its points once, by the data mean, so every block it generates uses the same
prepared points; ``kernel_rows`` does the same for the rows of K(x, y).  The
Laplace block keeps ``cdist`` and is exponentiated in place.  Either way a
block of m x n entries allocates one m x n float array, never a second array
of its size, and ``pairwise_kernel(..., out=buf)`` writes it into a caller's
C-contiguous float64 buffer instead, with the same bits.

The kernel matrix of N data points is accessed through a ``KernelOracle``,
which generates entries, columns and dense blocks on demand and carries the
byte budget for generated blocks.  Products with a kernel block A(R, C) go
through ``KernelBlocks``, which holds the one slab rule: when all of A(R, C)
fits in the budget it is generated once and kept, otherwise each product
regenerates it in row slabs as tall as the budget allows, all written into
one slab buffer that every pass reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError

SQUARED_EXPONENTIAL = "squared_exponential"
LAPLACE1 = "laplace1"

KERNEL_FAMILIES = (SQUARED_EXPONENTIAL, LAPLACE1)
DEFAULT_BANDWIDTH = 3.0

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of scratch for generated kernel blocks

_EPS = np.finfo(np.float64).eps
# entries per row tile when finishing a squared-exponential block (512 KiB)
_TILE_ENTRIES = 1 << 16


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


def pairwise_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense kernel block K(x_i, y_j) for row sets ``x`` (m x dim), ``y`` (n x dim).

    Squared exponential: with u = (x - shift) / sigma and v = (y - shift) / sigma,

        K(x_i, y_j) = exp(u_i.v_j - ||u_i||^2 / 2 - ||v_j||^2 / 2).

    The shift (mean(x) + mean(y)) / 2 is symmetric in the two arguments and
    keeps the accuracy independent of where the data sits.  One matrix
    product u v^T fills the output buffer; then, in row tiles of about
    ``_TILE_ENTRIES`` entries that stay in cache, the two negated half norms
    are summed first and added (so a 1 x 1 block gives K(a, b) == K(b, a)
    bitwise), the floor below is applied and ``exp`` runs in place.

    The product cancels to a rounding error of about
    (dim + 2) eps (max ||u||^2 + max ||v||^2) / 2.  Every exponent above
    -floor, with floor = 4 (dim + 2) eps (max ||u||^2 + max ||v||^2) / 2, is
    set to exactly 0, so coincident points give exactly 1.0 and every entry
    lies in [0, 1].  As exp has slope at most 1 on exponents <= 0, the
    absolute error of an entry is at most about floor.

    ``out``, when given, must be a writeable C-contiguous float64 array of
    shape (m, n); the block is written into it, with the same bits as the
    allocating call, and ``out`` is returned.  Anything else raises
    ``InputError``.

    Memory: the m x n float64 output (allocated unless ``out`` is given)
    plus one tile and its boolean mask; the shifted copies of x and y are
    m x dim and n x dim.  The Laplace block is ``cdist``'s output, scaled
    and exponentiated in place.
    """
    x, y = _point_sets(x, y)
    if out is not None:
        _check_out(out, (x.shape[0], y.shape[0]))
    if spec.family == LAPLACE1:
        out = cdist(x, y, "cityblock", out=out)
        out /= -spec.bandwidth
        return np.exp(out, out=out)
    if x.shape[0] == 0 or y.shape[0] == 0:
        return np.zeros((x.shape[0], y.shape[0])) if out is None else out
    shift = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    return _squared_exponential(*_scaled(x, shift, spec.bandwidth),
                                *_scaled(y, shift, spec.bandwidth), out=out)


def kernel_rows(spec: KernelSpec, x: np.ndarray, y: np.ndarray):
    """``rows(start, stop, out)``: the block K(x[start:stop], y), for streaming.

    For the squared exponential, x and y are shifted and scaled once, by the
    shift ``pairwise_kernel(spec, x, y)`` uses, so no slab redoes it; each
    slab takes its floor from its own rows.  ``out`` is as for
    ``pairwise_kernel``, or None.
    """
    x, y = _point_sets(x, y)
    if spec.family == LAPLACE1 or x.shape[0] == 0 or y.shape[0] == 0:
        return lambda start, stop, out: pairwise_kernel(spec, x[start:stop], y, out)
    shift = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    u, u_half = _scaled(x, shift, spec.bandwidth)
    v, v_half = _scaled(y, shift, spec.bandwidth)

    def rows(start, stop, out):
        if out is not None:
            _check_out(out, (stop - start, v.shape[0]))
        return _squared_exponential(u[start:stop], u_half[start:stop], v, v_half, out)
    return rows


def _point_sets(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise InputError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]} features"
        )
    return x, y


def _check_out(out, shape) -> None:
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        raise InputError(f"out must be a writeable C-contiguous float64 array "
                         f"of shape {shape}")


def _scaled(points: np.ndarray, shift: np.ndarray, bandwidth: float):
    """Points u = (points - shift) / sigma and their half squared norms."""
    u = points - shift
    u /= bandwidth
    return u, 0.5 * np.einsum("ij,ij->i", u, u)


def _squared_exponential(u: np.ndarray, u_half: np.ndarray,
                         v: np.ndarray, v_half: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(u_i.v_j - u_half_i - v_half_j), floored, over row tiles, written
    into ``out`` when it is given; see ``pairwise_kernel``."""
    floor = 4.0 * (u.shape[1] + 2) * _EPS * (u_half.max(initial=0.0)
                                            + v_half.max(initial=0.0))
    # numpy's BLAS, as for every other product: scipy.linalg.blas.dgemm could
    # accumulate into the buffer, but it runs on scipy's own OpenBLAS, whose
    # threads then spin against numpy's during the next products
    out = np.matmul(u, v.T, out=out)
    height = max(1, _TILE_ENTRIES // max(1, v.shape[0]))
    for start in range(0, u.shape[0], height):
        tile = out[start:start + height]
        tile += np.add.outer(-u_half[start:start + height], -v_half)
        tile[tile > -floor] = 0.0
        np.exp(tile, out=tile)
    return out


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
        if spec.family == SQUARED_EXPONENTIAL:
            # one shift, the data mean, for every block: the scaled points and
            # their norms are computed once instead of once per column block
            self._prepared = _scaled(features, features.mean(axis=0), spec.bandwidth)

    def block(self, rows, cols) -> np.ndarray:
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        if self.spec.family == SQUARED_EXPONENTIAL:
            u, u_half = self._prepared
            return _squared_exponential(u[rows], u_half[rows], u[cols], u_half[cols])
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

    ``generate(start, stop, out)`` returns the dense rows A(R[start:stop], C).
    Iterating yields ``(start, stop, slab)`` over row slabs of at most
    ``budget`` bytes (at least one row).  When one slab holds all of
    A(R, C), it is generated on first use with ``out=None`` and kept.
    Otherwise every pass regenerates the slabs into one ``height x n_cols``
    buffer, allocated on the first pass and kept: ``out`` is the C-contiguous
    view of its first ``stop - start`` rows, which ``generate`` may fill and
    return, or ignore and return an array of its own.  A streamed slab is
    then overwritten by the next one, so each must be used before the
    iteration advances.
    """

    def __init__(self, generate, n_rows: int, n_cols: int,
                 budget: int = DEFAULT_MEMORY_BUDGET):
        self.generate = generate
        self.n_rows = n_rows
        self.n_cols = n_cols
        # a block with no columns takes no bytes, so any budget holds all of it
        self.height = max(1, int(budget // (8 * n_cols)) if n_cols else n_rows)
        self._kept = None
        self._buffer = None

    def __iter__(self):
        if self.height >= self.n_rows:
            if self._kept is None:
                self._kept = self.generate(0, self.n_rows, None)
            yield 0, self.n_rows, self._kept
            return
        if self._buffer is None:
            self._buffer = np.empty((self.height, self.n_cols))
        for start in range(0, self.n_rows, self.height):
            stop = min(start + self.height, self.n_rows)
            yield start, stop, self.generate(start, stop, self._buffer[:stop - start])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A(R, C) @ v for a vector or a block of columns v."""
        v = np.asarray(v, dtype=np.float64)
        out = np.empty((self.n_rows,) + v.shape[1:])
        for start, stop, slab in self:
            out[start:stop] = slab @ v
        return out
