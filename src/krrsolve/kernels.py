"""Kernel functions and matrix-free access to the kernel matrix.

Two kernel families are supported, both with unit diagonal:

* squared exponential,  K(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* l1 Laplace,           K(x, y) = exp(-||x - y||_1 / sigma)

Every block comes from one path.  ``_prepare`` turns a point set into the
arrays a tile is computed from: the shifted, scaled points and their half
squared norms for the squared exponential, the points for Laplace.
``_tile`` computes the block of two prepared sets in one m x n output: a
BLAS-3 product u v^T finished in place by the norms, a floor and ``exp``
(see ``pairwise_kernel`` for the shift, the floor and the accuracy bound),
or ``cdist`` scaled and exponentiated in place.  ``kernel_rows`` prepares x
and y once and tiles their slabs, ``pairwise_kernel`` is its one slab, and
a ``DatasetKernelOracle`` prepares its points once, shifted by their mean,
and tiles the rows and columns of each block.  A block never allocates a
second array of its size, and a ``kernel_rows`` slab can be written into a
caller's C-contiguous float64 buffer instead, with the same bits.

The kernel matrix of N data points is accessed through a ``KernelOracle``,
which generates columns and dense blocks on demand and carries the
byte budget for generated blocks.  Products with a kernel block A(R, C) go
through ``KernelBlocks``, which holds the one slab rule: when all of A(R, C)
fits in the budget it is generated once and kept, otherwise each product
regenerates it in row slabs as tall as the budget allows.  It hands every
slab one buffer that all passes reuse; ``predict``'s ``kernel_rows`` slabs
are written into it, while the oracle-backed streams of the solvers
(``krr._kernel_columns``) ignore it and allocate each slab afresh.
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
        if not 0 < self.bandwidth < np.inf:
            raise InputError(f"bandwidth must be finite and positive, got {self.bandwidth}")


def pairwise_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense kernel block K(x_i, y_j) for row sets ``x`` (m x dim), ``y`` (n x dim).

    The single slab ``kernel_rows(spec, x, y)(0, m, None)``.

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

    Memory: the m x n float64 output plus one tile and its boolean mask;
    the prepared copies of x and y are m x dim and n x dim.  The Laplace
    block is ``cdist``'s output, of the unshifted points, scaled and
    exponentiated in place.
    """
    x, y = _point_sets(x, y)
    return kernel_rows(spec, x, y)(0, len(x), None)


def kernel_rows(spec: KernelSpec, x: np.ndarray, y: np.ndarray):
    """``rows(start, stop, out)``: the block K(x[start:stop], y), for streaming.

    x and y are prepared once, with the shift ``pairwise_kernel`` uses, so
    no slab redoes it; each slab is one ``_tile`` on its rows and takes its
    squared-exponential floor from them.

    ``out``, when not None, must be a writeable C-contiguous float64 array
    of shape (stop - start, len(y)); the slab is written into it, with the
    same bits as with ``out=None``, and ``out`` is returned.  Anything else
    raises ``InputError``.
    """
    x, y = _point_sets(x, y)
    # an empty block needs no shift, and the mean of no rows would warn
    shift = 0.5 * (x.mean(axis=0) + y.mean(axis=0)) if len(x) and len(y) else 0.0
    p, q = _prepare(spec, x, shift), _prepare(spec, y, shift)

    def rows(start, stop, out):
        if out is not None:
            _check_out(out, (stop - start, len(y)))
        return _tile(spec, tuple(a[start:stop] for a in p), q, out)
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


def _prepare(spec: KernelSpec, points: np.ndarray, shift) -> tuple:
    """The arrays a tile is computed from: u = (points - shift) / sigma and
    ||u||^2 / 2 for the squared exponential, the points for Laplace."""
    if spec.family == LAPLACE1:
        return (points,)
    u = points - shift
    u /= spec.bandwidth
    return u, 0.5 * np.einsum("ij,ij->i", u, u)


def _tile(spec: KernelSpec, p: tuple, q: tuple,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """The block between prepared point sets ``p`` and ``q``, written into
    ``out`` when it is given; see ``pairwise_kernel``."""
    if spec.family == LAPLACE1:
        out = cdist(*p, *q, "cityblock", out=out)
        out /= -spec.bandwidth
        return np.exp(out, out=out)
    return _squared_exponential(*p, *q, out=out)


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

    def columns(self, indices) -> np.ndarray:
        """Columns A(:, S) as an N x |S| array.  Duplicate indices allowed."""
        return self.block(np.arange(self.n), indices)

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
        # one shift, the data mean, for every block: the points are prepared
        # once instead of once per column block
        self._prepared = _prepare(spec, features, features.mean(axis=0))

    def block(self, rows, cols) -> np.ndarray:
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        p = self._prepared
        return _tile(self.spec, tuple(a[rows] for a in p), tuple(a[cols] for a in p))

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

    def __init__(self, generate, n_rows: int, n_cols: int, budget: int):
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
            del slab  # a streamed slab is freed before the next is generated
        return out
