"""Kernel functions and matrix-free access to the kernel matrix.

Two kernel families are supported, both with unit diagonal:

* squared exponential,  K(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* l1 Laplace,           K(x, y) = exp(-||x - y||_1 / sigma)

Every block comes from one path.  ``_prepare`` turns each point set into
the one array a tile is computed from.  For the squared exponential that is
an m x (dim + 2) array of left rows [u, p, q]: the shifted, scaled points u
followed by two columns that carry the half squared norms, with one scale t
shared by the sets of a block; ``_to_right`` turns such an array into right
rows [u, p/2, -q/2] in place.  For Laplace it is the points themselves.
``_tile`` computes the block of left and right rows in one m x n output: a
single BLAS-3 product, left right^T, gives every exponent u.v - h_u - h_v
at once, and row tiles that stay in cache then apply a floor and ``exp`` in
place (see ``pairwise_kernel`` for the fold, the floor's derivation and the
accuracy bound); or ``cdist`` is scaled and exponentiated in place.
``_rows`` prepares x and y once and tiles their slabs, ``pairwise_kernel``
is its one slab, and a ``DatasetKernelOracle`` keeps its points as one
N x (dim + 2) array of left rows, shifted by their mean, and turns the
gathered copy of each block's columns into right rows.  A block never
allocates a second array of its size, and a ``_rows`` slab can be written
into a C-contiguous float64 buffer instead, with the same bits.

The kernel matrix of N data points is accessed through a ``KernelOracle``,
which generates dense blocks on demand, counts their entries and carries
the memory budget, the largest block kept.  Products with a kernel block
A(R, C) go through ``KernelBlocks``, the one place that decides whether a
block is kept or streamed and how tall its slabs are (see its docstring and
``SLAB_BYTES``).  Both streams are built here.  The solvers' A(:, C) is
``KernelOracle.columns``, whose slabs come from ``KernelOracle.block``, so
they ignore the slab buffer and are allocated afresh.  ``predict``'s
K(test, train) is ``_rows`` slabs, written into the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, check_array, check_choice, check_indices, check_positive

SQUARED_EXPONENTIAL = "squared_exponential"
LAPLACE1 = "laplace1"

KERNEL_FAMILIES = (SQUARED_EXPONENTIAL, LAPLACE1)
DEFAULT_BANDWIDTH = 3.0

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of the largest kernel block kept

# bytes of the slabs every stream generates (see ``KernelBlocks``).  Of 2,
# 4, 8, 16 and 32 MiB, 8 MiB was the smallest as fast as keeping A(:,S) in
# the direct solve's pass (2 BLAS threads, dim 20): 85 against 90 ms kept
# at N = 8000, k = 600 (medians of 15), and 515 against 511 ms at
# N = 20000, k = 1000 (medians of 7), where 2 MiB took 107 and 836 ms.  The
# full solve's first A.v through these slabs took 27.5 against 37.7 ms
# kept at N = 3000, and 102.1 against 163.7 ms at N = 6000 (medians of 9).
# Over a budget they beat slabs as tall as the budget: KRILL at N = 100000,
# k = 1000, with its 800 MB A(:,S) over a 400 MiB budget, took 4.5-6.3 s
# at 162-168 MB max RSS against 6.7-8.1 s at 551-564 MB, in the same 14
# iterations
SLAB_BYTES = 8 << 20

# bytes of the slab buffer ``predict`` streams its test kernel through; of
# 2, 4, 8 and 16 MiB, 4 MiB predicted fastest
PREDICT_BUDGET = 4 << 20

_EPS = np.finfo(np.float64).eps
# entries per row tile when finishing a squared-exponential block (512 KiB);
# after the fold, 2^15 to 2^17 measured alike and 2^13 or 2^18 slower
_TILE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth."""

    family: str = SQUARED_EXPONENTIAL
    bandwidth: float = DEFAULT_BANDWIDTH

    def __post_init__(self):
        check_choice("kernel family", self.family, KERNEL_FAMILIES)
        check_positive("bandwidth", self.bandwidth)


def pairwise_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense kernel block K(x_i, y_j) for row sets ``x`` (m x dim), ``y`` (n x dim).

    The single slab ``_rows(spec, x, y)(0, m, None)``.

    Squared exponential: with u = (x - shift) / sigma and v = (y - shift) / sigma,

        K(x_i, y_j) = exp(-||u_i - v_j||^2 / 2) = exp(u_i.v_j - h_i - h_j),

    h = ||u||^2 / 2.  The shift (mean(x) + mean(y)) / 2 is symmetric in the
    two arguments and keeps the accuracy independent of where the data sits.
    The half norms are folded into the matrix product by two extra columns.
    With H the largest h over both sets, t = sqrt(H) (t = 1 when H = 0),
    a = h / t in [0, t], p = a - t in [-t, 0] and q = a + t in [t, 2t], x_i
    is prepared as the left row [u_i, p_i, q_i] and y_j as the right row
    [v_j, p_j / 2, -q_j / 2], and

        left_i . right_j = u_i.v_j + (p_i p_j - q_i q_j) / 2
                         = u_i.v_j - t (a_i + a_j) = u_i.v_j - h_i - h_j.

    One matrix product fills the output buffer with every exponent; then,
    in row tiles of about ``_TILE_ENTRIES`` entries that stay in cache, the
    floor below is applied and ``exp`` runs in place.  Each extra term is
    g(x_i) (+-1/2 g(y_j)) and halving is exact, so swapping the arguments
    gives every term, and so a 1 x 1 block, the same bits: K(a, b) == K(b, a).

    Floor: the d + 2 terms of a product sum in absolute value to at most
    |u_i| |v_j| + |p_i p_j| / 2 + |q_i q_j| / 2 <= 2H + H/2 + 2H = 4.5 H, so
    with unit roundoff eps/2 the product rounds by at most 2.25 (d + 2) eps H.
    Rounding the two h costs at most d eps H, rounding a = h / t at most
    eps H, and rounding p and q at most (eps/2) (|p_i p_j| + |q_i q_j|)
    <= 2.5 eps H, so every computed exponent is within (3.25 d + 8) eps H of
    u_i.v_j - h_i - h_j, below

        floor = 4 (d + 2) eps H,

    which is at most the 4 (d + 2) eps (max h_x + max h_y) that a separate
    norm pass over the same two sets needs.  Every exponent above -floor is
    set to exactly 0, so coincident points give exactly 1.0 and every entry
    lies in [0, 1].  As exp has slope at most 1 on exponents <= 0, an entry
    left unfloored is off by less than floor plus the rounding of ``exp``,
    and a floored one by less than 2 floor.  The floor follows the largest
    point of both sets, so a far outlier raises it for every entry; a
    ``DatasetKernelOracle`` takes H over all its points, once.

    Memory: the m x n float64 output plus one boolean row-tile mask; the
    prepared copies of x and y are m x (dim + 2) and n x (dim + 2).  The
    Laplace block is ``cdist``'s output, of the unshifted points, scaled
    and exponentiated in place.
    """
    x, y = _point_sets(x, y)
    return _rows(spec, x, y)(0, len(x), None)


def predict(coefficients: np.ndarray, train_points: np.ndarray, spec: KernelSpec,
            test_points: np.ndarray,
            memory_budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Kernel expansion sum_i beta_i K(x_i, x) at every test point x.

    K(test, train) is used once, so it is never kept: it is streamed in row
    slabs through one reused buffer of at most min(memory_budget,
    ``PREDICT_BUDGET``) bytes, from points shifted and scaled once (see
    ``_rows``).  An empty expansion predicts 0 everywhere.
    """
    check_positive("memory budget", memory_budget)
    test_points, train_points = _point_sets(test_points, train_points,
                                            ("test points", "training points"))
    coefficients = check_array("coefficients", coefficients, length=len(train_points))
    kernel = KernelBlocks(_rows(spec, test_points, train_points),
                          test_points.shape[0], train_points.shape[0],
                          min(memory_budget, PREDICT_BUDGET))
    return kernel.apply(coefficients)


def _point_sets(x, y, names=("points x", "points y")):
    """x and y as checked point sets of one dimension, a 1-d set being one
    point; either may be empty."""
    x, y = (np.atleast_2d(check_array(name, p, ndim=None)) for name, p in zip(names, (x, y)))
    if x.shape[1] != y.shape[1]:
        raise InputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]} features")
    return x, y


def _rows(spec: KernelSpec, x: np.ndarray, y: np.ndarray):
    """``rows(start, stop, out)``: the block K(x[start:stop], y), for
    streaming, of point sets that ``_point_sets`` has checked.

    x and y are prepared once, with the shift and the floor
    ``pairwise_kernel`` uses, so no slab redoes it, and each slab is one
    ``_tile`` on its rows.  ``out``, when not None, is a C-contiguous
    float64 array of shape (stop - start, len(y)), ``KernelBlocks``' slab
    buffer in ``predict``; the slab is written into it, with the same bits
    as with ``out=None``, and ``out`` is returned.
    """
    # an empty block needs no shift, and the mean of no rows would warn
    shift = 0.5 * (x.mean(axis=0) + y.mean(axis=0)) if len(x) and len(y) else 0.0
    (left, right), floor = _prepare(spec, (x, y), shift)
    _to_right(spec, right)

    def rows(start, stop, out):
        return _tile(spec, left[start:stop], right, floor, out)
    return rows


def _prepare(spec: KernelSpec, sets: tuple, shift) -> tuple[list, float]:
    """Each point set as the one array a tile is computed from, and the floor.

    Squared exponential: the m x (dim + 2) left rows [u, p, q] of
    ``pairwise_kernel``, with one t for all the sets, and its floor.
    Laplace: the points themselves, and no floor.
    """
    if spec.family == LAPLACE1:
        return list(sets), 0.0
    dim = sets[0].shape[1]
    prepared = []
    for points in sets:
        rows = np.empty((len(points), dim + 2))
        u = rows[:, :dim]
        np.subtract(points, shift, out=u)
        u /= spec.bandwidth
        prepared.append(rows)
    halves = [0.5 * np.einsum("ij,ij->i", rows[:, :dim], rows[:, :dim])
              for rows in prepared]
    top = max(h.max(initial=0.0) for h in halves)
    t = np.sqrt(top) if top > 0 else 1.0
    for rows, h in zip(prepared, halves):
        h /= t
        np.subtract(h, t, out=rows[:, dim])
        np.add(h, t, out=rows[:, dim + 1])
    return prepared, 4.0 * (dim + 2) * _EPS * top


def _to_right(spec: KernelSpec, rows: np.ndarray) -> None:
    """Turn prepared left rows [u, p, q] into right rows [u, p/2, -q/2] in
    place (squared exponential; Laplace points are both)."""
    if spec.family != LAPLACE1:
        rows[:, -2] *= 0.5
        rows[:, -1] *= -0.5


def _tile(spec: KernelSpec, left: np.ndarray, right: np.ndarray, floor: float,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """The block between prepared left rows and right rows, written into
    ``out`` when it is given; see ``pairwise_kernel``."""
    if spec.family == LAPLACE1:
        # imported here so that importing krrsolve does not load scipy
        from scipy.spatial.distance import cdist

        out = cdist(left, right, "cityblock", out=out)
        out /= -spec.bandwidth
        return np.exp(out, out=out)
    # numpy's BLAS, as for every other product: scipy.linalg.blas.dgemm
    # runs on scipy's own OpenBLAS, whose threads then spin against numpy's
    # during the next products
    out = np.matmul(left, right.T, out=out)
    height = max(1, _TILE_ENTRIES // max(1, right.shape[0]))
    for start in range(0, left.shape[0], height):
        tile = out[start:start + height]
        tile[tile > -floor] = 0.0
        np.exp(tile, out=tile)
    return out


class KernelOracle:
    """Matrix-free view of a symmetric psd matrix A.

    Subclasses provide ``_block`` and ``diag``; ``block`` checks the indices
    and counts in ``entries`` every entry it returns.
    """

    n: int
    memory_budget: int = DEFAULT_MEMORY_BUDGET  # bytes of the largest block kept
    entries: int = 0  # kernel entries generated so far

    def block(self, rows, cols) -> np.ndarray:
        """Dense submatrix A(rows, cols)."""
        out = self._block(check_indices(rows, self.n), check_indices(cols, self.n))
        self.entries += out.size
        return out

    def columns(self, cols: np.ndarray, reread: bool = False) -> KernelBlocks:
        """A(:, cols) as ``KernelBlocks`` under the memory budget, each slab
        from ``block``."""
        return KernelBlocks(lambda start, stop, out: self.block(np.arange(start, stop), cols),
                            self.n, cols.size, self.memory_budget, reread)

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A(rows, cols) for flat int64 index arrays into range(n)."""
        raise NotImplementedError

    def diag(self) -> np.ndarray:
        raise NotImplementedError


class DatasetKernelOracle(KernelOracle):
    """Kernel matrix entries a_ij = K(x_i, x_j) generated from stored features."""

    def __init__(self, features: np.ndarray, spec: KernelSpec,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET):
        features = check_array("features", features, ndim=2)
        check_positive("memory budget", memory_budget)
        if memory_budget < 8 * features.shape[0]:
            raise InputError("memory budget below one kernel column")
        self.features = features
        self.spec = spec
        self.memory_budget = int(memory_budget)
        self.n = features.shape[0]
        # one shift, the data mean, and one t for every block: the points are
        # prepared once, as left rows, instead of once per column block
        (self._prepared,), self._floor = _prepare(spec, (features,),
                                                  features.mean(axis=0))

    def _block(self, rows, cols) -> np.ndarray:
        right = self._prepared[cols]  # a gathered copy, turned in place
        _to_right(self.spec, right)
        return _tile(self.spec, self._prepared[rows], right, self._floor)

    def diag(self) -> np.ndarray:
        # both families satisfy K(x, x) = 1
        return np.ones(self.n)


class ExplicitMatrixOracle(KernelOracle):
    """Oracle backed by a stored symmetric psd matrix.

    Used by the diagnostics suite and by adversarial tests, where the matrix
    is given directly rather than induced by data points.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = check_array("matrix entries", matrix, ndim=2)
        if matrix.shape[0] != matrix.shape[1]:
            raise InputError("explicit oracle needs a square matrix")
        if not np.allclose(matrix, matrix.T, atol=1e-12 * max(1.0, abs(matrix).max())):
            raise InputError("matrix is not symmetric")
        self.matrix = matrix
        self.n = matrix.shape[0]

    def _block(self, rows, cols) -> np.ndarray:
        return self.matrix[np.ix_(rows, cols)]

    def diag(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


class KernelBlocks:
    """Products with a kernel block A(R, C): the one rule for keeping a
    block or streaming it in row slabs.

    ``generate(start, stop, out)`` returns the dense rows A(R[start:stop], C).
    Iterating is one pass over the block: it yields ``(start, stop, slab)``.

    * Every stream uses slabs of at most min(budget, ``SLAB_BYTES``) bytes
      (at least one row), however large the block.
    * The budget decides only whether the block is kept: it is kept when
      all of A(R, C) fits in the budget, generated once with ``out=None``
      and held as long as this object lives.
    * A block that fits is kept from the first pass when it is at most two
      slabs of ``SLAB_BYTES``, which an oracle-backed stream holds anyway:
      its ``generate`` ignores the slab buffer and returns each slab beside
      it (only ``predict``'s ``_rows`` writes into the buffer), or when the
      caller passes ``reread`` because it always passes again.  Otherwise
      the first pass streams it, so a caller that reads it once never holds
      it, and the second pass releases the first pass's slab buffer and
      then keeps it.  That costs one streamed pass more than keeping it from
      the start: a full solve of about 100 iterations at N = 2000 went from
      0.118 to 0.133 s (medians of 6 processes).
    * A stream regenerates its slabs on every pass into one
      ``height x n_cols`` buffer, allocated on its first pass and kept:
      ``out`` is the C-contiguous view of its first ``stop - start`` rows,
      which ``generate`` may fill and return, or ignore and return an array
      of its own.  A streamed slab is then overwritten by the next one, so
      each must be used before the iteration advances.
    """

    def __init__(self, generate, n_rows: int, n_cols: int, budget: int,
                 reread: bool = False):
        self.generate = generate
        self.n_rows = n_rows
        self.n_cols = n_cols
        size = 8 * n_rows * n_cols
        # a block with no columns takes no bytes, so any budget holds all of it
        self.height = (max(1, int(min(budget, SLAB_BYTES) // (8 * n_cols))) if n_cols
                       else n_rows)
        # the pass that generates the block to keep, or None to stream it
        keep_at = 0 if reread or size <= 2 * SLAB_BYTES else 1
        self._keep_at = keep_at if size <= budget else None
        self._passes = 0
        self._kept = None
        self._buffer = None

    @property
    def kept(self) -> bool:
        """Whether the whole block is held."""
        return self._kept is not None

    def __iter__(self):
        if self._passes == self._keep_at:
            self._buffer = None  # released before the block is generated
            self._kept = self.generate(0, self.n_rows, None)
        self._passes += 1
        if self._kept is not None:
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
