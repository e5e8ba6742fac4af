"""Exception types shared across the library, and the four input rules
that more than one module applies.

The CLI maps these onto process exit codes: InputError -> 1 and
NumericalError -> 3.  Non-convergence is not an exception: a solve that
stops at its iteration cap reports ``converged: false`` and the CLI exits 2.

A value is checked once, where it is used, except that an exported
builder keeps its own check, since a caller can reach it directly:

* mu: ``check_positive`` in both problems, ``build_rpc_preconditioner``,
  ``krill_from_sketch``, ``tail_rank`` and ``verify_rpc_theorem``, and
  mu_over_n in ``ExperimentConfig.validate``;
* bandwidth: ``KernelSpec``; epsilon: ``pcg``;
* a memory budget, a byte size that may be a float: ``check_positive`` in
  ``DatasetKernelOracle``, ``predict`` and ``ExperimentConfig.validate``;
* a seed: ``rng``, at every draw, and ``PivotRule`` when it is made; it
  must be None, a ``Generator`` or a nonnegative integer, not a bool;
* a count: ``check_count``.  The rank in ``build_factor``, the block size
  in ``PivotRule``, n and k in ``select_centers_uniform``, max_iter in
  ``pcg``, embedding_dim, n and embedding_nnz in ``build_embedding``, k in
  ``theory_params``, the diagnostics' n, dim and n_seeds, and the integer keys
  of ``ExperimentConfig.validate``, where 0 selects a default;
* an array: ``check_array``, before any work is done: features, the
  explicit matrix, point sets, targets, coefficients, what ``smape`` and
  ``test_error`` compare, ``pcg``'s b, eigenvalues and ``distortion_check``'s
  basis.  Index arrays have their own rule, ``kernels._as_indices``.
"""

import numbers

import numpy as np


class KrrSolveError(Exception):
    """Base class for all library errors."""


class InputError(KrrSolveError):
    """Invalid argument, configuration, or unreadable/malformed data."""


class NumericalError(KrrSolveError):
    """Numerical breakdown: non-finite values or loss of positive definiteness."""


def check_positive(name: str, value) -> None:
    """Raise ``InputError`` unless ``value`` is finite and positive."""
    if not 0 < value < np.inf:
        raise InputError(f"{name} must be finite and positive, got {value}")


def check_count(name: str, value, low: int = 1, high=None) -> int:
    """``value`` as an ``int``, or ``InputError`` unless it is an integer
    (a ``numbers.Integral`` other than ``bool``; numpy integers pass) with
    ``low <= value``, and ``value <= high`` when ``high`` is given."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    upper = "" if high is None else f" and <= {high}"
    raise InputError(f"need an integer {name} >= {low}{upper}, got {value!r}")


def check_array(name: str, value, ndim=1, length=None) -> np.ndarray:
    """``value`` as a float64 array, not copied if it is one, or
    ``InputError`` naming ``name``, a plural noun.  ``ndim=1`` ravels it,
    ``ndim=2`` requires a 2-d array with rows and ``ndim=None`` keeps its
    shape; ``length`` is the size its first axis must have, if given.  Every
    value must be finite."""
    array = np.asarray(value, dtype=np.float64)
    if ndim == 1:
        array = array.ravel()
    elif ndim == 2 and (array.ndim != 2 or len(array) < 1):
        raise InputError(f"{name} must be a nonempty N x dim array (2-d), got {array.shape}")
    if length is not None and len(array) != length:  # "targets": "target length"
        raise InputError(f"{name.removesuffix('s')} length is {len(array)}, need {length}")
    if not np.isfinite(array).all():
        raise InputError(f"{name} contain non-finite values")
    return array


def rng(seed=None) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the one way the library draws from a
    caller's seed.  The seed is None, a ``Generator``, returned as it is, or
    a nonnegative integer other than ``bool``; anything else is an
    ``InputError`` rather than numpy's ValueError or TypeError."""
    if seed is not None and not isinstance(seed, np.random.Generator):
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
            raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
        if seed < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)
