"""Exception types shared across the library, and the seven input rules
that more than one module applies.

The CLI maps these onto process exit codes: InputError -> 1 and
NumericalError -> 3.  Non-convergence is not an exception: a solve that
stops at its iteration cap reports ``converged: false`` and the CLI exits 2.

A value is checked once, where it is used, except that an exported
builder keeps its own check, since a caller can reach it directly.  A
scalar rule takes only a real number, a ``numbers.Real`` other than
``bool`` (numpy scalars pass), so ``True``, ``None`` and ``"3"`` are
``InputError``s, not 1 or numpy's TypeError:

* ``check_positive``, a finite positive number: mu in both problems,
  ``build_rpc_preconditioner``, ``krill_from_sketch``, ``tail_rank`` and
  ``verify_rpc_theorem``, and mu_over_n in ``ExperimentConfig.validate``;
  the bandwidth in ``KernelSpec``; epsilon in ``pcg`` and, unless it is 0
  (the mode default), ``ExperimentConfig.validate``; a memory budget, a
  byte size that may be a float, in ``DatasetKernelOracle``, ``predict``
  and ``ExperimentConfig.validate``;
* ``check_fraction``, a number in the open interval (0, 1): delta in
  ``build_greedy_failure_matrix`` and ``verify_rpc_theorem``, and the test
  fraction in ``split_train_test`` and, unless it is 0 (no split),
  ``ExperimentConfig.validate``;
* ``check_count``, an integer in a range: the rank in ``build_factor``, the
  block size in ``PivotRule``, n and k in ``select_centers_uniform``,
  max_iter in ``pcg``, embedding_dim, n and embedding_nnz in
  ``build_embedding``, k in ``theory_params``, the diagnostics' n, dim and
  n_seeds, the workers of ``run_batch``, and the integer keys of
  ``ExperimentConfig.validate``, where 0 selects a default;
* ``rng``, a seed, at every draw, and in ``PivotRule`` when it is made; it
  must be None, a ``Generator`` or a nonnegative integer, not a bool;
* ``check_array``, a finite float64 array, before any work is done:
  features, the explicit matrix, point sets, targets, coefficients, what
  ``smape`` and ``test_error`` compare, ``pcg``'s b, eigenvalues,
  ``distortion_check``'s basis, the features and (mean, std) of
  ``standardization_params`` and ``apply_standardization``, the sketch and
  A(S,S) of ``krill_from_sketch`` and the M of
  ``precond_condition_number``;
* ``check_indices``, an index array of an integer dtype in range(n), so
  that a float is never truncated nor a boolean mask read as 0 and 1:
  rows and columns in ``KernelOracle.block``, the centers of
  ``RestrictedKrrProblem`` and ``Dataset.subset``'s indices;
* ``check_choice``, one of the allowed names, whose tuple is kept beside
  the code that implements them: the format in ``load_dataset``, the
  family in ``KernelSpec``, the kind in ``PivotRule``, the preconditioner
  in ``RestrictedKrrProblem``, the task in ``test_error``, the kind in
  ``separation_experiment`` and every name key of
  ``ExperimentConfig.validate``.
"""

import numbers

import numpy as np


class KrrSolveError(Exception):
    """Base class for all library errors."""


class InputError(KrrSolveError):
    """Invalid argument, configuration, or unreadable/malformed data."""


class NumericalError(KrrSolveError):
    """Numerical breakdown: non-finite values or loss of positive definiteness."""


def _is_real(value) -> bool:
    """Whether ``value`` is a ``numbers.Real`` other than ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(name: str, value) -> None:
    """Raise ``InputError`` unless ``value`` is a real number that is finite
    and positive."""
    if not (_is_real(value) and 0 < value < np.inf):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def check_fraction(name: str, value) -> None:
    """Raise ``InputError`` unless ``value`` is a real number in the open
    interval (0, 1)."""
    if not (_is_real(value) and 0 < value < 1):
        raise InputError(f"{name} must lie in (0, 1), got {value!r}")


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


def check_indices(idx, n: int) -> np.ndarray:
    """``idx`` as a flat int64 array of indices into range(n), or ``InputError``.

    Only an integer dtype is taken, or an empty array of any dtype (``[]``
    arrives as float64): casting would truncate 2.7 to 2 and read a boolean
    mask as the indices 0 and 1.
    """
    idx = np.asarray(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise InputError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"index out of range [0, {n}): {idx.min()}..{idx.max()}")
    return idx


def check_choice(name: str, value, choices: tuple) -> None:
    """Raise ``InputError``, naming ``name`` and ``choices``, unless
    ``value`` is one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise InputError(f"unknown {name} {value!r}: {name} must be one of "
                         f"{', '.join(choices)}")


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
