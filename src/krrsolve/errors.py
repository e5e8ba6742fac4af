"""Exception types shared across the library, and the seven input rules
that more than one module applies.

The CLI maps these onto process exit codes: InputError -> 1 and
NumericalError -> 3.  Non-convergence is not an exception: a solve that
stops at its iteration cap reports ``converged: false`` and the CLI exits 2.

A value is checked once, where it is used, except that an exported
builder keeps its own check, since a caller can reach it directly;
``tests/test_one_rule.py`` fails when an inline copy of a rule comes back.
Each rule accepts one kind of input:

* ``check_positive``, a finite positive number;
* ``check_fraction``, a number in the open interval (0, 1);
* ``check_count``, an integer in a range, returned as an ``int``;
* ``rng``, a seed: None, a ``Generator`` or a nonnegative integer;
* ``check_array``, an array of finite values, returned as float64, before
  any work is done;
* ``check_indices``, an index array of an integer dtype in range(n), so
  that a float is never truncated nor a boolean mask read as 0 and 1;
* ``check_choice``, one of the allowed names, whose tuple is kept beside
  the code that implements them.

A scalar rule takes only a real number, a ``numbers.Real`` other than
``bool`` (numpy scalars pass), so ``True``, ``None`` and ``"3"`` are
``InputError``s, not 1 or numpy's TypeError.
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
