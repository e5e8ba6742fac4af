"""Exception types shared across the library, and the three input rules
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
  must be None, a ``Generator`` or a nonnegative integer;
* a count: ``check_count``.  The rank in ``build_factor``, the block size
  in ``PivotRule``, n and k in ``select_centers_uniform``, max_iter in
  ``pcg``, embedding_dim, n and embedding_nnz in ``build_embedding``, k in
  ``theory_params``, the diagnostics' n, dim and n_seeds, and the integer keys
  of ``ExperimentConfig.validate``, where 0 selects a default.
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


def rng(seed=None) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the one way the library draws from a
    caller's seed.  The seed is None, a ``Generator``, returned as it is, or
    a nonnegative integer; anything else is an ``InputError`` rather than
    numpy's ValueError or TypeError."""
    if seed is not None and not isinstance(seed, np.random.Generator):
        if not isinstance(seed, numbers.Integral):
            raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
        if seed < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)
