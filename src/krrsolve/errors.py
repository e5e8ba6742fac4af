"""Exception types shared across the library, and the two input rules
that more than one module applies.

The CLI maps these onto process exit codes: InputError -> 1 and
NumericalError -> 3.  Non-convergence is not an exception: a solve that
stops at its iteration cap reports ``converged: false`` and the CLI exits 2.

A value is checked once, where it is used, except that an exported
builder keeps its own check, since a caller can reach it directly:

* mu: ``check_positive`` in both problems, ``build_rpc_preconditioner``,
  ``krill_from_sketch``, ``tail_rank`` and ``verify_rpc_theorem``, and
  mu_over_n in ``ExperimentConfig.validate``;
* bandwidth: ``KernelSpec``; epsilon: ``pcg``; rank: ``build_factor``;
* a seed: ``rng``, at every draw, and ``PivotRule`` when it is made; it
  must be None, a ``Generator`` or a nonnegative integer;
* embedding_dim and embedding_nnz: ``build_embedding``.
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
