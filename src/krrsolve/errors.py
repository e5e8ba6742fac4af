"""Exception types shared across the library.

The CLI maps these onto process exit codes: InputError -> 1 and
NumericalError -> 3.  Non-convergence is not an exception: a solve that
stops at its iteration cap reports ``converged: false`` and the CLI exits 2.
"""


class KrrSolveError(Exception):
    """Base class for all library errors."""


class InputError(KrrSolveError):
    """Invalid argument, configuration, or unreadable/malformed data."""


class NumericalError(KrrSolveError):
    """Numerical breakdown: non-finite values or loss of positive definiteness."""
