"""Preconditioned conjugate gradient over abstract operator actions.

The loop follows the classic recursion: starting from beta = 0, r = b,
it repeats

    z = P^{-1} r
    p = z on the first pass, else gamma = z.r / omega;  p = z + gamma p
    omega = z.r
    v = M p
    eta = omega / p.v;  beta += eta p;  r -= eta v

while ||r|| >= eps ||b||.  The stopping test uses the recursively updated
residual, and comes before the next P^{-1} r, so a solve of t iterations
applies P^{-1} t times.  The loop is deterministic, so iterate t of a
solve is the solution of the same call with ``max_iter=t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, check_array, check_count, check_positive


@dataclass(frozen=True)
class LinearOperator:
    """Dimension plus a symmetric psd action v -> Mv."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass
class SolveReport:
    """Outcome of one solve: solution, residual trace and solver records.

    ``residual_history[t]`` is ||r_t|| / ||b|| so the history has
    ``iterations + 1`` entries including the initial residual.  ``pcg``
    reads no clock; the KRR solvers record in ``meta`` their whole call as
    ``solve_time`` and the part before PCG as ``preconditioner_build_time``.
    """

    solution: np.ndarray
    residual_history: np.ndarray
    iterations: int
    converged: bool
    meta: dict = field(default_factory=dict)


def pcg(product: LinearOperator, b: np.ndarray, epsilon: float,
        precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        max_iter: int = 250) -> SolveReport:
    """Solve M beta = b to relative residual ``epsilon``, 0 < epsilon < inf.

    ``precond`` is the inverse action v -> P^{-1} v (identity when None).
    """
    check_positive("epsilon", epsilon)
    max_iter = check_count("max_iter", max_iter)
    b = check_array("right-hand side values", b, length=product.n)
    if precond is None:
        precond = lambda v: v

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return SolveReport(np.zeros_like(b), np.array([0.0]), 0, True)

    beta = np.zeros_like(b)
    r = b.copy()
    p = None
    history = [1.0]

    t = 0
    while history[-1] >= epsilon and t < max_iter:
        z = np.asarray(precond(r), dtype=np.float64)
        omega_new = float(z @ r)
        p = z.copy() if p is None else z + (omega_new / omega) * p
        omega = omega_new
        if omega <= 0 or not np.isfinite(omega):
            raise NumericalError(
                f"breakdown at iteration {t}: preconditioned inner product "
                f"z.r = {omega:g} (loss of positive definiteness)"
            )
        v = product.apply(p)
        pv = float(p @ v)
        if pv <= 0 or not np.isfinite(pv):
            raise NumericalError(
                f"breakdown at iteration {t}: curvature p.Mp = {pv:g}"
            )
        eta = omega / pv
        # an overflow is left to the check below, so it is a NumericalError
        # and not numpy's warning, which may be raised as an error
        with np.errstate(over="ignore", invalid="ignore"):
            beta += eta * p
            r -= eta * v
        if not np.isfinite(r).all():
            raise NumericalError(f"non-finite iterate at iteration {t + 1}")
        t += 1
        history.append(float(np.linalg.norm(r) / b_norm))

    return SolveReport(beta, np.asarray(history), t, history[-1] < epsilon)
