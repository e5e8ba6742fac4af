"""Preconditioned conjugate gradient over abstract operator actions.

The loop follows the classic recursion: starting from beta = 0, r = b,
z = P^{-1} r, p = z, omega = z.r, it repeats

    v = M p
    eta = omega / p.v;  beta += eta p;  r -= eta v
    z = P^{-1} r
    gamma = z.r / omega;  omega = z.r;  p = z + gamma p

while ||r|| >= eps ||b||.  The stopping test uses the recursively updated
residual; callers can ask for a periodic true-residual recomputation to
monitor drift, which never affects stopping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class LinearOperator:
    """Dimension plus a symmetric psd action v -> Mv."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass
class SolveReport:
    """Outcome of one solve: solution, residual trace, and timings.

    ``residual_history[t]`` is ||r_t|| / ||b|| so the history has
    ``iterations + 1`` entries including the initial residual.
    """

    solution: np.ndarray
    residual_history: np.ndarray
    iterations: int
    converged: bool
    wall_time: float
    meta: dict = field(default_factory=dict)


def pcg(product: LinearOperator, b: np.ndarray, epsilon: float,
        precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        max_iter: int = 250,
        callback: Optional[Callable[[int, np.ndarray], None]] = None,
        true_residual_every: int = 0) -> SolveReport:
    """Solve M beta = b to relative residual ``epsilon``.

    ``precond`` is the inverse action v -> P^{-1} v (identity when None).
    ``callback(t, beta_t)`` is invoked at every iterate including the
    initial one.  ``true_residual_every`` > 0 records ||b - M beta|| / ||b||
    every that many iterations in ``meta['true_residual_drift']``.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != product.n:
        raise InputError(f"b must be a length-{product.n} vector")
    if not np.isfinite(b).all():
        raise InputError("right-hand side contains non-finite values")
    if precond is None:
        precond = lambda v: v

    start = time.perf_counter()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return SolveReport(np.zeros_like(b), np.array([0.0]), 0, True,
                           time.perf_counter() - start)

    beta = np.zeros_like(b)
    r = b.copy()
    z = np.asarray(precond(r), dtype=np.float64)
    p = z.copy()
    omega = float(z @ r)
    history = [1.0]
    drift = []
    if callback is not None:
        callback(0, beta.copy())

    t = 0
    while history[-1] >= epsilon and t < max_iter:
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
        beta += eta * p
        r -= eta * v
        if not np.isfinite(r).all():
            raise NumericalError(f"non-finite iterate at iteration {t + 1}")
        z = np.asarray(precond(r), dtype=np.float64)
        omega_new = float(z @ r)
        gamma = omega_new / omega
        omega = omega_new
        p = z + gamma * p
        t += 1
        history.append(float(np.linalg.norm(r) / b_norm))
        if callback is not None:
            callback(t, beta.copy())
        if true_residual_every and t % true_residual_every == 0:
            true_rel = float(np.linalg.norm(b - product.apply(beta)) / b_norm)
            drift.append((t, true_rel))

    report = SolveReport(beta, np.asarray(history), t, history[-1] < epsilon,
                         time.perf_counter() - start)
    if drift:
        report.meta["true_residual_drift"] = drift
    return report
