"""Preconditioners for the full-data and restricted regression systems.

Full-data system (A + mu I) beta = y: the preconditioner is
P = A_hat + mu I where A_hat = F F^T comes from a partial Cholesky factor.
The build diagonalizes the r x r Gram matrix F^T F = V S^2 V^T and sets
U = F V S^{-1}, so that F F^T = U S^2 U^T with orthonormal U.  The inverse
is then applied in the Woodbury form

    P^{-1} v = U [(S^2 + mu I)^{-1} - mu^{-1} I] U^T v + mu^{-1} v,

which costs O(N r) per application.  The build costs O(N r^2) in two
matrix products and an r x r eigensolve, all in numpy's BLAS.

Restricted system (G + mu A_SS) beta = A(S,:) y with G = A(S,:) A(:,S):
the sketched preconditioner replaces G by Y^T Y with Y = Phi A(:,S) for a
sparse sign embedding Phi; the Monte Carlo baseline replaces it by
(N/k) A_SS^2.  Both are Cholesky-factored after adding the stabilizer
eps_mach * tr(P) * I, with the jitter escalated when the factorization
fails, so the two baselines differ only in how G is approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from .errors import InputError, NumericalError
from .lowrank import PartialCholeskyFactor

EPS_MACH = np.finfo(np.float64).eps


@dataclass
class RpcPreconditioner:
    """P = U S^2 U^T + mu I held in factored form."""

    U: np.ndarray
    sigma_sq: np.ndarray
    mu: float

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v for a vector or a stack of column vectors."""
        v = np.asarray(v, dtype=np.float64)
        coef = 1.0 / (self.sigma_sq + self.mu) - 1.0 / self.mu
        w = self.U.T @ v
        w = coef[:, None] * w if w.ndim > 1 else coef * w
        return self.U @ w + v / self.mu


@dataclass
class TriangularPreconditioner:
    """Preconditioner held as a lower Cholesky factor C with C C^T = P."""

    C: np.ndarray

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        w = solve_triangular(self.C, v, lower=True)
        return solve_triangular(self.C, w, lower=True, trans="T")


def build_rpc_preconditioner(factor: PartialCholeskyFactor, mu: float) -> RpcPreconditioner:
    """Orthonormal eigenbasis of F F^T from the eigendecomposition of F^T F.

    With F^T F = V S^2 V^T, U = F V S^{-1} and sigma_sq = S^2.  Eigenvalues
    that roundoff leaves at or below zero get a zero column and sigma_sq 0;
    their coefficient 1/(sigma_sq + mu) - 1/mu is 0, so they drop out and
    the inverse acts as 1/mu on what the factor does not span.

    Forming F^T F squares the condition number of F, so when mu is tiny
    next to the largest sigma_sq, P^{-1} v is less accurate than through
    an SVD of F.  The preconditioned condition number, which is what PCG
    depends on, is tested against an SVD reference down to mu/N = 1e-12.
    """
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    if factor.rank < 1:
        raise InputError("factor has no columns")
    F = factor.F
    lam, V = np.linalg.eigh(F.T @ F)
    scale = np.zeros_like(lam)
    pos = lam > 0
    scale[pos] = 1.0 / np.sqrt(lam[pos])
    return RpcPreconditioner(F @ (V * scale), np.maximum(lam, 0.0), float(mu))


def _stabilized_cholesky(p: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of P + jitter*I, escalating the jitter tenfold
    from eps_mach*tr(P) up to 1e-8*tr(P) before giving up."""
    trace = float(np.trace(p))
    if not np.isfinite(trace):
        raise NumericalError("preconditioner matrix has non-finite trace")
    jitter = EPS_MACH * trace
    eye = np.eye(p.shape[0])
    while jitter <= 1e-8 * trace:
        try:
            return cholesky(p + jitter * eye, lower=True)
        except LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        "Cholesky failed up to jitter 1e-8*tr(P); problem is numerically degenerate"
    )


def krill_from_sketch(y_sketch: np.ndarray, a_ss: np.ndarray,
                      mu: float) -> TriangularPreconditioner:
    """Build the sketched preconditioner from Y = Phi A(:,S)."""
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    p = y_sketch.T @ y_sketch + mu * a_ss
    p = 0.5 * (p + p.T)
    return TriangularPreconditioner(_stabilized_cholesky(p))


def build_falkon(a_ss: np.ndarray, k: int, n: int, mu: float) -> TriangularPreconditioner:
    """Monte Carlo Gram estimate (N/k) A_SS^2 under uniform center sampling."""
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    a_ss = np.asarray(a_ss, dtype=np.float64)
    if a_ss.shape != (k, k):
        raise InputError(f"A(S,S) must be {k} x {k}")
    g_hat = (n / k) * (a_ss @ a_ss)
    p = g_hat + mu * a_ss
    p = 0.5 * (p + p.T)
    return TriangularPreconditioner(_stabilized_cholesky(p))


def precond_condition_number(m: np.ndarray, apply_inv) -> float:
    """Condition number of the symmetrically preconditioned matrix.

    Computes the extreme eigenvalues of the pencil M z = lambda P z through
    the symmetric form M^{1/2} P^{-1} M^{1/2}, which shares its spectrum
    with P^{-1/2} M P^{-1/2}.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("M must be square")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if not np.isfinite(w).all():
        raise NumericalError("non-finite eigenvalues of M")
    m_half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    x = apply_inv(m_half)
    if np.shape(x) != m_half.shape:  # vector-only preconditioner action
        x = np.column_stack([apply_inv(col) for col in m_half.T])
    w_mat = m_half @ x
    if not np.isfinite(w_mat).all():
        raise NumericalError("preconditioner action produced non-finite values")
    try:
        evals = np.linalg.eigvalsh(0.5 * (w_mat + w_mat.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from None
    if not np.isfinite(evals).all():
        raise NumericalError("non-finite eigenvalues of the preconditioned matrix")
    if evals[-1] <= 0:
        raise NumericalError("preconditioned matrix is not positive definite")
    return float(evals[-1] / evals[0]) if evals[0] > 0 else float("inf")
