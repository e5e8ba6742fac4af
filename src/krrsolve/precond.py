"""Preconditioners for the full-data and restricted regression systems.

Every preconditioner is held in one spectral form,

    P = U diag(sigma_sq) U^T + mu I,

and applied as P^{-1} v = U (c * U^T v) + v / mu with
c = 1/(sigma_sq + mu) - 1/mu, or as U (c * U^T v) with c = 1/sigma_sq when
there is no mu I term.

Full-data system (A + mu I) beta = y: the preconditioner is
P = A_hat + mu I where A_hat = F F^T comes from a partial Cholesky factor.
The build diagonalizes the r x r Gram matrix F^T F = V S^2 V^T and sets
U = F V S^{-1}, so that F F^T = U S^2 U^T with orthonormal U, and applies
the inverse in the Woodbury form above at O(N r) per application.  The
build costs O(N r^2) in two matrix products and an r x r eigensolve.

Restricted system (G + mu A_SS) beta = A(S,:) y with G = A(S,:) A(:,S):
the sketched preconditioner replaces G by Y^T Y with Y = Phi A(:,S) for a
sparse sign embedding Phi; the Monte Carlo baseline replaces it by
(N/k) A_SS^2.  Both diagonalize the k x k matrix P = W Lambda W^T and add
the stabilizer jitter * I, with jitter the first eps_mach * tr(P) * 10^j
(j = 0, 1, ...) that makes lambda_min + jitter positive, up to
1e-8 * tr(P); so U = W is square, sigma_sq = Lambda + jitter, and there is
no mu I term.  The two baselines differ only in how G is approximated.

Everything runs in numpy's BLAS and LAPACK, the library the kernel products
and PCG use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .lowrank import PartialCholeskyFactor

EPS_MACH = np.finfo(np.float64).eps


@dataclass
class SpectralPreconditioner:
    """P = U diag(sigma_sq) U^T + mu I held in factored form.

    With ``mu`` None there is no mu I term; U is then square and
    orthogonal and every sigma_sq is positive.
    """

    U: np.ndarray
    sigma_sq: np.ndarray
    mu: Optional[float] = None

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v for a vector or a stack of column vectors."""
        v = np.asarray(v, dtype=np.float64)
        if self.mu is None:
            coef = 1.0 / self.sigma_sq
        else:
            coef = 1.0 / (self.sigma_sq + self.mu) - 1.0 / self.mu
        w = self.U.T @ v
        w = coef[:, None] * w if w.ndim > 1 else coef * w
        w = self.U @ w
        return w if self.mu is None else w + v / self.mu


def build_rpc_preconditioner(factor: PartialCholeskyFactor, mu: float) -> SpectralPreconditioner:
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
    return SpectralPreconditioner(F @ (V * scale), np.maximum(lam, 0.0), float(mu))


def _stabilized_eigh(p: np.ndarray) -> SpectralPreconditioner:
    """P + jitter*I = W diag(lambda + jitter) W^T, the jitter escalated
    tenfold from eps_mach*tr(P) until lambda_min + jitter > 0, giving up
    past 1e-8*tr(P)."""
    trace = float(np.trace(p))
    if not 0 < trace < np.inf:
        raise NumericalError(f"preconditioner matrix has trace {trace}; "
                             "it must be finite and positive")
    lam, w = np.linalg.eigh(p)
    jitter = EPS_MACH * trace
    while not lam[0] + jitter > 0:
        jitter *= 10.0
        if not jitter <= 1e-8 * trace:
            raise NumericalError(
                "preconditioner matrix is not positive definite up to jitter "
                "1e-8*tr(P); problem is numerically degenerate")
    return SpectralPreconditioner(w, lam + jitter)


def krill_from_sketch(y_sketch: np.ndarray, a_ss: np.ndarray,
                      mu: float) -> SpectralPreconditioner:
    """Build the sketched preconditioner from Y = Phi A(:,S)."""
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    p = y_sketch.T @ y_sketch + mu * a_ss
    p = 0.5 * (p + p.T)
    return _stabilized_eigh(p)


def build_falkon(a_ss: np.ndarray, k: int, n: int, mu: float) -> SpectralPreconditioner:
    """Monte Carlo Gram estimate (N/k) A_SS^2 under uniform center sampling."""
    if not 0 < mu < np.inf:
        raise InputError(f"mu must be finite and positive, got {mu}")
    a_ss = np.asarray(a_ss, dtype=np.float64)
    if a_ss.shape != (k, k):
        raise InputError(f"A(S,S) must be {k} x {k}")
    g_hat = (n / k) * (a_ss @ a_ss)
    p = g_hat + mu * a_ss
    p = 0.5 * (p + p.T)
    return _stabilized_eigh(p)


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
    w_mat = m_half @ apply_inv(m_half)
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
