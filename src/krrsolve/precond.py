"""Preconditioners for the full-data and restricted regression systems.

Every preconditioner is held in Cholesky form, as the inverse X = L^{-1} of
a lower-triangular factor, and comes in one of two modes.

Full data, (A + mu I) beta = y: the preconditioner is P = F F^T + mu I,
where A_hat = F F^T comes from a partial Cholesky factor F (N x r), held
as the transpose view of a row-major r x N array, so F^T is contiguous.
By the Woodbury identity (Frangella, Tropp and Udell, *Randomized Nystrom
preconditioning*),

    P^{-1} v = (v - F M^{-1} F^T v) / mu,   M = F^T F + mu I = L L^T,

applied as (v - F X^T (X F^T v)) / mu at O(N r) per application: F^T v
reads the rows of F^T in order, and F w reads them once more.  The build
is one SYRK for F^T F on those rows and one r x r inverse Cholesky
factorization, which forms X directly: O(N r^2 + r^3), with no
eigensolve and no N x r product beyond F itself.  When mu is tiny next to
||F||^2 this is also more accurate than diagonalizing F^T F: at
mu/N = 1e-7 on a clustered kernel P^{-1} v agrees with an SVD-of-F
reference to about 4e-15 relative, where the eigendecomposition gave
about 2e-12, and the preconditioned condition number is tested against
that reference down to mu/N = 1e-12.

Restricted system (G + mu A_SS) beta = A(S,:) y with G = A(S,:) A(:,S):
one builder, ``krill_from_sketch``, replaces G by Y^T Y for a sketch Y of
A(:,S).  KRILL takes Y = Phi A(:,S) for a sparse sign embedding Phi.
Falkon takes the uniform row sample Y = sqrt(N/k) A(S,S) that the centers
already are, so Y^T Y = (N/k) A_SS^2 is the Monte Carlo estimate of G; it
is unbiased only when the k centers are drawn uniformly from the N points.
The build factors the k x k matrix P + jitter I = L L^T, with
P = Y^T Y + mu A_SS and jitter the first eps_mach * tr(P) * 10^j
(j = 0, 1, ...) at which the factorization succeeds, up to
1e-8 * tr(P), and applies P^{-1} v = X^T (X v).  It costs one k x k
inverse Cholesky factorization per jitter tried.  The direct restricted
solve in ``krr`` factors the exact P = G + mu A_SS the same way, through
``_stabilized_cholesky``.

Everything runs in numpy's BLAS and LAPACK, the library the kernel
products and PCG use.  Every X comes from one routine,
``lowrank._inverse_cholesky``, which forms X = L^{-1} by a recursion on
matrix products and never forms L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError, check_array, check_positive
from .lowrank import PartialCholeskyFactor, _inverse_cholesky

EPS_MACH = np.finfo(np.float64).eps


@dataclass
class CholeskyPreconditioner:
    """P^{-1} through the inverse X = L^{-1} of a Cholesky factor.

    With ``F`` None, P + jitter I = L L^T and P^{-1} v = X^T (X v).  With
    ``F`` and ``mu``, P = F F^T + mu I, F^T F + mu I = L L^T and
    P^{-1} v = (v - F X^T (X F^T v)) / mu; ``jitter`` is then 0.
    """

    l_inv: np.ndarray
    F: Optional[np.ndarray] = None
    mu: Optional[float] = None
    jitter: float = 0.0

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v for a vector or a stack of column vectors."""
        v = np.asarray(v, dtype=np.float64)
        if self.F is None:
            return self.l_inv.T @ (self.l_inv @ v)
        w = self.l_inv @ (self.F.T @ v)
        return (v - self.F @ (self.l_inv.T @ w)) / self.mu


def build_rpc_preconditioner(factor: PartialCholeskyFactor, mu: float) -> CholeskyPreconditioner:
    """Woodbury form of (F F^T + mu I)^{-1} through the inverse X = L^{-1}
    of the Cholesky factor of F^T F + mu I.

    Raises NumericalError when F^T F + mu I is not numerically positive
    definite, which needs mu below roundoff in ||F||^2 and a numerically
    rank-deficient F.
    """
    check_positive("mu", mu)  # exported: a caller may pass a factor and mu directly
    if factor.rank < 1:
        raise InputError("factor has no columns")
    F = factor.F
    m = F.T @ F
    m[np.diag_indices_from(m)] += mu
    try:
        x = _inverse_cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"F^T F + mu I is not numerically positive definite at mu = {mu:g}: "
            "the factor's columns are numerically dependent and mu is below "
            "roundoff in F^T F") from None
    return CholeskyPreconditioner(x, F, float(mu))


def _stabilized_cholesky(p: np.ndarray) -> CholeskyPreconditioner:
    """The ``CholeskyPreconditioner`` of P: X = L^{-1} for the lower factor L
    of P + jitter*I = L L^T, with that jitter, escalated tenfold from
    eps_mach*tr(P) until the factorization succeeds, giving up past
    1e-8*tr(P).  A ``LinAlgError`` anywhere in ``_inverse_cholesky``'s
    recursion means P + jitter*I is not numerically positive definite, and
    the next jitter is tried.

    P is first symmetrized in place.  The jitter goes onto P's diagonal in
    place, set afresh from the saved diagonal before each try, and the saved
    diagonal is put back once a factorization succeeds, so P is left
    symmetrized and unshifted, and no caller edits it after that.
    """
    p += p.T  # numpy reads p.T from a copy, so this is 0.5 * (p + p.T) in place
    p *= 0.5
    trace = float(np.trace(p))
    if not 0 < trace < np.inf:
        raise NumericalError(f"preconditioner matrix has trace {trace}; "
                             "it must be finite and positive")
    diag = np.diag_indices_from(p)
    saved = p[diag]
    jitter = EPS_MACH * trace
    while True:
        p[diag] = saved + jitter
        try:
            x = _inverse_cholesky(p)
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if not jitter <= 1e-8 * trace:
                raise NumericalError(
                    "preconditioner matrix is not positive definite up to jitter "
                    "1e-8*tr(P); problem is numerically degenerate") from None
            continue
        p[diag] = saved
        return CholeskyPreconditioner(x, jitter=float(jitter))


def krill_from_sketch(y_sketch: np.ndarray, a_ss: np.ndarray,
                      mu: float) -> CholeskyPreconditioner:
    """Build the restricted preconditioner Y^T Y + mu A_SS from a sketch Y
    (d x k) of A(:,S) and the k x k A_SS: Y = Phi A(:,S) for KRILL, and
    Y = sqrt(N/k) A_SS for Falkon.

    P is formed and symmetrized in one k x k array, which is released once
    ``_stabilized_cholesky`` has returned X = L^{-1} with its jitter.
    """
    check_positive("mu", mu)  # exported; verify_krill_theorem passes mu unchecked
    a_ss = check_array("A(S,S) entries", a_ss, ndim=2)
    k = a_ss.shape[0]
    if a_ss.shape[1] != k:
        raise InputError(f"A(S,S) must be square, got shape {a_ss.shape}")
    y_sketch = check_array("sketch entries", y_sketch, ndim=2)
    if y_sketch.shape[1] != k:
        raise InputError(f"the sketch must have one column per center; "
                         f"got shape {y_sketch.shape} for {k} centers")
    p = y_sketch.T @ y_sketch
    del y_sketch  # frees Y here when the caller passed its only reference
    p += mu * a_ss
    return _stabilized_cholesky(p)


def precond_condition_number(m: np.ndarray, apply_inv) -> float:
    """Condition number of the symmetrically preconditioned matrix.

    Computes the extreme eigenvalues of the pencil M z = lambda P z through
    the symmetric form M^{1/2} P^{-1} M^{1/2}, which shares its spectrum
    with P^{-1/2} M P^{-1/2}.
    """
    m = check_array("M entries", m, ndim=2)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"M must be square, got shape {m.shape}")
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
