import numpy as np
import pytest
import scipy.sparse as sp

from krrsolve.errors import InputError, NumericalError
from krrsolve.kernels import ExplicitMatrixOracle
from krrsolve.lowrank import PartialCholeskyFactor, rpcholesky, trace_residual
from krrsolve.precond import (
    EPS_MACH,
    build_falkon,
    build_rpc_preconditioner,
    krill_from_sketch,
    precond_condition_number,
)
from krrsolve.sketch import apply_embedding, build_embedding


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, rank or n))
    return x @ x.T


def factor(F, pivots):
    """A factor for tests that do not read its residual diagonal."""
    return PartialCholeskyFactor(F, pivots, np.zeros(F.shape[0]))


class IdentityEmbedding:
    """Test stub: Phi = I, so the sketch is exact."""

    def __init__(self, n):
        self.n = n
        self.d = n

    def matrix(self):
        return sp.identity(self.n, format="csr")


class TestRpcPreconditioner:
    def test_zero_factor_acts_as_scaled_identity(self):
        f = factor(np.zeros((10, 3)), np.arange(3))
        pre = build_rpc_preconditioner(f, mu=0.25)
        v = np.arange(10.0)
        np.testing.assert_allclose(pre.apply_inverse(v), v / 0.25, rtol=1e-14)

    def test_full_rank_factor_gives_kappa_one(self):
        a = random_psd(30, seed=0)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 30, 5, seed=1)
        mu = 1e-3 * np.trace(a) / 30
        pre = build_rpc_preconditioner(f, mu)
        m = a + mu * np.eye(30)
        assert precond_condition_number(m, pre.apply_inverse) == pytest.approx(1.0, abs=1e-6)

    def test_svd_reproduces_gram(self):
        rng = np.random.default_rng(2)
        f = factor(rng.standard_normal((50, 5)), np.arange(5))
        pre = build_rpc_preconditioner(f, mu=0.5)
        gram = (pre.U * pre.sigma_sq) @ pre.U.T
        np.testing.assert_allclose(
            gram, f.F @ f.F.T, atol=1e-10 * np.sum(f.F**2))

    def test_eigenvector_action(self):
        rng = np.random.default_rng(3)
        f = factor(rng.standard_normal((20, 4)), np.arange(4))
        mu = 0.7
        pre = build_rpc_preconditioner(f, mu)
        for j in range(4):
            u = pre.U[:, j]
            s = pre.sigma_sq[j]
            np.testing.assert_allclose(pre.apply_inverse(u), u / (s + mu), rtol=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        f = factor(rng.standard_normal((40, 7)), np.arange(7))
        mu = 0.05
        pre = build_rpc_preconditioner(f, mu)
        p = f.F @ f.F.T + mu * np.eye(40)
        v = rng.standard_normal(40)
        expect = np.linalg.solve(p, v)
        got = pre.apply_inverse(v)
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_matrix_apply_matches_columns(self):
        rng = np.random.default_rng(5)
        f = factor(rng.standard_normal((15, 3)), np.arange(3))
        pre = build_rpc_preconditioner(f, mu=0.2)
        mat = rng.standard_normal((15, 4))
        cols = np.column_stack([pre.apply_inverse(mat[:, j]) for j in range(4)])
        np.testing.assert_allclose(pre.apply_inverse(mat), cols, rtol=1e-12)

    def test_preconditions_requested(self):
        f = factor(np.zeros((5, 0)), np.array([], dtype=np.int64))
        with pytest.raises(InputError):
            build_rpc_preconditioner(f, 0.5)
        f2 = factor(np.ones((5, 1)), np.array([0]))
        with pytest.raises(InputError):
            build_rpc_preconditioner(f2, 0.0)


class TestKrill:
    def test_identity_embedding_gives_exact_system(self):
        rng = np.random.default_rng(6)
        n, k, mu = 60, 8, 0.1
        a = random_psd(n, seed=7)
        cols = a[:, :k]
        a_ss = a[:k, :k]
        pre = krill_from_sketch(apply_embedding(IdentityEmbedding(n), cols), a_ss, mu)
        m = cols.T @ cols + mu * a_ss
        kappa = precond_condition_number(m, pre.apply_inverse)
        assert kappa == pytest.approx(1.0, abs=1e-6)

    def test_scalar_case(self):
        rng = np.random.default_rng(8)
        n, mu = 25, 0.3
        a_col = rng.standard_normal((n, 1))
        a_ss = np.array([[2.0]])
        phi = build_embedding(10, n, 4, seed=0)
        pre = krill_from_sketch(apply_embedding(phi, a_col), a_ss, mu)
        y = phi.matrix() @ a_col
        p_scalar = float((y.T @ y)[0, 0] + mu * 2.0)
        v = np.array([6.0])
        assert pre.apply_inverse(v)[0] == pytest.approx(
            6.0 / (p_scalar + EPS_MACH * p_scalar), rel=1e-10)

    def test_cholesky_reproduces_stabilized_matrix(self):
        rng = np.random.default_rng(9)
        n, k, mu = 80, 12, 0.05
        cols = rng.standard_normal((n, k))
        a_ss = random_psd(k, seed=10)
        phi = build_embedding(2 * k, n, 8, seed=1)
        pre = krill_from_sketch(apply_embedding(phi, cols), a_ss, mu)
        y = phi.matrix() @ cols
        p = y.T @ y + mu * a_ss
        assert np.all(np.diag(pre.C) > 0)
        np.testing.assert_allclose(np.triu(pre.C, 1), 0.0)
        np.testing.assert_allclose(
            pre.C @ pre.C.T, p + EPS_MACH * np.trace(p) * np.eye(k),
            atol=1e-8 * np.trace(p))

    def test_triangular_inverse_identity(self):
        from krrsolve.precond import TriangularPreconditioner

        pre = TriangularPreconditioner(np.eye(4))
        v = np.arange(4.0)
        np.testing.assert_array_equal(pre.apply_inverse(v), v)

    def test_triangular_inverse_scalar(self):
        from krrsolve.precond import TriangularPreconditioner

        pre = TriangularPreconditioner(np.array([[2.0]]))
        np.testing.assert_allclose(pre.apply_inverse(np.array([6.0])), [1.5])

    def test_triangular_inverse_matches_dense(self):
        a = random_psd(40, seed=11) + 40 * np.eye(40)
        pre = krill_from_sketch(np.linalg.cholesky(a).T, np.zeros((40, 40)), 1.0)
        # mu * 0 contributes nothing: P = L L^T = a (plus stabilizer)
        v = np.random.default_rng(12).standard_normal(40)
        expect = np.linalg.solve(a + EPS_MACH * np.trace(a) * np.eye(40), v)
        assert np.linalg.norm(pre.apply_inverse(v) - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_degenerate_matrix_raises_after_jitter_escalation(self):
        bad = -np.eye(3)  # not psd; no jitter within range can fix it
        with pytest.raises(NumericalError):
            krill_from_sketch(np.zeros((5, 3)), bad, 1.0)


class TestFalkon:
    def test_no_subsampling_limit(self):
        a = random_psd(12, seed=13)
        pre = build_falkon(a, k=12, n=12, mu=0.4)
        p = a @ a + 0.4 * a
        np.testing.assert_allclose(
            pre.C @ pre.C.T, p + EPS_MACH * np.trace(p) * np.eye(12),
            atol=1e-8 * np.trace(p))

    def test_hand_monte_carlo_scale(self):
        a_ss = np.array([[1.0, 0.5], [0.5, 1.0]])
        pre = build_falkon(a_ss, k=2, n=10, mu=1e-6)
        g_hat = 5.0 * (a_ss @ a_ss)
        p = g_hat + 1e-6 * a_ss
        np.testing.assert_allclose(
            pre.C @ pre.C.T, p + EPS_MACH * np.trace(p) * np.eye(2),
            rtol=1e-12)

    def test_preconditioner_is_psd(self):
        a_ss = random_psd(9, seed=14)
        a_ss /= np.abs(a_ss).max()
        np.fill_diagonal(a_ss, 1.0)
        a_ss = 0.5 * (a_ss + a_ss.T)
        pre = build_falkon(a_ss, k=9, n=100, mu=0.01)
        p = pre.C @ pre.C.T
        assert np.linalg.eigvalsh(p).min() >= -1e-10 * np.trace(p)


class TestConditionNumber:
    def test_perfect_preconditioner(self):
        m = random_psd(12, seed=15) + np.eye(12)
        inv = np.linalg.inv(m)
        assert precond_condition_number(m, lambda v: inv @ v) == pytest.approx(1.0, abs=1e-8)

    def test_identity_preconditioner_diag(self):
        m = np.diag([1.0, 4.0])
        assert precond_condition_number(m, lambda v: v) == pytest.approx(4.0, rel=1e-12)

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        with pytest.raises(NumericalError):
            precond_condition_number(m, lambda v: v * np.nan)


class TestConditionBoundInvariants:
    """Deterministic two-sided bounds for Nystrom preconditioners."""

    @pytest.mark.parametrize("seed", range(4))
    def test_eq_condition_bound_every_rule(self, seed):
        from krrsolve.lowrank import greedy_cholesky, uniform_nystrom

        rng = np.random.default_rng(seed)
        lam = rng.uniform(0, 1, 60) ** (seed + 1)
        lam = np.sort(lam)[::-1]
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
        o = ExplicitMatrixOracle(a)
        for mu_scale in (1e-1, 1e-4):
            mu = mu_scale * np.trace(a) / 60
            m = a + mu * np.eye(60)
            for factor in (rpcholesky(o, 10, 3, seed=seed),
                           greedy_cholesky(o, 10),
                           uniform_nystrom(o, 10, seed=seed)):
                pre = build_rpc_preconditioner(factor, mu)
                kappa = precond_condition_number(m, pre.apply_inverse)
                bound = 1.0 + trace_residual(o, factor) / mu
                assert kappa <= bound + 1e-6
                # lower bound: preconditioned spectrum starts at 1
                mh = _sqrtm(m)
                w = np.linalg.eigvalsh(mh @ pre.apply_inverse(mh))
                assert w.min() >= 1.0 - 1e-8

    def test_krill_conditional_kappa_bound(self):
        from krrsolve.sketch import distortion_check, theory_params

        rng = np.random.default_rng(20)
        n, k, mu = 400, 10, 1e-4
        cols = rng.standard_normal((n, k)) @ np.diag(10.0 ** -np.arange(k, dtype=float))
        a_ss = cols[:k] @ cols[:k].T * 1e-3 + np.eye(k)
        a_ss = 0.5 * (a_ss + a_ss.T)
        m = cols.T @ cols + mu * a_ss
        basis = np.linalg.qr(cols)[0]
        d, zeta = theory_params(k)
        checked = 0
        for seed in range(30):
            phi = build_embedding(d, n, zeta, seed=seed)
            lo, hi = distortion_check(phi, basis)
            if not (lo >= 0.5 and hi <= 1.5):
                continue
            pre = krill_from_sketch(apply_embedding(phi, cols), a_ss, mu)
            kappa = precond_condition_number(m, pre.apply_inverse)
            assert kappa <= 3.0 + 1e-6
            checked += 1
        assert checked > 0


def _sqrtm(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.T
