import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky

import krrsolve.precond as precond_module

from krrsolve.diagnostics import clustered_dataset
from krrsolve.errors import InputError, NumericalError
from krrsolve.kernels import DatasetKernelOracle, ExplicitMatrixOracle, KernelSpec
from krrsolve.lowrank import (
    GREEDY,
    UNIFORM,
    PartialCholeskyFactor,
    PivotRule,
    build_factor,
    trace_residual,
)
from krrsolve.precond import (
    _TRIANGULAR_BASE,
    EPS_MACH,
    CholeskyPreconditioner,
    _lower_triangular_inverse,
    build_falkon,
    build_rpc_preconditioner,
    krill_from_sketch,
    precond_condition_number,
)
from krrsolve.sketch import build_embedding

BAD_MU = [np.nan, np.inf, 0.0, -1.0]


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, rank or n))
    return x @ x.T


def factor(F, pivots):
    """A factor for tests that do not read its residual diagonal."""
    return PartialCholeskyFactor(F, pivots, np.zeros(F.shape[0]))


class TestRpcPreconditioner:
    def test_zero_factor_acts_as_scaled_identity(self):
        f = factor(np.zeros((10, 3)), np.arange(3))
        pre = build_rpc_preconditioner(f, mu=0.25)
        v = np.arange(10.0)
        np.testing.assert_allclose(pre.apply_inverse(v), v / 0.25, rtol=1e-14)

    def test_full_rank_factor_gives_kappa_one(self):
        a = random_psd(30, seed=0)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 30, PivotRule(block_size=5, seed=1))
        mu = 1e-3 * np.trace(a) / 30
        pre = build_rpc_preconditioner(f, mu)
        m = a + mu * np.eye(30)
        assert precond_condition_number(m, pre.apply_inverse) == pytest.approx(1.0, abs=1e-6)

    def test_svd_reproduces_gram(self):
        rng = np.random.default_rng(2)
        f = factor(rng.standard_normal((50, 5)), np.arange(5))
        pre = build_rpc_preconditioner(f, mu=0.5)
        U, sigma, _ = np.linalg.svd(f.F, full_matrices=False)
        gram = np.linalg.inv(pre.apply_inverse(np.eye(50))) - 0.5 * np.eye(50)
        np.testing.assert_allclose(
            gram, (U * sigma**2) @ U.T, atol=1e-10 * np.sum(f.F**2))

    def test_eigenvector_action(self):
        rng = np.random.default_rng(3)
        f = factor(rng.standard_normal((20, 4)), np.arange(4))
        mu = 0.7
        pre = build_rpc_preconditioner(f, mu)
        U, sigma, _ = np.linalg.svd(f.F, full_matrices=False)
        for j in range(4):
            u = U[:, j]
            s = sigma[j] ** 2
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

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_mu_must_be_finite_and_positive(self, mu):
        f = factor(np.eye(4)[:, :2], np.arange(2))
        with pytest.raises(InputError, match="mu"):
            build_rpc_preconditioner(f, mu)

    def test_rank_deficient_gram_below_roundoff_raises_numerical_error(self):
        # a repeated column with squared norm 4: F^T F + mu I is [[4, 4], [4, 4]]
        # in floating point, and its Cholesky factorization breaks down exactly
        f = factor(np.ones((4, 2)), np.arange(2))
        with pytest.raises(NumericalError, match="positive definite"):
            build_rpc_preconditioner(f, 1e-300)


TINY_N = 600
TINY_RANK = 200


@pytest.fixture(scope="module", params=["clustered", "cloud"])
def kernel_and_factor(request):
    """A squared-exponential kernel matrix and an RPCholesky factor of it."""
    if request.param == "clustered":
        x = clustered_dataset(TINY_N, 10, seed=0)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        spec = KernelSpec(bandwidth=1.0)
    else:
        x = np.random.default_rng(0).standard_normal((TINY_N, 20))
        spec = KernelSpec(bandwidth=3.0)
    oracle = DatasetKernelOracle(x, spec)
    a = oracle.block(np.arange(TINY_N), np.arange(TINY_N))
    return 0.5 * (a + a.T), build_factor(oracle, TINY_RANK, PivotRule(seed=1))


class TestRpcPreconditionerTinyMu:
    """The Cholesky-form build against an SVD-of-F reference."""

    @pytest.mark.parametrize("mu_over_n", [1e-7, 1e-10, 1e-12])
    def test_matches_svd_reference(self, kernel_and_factor, mu_over_n):
        a, f = kernel_and_factor
        assert f.rank == TINY_RANK
        mu = mu_over_n * TINY_N
        pre = build_rpc_preconditioner(f, mu)
        # P^{-1} = U diag(1/(sigma^2 + mu) - 1/mu) U^T + I/mu from F = U S W^T
        U, sigma, _ = np.linalg.svd(f.F, full_matrices=False)
        coef = 1.0 / (sigma**2 + mu) - 1.0 / mu

        def ref_apply_inverse(v):
            w = U.T @ v
            return U @ (coef[:, None] * w if w.ndim > 1 else coef * w) + v / mu

        p_inv = pre.apply_inverse(np.eye(TINY_N))
        np.testing.assert_allclose(p_inv, p_inv.T, rtol=0, atol=1e-12 / mu)
        assert np.linalg.eigvalsh(0.5 * (p_inv + p_inv.T)).min() > 0

        m = a + mu * np.eye(TINY_N)
        kappa = precond_condition_number(m, pre.apply_inverse)
        assert kappa == pytest.approx(precond_condition_number(m, ref_apply_inverse),
                                      rel=1e-2)
        if mu_over_n == 1e-7:
            v = np.random.default_rng(2).standard_normal(TINY_N)
            expect = ref_apply_inverse(v)
            assert (np.linalg.norm(pre.apply_inverse(v) - expect)
                    <= 1e-8 * np.linalg.norm(expect))


def _well_conditioned_lower(n, seed):
    """Cholesky factor of a Wishart matrix with twice as many samples as n."""
    g = np.random.default_rng(seed).standard_normal((2 * n, n))
    return np.linalg.cholesky(g.T @ g / (2 * n))


class TestLowerTriangularInverse:
    @pytest.mark.parametrize("n", [1, _TRIANGULAR_BASE - 1, _TRIANGULAR_BASE,
                                   _TRIANGULAR_BASE + 1, 1000])
    def test_matches_dense_inverse_and_is_lower_triangular(self, n):
        l = _well_conditioned_lower(n, seed=n)
        x = _lower_triangular_inverse(l)
        assert np.all(np.triu(x, 1) == 0)
        expect = np.linalg.inv(l)
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("kernel_and_factor", ["clustered"], indirect=True)
    def test_backward_error_on_the_tiny_mu_factor(self, kernel_and_factor):
        # the factor the full-data build inverts at mu/N = 1e-12, where
        # F^T F + mu I has condition number near 1e8
        _, f = kernel_and_factor
        m = f.F.T @ f.F + 1e-12 * TINY_N * np.eye(f.rank)
        l = np.linalg.cholesky(m)
        x = _lower_triangular_inverse(l)
        assert np.linalg.cond(l) > 1e3
        assert np.linalg.norm(x @ l - np.eye(f.rank), 2) <= EPS_MACH * f.rank


class TestKrill:
    def test_identity_embedding_gives_exact_system(self):
        rng = np.random.default_rng(6)
        n, k, mu = 60, 8, 0.1
        a = random_psd(n, seed=7)
        cols = a[:, :k]
        a_ss = a[:k, :k]
        pre = krill_from_sketch(sp.identity(n, format="csc") @ cols, a_ss, mu)
        m = cols.T @ cols + mu * a_ss
        kappa = precond_condition_number(m, pre.apply_inverse)
        assert kappa == pytest.approx(1.0, abs=1e-6)

    def test_scalar_case(self):
        rng = np.random.default_rng(8)
        n, mu = 25, 0.3
        a_col = rng.standard_normal((n, 1))
        a_ss = np.array([[2.0]])
        phi = build_embedding(10, n, 4, seed=0)
        pre = krill_from_sketch(phi @ a_col, a_ss, mu)
        y = phi @ a_col
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
        pre = krill_from_sketch(phi @ cols, a_ss, mu)
        y = phi @ cols
        p = y.T @ y + mu * a_ss
        assert pre.jitter == pytest.approx(EPS_MACH * np.trace(p), rel=1e-12)
        assert np.all(np.triu(pre.l_inv, 1) == 0)
        assert np.all(np.diag(pre.l_inv) > 0)
        np.testing.assert_allclose(
            _rebuilt(pre), p + EPS_MACH * np.trace(p) * np.eye(k),
            atol=1e-8 * np.trace(p))

    def test_triangular_inverse_identity(self):
        pre = CholeskyPreconditioner(np.eye(4))
        v = np.arange(4.0)
        np.testing.assert_array_equal(pre.apply_inverse(v), v)

    def test_triangular_inverse_scalar(self):
        # P = 2^2 = L L^T with the 1 x 1 factor L = 2
        pre = CholeskyPreconditioner(np.array([[0.5]]))
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

    def test_zero_matrix_raises(self):
        # tr(P) = 0: no jitter on the ladder is positive
        with pytest.raises(NumericalError, match="trace"):
            krill_from_sketch(np.zeros((2, 3)), np.zeros((3, 3)), 1.0)

    @pytest.mark.parametrize("lam_min", [1e-3, -1e-13, -1e-10])
    def test_jitter_decade_matches_the_cholesky_ladder(self, lam_min):
        # P with trace 1 and smallest eigenvalue lam_min * tr(P); the old
        # build tried Cholesky at eps * tr(P) * 10^j for j = 0, 1, ...
        k = 12
        q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((k, k)))
        lam = np.linspace(1.0, 2.0, k - 1)
        lam *= (1.0 - lam_min) / lam.sum()
        p = (q * np.append(lam_min, lam)) @ q.T
        p = 0.5 * (p + p.T)
        trace = np.trace(p)
        ladder = EPS_MACH * trace
        while True:
            try:
                cholesky(p + ladder * np.eye(k), lower=True)
                break
            except LinAlgError:
                ladder *= 10.0
        pre = krill_from_sketch(np.zeros((1, k)), p, 1.0)  # P = 0 + 1 * p
        assert pre.jitter == pytest.approx(ladder, rel=1e-6)
        assert ladder <= 1e-8 * trace

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_mu_must_be_finite_and_positive(self, mu):
        with pytest.raises(InputError, match="mu"):
            krill_from_sketch(np.ones((4, 2)), np.eye(2), mu)


class TestFalkon:
    def test_no_subsampling_limit(self):
        a = random_psd(12, seed=13)
        pre = build_falkon(a, k=12, n=12, mu=0.4)
        p = a @ a + 0.4 * a
        np.testing.assert_allclose(
            _rebuilt(pre), p + EPS_MACH * np.trace(p) * np.eye(12),
            atol=1e-8 * np.trace(p))

    def test_hand_monte_carlo_scale(self):
        a_ss = np.array([[1.0, 0.5], [0.5, 1.0]])
        pre = build_falkon(a_ss, k=2, n=10, mu=1e-6)
        g_hat = 5.0 * (a_ss @ a_ss)
        p = g_hat + 1e-6 * a_ss
        np.testing.assert_allclose(
            _rebuilt(pre), p + EPS_MACH * np.trace(p) * np.eye(2),
            rtol=1e-12)

    def test_preconditioner_is_psd(self):
        a_ss = random_psd(9, seed=14)
        a_ss /= np.abs(a_ss).max()
        np.fill_diagonal(a_ss, 1.0)
        a_ss = 0.5 * (a_ss + a_ss.T)
        pre = build_falkon(a_ss, k=9, n=100, mu=0.01)
        p = _rebuilt(pre)
        assert np.linalg.eigvalsh(p).min() >= -1e-10 * np.trace(p)

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_mu_must_be_finite_and_positive(self, mu):
        with pytest.raises(InputError, match="mu"):
            build_falkon(np.eye(2), k=2, n=10, mu=mu)


SPECTRAL_SOLVERS = ("eigh", "eigvalsh", "svd")


def spectral_solver_uses(source: str) -> list:
    """(line, name) of every eigh, eigvalsh or svd outside precond_condition_number."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "precond_condition_number":
            continue
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias)
                    else None)
            if name in SPECTRAL_SOLVERS:
                found.append((node.lineno, name))
    return found


class TestBuildCost:
    """The builds run no eigensolve and form no N x r array besides F."""

    def test_precond_runs_spectral_solvers_only_in_the_diagnostic(self):
        assert spectral_solver_uses(Path(precond_module.__file__).read_text()) == []

    @pytest.mark.parametrize("source", [
        "def build(f):\n    lam, v = np.linalg.eigh(f.T @ f)\n",
        "def build(f):\n    return eigvalsh(f)\n",
        "from numpy.linalg import svd\n",
        "from numpy.linalg import eigh as spectrum\n",
        "def precond_condition_number(m, f):\n    pass\n"
        "def other(m):\n    return np.linalg.eigh(m)\n",
    ])
    def test_every_use_outside_the_diagnostic_is_caught(self, source):
        assert len(spectral_solver_uses(source)) == 1

    def test_uses_inside_the_diagnostic_pass(self):
        source = ("def precond_condition_number(m, apply_inv):\n"
                  "    w, v = np.linalg.eigh(m)\n"
                  "    return np.linalg.eigvalsh(apply_inv(m))\n")
        assert spectral_solver_uses(source) == []

    def test_rpc_build_peaks_below_one_n_by_r_array(self):
        n, r = 4000, 200
        f = factor(np.random.default_rng(30).standard_normal((n, r)), np.arange(r))
        tracemalloc.start()
        try:
            build_rpc_preconditioner(f, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * r * 8


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
            for factor in (build_factor(o, 10, PivotRule(block_size=3, seed=seed)),
                           build_factor(o, 10, PivotRule(GREEDY)),
                           build_factor(o, 10, PivotRule(UNIFORM, seed=seed))):
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
            pre = krill_from_sketch(phi @ cols, a_ss, mu)
            kappa = precond_condition_number(m, pre.apply_inverse)
            assert kappa <= 3.0 + 1e-6
            checked += 1
        assert checked > 0


def _rebuilt(pre):
    """P + jitter*I = L L^T from a restricted preconditioner's L^{-1}."""
    assert pre.F is None and pre.mu is None
    assert np.all(np.triu(pre.l_inv, 1) == 0)
    l = np.linalg.inv(pre.l_inv)
    return l @ l.T


def _sqrtm(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.T
