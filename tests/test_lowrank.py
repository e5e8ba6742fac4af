import numpy as np
import pytest
from scipy.stats import chisquare

from krrsolve.diagnostics import build_greedy_failure_matrix, build_uniform_failure_matrix
from krrsolve.errors import InputError
from krrsolve.kernels import ExplicitMatrixOracle
from krrsolve.lowrank import (
    greedy_cholesky,
    rpcholesky,
    tail_rank,
    trace_residual,
    uniform_nystrom,
)


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, rank or n))
    return x @ x.T


class TestRpcholesky:
    def test_exact_recovery_at_true_rank(self):
        a = np.zeros((5, 5))
        a[:2, :2] = 1.0
        a[2:, 2:] = 2.0
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 2, 1, seed=0)
        assert f.rank == 2
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-10)

    def test_single_nonzero_diagonal_forces_pivot(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 0.0, 0.0]))
        for seed in range(20):
            f = rpcholesky(o, 1, 1, seed=seed)
            assert f.pivots.tolist() == [0]

    def test_first_pivot_law(self):
        # sampling probability proportional to the diagonal (1, 2, 3)/6
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        counts = np.zeros(3)
        n_draws = 10_000
        for seed in range(n_draws):
            f = rpcholesky(o, 1, 1, seed=seed)
            counts[f.pivots[0]] += 1
        expected = np.array([1, 2, 3]) / 6 * n_draws
        assert chisquare(counts, expected).pvalue > 0.001

    def test_conditional_pivot_law(self):
        # after the first pivot the second is drawn from the updated residual
        a = random_psd(4, seed=11)
        o = ExplicitMatrixOracle(a)
        pairs = {}
        for seed in range(10_000):
            f = rpcholesky(o, 2, 1, seed=seed)
            pairs.setdefault(int(f.pivots[0]), []).append(int(f.pivots[1]))
        for first, seconds in pairs.items():
            if len(seconds) < 500:
                continue
            d = np.diag(a) - a[:, first] ** 2 / a[first, first]
            d[first] = 0.0
            idx = [i for i in range(4) if i != first]
            counts = np.array([seconds.count(i) for i in idx], dtype=float)
            expected = d[idx] / d[idx].sum() * len(seconds)
            assert chisquare(counts, expected).pvalue > 0.001

    def test_early_return_on_exhausted_residual(self):
        a = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 4, 1, seed=3)
        assert f.rank == 1  # rank-1 input exhausts d after one pivot
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8)
        # blocked sampling may add jitter-level columns but recovery holds
        fb = rpcholesky(o, 4, 2, seed=3)
        assert trace_residual(o, fb) == pytest.approx(0.0, abs=1e-8)

    def test_zero_matrix_yields_empty_factor(self):
        o = ExplicitMatrixOracle(np.zeros((4, 4)))
        f = rpcholesky(o, 3, 1, seed=0)
        assert f.rank == 0

    def test_block_dedup_can_shrink_factor(self):
        # two distinct diag entries, block of 4 iid draws will collide
        o = ExplicitMatrixOracle(np.diag([1.0, 1.0]))
        f = rpcholesky(o, 2, block_size=4, seed=1)
        assert 1 <= f.rank <= 2
        assert np.unique(f.pivots).size == f.rank

    @pytest.mark.parametrize("block", [1, 3, 60])
    def test_block_size_independence_of_validity(self, block):
        a = random_psd(60, seed=7)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 25, block, seed=5)
        lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
        assert lam_max <= 1e-8 * np.trace(a)
        assert f.residual_diag.sum() == pytest.approx(
            np.trace(a) - np.sum(f.F**2), abs=1e-8 * np.trace(a))

    def test_pivot_residuals_zeroed(self):
        a = random_psd(30, seed=9)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 12, 4, seed=2)
        np.testing.assert_array_equal(f.residual_diag[f.pivots], 0.0)

    def test_bad_rank(self):
        o = ExplicitMatrixOracle(np.eye(3))
        with pytest.raises(InputError):
            rpcholesky(o, 0)
        with pytest.raises(InputError):
            rpcholesky(o, 4)


class TestGreedy:
    def test_argmax_pivot(self):
        o = ExplicitMatrixOracle(np.diag([3.0, 1.0, 2.0]))
        f = greedy_cholesky(o, 1)
        assert f.pivots.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        o = ExplicitMatrixOracle(np.diag([2.0, 2.0, 1.0]))
        f = greedy_cholesky(o, 1)
        assert f.pivots.tolist() == [0]

    def test_exact_recovery(self):
        a = random_psd(20, seed=1, rank=6)
        o = ExplicitMatrixOracle(a)
        f = greedy_cholesky(o, 6)
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8 * np.trace(a))

    def test_prefers_right_block_on_adversarial_matrix(self):
        a = build_greedy_failure_matrix(125, 0.01)
        o = ExplicitMatrixOracle(a)
        f = greedy_cholesky(o, 3)
        right_start = 125 - 25  # ceil(125^(2/3)) = 25
        assert (f.pivots >= right_start).all()


class TestUniform:
    def test_full_pivoting_recovers_matrix(self):
        a = random_psd(4, seed=2)
        o = ExplicitMatrixOracle(a)
        f = uniform_nystrom(o, 4, seed=0)
        np.testing.assert_allclose(f.F @ f.F.T, a, atol=1e-10 * np.trace(a))

    def test_first_pivot_uniform(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        counts = np.zeros(3)
        n_draws = 10_000
        for seed in range(n_draws):
            f = uniform_nystrom(o, 1, seed=seed)
            counts[f.pivots[0]] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_domination_on_random_inputs(self):
        for seed in range(5):
            a = random_psd(50, seed=seed)
            o = ExplicitMatrixOracle(a)
            f = uniform_nystrom(o, 12, seed=seed + 100)
            lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
            assert lam_max <= 1e-10 * np.trace(a)

    def test_skips_exhausted_pivots(self):
        # rank-1 matrix: only the first processed pivot contributes
        a = np.ones((6, 6))
        o = ExplicitMatrixOracle(a)
        f = uniform_nystrom(o, 6, seed=4)
        assert f.rank == 1
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-10)


class TestDominationAllRules:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_rule_dominated_by_a(self, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0, 1, 80) ** 3)[::-1]
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
        o = ExplicitMatrixOracle(a)
        factors = [
            rpcholesky(o, 20, 5, seed=seed),
            greedy_cholesky(o, 20),
            uniform_nystrom(o, 20, seed=seed),
        ]
        for f in factors:
            lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
            assert lam_max <= 1e-8 * np.trace(a)


class TestTailRank:
    def test_whole_trace_under_mu(self):
        assert tail_rank([1.0, 1.0, 1.0, 1.0], 4.0) == 0

    def test_enumerated_case(self):
        assert tail_rank([1.0, 1.0, 1.0, 1.0], 1.5) == 3

    def test_uniform_failure_eigenvalues(self):
        n = 8
        a = build_uniform_failure_matrix(n)
        eigs = np.sort(np.linalg.eigvalsh(a))[::-1]
        eigs = np.clip(eigs, 0.0, None)
        assert tail_rank(eigs, n ** (1 / 3) * 0.99) == 2

    def test_input_validation(self):
        with pytest.raises(InputError):
            tail_rank([1.0, 2.0], 1.0)  # ascending
        with pytest.raises(InputError):
            tail_rank([2.0, -1.0], 1.0)  # negative
        with pytest.raises(InputError):
            tail_rank([1.0], 0.0)  # mu


class TestTraceResidual:
    def test_full_decomposition_zero(self):
        a = random_psd(15, seed=4)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 15, 3, seed=1)
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8 * np.trace(a))

    def test_zero_factor_gives_trace(self):
        a = random_psd(10, seed=5)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 3, 1, seed=0)
        f.F[:] = 0.0
        assert trace_residual(o, f) == pytest.approx(np.trace(a))

    def test_matches_dense_residual(self):
        a = random_psd(30, seed=6)
        o = ExplicitMatrixOracle(a)
        f = rpcholesky(o, 10, 2, seed=3)
        dense = np.trace(a - f.F @ f.F.T)
        assert trace_residual(o, f) == pytest.approx(dense, abs=1e-8 * np.trace(a))


def test_trace_bound_statistic():
    # mean residual over seeds within 1.5x of twice the tail sum at the
    # guarantee rank
    from krrsolve.diagnostics import guarantee_rank, psd_matrix_with_spectrum

    lam = 2.0 ** -np.arange(1, 101)
    mu = 1e-3
    a = psd_matrix_with_spectrum(lam, seed=0)
    o = ExplicitMatrixOracle(a)
    r = guarantee_rank(lam, mu)
    r_mu = tail_rank(lam, mu)
    resids = [trace_residual(o, rpcholesky(o, r, 1, seed=s)) for s in range(100)]
    assert np.mean(resids) <= 1.5 * 2.0 * lam[r_mu:].sum()
