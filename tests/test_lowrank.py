import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import krrsolve.lowrank as lowrank_module
from krrsolve.diagnostics import build_greedy_failure_matrix, build_uniform_failure_matrix
from krrsolve.errors import InputError, rng
from krrsolve.kernels import DatasetKernelOracle, ExplicitMatrixOracle, KernelSpec
from krrsolve.lowrank import (
    GREEDY,
    PIVOT_RULES,
    RPCHOLESKY,
    UNIFORM,
    PivotRule,
    build_factor,
    tail_rank,
    trace_residual,
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
        f = build_factor(o, 2, PivotRule(block_size=1, seed=0))
        assert f.rank == 2
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-10)

    def test_single_nonzero_diagonal_forces_pivot(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 0.0, 0.0]))
        for seed in range(20):
            f = build_factor(o, 1, PivotRule(block_size=1, seed=seed))
            assert f.pivots.tolist() == [0]

    def test_first_pivot_law(self):
        # sampling probability proportional to the diagonal (1, 2, 3)/6
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        counts = np.zeros(3)
        n_draws = 10_000
        for seed in range(n_draws):
            f = build_factor(o, 1, PivotRule(block_size=1, seed=seed))
            counts[f.pivots[0]] += 1
        expected = np.array([1, 2, 3]) / 6 * n_draws
        assert chisquare(counts, expected).pvalue > 0.001

    def test_conditional_pivot_law(self):
        # after the first pivot the second is drawn from the updated residual
        a = random_psd(4, seed=11)
        o = ExplicitMatrixOracle(a)
        pairs = {}
        for seed in range(10_000):
            f = build_factor(o, 2, PivotRule(block_size=1, seed=seed))
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
        f = build_factor(o, 4, PivotRule(block_size=1, seed=3))
        assert f.rank == 1  # rank-1 input exhausts d after one pivot
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8)
        fb = build_factor(o, 4, PivotRule(block_size=2, seed=3))
        assert fb.rank == 1
        assert trace_residual(o, fb) == pytest.approx(0.0, abs=1e-8)

    def test_zero_matrix_yields_empty_factor(self):
        o = ExplicitMatrixOracle(np.zeros((4, 4)))
        f = build_factor(o, 3, PivotRule(block_size=1, seed=0))
        assert f.rank == 0

    def test_duplicate_draws_are_resampled_to_full_rank(self):
        # two distinct diag entries, so a block of 4 iid draws collides; the
        # duplicates are dropped and the loop draws again until rank 2
        o = ExplicitMatrixOracle(np.diag([1.0, 1.0]))
        for seed in range(20):
            f = build_factor(o, 2, PivotRule(block_size=4, seed=seed))
            assert f.rank == 2
            assert np.unique(f.pivots).size == 2

    @pytest.mark.parametrize("block", [1, 3, 60])
    def test_block_size_independence_of_validity(self, block):
        a = random_psd(60, seed=7)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 25, PivotRule(block_size=block, seed=5))
        lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
        assert lam_max <= 1e-8 * np.trace(a)
        assert f.residual_diag.sum() == pytest.approx(
            np.trace(a) - np.sum(f.F**2), abs=1e-8 * np.trace(a))

    def test_pivot_residuals_zeroed(self):
        a = random_psd(30, seed=9)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 12, PivotRule(block_size=4, seed=2))
        np.testing.assert_array_equal(f.residual_diag[f.pivots], 0.0)

    def test_bad_rank(self):
        o = ExplicitMatrixOracle(np.eye(3))
        with pytest.raises(InputError):
            build_factor(o, 0)
        with pytest.raises(InputError):
            build_factor(o, 4)

    @pytest.mark.parametrize("kwargs", [{"kind": "cholesky"}, {"block_size": 0},
                                        {"block_size": -3}, {"seed": -1}])
    def test_bad_rule(self, kwargs):
        with pytest.raises(InputError):
            PivotRule(**kwargs)


class TestGreedy:
    def test_argmax_pivot(self):
        o = ExplicitMatrixOracle(np.diag([3.0, 1.0, 2.0]))
        f = build_factor(o, 1, PivotRule(GREEDY))
        assert f.pivots.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        o = ExplicitMatrixOracle(np.diag([2.0, 2.0, 1.0]))
        f = build_factor(o, 1, PivotRule(GREEDY))
        assert f.pivots.tolist() == [0]

    def test_exact_recovery(self):
        a = random_psd(20, seed=1, rank=6)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 6, PivotRule(GREEDY))
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8 * np.trace(a))

    def test_prefers_right_block_on_adversarial_matrix(self):
        a = build_greedy_failure_matrix(125, 0.01)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 3, PivotRule(GREEDY))
        right_start = 125 - 25  # ceil(125^(2/3)) = 25
        assert (f.pivots >= right_start).all()


class TestUniform:
    def test_full_pivoting_recovers_matrix(self):
        a = random_psd(4, seed=2)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 4, PivotRule(UNIFORM, seed=0))
        np.testing.assert_allclose(f.F @ f.F.T, a, atol=1e-10 * np.trace(a))

    def test_first_pivot_uniform(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        counts = np.zeros(3)
        n_draws = 10_000
        for seed in range(n_draws):
            f = build_factor(o, 1, PivotRule(UNIFORM, seed=seed))
            counts[f.pivots[0]] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_domination_on_random_inputs(self):
        for seed in range(5):
            a = random_psd(50, seed=seed)
            o = ExplicitMatrixOracle(a)
            f = build_factor(o, 12, PivotRule(UNIFORM, seed=seed + 100))
            lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
            assert lam_max <= 1e-10 * np.trace(a)

    def test_skips_exhausted_pivots(self):
        # rank-1 matrix: only the first processed pivot contributes
        a = np.ones((6, 6))
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 6, PivotRule(UNIFORM, seed=4))
        assert f.rank == 1
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-10)


def one_round_uniform(o, rank, seed):
    """The uniform factor as one round over every pre-drawn pivot still live."""
    chosen = rng(seed).choice(o.n, size=rank, replace=False)
    return lowrank_module._partial_cholesky(
        o, rank, lambda d, i: chosen[d[chosen] > 0.0] if i == 0 else [])


class TestUniformRounds:
    """Uniform pivots arrive ``block_size`` at a time, as RPCholesky's do."""

    @pytest.mark.parametrize("x", [
        np.random.default_rng(0).standard_normal((300, 4)),
        np.repeat(np.random.default_rng(1).standard_normal((60, 3)), 4, axis=0),
    ], ids=["cloud", "repeated"])
    @pytest.mark.parametrize("block_size", [None, 1, 7])
    def test_pivots_are_those_of_one_round(self, x, block_size):
        o = DatasetKernelOracle(x, KernelSpec(bandwidth=2.0))
        rank = 120
        f = build_factor(o, rank, PivotRule(UNIFORM, block_size, seed=3))
        ref = one_round_uniform(o, rank, 3)
        np.testing.assert_array_equal(f.pivots, ref.pivots)
        np.testing.assert_allclose(f.F @ f.F.T, ref.F @ ref.F.T, rtol=0, atol=1e-8 * o.n)

    def test_a_round_forms_at_most_one_row_block_of_the_kernel(self):
        # one round over all 1000 pivots formed a 1000 x N residual block
        # beside F^T, 68.7 MiB in all; the default block is 100 rows
        n, rank, dim = 3000, 1000, 10
        o = DatasetKernelOracle(np.random.default_rng(0).standard_normal((n, dim)),
                                KernelSpec())
        m = 100
        tracemalloc.start()
        try:
            f = build_factor(o, rank, PivotRule(UNIFORM, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.rank == rank
        assert peak <= 8 * rank * n + 3 * 8 * m * n + 8 * n * (dim + 2)

    def test_rpcholesky_and_greedy_pivots_are_pinned(self):
        # the pivots these rules took before uniform pivots came in rounds
        o = DatasetKernelOracle(np.random.default_rng(5).standard_normal((200, 4)),
                                KernelSpec())
        assert build_factor(o, 30, PivotRule(seed=11)).pivots.tolist() == [
            25, 99, 120, 5, 35, 183, 16, 36, 189, 79, 110, 133, 43, 60, 141, 118, 151,
            159, 122, 160, 196, 46, 106, 117, 52, 77, 129, 30, 158, 172]
        assert build_factor(o, 30, PivotRule(GREEDY)).pivots.tolist() == [
            0, 46, 55, 125, 141, 45, 159, 43, 129, 194, 184, 81, 57, 79, 156, 106, 172,
            175, 130, 92, 158, 14, 166, 77, 71, 114, 37, 23, 118, 36]


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
            build_factor(o, 20, PivotRule(block_size=5, seed=seed)),
            build_factor(o, 20, PivotRule(GREEDY)),
            build_factor(o, 20, PivotRule(UNIFORM, seed=seed)),
        ]
        for f in factors:
            lam_max = np.linalg.eigvalsh(f.F @ f.F.T - a).max()
            assert lam_max <= 1e-8 * np.trace(a)


def repeated_points():
    """20 distinct points, each five times: the kernel has rank 20."""
    x = np.random.default_rng(0).standard_normal((20, 5))
    return DatasetKernelOracle(np.repeat(x, 5, axis=0), KernelSpec(bandwidth=3.0))


class TestExhaustion:
    """Every rule stops at the roundoff left on copies of taken points."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rule", [RPCHOLESKY, GREEDY])
    def test_adaptive_rules_reach_the_kernel_rank(self, rule, seed):
        assert build_factor(repeated_points(), 40, PivotRule(rule, seed=seed)).rank == 20

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rule", PIVOT_RULES)
    def test_no_roundoff_columns_and_no_copies(self, rule, seed):
        o = repeated_points()
        f = build_factor(o, 40, PivotRule(rule, seed=seed))
        thr = lowrank_module._clamp_threshold(o.diag().sum(), o.n)
        assert (np.sum(f.F**2, axis=0) > thr).all()
        assert np.unique(f.pivots // 5).size == f.rank  # point i is rows 5i..5i+4


@st.composite
def lowrank_with_copies(draw):
    """A = X X^T over rows of X repeated, in shuffled order, at any scale."""
    distinct = draw(st.integers(1, 8))
    rows = np.array([*range(distinct), *draw(st.lists(st.integers(0, distinct - 1),
                                                      max_size=16))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((distinct, draw(st.integers(1, 6))))
    x *= 10.0 ** draw(st.integers(-3, 3))
    xr = x[rng.permutation(rows)]
    return xr @ xr.T, distinct


@settings(max_examples=150, deadline=None)
@given(lowrank_with_copies(),
       st.sampled_from([PivotRule(RPCHOLESKY, block) for block in (1, 3, 16)]
                       + [PivotRule(GREEDY), PivotRule(UNIFORM)]),
       st.data())
def test_engine_property_on_repeated_rows(case, rule, data):
    a, distinct = case
    o = ExplicitMatrixOracle(a)
    rule = replace(rule, seed=data.draw(st.integers(0, 1000)))
    f = build_factor(o, data.draw(st.integers(1, o.n)), rule)
    assert np.unique(f.pivots).size == f.rank
    np.testing.assert_array_equal(f.residual_diag[f.pivots], 0.0)
    assert np.linalg.eigvalsh(f.F @ f.F.T - a).max() <= 1e-8 * np.trace(a)
    assert f.rank <= distinct


def test_factor_allocates_its_rows_once_and_no_n_by_rank_temporary():
    # F^T is one rank x N array; a round adds the candidates' kernel rows,
    # the m x N update and, when candidates are skipped, the taken rows,
    # beside the oracle's N x (dim + 2) copy of the points it gathers
    n, rank, dim = 4000, 300, 20
    o = DatasetKernelOracle(np.random.default_rng(0).standard_normal((n, dim)), KernelSpec())
    m = -(-rank // 10)  # the default block
    tracemalloc.start()
    try:
        f = build_factor(o, rank, PivotRule(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.rank == rank and f.F.T.flags.c_contiguous
    assert peak <= 8 * rank * n + 3 * 8 * m * n + 8 * n * (dim + 2)


def call_sites(source: str, dotted: str) -> list:
    """Names of the top-level functions, one per occurrence of ``dotted``,
    a plain name or an attribute."""
    return [top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) == dotted]


# each name used once in lowrank.py, by the function given
ONE_SITE = {"oracle.block": "_partial_cholesky",
            "np.linalg.cholesky": "_inverse_cholesky",
            "_partial_cholesky": "build_factor"}


class TestOneCholeskyLoop:
    """Kernel columns are fetched, and blocks factored, in one place each,
    and the one loop is entered from ``build_factor`` alone."""

    @pytest.mark.parametrize("dotted", ONE_SITE)
    def test_one_call_site(self, dotted):
        source = Path(lowrank_module.__file__).read_text()
        assert call_sites(source, dotted) == [ONE_SITE[dotted]]

    def test_a_second_site_is_caught(self):
        source = ("def a(oracle):\n    return oracle.columns([0])\n"
                  "def b(oracle, h):\n    np.linalg.cholesky(h)\n"
                  "    return np.linalg.cholesky(h + 1.0), oracle.columns([1])\n"
                  "def c(oracle):\n    return loop(oracle, 1)\n"
                  "def d(oracle):\n    return loop(oracle, 2), loop(oracle, 3)\n")
        assert call_sites(source, "oracle.columns") == ["a", "b"]
        assert call_sites(source, "np.linalg.cholesky") == ["b", "b"]
        assert call_sites(source, "loop") == ["c", "d", "d"]


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

    @pytest.mark.parametrize("mu", [np.nan, np.inf, 0.0, -1.0])
    def test_mu_must_be_finite_and_positive(self, mu):
        with pytest.raises(InputError, match="mu"):
            tail_rank([3.0, 2.0, 1.0], mu)


class TestTraceResidual:
    def test_full_decomposition_zero(self):
        a = random_psd(15, seed=4)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 15, PivotRule(block_size=3, seed=1))
        assert trace_residual(o, f) == pytest.approx(0.0, abs=1e-8 * np.trace(a))

    def test_zero_factor_gives_trace(self):
        a = random_psd(10, seed=5)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 3, PivotRule(block_size=1, seed=0))
        f.F[:] = 0.0
        assert trace_residual(o, f) == pytest.approx(np.trace(a))

    def test_matches_dense_residual(self):
        a = random_psd(30, seed=6)
        o = ExplicitMatrixOracle(a)
        f = build_factor(o, 10, PivotRule(block_size=2, seed=3))
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
    resids = [trace_residual(o, build_factor(o, r, PivotRule(block_size=1, seed=s)))
              for s in range(100)]
    assert np.mean(resids) <= 1.5 * 2.0 * lam[r_mu:].sum()
