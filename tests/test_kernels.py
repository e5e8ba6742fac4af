import math

import numpy as np
import pytest

from krrsolve.data import Dataset, standardize
from krrsolve.errors import InputError
from krrsolve.kernels import (
    LAPLACE1,
    SQUARED_EXPONENTIAL,
    DatasetKernelOracle,
    ExplicitMatrixOracle,
    KernelSpec,
    eval_kernel,
)


def toy_oracle(n=12, dim=3, seed=0, family=SQUARED_EXPONENTIAL, **kw):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, dim)) * 2.0
    return DatasetKernelOracle(feats, KernelSpec(family, 3.0), **kw)


class TestEvalKernel:
    def test_zero_distance_is_one(self):
        spec = KernelSpec(SQUARED_EXPONENTIAL, 3.0)
        x = np.array([1.0, -2.0, 0.5])
        assert eval_kernel(spec, x, x) == 1.0

    def test_squared_exponential_closed_form(self):
        # ||x - y||^2 = 18 with sigma = 3 gives exp(-1)
        spec = KernelSpec(SQUARED_EXPONENTIAL, 3.0)
        x = np.zeros(2)
        y = np.array([3.0, 3.0])
        assert eval_kernel(spec, x, y) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_laplace_closed_form(self):
        # |1| + |-1| = 2 with sigma = 1 gives exp(-2)
        spec = KernelSpec(LAPLACE1, 1.0)
        assert eval_kernel(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
            pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_dimension_mismatch(self):
        spec = KernelSpec()
        with pytest.raises(InputError):
            eval_kernel(spec, np.zeros(2), np.zeros(3))

    def test_bad_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec(SQUARED_EXPONENTIAL, 0.0)

    def test_range(self):
        rng = np.random.default_rng(3)
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            spec = KernelSpec(family, 1.7)
            for _ in range(50):
                v = eval_kernel(spec, rng.standard_normal(4), rng.standard_normal(4))
                assert 0.0 < v <= 1.0


class TestStandardize:
    def test_hand_case(self):
        ds = standardize(Dataset(np.array([[1.0], [3.0]])))
        np.testing.assert_allclose(ds.features[:, 0], [-1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((40, 5)) * 3 + 1)
        once = standardize(ds)
        twice = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_constant_column_zeroed(self):
        ds = standardize(Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])))
        np.testing.assert_array_equal(ds.features[:, 0], 0.0)

    def test_moments(self):
        rng = np.random.default_rng(2)
        ds = standardize(Dataset(rng.standard_normal((100, 4)) * 7 - 2))
        np.testing.assert_allclose(ds.features.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.features.std(0), 1.0, atol=1e-12)

    def test_targets_untouched_by_default(self):
        y = np.array([1.0, 2.0, 3.0])
        ds = standardize(Dataset(np.arange(3.0)[:, None], y))
        np.testing.assert_array_equal(ds.targets, y)
        centered = standardize(Dataset(np.arange(3.0)[:, None], y), center_targets=True)
        assert centered.targets.mean() == pytest.approx(0.0, abs=1e-15)


class TestOracle:
    def test_columns_match_entrywise(self):
        o = toy_oracle(n=3)
        cols = o.columns([0, 1])
        for i in range(3):
            for j in range(2):
                expect = eval_kernel(o.spec, o.features[i], o.features[j])
                assert cols[i, j] == pytest.approx(expect, rel=1e-14)

    def test_unit_diagonal_column(self):
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            o = toy_oracle(family=family)
            col = o.columns([4])[:, 0]
            assert col[4] == 1.0

    def test_duplicate_indices(self):
        o = toy_oracle()
        cols = o.columns([2, 2])
        np.testing.assert_array_equal(cols[:, 0], cols[:, 1])

    def test_out_of_range(self):
        o = toy_oracle()
        with pytest.raises(InputError):
            o.columns([o.n])
        with pytest.raises(InputError):
            o.columns([-1])

    def test_diag_all_ones(self):
        o = toy_oracle()
        np.testing.assert_array_equal(o.diag(), np.ones(o.n))

    def test_diag_matches_columns(self):
        o = toy_oracle(n=8)
        for i in range(o.n):
            assert o.diag()[i] == o.columns([i])[i, 0]

    def test_explicit_oracle_diag_readback(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(o.diag(), [1.0, 2.0, 3.0])

    def test_symmetry_exact(self):
        o = toy_oracle(n=20)
        rng = np.random.default_rng(4)
        for _ in range(30):
            i, j = rng.integers(0, o.n, 2)
            assert o.entry(i, j) == o.entry(j, i)

    def test_psd_spot_check(self):
        rng = np.random.default_rng(5)
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            o = toy_oracle(n=60, family=family)
            s = rng.choice(o.n, size=40, replace=False)
            block = o.block(s, s)
            ev_min = np.linalg.eigvalsh(block).min()
            assert ev_min >= -1e-10 * np.trace(block)

    def test_matvec_blocked_matches_dense(self):
        # small budget forces many column blocks
        o = toy_oracle(n=50, memory_budget=8 * 50 * 3)
        dense = o.columns(np.arange(o.n))
        v = np.random.default_rng(6).standard_normal(o.n)
        np.testing.assert_allclose(o.matvec(v), dense @ v, rtol=1e-12, atol=1e-12)

    def test_nonfinite_rejected(self):
        feats = np.ones((3, 2))
        feats[1, 1] = np.nan
        with pytest.raises(InputError):
            DatasetKernelOracle(feats, KernelSpec())
