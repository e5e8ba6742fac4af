import math
import tracemalloc

import numpy as np
import pytest

from krrsolve.errors import InputError
from krrsolve.kernels import (
    DEFAULT_MEMORY_BUDGET,
    KERNEL_FAMILIES,
    LAPLACE1,
    SLAB_BYTES,
    SQUARED_EXPONENTIAL,
    _TILE_ENTRIES,
    DatasetKernelOracle,
    ExplicitMatrixOracle,
    KernelBlocks,
    KernelSpec,
    _point_sets,
    _rows,
    pairwise_kernel,
)


def toy_oracle(n=12, dim=3, seed=0, family=SQUARED_EXPONENTIAL, **kw):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, dim)) * 2.0
    return DatasetKernelOracle(feats, KernelSpec(family, 3.0), **kw)


class TestEvalKernel:
    def test_zero_distance_is_one(self):
        spec = KernelSpec(SQUARED_EXPONENTIAL, 3.0)
        x = np.array([1.0, -2.0, 0.5])
        assert pairwise_kernel(spec, x, x)[0, 0] == 1.0

    def test_squared_exponential_closed_form(self):
        # ||x - y||^2 = 18 with sigma = 3 gives exp(-1)
        spec = KernelSpec(SQUARED_EXPONENTIAL, 3.0)
        x = np.zeros(2)
        y = np.array([3.0, 3.0])
        assert pairwise_kernel(spec, x, y)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_laplace_closed_form(self):
        # |1| + |-1| = 2 with sigma = 1 gives exp(-2)
        spec = KernelSpec(LAPLACE1, 1.0)
        assert pairwise_kernel(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0, 0] == \
            pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_dimension_mismatch(self):
        spec = KernelSpec()
        with pytest.raises(InputError):
            pairwise_kernel(spec, np.zeros(2), np.zeros(3))

    def test_bad_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec(SQUARED_EXPONENTIAL, 0.0)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("bandwidth", [-1.0, math.inf, math.nan])
    def test_nonfinite_or_negative_bandwidth(self, family, bandwidth):
        # an infinite bandwidth would make every entry exactly 1
        with pytest.raises(InputError, match="bandwidth"):
            KernelSpec(family, bandwidth)

    def test_range(self):
        rng = np.random.default_rng(3)
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            spec = KernelSpec(family, 1.7)
            for _ in range(50):
                x, y = rng.standard_normal(4), rng.standard_normal(4)
                v = pairwise_kernel(spec, x, y)[0, 0]
                assert 0.0 < v <= 1.0


class TestOracle:
    def test_columns_match_entrywise(self):
        o = toy_oracle(n=3)
        cols = o.block(np.arange(o.n), [0, 1])
        for i in range(3):
            for j in range(2):
                expect = pairwise_kernel(o.spec, o.features[i], o.features[j])[0, 0]
                assert cols[i, j] == pytest.approx(expect, rel=1e-14)

    def test_unit_diagonal_column(self):
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            o = toy_oracle(family=family)
            col = o.block(np.arange(o.n), [4])[:, 0]
            assert col[4] == 1.0

    def test_duplicate_indices(self):
        o = toy_oracle()
        cols = o.block(np.arange(o.n), [2, 2])
        np.testing.assert_array_equal(cols[:, 0], cols[:, 1])

    def test_out_of_range(self):
        o = toy_oracle()
        with pytest.raises(InputError):
            o.block(np.arange(o.n), [o.n])
        with pytest.raises(InputError):
            o.block(np.arange(o.n), [-1])

    def test_diag_all_ones(self):
        o = toy_oracle()
        np.testing.assert_array_equal(o.diag(), np.ones(o.n))

    def test_diag_matches_columns(self):
        o = toy_oracle(n=8)
        for i in range(o.n):
            assert o.diag()[i] == o.block(np.arange(o.n), [i])[i, 0]

    def test_explicit_oracle_diag_readback(self):
        o = ExplicitMatrixOracle(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(o.diag(), [1.0, 2.0, 3.0])

    def test_symmetry_exact(self):
        o = toy_oracle(n=20)
        rng = np.random.default_rng(4)
        for _ in range(30):
            i, j = rng.integers(0, o.n, 2)
            assert o.block([i], [j]) == o.block([j], [i])

    def test_psd_spot_check(self):
        rng = np.random.default_rng(5)
        for family in (SQUARED_EXPONENTIAL, LAPLACE1):
            o = toy_oracle(n=60, family=family)
            s = rng.choice(o.n, size=40, replace=False)
            block = o.block(s, s)
            ev_min = np.linalg.eigvalsh(block).min()
            assert ev_min >= -1e-10 * np.trace(block)

    def test_matvec_blocked_matches_dense(self):
        # small budget forces many row slabs
        o = toy_oracle(n=50, memory_budget=8 * 50 * 3)
        dense = o.block(np.arange(o.n), np.arange(o.n))
        v = np.random.default_rng(6).standard_normal(o.n)
        kernel = o.columns(np.arange(o.n))
        assert kernel.height == 3
        np.testing.assert_allclose(kernel.apply(v), dense @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_streamed_pass_holds_one_slab(self, family):
        # a slab still bound to the loop variable while the oracle generates
        # the next one would put two slabs in the peak
        cols = np.arange(0, 5000, 10)
        o = toy_oracle(n=5000, dim=20, family=family, memory_budget=8 * cols.size * 1250)
        kernel = o.columns(cols)
        v = np.ones(cols.size)
        kernel.apply(v)  # allocates the slab buffer, which this stream ignores
        tracemalloc.start()
        try:
            got = kernel.apply(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = 8 * kernel.height * cols.size
        assert kernel.height == 1250
        assert peak <= slab + got.nbytes + slab // 4

    def test_nonfinite_rejected(self):
        feats = np.ones((3, 2))
        feats[1, 1] = np.nan
        with pytest.raises(InputError):
            DatasetKernelOracle(feats, KernelSpec())


class TestKernelBlocks:
    @staticmethod
    def counted(matrix, budget):
        calls = []

        def generate(start, stop, out):
            calls.append((start, stop))
            return matrix[start:stop]
        return KernelBlocks(generate, *matrix.shape, budget), calls

    @staticmethod
    def buffered(matrix, budget):
        """Blocks whose generator fills ``out`` and records every ``out`` it got."""
        outs = []

        def generate(start, stop, out):
            outs.append(out)
            if out is None:
                return matrix[start:stop].copy()
            out[...] = matrix[start:stop]
            return out
        return KernelBlocks(generate, *matrix.shape, budget), outs

    @staticmethod
    def logged(n_rows, n_cols, reread=False):
        """Blocks of ones under the default budget whose generator logs each
        call as (start, stop, ``out`` given, slab buffer held)."""
        calls = []

        def generate(start, stop, out):
            calls.append((start, stop, out is not None, kernel._buffer is not None))
            return np.ones((stop - start, n_cols))
        kernel = KernelBlocks(generate, n_rows, n_cols, DEFAULT_MEMORY_BUDGET, reread)
        return kernel, calls

    # 1000 columns of a block just over two slabs, which fits the default budget
    BEYOND_TWO_SLABS = 2 * SLAB_BYTES // 8000 + 1

    def test_reread_keeps_a_fitting_block_from_the_first_pass(self):
        rows = self.BEYOND_TWO_SLABS
        kernel, calls = self.logged(rows, 1000, reread=True)
        for _ in range(3):
            np.testing.assert_array_equal(kernel.apply(np.ones(1000)), np.full(rows, 1000.0))
        assert calls == [(0, rows, False, False)]
        assert kernel.kept

    def test_a_block_read_once_streams_then_is_kept_from_the_second_pass(self):
        rows = self.BEYOND_TWO_SLABS
        kernel, calls = self.logged(rows, 1000)
        height = SLAB_BYTES // 8000
        assert kernel.height == height
        kernel.apply(np.ones(1000))
        assert calls == [(0, height, True, True), (height, 2 * height, True, True),
                         (2 * height, rows, True, True)]
        assert not kernel.kept
        for _ in range(2):
            np.testing.assert_array_equal(kernel.apply(np.ones(1000)), np.full(rows, 1000.0))
        # generated once more, whole, after the stream's buffer was released
        assert calls[3:] == [(0, rows, False, False)]
        assert kernel.kept and kernel._buffer is None

    def test_a_block_over_a_large_budget_streams_in_slab_bytes(self):
        def generate(start, stop, out):
            raise AssertionError("generated at construction")
        n_cols = 1000
        n_rows = DEFAULT_MEMORY_BUDGET // (8 * n_cols) + 1
        kernel = KernelBlocks(generate, n_rows, n_cols, DEFAULT_MEMORY_BUDGET, reread=True)
        assert kernel.height == SLAB_BYTES // (8 * n_cols)
        assert not kernel.kept and kernel._buffer is None

    def test_keeps_block_that_fits(self):
        a = np.random.default_rng(7).standard_normal((10, 4))
        kernel, calls = self.counted(a, 8 * 10 * 4)
        v = np.ones(4)
        for _ in range(3):
            np.testing.assert_array_equal(kernel.apply(v), a @ v)
        assert calls == [(0, 10)]

    def test_streams_slabs_on_every_pass(self):
        a = np.random.default_rng(8).standard_normal((10, 4))
        kernel, calls = self.counted(a, 8 * 4 * 3)
        assert [(start, stop) for start, stop, _ in kernel] == \
            [(0, 3), (3, 6), (6, 9), (9, 10)]
        kernel.apply(np.ones(4))
        assert calls == 2 * [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_streamed_passes_reuse_one_buffer(self):
        a = np.random.default_rng(8).standard_normal((10, 4))
        kernel, outs = self.buffered(a, 8 * 4 * 3)
        v = np.ones(4)
        for _ in range(2):
            np.testing.assert_array_equal(kernel.apply(v), a @ v)
        assert [out.shape for out in outs] == 2 * [(3, 4), (3, 4), (3, 4), (1, 4)]
        for out in outs:  # leading rows of one kept buffer
            assert out.flags.c_contiguous
            assert out.base is outs[0].base is kernel._buffer

    def test_kept_block_is_generated_once_without_buffer(self):
        a = np.random.default_rng(7).standard_normal((10, 4))
        kernel, outs = self.buffered(a, 8 * 10 * 4)
        for _ in range(3):
            np.testing.assert_array_equal(kernel.apply(np.ones(4)), a @ np.ones(4))
        assert outs == [None]

    def test_no_columns_gives_zero_products(self):
        kernel, calls = self.counted(np.zeros((5, 0)), 8)
        np.testing.assert_array_equal(kernel.apply(np.zeros(0)), np.zeros(5))
        assert calls == [(0, 5)]

    def test_budget_below_one_row_gives_single_rows(self):
        a = np.random.default_rng(9).standard_normal((5, 4))
        kernel, _ = self.counted(a, 1)
        assert kernel.height == 1
        assert [stop - start for start, stop, _ in kernel] == [1] * 5

    def test_applies_a_block_of_columns(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((9, 4))
        v = rng.standard_normal((4, 3))
        kernel, _ = self.counted(a, 8 * 4 * 2)
        np.testing.assert_allclose(kernel.apply(v), a @ v, rtol=1e-12, atol=1e-12)


def direct_kernel(family, sigma, x, y):
    """Reference block from explicit coordinate differences."""
    diff = x[:, None, :] - y[None, :, :]
    if family == SQUARED_EXPONENTIAL:
        return np.exp(-(diff**2).sum(-1) / (2.0 * sigma**2))
    return np.exp(-np.abs(diff).sum(-1) / sigma)


class TestTiles:
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("m,n,dim", [(1, 1, 3), (1, 40, 3), (40, 1, 3),
                                         (30, 20, 1), (300, 50, 20)])
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("sigma", [0.1, 3.0])
    def test_matches_direct_differences(self, family, m, n, dim, offset, sigma):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((m, dim)) + offset
        y = rng.standard_normal((n, dim)) + offset
        dup = min(m, n) // 2
        y[:dup] = x[:dup]  # exact duplicate rows
        block = pairwise_kernel(KernelSpec(family, sigma), x, y)
        assert block.shape == (m, n)
        assert np.abs(block - direct_kernel(family, sigma, x, y)).max() <= 1e-12
        assert block.min() >= 0.0 and block.max() <= 1.0
        np.testing.assert_array_equal(block[np.arange(dup), np.arange(dup)], 1.0)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("sigma", [0.1, 3.0])
    def test_oracle_blocks_match_direct_differences(self, family, offset, sigma):
        x = np.random.default_rng(15).standard_normal((120, 20)) + offset
        x[100:] = x[:20]  # exact duplicate points
        o = DatasetKernelOracle(x, KernelSpec(family, sigma))
        cols = np.arange(0, 120, 3)
        block = o.block(np.arange(120), cols)
        assert np.abs(block - direct_kernel(family, sigma, x, x[cols])).max() <= 1e-12
        assert block.min() >= 0.0 and block.max() <= 1.0
        np.testing.assert_array_equal(
            np.diag(o.block(np.arange(100, 120), np.arange(20))), 1.0)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("sigma", [0.1, 3.0])
    def test_set_against_itself_has_unit_diagonal(self, family, offset, sigma):
        x = np.random.default_rng(12).standard_normal((200, 20)) + offset
        block = pairwise_kernel(KernelSpec(family, sigma), x, x)
        np.testing.assert_array_equal(np.diag(block), 1.0)
        assert block.min() >= 0.0 and block.max() <= 1.0

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("sigma", [0.7, 3.0])
    def test_one_by_one_blocks_are_symmetric_bitwise(self, family, sigma):
        spec = KernelSpec(family, sigma)
        pts = np.random.default_rng(14).standard_normal((400, 5)) * 2.0 + 3.0
        for a, b in zip(pts[:200], pts[200:]):
            assert pairwise_kernel(spec, a[None], b[None])[0, 0] == \
                pairwise_kernel(spec, b[None], a[None])[0, 0]

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_empty_blocks(self, family):
        o = toy_oracle(family=family)
        assert o.block(np.arange(o.n), []).shape == (o.n, 0)
        assert o.block([], [1, 2]).shape == (0, 2)
        assert pairwise_kernel(o.spec, np.zeros((0, 3)), o.features).shape == (0, o.n)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    def test_out_buffer_gives_the_same_bits(self, family, offset):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((300, 20)) + offset
        y = rng.standard_normal((50, 20)) + offset
        y[:10] = x[:10]
        spec = KernelSpec(family, 3.0)
        buf = np.full((300, 50), np.nan)
        block = _rows(spec, *_point_sets(x, y))(0, 300, buf)
        assert np.shares_memory(block, buf)
        np.testing.assert_array_equal(block, pairwise_kernel(spec, x, y))

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_row_slabs_match_one_block(self, family):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((70, 5)) + 3.0
        y = rng.standard_normal((30, 5))
        y[:5] = x[:5]
        spec = KernelSpec(family, 1.5)
        whole = pairwise_kernel(spec, x, y)
        rows = _rows(spec, *_point_sets(x, y))
        buf = np.empty((32, 30))
        for start in range(0, 70, 32):
            stop = min(start + 32, 70)
            slab = rows(start, stop, buf[:stop - start])
            assert np.shares_memory(slab, buf)
            assert np.abs(slab - whole[start:stop]).max() <= 1e-14
            np.testing.assert_array_equal(rows(start, stop, None), slab)
        np.testing.assert_array_equal(np.diag(rows(0, 5, None)), 1.0)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_peak_memory_is_one_output_buffer(self, family):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2000, 20))
        y = rng.standard_normal((500, 20))
        tracemalloc.start()
        try:
            block = pairwise_kernel(KernelSpec(family, 3.0), x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block.nbytes


def documented_floor(sigma, x, y):
    """``pairwise_kernel``'s floor 4 (dim + 2) eps H, with H the largest half
    squared norm of the shifted, scaled points of both sets."""
    shift = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    top = max((0.5 * (((pts - shift) / sigma) ** 2).sum(axis=1)).max() for pts in (x, y))
    return 4.0 * (x.shape[1] + 2) * np.finfo(np.float64).eps * top


class TestFoldedProduct:
    @pytest.mark.parametrize("outlier", [False, True], ids=["compact", "outlier"])
    @pytest.mark.parametrize("sigma", [0.1, 3.0])
    def test_near_coincident_pairs_are_within_the_floor(self, sigma, outlier):
        rng = np.random.default_rng(23)
        m, dim, offset = 60, 5, 1e5
        x = 2.0 * rng.standard_normal((m, dim))
        if outlier:  # ten times the farthest radius: H grows 100x
            x[-1] = 10.0 * np.linalg.norm(x - x.mean(axis=0), axis=1).max() * np.eye(dim)[0]
        x += offset
        floor = documented_floor(sigma, x, x)
        # partners at exponents from -1e-6 to -10 floor, in random directions
        exponents = -np.geomspace(1e-6, 20 * floor, m)
        step = rng.standard_normal((m, dim))
        step *= (sigma * np.sqrt(-2.0 * exponents) / np.linalg.norm(step, axis=1))[:, None]
        y = x + step
        floor = documented_floor(sigma, x, y)
        reference = direct_kernel(SQUARED_EXPONENTIAL, sigma, x, y)
        pairs = np.log(np.diag(reference))
        assert (pairs >= -1.01e-6).all() and (pairs <= -10 * floor).all()
        block = pairwise_kernel(KernelSpec(SQUARED_EXPONENTIAL, sigma), x, y)
        assert np.abs(block - reference).max() <= floor

    def test_zero_half_norms_give_exactly_one(self):
        spec = KernelSpec(SQUARED_EXPONENTIAL, 3.0)
        point = np.array([[0.5, -2.0, 3.0]])
        # N = 1: the one point is the mean
        assert DatasetKernelOracle(point, spec).block([0], [0])[0, 0] == 1.0
        # identical points, with a mean that is exact and one that is not
        for value in (point, np.full((1, 3), 0.1)):
            same = np.repeat(value, 3, axis=0)
            np.testing.assert_array_equal(
                DatasetKernelOracle(same, spec).block(np.arange(3), np.arange(3)), 1.0)
            np.testing.assert_array_equal(pairwise_kernel(spec, same, same), 1.0)
        # a single point at the shift
        assert pairwise_kernel(spec, point, point)[0, 0] == 1.0

    def test_block_peak_is_its_output_and_the_prepared_rows(self):
        # no float temporary of a row tile's size (512 KiB) is made
        rng = np.random.default_rng(13)
        m, n, dim = 2000, 500, 20
        x, y = rng.standard_normal((m, dim)), rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            block = pairwise_kernel(KernelSpec(SQUARED_EXPONENTIAL, 3.0), x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        prepared = 8 * (m + n) * (dim + 2)
        mask = (_TILE_ENTRIES // n) * n  # one boolean row tile
        assert peak <= block.nbytes + prepared + mask + (1 << 16)

    def test_oracle_holds_one_prepared_array(self):
        n, dim = 5000, 20
        feats = np.random.default_rng(24).standard_normal((n, dim))
        tracemalloc.start()
        try:
            o = DatasetKernelOracle(feats, KernelSpec(SQUARED_EXPONENTIAL, 3.0))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert o.n == n
        assert held <= 8 * n * (dim + 2) + 4096


class TestIndices:
    @pytest.mark.parametrize("bad", [[0.9, 2.7, 5.2], [1.5], np.array([True, False, True]),
                                     [True]], ids=["fractions", "half", "mask", "bool"])
    def test_non_integer_indices_raise(self, bad):
        o = toy_oracle()
        for call in (lambda: o.block(bad, [0]), lambda: o.block([0], bad),
                     lambda: o.block(np.arange(o.n), bad)):
            with pytest.raises(InputError, match="integers"):
                call()

    @pytest.mark.parametrize("make", [toy_oracle, lambda: ExplicitMatrixOracle(np.eye(12))],
                             ids=["dataset", "explicit"])
    def test_block_checks_indices_and_counts_the_entries_it_returns(self, make):
        o = make()
        assert o.entries == 0
        o.block([0, 1, 2], [3, 4])
        o.block([], [1])
        o.block(np.arange(12), [5])
        assert o.entries == 3 * 2 + 12
        for bad in ([12], [-1], [0.5]):
            with pytest.raises(InputError):
                o.block([0], bad)
        assert o.entries == 3 * 2 + 12  # a rejected block counts nothing

    def test_fractional_pair_is_not_truncated(self):
        with pytest.raises(InputError, match="integers"):
            toy_oracle().block([0.9], [1.5])

    def test_integer_and_empty_indices_are_taken(self):
        o = toy_oracle()
        np.testing.assert_array_equal(
            o.block(np.array([3, 1], dtype=np.int32), np.array([0], dtype=np.uint8)),
            o.block([3, 1], [0]))
        assert o.block(np.arange(o.n), []).shape == (o.n, 0)
        assert o.block(np.arange(o.n), np.array([], dtype=np.int64)).shape == (o.n, 0)
        e = ExplicitMatrixOracle(np.eye(3))
        np.testing.assert_array_equal(e.block(np.int64(2), [2]), [[1.0]])
        with pytest.raises(InputError, match="integers"):
            e.block([0.5], [1])
