import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from krrsolve.errors import InputError
from krrsolve.sketch import (
    build_embedding,
    distortion_check,
    practical_params,
    theory_params,
)


class TestStructure:
    def test_single_row_embedding(self):
        phi = build_embedding(1, 10, 1, seed=0)
        dense = phi.toarray()
        assert set(np.abs(dense.ravel())) == {1.0}

    def test_full_columns_when_zeta_equals_d(self):
        phi = build_embedding(8, 100, 8, seed=1)
        dense = phi.toarray()
        assert (np.abs(dense) == 1 / math.sqrt(8)).all()

    @pytest.mark.parametrize("d,n,zeta", [(16, 200, 8), (5, 33, 2), (7, 64, 7)])
    def test_column_structure(self, d, n, zeta):
        phi = build_embedding(d, n, zeta, seed=2)
        csc = phi
        assert (np.diff(csc.indptr) == zeta).all()
        for j in range(n):
            rows = csc.indices[csc.indptr[j]:csc.indptr[j + 1]]
            assert np.unique(rows).size == zeta
        assert set(np.round(np.abs(csc.data), 12)) == {round(1 / math.sqrt(zeta), 12)}

    def test_determinism(self):
        a = build_embedding(16, 50, 4, seed=42)
        b = build_embedding(16, 50, 4, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zeta_bounds(self):
        with pytest.raises(InputError):
            build_embedding(4, 10, 5, seed=0)
        with pytest.raises(InputError):
            build_embedding(4, 10, 0, seed=0)


class TestSampler:
    """The law of the rows drawn per column: a uniform zeta-subset of range(d)."""

    @pytest.mark.parametrize("d,zeta", [(5, 2), (6, 3), (7, 1), (4, 4)])
    def test_every_subset_equally_likely(self, d, zeta):
        subsets = {s: i for i, s in enumerate(itertools.combinations(range(d), zeta))}
        n = 2000 * len(subsets)
        rows = build_embedding(d, n, zeta, seed=12).indices.reshape(n, zeta)
        counts = np.bincount([subsets[tuple(r)] for r in np.sort(rows, axis=1).tolist()],
                             minlength=len(subsets))
        if len(subsets) == 1:
            assert counts[0] == n
        else:
            assert chisquare(counts).pvalue > 1e-3

    def test_every_row_equally_likely(self):
        d, n, zeta = 1200, 30_000, 8
        rows = build_embedding(d, n, zeta, seed=13).indices.reshape(n, zeta)
        counts = np.bincount(rows.ravel(), minlength=d)
        assert counts.size == d and counts.sum() == n * zeta
        assert chisquare(counts).pvalue > 1e-3

    def test_rows_distinct_in_every_column(self):
        for d, n, zeta, seed in [(1200, 8000, 8, 14), (9, 5000, 8, 15), (3, 100, 3, 16)]:
            rows = build_embedding(d, n, zeta, seed=seed).indices.reshape(n, zeta)
            rows = np.sort(rows, axis=1)
            assert rows.min() >= 0 and rows.max() < d
            assert (np.diff(rows, axis=1) > 0).all()

    def test_memory_is_linear_in_the_nonzeros(self):
        # 16 bytes per nonzero for an int64 row and a float64 value make 1 MB;
        # ranking an N x d block of uniforms would take about 78 MB at this size
        d, n, zeta = 1200, 8000, 8
        build_embedding(d, n, zeta, seed=17)
        tracemalloc.start()
        try:
            build_embedding(d, n, zeta, seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * n * zeta


class TestApply:
    def test_zero_matrix(self):
        phi = build_embedding(8, 30, 3, seed=3)
        out = phi @ np.zeros((30, 4))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(4)
        phi = build_embedding(12, 80, 5, seed=5)
        m = rng.standard_normal((80, 6))
        dense = phi.toarray() @ m
        np.testing.assert_allclose(phi @ m, dense, atol=1e-12)

    def test_dimension_mismatch(self):
        phi = build_embedding(8, 30, 3, seed=6)
        with pytest.raises(InputError, match="29 rows"):
            distortion_check(phi, np.eye(29)[:, :2])

    def test_isotropy_monte_carlo(self):
        # E ||Phi v||^2 = ||v||^2
        rng = np.random.default_rng(7)
        v = rng.standard_normal(40)
        total = 0.0
        n_draws = 10_000
        for seed in range(n_draws):
            phi = build_embedding(12, 40, 4, seed=seed)
            total += np.sum((phi @ v) ** 2)
        assert total / n_draws == pytest.approx(np.sum(v**2), rel=0.02)

    def test_gram_isotropy(self):
        # columns of E[Phi^T Phi] approach identity
        n, d, zeta, n_draws = 6, 8, 3, 4000
        acc = np.zeros((n, n))
        for seed in range(n_draws):
            dense = build_embedding(d, n, zeta, seed=seed).toarray()
            acc += dense.T @ dense
        acc /= n_draws
        # variance of each off-diagonal entry is at most 1/(zeta*n_draws)-ish;
        # allow 3 standard errors with a conservative scale
        assert np.abs(np.diag(acc) - 1.0).max() < 0.05
        off = acc - np.diag(np.diag(acc))
        assert np.abs(off).max() < 3.0 / math.sqrt(zeta * n_draws) + 0.02


class TestDistortion:
    def test_identity_embedding_stub(self):
        basis = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 3)))[0]
        lo, hi = distortion_check(sp.identity(5, format="csc"), basis)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_matches_dense(self):
        phi = build_embedding(6, 20, 6, seed=9)
        b = np.zeros((20, 1))
        b[3, 0] = 1.0
        lo, hi = distortion_check(phi, b)
        dense = phi.toarray() @ b
        assert lo == pytest.approx(np.sum(dense**2), rel=1e-12)
        assert hi == pytest.approx(lo, rel=1e-12)

    def test_rejects_non_orthonormal_basis(self):
        phi = build_embedding(8, 10, 2, seed=10)
        with pytest.raises(InputError):
            distortion_check(phi, 2.0 * np.eye(10)[:, :3])

    def test_subspace_embedding_event_rate(self):
        # theory-scaled embedding keeps distortion within [1/2, 3/2] on a
        # fixed 10-dim subspace in at least 95 of 100 seeds
        k, n = 10, 2000
        d, zeta = theory_params(k)
        basis = np.linalg.qr(np.random.default_rng(11).standard_normal((n, k)))[0]
        hits = 0
        for seed in range(100):
            phi = build_embedding(d, n, zeta, seed=seed)
            lo, hi = distortion_check(phi, basis)
            hits += (lo >= 0.5) and (hi <= 1.5)
        assert hits >= 95


def test_parameter_helpers():
    assert practical_params(1) == (4, 4)
    assert practical_params(3) == (12, 8)
    assert practical_params(100) == (400, 8)
    d, zeta = theory_params(50)
    assert d == int(math.ceil(6 * 50 * math.log(50 / 0.05)))
    assert zeta == int(math.ceil(2 * math.log(50 / 0.05)))
    d1, z1 = theory_params(1)
    assert d1 >= 1 and 1 <= z1 <= d1


@pytest.mark.parametrize("k", [0, -3])
def test_theory_params_need_a_center(k):
    with pytest.raises(InputError, match="k >= 1"):
        theory_params(k)
