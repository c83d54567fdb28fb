import tracemalloc
import warnings

import numpy as np
import pytest

from tdfenc import (
    Codebook,
    GmmModel,
    LlcParams,
    VideoVector,
    average_pool,
    fisher_encode,
    fuse,
    gmm_responsibilities,
    llc_encode,
    llc_pool,
    load_video_vector,
    save_video_vector,
    vlad_encode,
)
from tdfenc.codebook import _LABEL_BLOCK_ROWS, _nearest_labels
from tdfenc.encode import _FISHER_BLOCK_ELEMENTS
from tdfenc.errors import DataError

from oracles import (
    fisher_finite_difference_oracle,
    fisher_loop_reference,
    llc_projected_gradient_oracle,
)


def random_gmm(rng, k, d):
    return GmmModel(
        weights=rng.dirichlet(np.ones(k) * 5),
        means=rng.normal(size=(k, d)) * 2,
        variances=rng.uniform(0.4, 1.8, size=(k, d)),
    )


class TestAveragePool:
    def test_mean_of_two(self):
        out = average_pool(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        assert out.method == "average"

    def test_single_descriptor_identity(self):
        out = average_pool(np.array([[5.0, -1.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [5.0, -1.0, 2.0])

    def test_matches_reordered_summation(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(37, 6))
        out = average_pool(data)
        shuffled = data[rng.permutation(37)]
        reordered = shuffled.sum(axis=0) / 37
        np.testing.assert_allclose(out.values, reordered, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            average_pool(np.zeros((0, 3)))


class TestLlc:
    def test_exact_codeword_single_neighbor(self):
        rng = np.random.default_rng(1)
        codebook = Codebook(rng.normal(size=(6, 4)))
        code = llc_encode(codebook, LlcParams(neighbors=1), codebook.centroids[3])
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_allclose(code, expected, atol=1e-12)

    def test_codes_sum_to_one(self):
        rng = np.random.default_rng(2)
        codebook = Codebook(rng.normal(size=(12, 5)))
        params = LlcParams(neighbors=5)
        for _ in range(30):
            code = llc_encode(codebook, params, rng.normal(size=5))
            assert abs(code.sum() - 1.0) <= 1e-12
            assert np.count_nonzero(code) <= params.neighbors

    def test_reconstruction_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            codebook = Codebook(rng.normal(size=(8, 2)))
            params = LlcParams(neighbors=3, lam=1e-4)
            x = rng.normal(size=2)
            analytic = llc_encode(codebook, params, x)
            iterative = llc_projected_gradient_oracle(codebook, params, x)
            err_a = np.sum((x - codebook.centroids.T @ analytic) ** 2)
            err_b = np.sum((x - codebook.centroids.T @ iterative) ** 2)
            assert abs(err_a - err_b) < 1e-6

    def test_neighbors_capped_by_codebook(self):
        codebook = Codebook(np.array([[0.0], [1.0]]))
        with pytest.raises(DataError):
            llc_encode(codebook, LlcParams(neighbors=3), np.array([0.5]))

    @pytest.mark.parametrize("lam", [-1e-4, np.nan, np.inf])
    def test_lam_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(DataError, match="lam must be finite and non-negative"):
            LlcParams(lam=lam)

    def test_singular_system_without_ridge(self):
        # x equidistant between two codewords makes the local covariance
        # exactly singular; only a positive ridge keeps the solve well-posed
        codebook = Codebook(np.array([[0.0, 0.0], [2.0, 0.0]]))
        x = np.array([1.0, 0.0])
        with pytest.raises(DataError, match="singular"):
            llc_encode(codebook, LlcParams(neighbors=2, lam=0.0), x)
        code = llc_encode(codebook, LlcParams(neighbors=2, lam=1e-4), x)
        np.testing.assert_allclose(code, [0.5, 0.5], atol=1e-9)

    def test_pool_single_descriptor_is_own_code(self):
        rng = np.random.default_rng(4)
        codebook = Codebook(rng.normal(size=(7, 3)))
        params = LlcParams(neighbors=3)
        x = rng.normal(size=3)
        pooled = llc_pool(codebook, params, x[None, :])
        np.testing.assert_array_equal(pooled.values, llc_encode(codebook, params, x))
        assert pooled.method == "llc"

    def test_pool_duplicate_is_idempotent(self):
        rng = np.random.default_rng(5)
        codebook = Codebook(rng.normal(size=(7, 3)))
        params = LlcParams(neighbors=4)
        x = rng.normal(size=3)
        once = llc_pool(codebook, params, x[None, :])
        twice = llc_pool(codebook, params, np.vstack([x, x]))
        np.testing.assert_array_equal(once.values, twice.values)

    def test_pool_matches_brute_force_max(self):
        rng = np.random.default_rng(6)
        codebook = Codebook(rng.normal(size=(9, 4)))
        params = LlcParams(neighbors=3)
        data = rng.normal(size=(11, 4))
        pooled = llc_pool(codebook, params, data)
        stacked = np.stack([llc_encode(codebook, params, row) for row in data])
        np.testing.assert_array_equal(pooled.values, stacked.max(axis=0))

    def test_ties_at_kth_distance_break_to_lowest_index(self):
        # integer-grid codewords and half-integer descriptors: many words sit
        # at exactly the k-th distance, and every distance is exact
        grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=np.float64)
        codebook = Codebook(grid)
        data = np.array([[1.5, 1.5], [1.5, 2.0], [2.0, 2.0], [0.5, 3.0], [4.0, 0.5], [2.5, 2.5]])
        exact = np.sum((data[:, None, :] - grid[None, :, :]) ** 2, axis=2)
        for k in (1, 2, 3, 4, 5, 6, 8, 25):
            reference = np.argsort(exact, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(_nearest_labels(data, grid, k), reference)
            params = LlcParams(neighbors=k)
            codes = np.stack([llc_encode(codebook, params, x) for x in data])
            for code, words in zip(codes, reference):
                np.testing.assert_array_equal(np.flatnonzero(code), np.sort(words))
            pooled = llc_pool(codebook, params, data)
            np.testing.assert_array_equal(pooled.values, codes.max(axis=0))

    def test_pool_matches_per_descriptor_kkt_solve(self):
        rng = np.random.default_rng(7)
        codebook = Codebook(rng.normal(size=(64, 8)))
        params = LlcParams(neighbors=5, lam=1e-4)
        data = rng.normal(size=(500, 8))
        pooled = llc_pool(codebook, params, data)
        stacked = np.stack([llc_encode(codebook, params, row) for row in data])
        np.testing.assert_array_equal(pooled.values, stacked.max(axis=0))
        k = params.neighbors
        expected = np.full(codebook.num_words, -np.inf)
        for x in data:
            # minimize c^T (C + lam I) c subject to sum(c) = 1 via its KKT system
            distances = np.sum((codebook.centroids - x) ** 2, axis=1)
            nearest = np.argsort(distances, kind="stable")[:k]
            shifted = codebook.centroids[nearest] - x
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * (shifted @ shifted.T + params.lam * np.eye(k))
            kkt[:k, k] = kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            code = np.zeros(codebook.num_words)
            code[nearest] = np.linalg.solve(kkt, rhs)[:k]
            np.maximum(expected, code, out=expected)
        np.testing.assert_allclose(pooled.values, expected, rtol=0, atol=1e-10)

    def test_pool_one_singular_row_raises(self):
        codebook = Codebook(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [3.0, 3.0]]))
        params = LlcParams(neighbors=2, lam=0.0)
        regular = np.array([[0.3, 0.9], [2.2, 2.1], [0.4, 2.5]])
        llc_pool(codebook, params, regular)
        # (1, 0) lies on the line through its two nearest codewords
        batch = np.vstack([regular[:2], [[1.0, 0.0]], regular[2:]])
        with pytest.raises(DataError, match="singular"):
            llc_pool(codebook, params, batch)

    def test_pool_rejects_bad_shapes(self):
        codebook = Codebook(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DataError, match="dimension mismatch"):
            llc_pool(codebook, LlcParams(neighbors=2), np.zeros((4, 3)))
        with pytest.raises(DataError, match="exceeds codebook size"):
            llc_pool(codebook, LlcParams(neighbors=4), np.zeros((4, 2)))

    def test_pool_memory_stays_blocked(self):
        # the dense N x K codes of this call would take 164 MB
        rng = np.random.default_rng(25)
        n, num_words, d, k = 20_000, 1024, 8, 5
        codebook = Codebook(rng.normal(size=(num_words, d)))
        data = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            llc_pool(codebook, LlcParams(neighbors=k), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of scores, then per row its k labels, k x d shifted
        # codewords, k x k local system, and the k-long right side, solution and code
        bound = 8 * (_LABEL_BLOCK_ROWS * num_words + n * k * (d + k + 4))
        assert bound <= 32 * 2**20 < n * num_words * 8
        assert peak <= bound


class TestFisher:
    def test_descriptors_at_mean_closed_form(self):
        model = GmmModel(
            weights=np.array([1.0]),
            means=np.array([[0.7, -1.2, 0.1]]),
            variances=np.array([[0.9, 1.4, 0.3]]),
        )
        data = np.tile(model.means[0], (5, 1))
        out = fisher_encode(model, data, normalize=False)
        np.testing.assert_allclose(out.values[:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.values[3:], -1.0 / np.sqrt(2.0), atol=1e-12)

    def test_duplicating_descriptors_is_invariant(self):
        rng = np.random.default_rng(7)
        model = random_gmm(rng, 3, 4)
        data = rng.normal(size=(10, 4))
        doubled = np.vstack([data, data])
        for normalize in (False, True):
            a = fisher_encode(model, data, normalize=normalize)
            b = fisher_encode(model, doubled, normalize=normalize)
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_singleton_equals_copies(self):
        rng = np.random.default_rng(8)
        model = random_gmm(rng, 2, 3)
        x = rng.normal(size=3)
        single = fisher_encode(model, x[None, :])
        many = fisher_encode(model, np.tile(x, (7, 1)))
        np.testing.assert_allclose(single.values, many.values, atol=1e-12)

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 9))
            n = int(rng.integers(2, 51))
            model = random_gmm(rng, k, d)
            data = rng.normal(size=(n, d))
            encoded = fisher_encode(model, data, normalize=False).values
            oracle = fisher_finite_difference_oracle(model, data)
            assert np.linalg.norm(encoded - oracle) / np.linalg.norm(oracle) < 1e-4

    def test_order_invariance(self):
        rng = np.random.default_rng(10)
        model = random_gmm(rng, 3, 3)
        data = rng.normal(size=(20, 3))
        a = fisher_encode(model, data)
        b = fisher_encode(model, data[rng.permutation(20)])
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_unit_norm_when_normalized(self):
        rng = np.random.default_rng(11)
        model = random_gmm(rng, 2, 4)
        out = fisher_encode(model, rng.normal(size=(15, 4)))
        assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_law(self):
        rng = np.random.default_rng(12)
        model = random_gmm(rng, 3, 6)
        out = fisher_encode(model, rng.normal(size=(9, 6)))
        assert out.dims == 2 * 6 * 3

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        model = random_gmm(rng, 2, 3)
        with pytest.raises(DataError):
            fisher_encode(model, rng.normal(size=(4, 5)))

    def test_posteriors_consistency(self):
        # the encoder's soft assignments are the same posteriors exposed publicly
        rng = np.random.default_rng(14)
        model = random_gmm(rng, 3, 2)
        x = rng.normal(size=2)
        single = fisher_encode(model, x[None, :], normalize=False).values
        q = gmm_responsibilities(model, x)[0][0]
        sigma = np.sqrt(model.variances)
        expected_u = np.stack(
            [
                q[k] * (x - model.means[k]) / sigma[k] / np.sqrt(model.weights[k])
                for k in range(3)
            ]
        ).ravel()
        np.testing.assert_allclose(single[: 3 * 2], expected_u, atol=1e-12)


def _assert_matches_loop(model, data):
    resp, _ = gmm_responsibilities(model, data)
    for normalize in (False, True):
        out = fisher_encode(model, data, normalize=normalize).values
        reference = fisher_loop_reference(model, data, resp, normalize)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12 * scale)


class TestFisherAgainstLoop:
    """The batched, row-blocked Fisher vector against the per-component loop."""

    def test_random_shapes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 17))
            n = int(rng.integers(1, 81))
            _assert_matches_loop(random_gmm(rng, k, d), rng.normal(size=(n, d)) * 2)

    def test_means_far_from_zero(self):
        # |mu|/sigma >= 50 on every component: the regime where expanding the
        # second order into sums of x and x² would cancel
        rng = np.random.default_rng(21)
        k, d = 4, 6
        model = GmmModel(
            weights=rng.dirichlet(np.ones(k) * 5),
            means=300.0 + rng.normal(size=(k, d)),
            variances=rng.uniform(0.5, 2.0, size=(k, d)),
        )
        assert np.min(np.abs(model.means) / np.sqrt(model.variances)) >= 50
        data = model.means[rng.integers(k, size=40)] + rng.normal(size=(40, d))
        _assert_matches_loop(model, data)

    def test_block_seams(self):
        rng = np.random.default_rng(22)
        k, d = 8, 64
        rows = _FISHER_BLOCK_ELEMENTS // (k * d)
        n = 3 * rows + rows // 3
        assert n * k * d >= 3 * _FISHER_BLOCK_ELEMENTS and n % rows
        _assert_matches_loop(random_gmm(rng, k, d), rng.normal(size=(n, d)))

    def test_one_row_blocks(self, monkeypatch):
        # K·d above the block size still takes one row per block
        monkeypatch.setattr("tdfenc.encode._FISHER_BLOCK_ELEMENTS", 5)
        rng = np.random.default_rng(23)
        _assert_matches_loop(random_gmm(rng, 3, 4), rng.normal(size=(7, 4)))

    def test_memory_stays_within_blocks(self):
        # unblocked, each K x n x d temporary would take 256 MiB
        rng = np.random.default_rng(24)
        k, d, n = 64, 128, 4096
        assert n * k * d * 8 >= 256 * 2**20
        model = random_gmm(rng, k, d)
        data = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            fisher_encode(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _FISHER_BLOCK_ELEMENTS * 8


class TestVlad:
    def test_zero_at_centroids(self):
        rng = np.random.default_rng(15)
        codebook = Codebook(rng.normal(size=(4, 3)))
        data = codebook.centroids[np.array([0, 1, 1, 3])]
        out = vlad_encode(codebook, data, normalize=False)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_single_descriptor_block(self):
        codebook = Codebook(np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]]))
        x = np.array([5.5, 4.5])
        out = vlad_encode(codebook, x[None, :], normalize=False)
        expected = np.zeros(6)
        expected[2:4] = x - codebook.centroids[1]
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_matches_brute_force_accumulation(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            codebook = Codebook(rng.normal(size=(5, 3)))
            data = rng.normal(size=(25, 3)) * 2
            out = vlad_encode(codebook, data, normalize=False)
            expected = np.zeros((5, 3))
            for x in data:
                k = min(
                    range(5), key=lambda i: (np.linalg.norm(x - codebook.centroids[i]), i)
                )
                expected[k] += x - codebook.centroids[k]
            np.testing.assert_allclose(out.values, expected.ravel(), atol=1e-12)

    def test_empty_cells_zero(self):
        codebook = Codebook(np.array([[0.0], [100.0]]))
        out = vlad_encode(codebook, np.array([[1.0], [2.0]]), normalize=False)
        np.testing.assert_allclose(out.values[1], 0.0)

    def test_order_invariance_and_unit_norm(self):
        rng = np.random.default_rng(17)
        codebook = Codebook(rng.normal(size=(4, 2)))
        data = rng.normal(size=(18, 2))
        a = vlad_encode(codebook, data)
        b = vlad_encode(codebook, data[rng.permutation(18)])
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)
        assert np.linalg.norm(a.values) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_law(self):
        rng = np.random.default_rng(18)
        codebook = Codebook(rng.normal(size=(3, 6)))
        out = vlad_encode(codebook, rng.normal(size=(7, 6)))
        assert out.dims == 6 * 3


class TestFuse:
    def test_orthogonal_norm_combination(self):
        a = VideoVector(np.array([1.0, 0.0]), "average", "time")
        b = VideoVector(np.array([0.0, 3.0, 4.0]), "average", "dft")
        fused = fuse([(a, 0.6), (b, 0.4)])
        assert np.linalg.norm(fused.values) == pytest.approx(np.sqrt(0.36 + 0.16), abs=1e-12)
        assert fused.method == "fused" and fused.branch == "fused"
        assert fused.dims == 5

    def test_paper_branch_norms(self):
        rng = np.random.default_rng(19)
        time_vec = VideoVector(rng.normal(size=8), "average", "time")
        dft_vec = VideoVector(rng.normal(size=8), "average", "dft")
        fused = fuse([(time_vec, 3.0 / 5.0), (dft_vec, 2.0 / 5.0)])
        assert np.linalg.norm(fused.values[:8]) == pytest.approx(0.6, abs=1e-12)
        assert np.linalg.norm(fused.values[8:]) == pytest.approx(0.4, abs=1e-12)

    def test_single_branch_is_normalized_branch(self):
        v = VideoVector(np.array([3.0, 4.0]), "average", "time")
        fused = fuse([(v, 1.0)])
        np.testing.assert_allclose(fused.values, [0.6, 0.8], atol=1e-12)

    def test_zero_branch_rejected(self):
        v = VideoVector(np.array([0.0, 0.0]), "average", "time")
        with pytest.raises(DataError, match="zero vector"):
            fuse([(v, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fuse([])


class TestDistanceOverflow:
    """Distances that overflow float64 raise ``DataError``, never a warning or a vector."""

    # descriptors at 1e200 against codewords at 1e120: x·c overflows, so the
    # nearest-codeword scores are not finite
    FAR_CODEBOOK = Codebook(np.random.default_rng(26).normal(size=(8, 4)) * 1e120)
    # codewords at unit scale rank fine, but LLC's local covariance overflows
    NEAR_CODEBOOK = Codebook(np.random.default_rng(27).normal(size=(8, 4)))
    DATA = np.random.default_rng(28).normal(size=(20, 4)) * 1e200

    def _raises(self, encode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="descriptor distances overflow float64"):
                encode()

    def test_vlad_encode(self):
        self._raises(lambda: vlad_encode(self.FAR_CODEBOOK, self.DATA))

    @pytest.mark.parametrize("codebook", [FAR_CODEBOOK, NEAR_CODEBOOK], ids=["far", "near"])
    def test_llc_pool(self, codebook):
        self._raises(lambda: llc_pool(codebook, LlcParams(), self.DATA))

    @pytest.mark.parametrize("codebook", [FAR_CODEBOOK, NEAR_CODEBOOK], ids=["far", "near"])
    def test_llc_encode(self, codebook):
        self._raises(lambda: llc_encode(codebook, LlcParams(), self.DATA[0]))


class TestDescriptorOrder:
    """Pooling ignores descriptor order: a video's vector depends on its set of
    frame (or spectrum) descriptors, not on the order they are listed in.

    LLC max pooling is exact under any permutation. Average, VLAD and Fisher
    pooling add in a different order, so they agree to rounding: within 1e-12
    of the vector's largest entry.
    """

    N, D, K = 1200, 8, 32  # N spans three nearest-center blocks

    @pytest.fixture
    def sets(self):
        rng = np.random.default_rng(29)
        data = rng.normal(size=(self.N, self.D))
        return rng, data, data[rng.permutation(self.N)]

    @staticmethod
    def _close(a, b):
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12 * np.abs(a.values).max())

    def test_llc_pool_bit_identical(self, sets):
        rng, data, shuffled = sets
        codebook = Codebook(rng.normal(size=(self.K, self.D)))
        params = LlcParams(neighbors=5)
        np.testing.assert_array_equal(
            llc_pool(codebook, params, shuffled).values, llc_pool(codebook, params, data).values
        )

    def test_average_pool(self, sets):
        _, data, shuffled = sets
        self._close(average_pool(data), average_pool(shuffled))

    def test_vlad_encode(self, sets):
        rng, data, shuffled = sets
        codebook = Codebook(rng.normal(size=(self.K, self.D)))
        for normalize in (False, True):
            self._close(
                vlad_encode(codebook, data, normalize=normalize),
                vlad_encode(codebook, shuffled, normalize=normalize),
            )

    def test_fisher_encode(self, sets):
        rng, data, shuffled = sets
        model = random_gmm(rng, self.K, self.D)
        for normalize in (False, True):
            self._close(
                fisher_encode(model, data, normalize=normalize),
                fisher_encode(model, shuffled, normalize=normalize),
            )


def test_video_vector_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(20)
    vector = VideoVector(rng.normal(size=17), "vlad", "dft")
    first, second = tmp_path / "a.tdfv", tmp_path / "b.tdfv"
    save_video_vector(vector, first)
    loaded = load_video_vector(first)
    assert loaded.method == "vlad" and loaded.branch == "dft"
    np.testing.assert_array_equal(loaded.values, vector.values)
    save_video_vector(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_video_vector_invariants():
    with pytest.raises(DataError):
        VideoVector(np.array([np.nan]), "average", "time")
    with pytest.raises(DataError):
        VideoVector(np.array([1.0]), "bogus", "time")
    with pytest.raises(DataError):
        VideoVector(np.array([1.0]), "average", "bogus")
