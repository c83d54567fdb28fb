import tracemalloc
import warnings

import numpy as np
import pytest

from tdfenc import (
    Codebook,
    GmmModel,
    LlcParams,
    average_pool,
    fisher_encode,
    gmm_fit,
    gmm_responsibilities,
    kmeans_fit,
    llc_encode,
    llc_pool,
    load_codebook,
    load_gmm_model,
    save_codebook,
    save_gmm_model,
    vlad_encode,
)
from tdfenc import binio
from tdfenc.codebook import (
    CODEBOOK_MAGIC,
    VARIANCE_FLOOR_SCALE,
    _LABEL_BLOCK_ELEMENTS,
    _kmeans_pp_init,
    _nearest_labels,
    _repair_empty_clusters,
)
from tdfenc.errors import DataError

from oracles import kmeans_pp_reference, kmeans_reference, squared_distances


def _block_rows(num_centers):
    """Rows per block of _nearest_labels at K centers: its score budget over K."""
    return max(1, _LABEL_BLOCK_ELEMENTS // num_centers)


def _grid_ties():
    """Half-integer points among a 4 x 4 grid of centers, then the grid points
    themselves, and their exact squared distances to the centers. Each
    half-integer point has 4 centers at one distance and the next ring of 8 at
    another, and every score is exact in floating point."""
    grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=np.float64)
    points = np.array([[i + 0.5, j + 0.5] for i in range(3) for j in range(3)])
    points = np.vstack([points, grid[::-1]])
    exact = np.sum((points[:, None, :] - grid[None, :, :]) ** 2, axis=2)
    return points, grid, exact


_OVERFLOW_CASES = [
    # −2·x·c overflows to −inf, the lowest score
    (np.array([[1e200]]), np.array([[1e120], [0.0]]), None),
    # ‖c‖² overflows to +inf as well, so the score is NaN
    (np.array([[1e200]]), np.array([[1e160], [0.0]]), None),
    # ‖c‖² of the far center is +inf, which the +inf mask would mistake
    # for an unpicked center and return center 0 twice
    (np.array([[0.0, 0.0]]), np.array([[0.0, 1.0], [1e200, 0.0]]), 2),
]


def _lift(points):
    """Points in the homogeneous form kmeans_fit scores, [x | 1]."""
    return np.hstack([points, np.ones((points.shape[0], 1))])


class TestKmeans:
    def test_two_separated_clusters(self):
        data = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        codebook = kmeans_fit(data, 2, seed=0)
        centroids = sorted(codebook.centroids.tolist())
        np.testing.assert_allclose(centroids, [[0.0, 0.5], [10.0, 0.5]])

    def test_k_equals_m_zero_objective(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 3))
        trace = []
        codebook = kmeans_fit(data, 6, seed=1, trace=trace)
        assert trace[-1] == pytest.approx(0.0, abs=1e-20)
        assert sorted(codebook.centroids.tolist()) == sorted(data.tolist())

    def test_objective_trace_monotone(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(120, 4)) + rng.integers(0, 3, size=(120, 1)) * 2.0
            trace = []
            kmeans_fit(data, 8, seed=seed, trace=trace)
            diffs = np.diff(trace)
            assert len(trace) >= 1
            assert np.all(diffs <= 1e-10), trace

    def test_too_few_points(self):
        with pytest.raises(DataError):
            kmeans_fit(np.zeros((2, 2)) + np.arange(2)[:, None], 3, seed=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(50, 3))
        a = kmeans_fit(data, 5, seed=9)
        b = kmeans_fit(data, 5, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("max_iters", [100, 4])
    def test_trajectory_equals_plain_lloyd_loop(self, max_iters):
        # twelve blobs, 64 words: 14 iterations to converge, so 4 is at the cap
        rng = np.random.default_rng(0)
        blobs = 4.0 * rng.normal(size=(12, 8))
        data = rng.normal(size=(1500, 8)) + blobs[rng.integers(12, size=1500)]
        trace = []
        got = kmeans_fit(data, 64, seed=0, max_iters=max_iters, trace=trace)
        expected, iterations = kmeans_reference(data, 64, 0, max_iters)
        assert iterations == min(max_iters, 14)
        assert len(trace) == iterations
        np.testing.assert_array_equal(got.centroids, expected)

    def test_fit_holds_one_lifted_copy(self):
        # staged-llc's d and K: an N x K score matrix (2 M floats) would exceed
        # the bound four times over
        n, d, num_words = 8_000, 16, 256
        data = np.random.default_rng(3).normal(size=(n, d))
        tracemalloc.start()
        try:
            kmeans_fit(data, num_words, seed=1, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the lifted copy [x | 1], the flat index of _row_sums, one block of
        # scores, and a few N-vectors (labels, row norms, k-means++ weights)
        assert peak <= 8 * (n * (d + 1) + n * d + _LABEL_BLOCK_ELEMENTS + 8 * n)

    def test_empty_cluster_repair_takes_farthest_point(self):
        data = np.array([[0.0], [0.1], [0.2], [50.0]])
        centroids = np.array([[0.1], [200.0]])
        labels = np.array([0, 0, 0, 0])  # cluster 1 empty
        repaired = _repair_empty_clusters(data, centroids, labels)
        assert repaired[3] == 1  # farthest point reseats the empty cluster
        np.testing.assert_array_equal(centroids[1], [50.0])


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptors_rejected(self, bad):
        data = np.random.default_rng(0).normal(size=(30, 3))
        data[17, 1] = bad
        with pytest.raises(DataError, match="descriptors contain non-finite values"):
            kmeans_fit(data, 4, seed=0)

    def test_overflowing_distances_rejected(self):
        data = np.array([[1e200], [-1e200], [0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="overflow"):
                kmeans_fit(data, 2, seed=0)

    @pytest.mark.parametrize(
        "data",
        [
            np.array([[1e200], [-1e200], [0.0]]),  # squared norms overflow
            np.array([[1.2e154], [-1.2e154], [0.0]]),  # norms fit, their sums do not
            np.tile([[1e153], [-1e153]], (100, 1)),  # distances fit, their total does not
            np.array([[1e154], [0.0], [1.0]]),  # the k-means++ start fits, a Lloyd step does not
        ],
    )
    def test_overflowing_distances_raise_without_warnings(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="descriptor distances overflow float64"):
                kmeans_fit(data, 2, seed=0)


class TestKmeansPlusPlusInit:
    @pytest.mark.parametrize("seed", [1, 2, 101])
    @pytest.mark.parametrize("shape,num_words", [((500, 16), 64), ((300, 40), 16), ((50, 2), 50)])
    def test_draws_equal_rng_choice(self, seed, shape, num_words):
        data = np.random.default_rng(seed).normal(size=shape)
        expected = kmeans_pp_reference(data, num_words, np.random.default_rng(seed))
        got = _kmeans_pp_init(data, num_words, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, expected)

    def test_coinciding_points_take_lowest_free_index(self):
        data = np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]]), 4, axis=0)
        for seed in range(5):
            expected = kmeans_pp_reference(data, 6, np.random.default_rng(seed))
            got = _kmeans_pp_init(data, 6, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, expected)


class TestNearestLabels:
    # the block boundary at K=256; TestLiftedPoints covers every K's boundary
    @pytest.mark.parametrize(
        "num_points", [1, _block_rows(256) - 1, _block_rows(256), _block_rows(256) + 1]
    )
    @pytest.mark.parametrize("num_centers", [1, 16, 256])
    def test_matches_argmin_of_squared_distances(self, num_points, num_centers):
        rng = np.random.default_rng(num_points * 1000 + num_centers)
        points = rng.normal(size=(num_points, 8))
        centers = rng.normal(size=(num_centers, 8))
        expected = np.argmin(squared_distances(points, centers), axis=1)
        np.testing.assert_array_equal(_nearest_labels(points, centers), expected)

    def test_ties_break_to_lowest_index(self):
        # every half-integer point is equidistant from the 4 grid corners
        # around it, and every score is exact in floating point
        points, grid, exact = _grid_ties()
        expected = np.argmin(exact, axis=1)
        assert np.sum(exact[:9] == exact[:9].min(axis=1, keepdims=True)) == 36
        np.testing.assert_array_equal(_nearest_labels(points, grid), expected)

    # the block boundary at K=256; TestLiftedPoints covers every K's boundary
    @pytest.mark.parametrize(
        "num_points", [1, _block_rows(256) - 1, _block_rows(256), _block_rows(256) + 1]
    )
    @pytest.mark.parametrize("num_centers", [16, 256])
    @pytest.mark.parametrize("k", [1, 2, 5, "all"])
    def test_k_nearest_match_stable_argsort(self, num_points, num_centers, k):
        k = num_centers if k == "all" else k
        rng = np.random.default_rng(num_points * 1000 + num_centers + k)
        points = rng.normal(size=(num_points, 8))
        centers = rng.normal(size=(num_centers, 8))
        expected = np.argsort(squared_distances(points, centers), axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(_nearest_labels(points, centers, k), expected)
        if k == 1:
            np.testing.assert_array_equal(_nearest_labels(points, centers), expected[:, 0])

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 9, 16])
    def test_k_nearest_ties_break_to_lowest_index(self, k):
        # each half-integer point has 4 grid corners at one exact distance, the
        # next ring of 8 at another, so ties straddle the k-th place
        points, grid, exact = _grid_ties()
        expected = np.argsort(exact, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(_nearest_labels(points, grid, k), expected)

    @pytest.mark.parametrize("points, centers, k", _OVERFLOW_CASES)
    def test_overflowing_scores_raise_without_warnings(self, points, centers, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="descriptor distances overflow float64"):
                _nearest_labels(points, centers, k)


# (num_points, d, K, k): K above d, K below d, d past one BLAS k-block, and
# for each K the rows around its block boundary; k is 1, 2, 5 and all K
_LIFTED_CASES = [
    (num_points, d, num_centers, k)
    for num_points, d, num_centers in [(700, 16, 256), (700, 200, 16), (700, 600, 32)]
    + [
        (rows, 8, num_centers)
        for num_centers in (1, 16, 256)
        for rows in (_block_rows(num_centers) + offset for offset in (-1, 0, 1))
    ]
    for k in sorted({min(k, num_centers) for k in (1, 2, 5, num_centers)})
]


class TestLiftedPoints:
    """The homogeneous form kmeans_fit passes: points [x | 1] are scored by one
    matmul against [−2Cᵀ ; ‖c‖²] and rank centers as the raw points do."""

    @pytest.mark.parametrize("num_points, d, num_centers, k", _LIFTED_CASES)
    def test_k_nearest_equal_raw_and_stable_argsort(self, num_points, d, num_centers, k):
        rng = np.random.default_rng(num_points * 1000 + d * 10 + num_centers + k)
        points = rng.normal(size=(num_points, d))
        centers = rng.normal(size=(num_centers, d))
        expected = np.argsort(squared_distances(points, centers), axis=1, kind="stable")[:, :k]
        lifted = _nearest_labels(_lift(points), centers, k)
        np.testing.assert_array_equal(lifted, _nearest_labels(points, centers, k))
        np.testing.assert_array_equal(lifted, expected)
        if k == 1:
            np.testing.assert_array_equal(_nearest_labels(_lift(points), centers), expected[:, 0])

    @pytest.mark.parametrize("k", [None, 2, 3, 4, 5, 9, 16])
    def test_ties_break_to_lowest_index(self, k):
        points, grid, exact = _grid_ties()
        expected = np.argsort(exact, axis=1, kind="stable")[:, : 1 if k is None else k]
        got = _nearest_labels(_lift(points), grid, k)
        np.testing.assert_array_equal(got, expected[:, 0] if k is None else expected)

    @pytest.mark.parametrize("points, centers, k", _OVERFLOW_CASES)
    def test_overflowing_scores_raise_without_warnings(self, points, centers, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="descriptor distances overflow float64"):
                _nearest_labels(_lift(points), centers, k)


class TestAssignNearest:
    """Nearest-centroid assignment, the label step of K-means, GMM and VLAD."""

    def test_exact_centroid(self):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
        points = centroids[[2, 0, 3, 1]]
        np.testing.assert_array_equal(_nearest_labels(points, centroids), [2, 0, 3, 1])

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[-1.0], [1.0]])
        np.testing.assert_array_equal(_nearest_labels(np.array([[0.0]]), centroids), [0])

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(1)
        centroids = rng.normal(size=(20, 5))
        points = rng.normal(size=(50, 5))
        expected = [
            min(range(20), key=lambda k: (np.linalg.norm(x - centroids[k]), k)) for x in points
        ]
        np.testing.assert_array_equal(_nearest_labels(points, centroids), expected)

    def test_dimension_mismatch(self):
        codebook = Codebook(np.array([[0.0, 0.0]]))
        with pytest.raises(DataError, match="dimension mismatch"):
            vlad_encode(codebook, np.zeros((1, 3)))


class TestGmmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(2)
        data = rng.normal(loc=1.5, scale=0.7, size=(400, 3))
        model = gmm_fit(data, 1, seed=0)
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(model.variances[0], data.var(axis=0), atol=1e-6)
        assert model.weights[0] == pytest.approx(1.0)

    def test_two_blob_weights_match_proportions(self):
        rng = np.random.default_rng(3)
        a = rng.normal(-5.0, 0.5, size=(300, 1))
        b = rng.normal(5.0, 0.5, size=(100, 1))
        model = gmm_fit(np.vstack([a, b]), 2, seed=0)
        weights = sorted(model.weights)
        assert abs(weights[0] - 0.25) < 0.02
        assert abs(weights[1] - 0.75) < 0.02

    def test_log_likelihood_trace_non_decreasing(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            data = np.vstack(
                [rng.normal(c * 2.0, 0.6, size=(60, 3)) for c in range(3)]
            )
            trace = []
            gmm_fit(data, 3, seed=seed, trace=trace)
            assert len(trace) >= 2
            assert np.all(np.diff(trace) >= -1e-10), trace

    def test_variances_floored(self):
        data = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        model = gmm_fit(data, 2, seed=0)
        assert np.all(model.variances > 0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(80, 4))
        a = gmm_fit(data, 4, seed=3)
        b = gmm_fit(data, 4, seed=3)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.variances, b.variances)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_descriptors_rejected(self, bad):
        data = np.random.default_rng(0).normal(size=(30, 3))
        data[4, 0] = bad
        with pytest.raises(DataError, match="descriptors contain non-finite values"):
            gmm_fit(data, 3, seed=0)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            gmm_fit(np.arange(4.0).reshape(2, 2), 3, seed=0)

    def test_one_iteration_returns_the_hard_m_step_model(self):
        rng = np.random.default_rng(11)
        data = np.hstack([rng.normal(1.0, 0.5, size=(90, 2)), np.full((90, 1), 3.0)])
        trace = []
        model = gmm_fit(data, 3, seed=4, max_iters=1, trace=trace)
        labels = _nearest_labels(data, kmeans_fit(data, 3, seed=4, max_iters=1).centroids)
        floor = VARIANCE_FLOOR_SCALE * float(np.mean(np.var(data, axis=0)))
        members = [data[labels == k] for k in range(3)]
        weights = [len(rows) / len(data) for rows in members]
        means = [rows.mean(axis=0) for rows in members]
        variances = [np.maximum(rows.var(axis=0), floor) for rows in members]
        np.testing.assert_allclose(model.weights, weights, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(model.means, means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(model.variances, variances, rtol=1e-12, atol=1e-12)
        # the constant column is floored in every component
        np.testing.assert_array_equal(model.variances[:, 2], floor)
        assert len(trace) == 1

    @pytest.mark.parametrize("max_iters,at_cap", [(1, True), (3, True), (100, False)])
    def test_returns_the_last_model_it_scored(self, max_iters, at_cap):
        rng = np.random.default_rng(12)
        data = np.vstack([rng.normal(c * 2.0, 0.6, size=(60, 3)) for c in range(3)])
        trace = []
        model = gmm_fit(data, 3, seed=2, max_iters=max_iters, tol=1e-12, trace=trace)
        assert (len(trace) == max_iters) == at_cap
        assert trace[-1] == gmm_responsibilities(model, data)[1]

    @pytest.mark.parametrize("max_iters", [1, 100])
    def test_component_with_no_row_stays_valid(self, monkeypatch, max_iters):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(50, 2))
        centroids = np.array([[-1.0, 0.0], [1.0, 0.0], [1e3, 1e3]])
        monkeypatch.setattr(
            "tdfenc.codebook.kmeans_fit", lambda *args, **kwargs: Codebook(centroids)
        )
        assert np.bincount(_nearest_labels(data, centroids), minlength=3)[2] == 0
        model = gmm_fit(data, 3, seed=0, max_iters=max_iters)
        assert isinstance(model, GmmModel)
        assert np.all(model.weights > 0) and np.all(model.variances > 0)
        assert np.all(np.isfinite(fisher_encode(model, data).values))


class TestGmmPosteriors:
    """Posteriors of ``gmm_responsibilities``, one row per descriptor."""

    def test_single_component_is_one(self):
        model = GmmModel(
            weights=np.array([1.0]), means=np.array([[0.0, 0.0]]), variances=np.ones((1, 2))
        )
        resp, _ = gmm_responsibilities(model, np.array([[5.0, -3.0], [0.1, 0.2]]))
        np.testing.assert_allclose(resp, [[1.0], [1.0]])

    def test_symmetric_midpoint(self):
        model = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.ones((2, 1)),
        )
        resp, _ = gmm_responsibilities(model, np.array([0.0]))
        np.testing.assert_allclose(resp, [[0.5, 0.5]], atol=1e-12)

    def test_simplex_property(self):
        rng = np.random.default_rng(4)
        weights = rng.dirichlet(np.ones(5))
        model = GmmModel(
            weights=weights,
            means=rng.normal(size=(5, 3)),
            variances=rng.uniform(0.5, 2.0, size=(5, 3)),
        )
        resp, _ = gmm_responsibilities(model, rng.normal(size=(30, 3)) * 3)
        assert np.all(resp >= 0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(4))
        means = rng.normal(size=(4, 2))
        variances = rng.uniform(0.5, 2.0, size=(4, 2))
        model = GmmModel(weights=weights, means=means, variances=variances)
        data = rng.normal(size=(30, 2))
        resp, _ = gmm_responsibilities(model, data)
        for x, q in zip(data, resp):
            dens = weights * np.prod(
                np.exp(-0.5 * (x - means) ** 2 / variances) / np.sqrt(2 * np.pi * variances),
                axis=1,
            )
            np.testing.assert_allclose(q, dens / dens.sum(), atol=1e-10)

    def test_one_descriptor_is_one_row(self):
        rng = np.random.default_rng(6)
        model = GmmModel(
            weights=rng.dirichlet(np.ones(3)),
            means=rng.normal(size=(3, 2)),
            variances=rng.uniform(0.5, 2.0, size=(3, 2)),
        )
        x = rng.normal(size=2)
        one, one_ll = gmm_responsibilities(model, x)
        row, row_ll = gmm_responsibilities(model, x[None, :])
        np.testing.assert_array_equal(one, row)
        assert one.shape == (1, 3) and one_ll == row_ll

    def test_dimension_mismatch(self):
        model = GmmModel(
            weights=np.array([1.0]), means=np.array([[0.0]]), variances=np.array([[1.0]])
        )
        with pytest.raises(DataError, match="dimension mismatch"):
            gmm_responsibilities(model, np.zeros(2))


class TestValidation:
    def test_codebook_duplicate_centroids_rejected(self):
        with pytest.raises(DataError, match="identical"):
            Codebook(np.array([[1.0, 2.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 3.4, 1e2, 1e4, 1e5])
    def test_duplicate_centroids_rejected_at_every_scale(self, scale):
        # the Gram expansion's rounding grows with the centroids' squared norms,
        # so a threshold on it lets exact duplicates of large centroids through
        rng = np.random.default_rng(int(scale * 1000) + 7)
        for _ in range(150):
            num_words, d = int(rng.integers(2, 40)), int(rng.integers(1, 64))
            centroids = rng.normal(size=(num_words, d)) * scale
            i, j = sorted(int(x) for x in rng.choice(num_words, 2, replace=False))
            centroids[j] = centroids[i]
            if rng.random() < 0.5:
                # a duplicate up to 1e-12 away counts as identical too
                centroids[j, int(rng.integers(d))] += rng.uniform(-5e-13, 5e-13)
            with pytest.raises(DataError, match=rf"^centroids {i} and {j} are identical$"):
                Codebook(centroids)

    def test_distinct_and_single_centroids_accepted(self):
        Codebook(np.array([[3.0, -1.0]]))
        Codebook(np.array([[0.0], [2e-12]]))
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 1e5):
            Codebook(rng.normal(size=(300, 16)) * scale)

    def test_duplicate_check_forms_no_pairwise_matrix(self):
        # the K x K distance matrix of these centroids would take 128 MiB
        centroids = np.random.default_rng(8).normal(size=(4096, 8))
        tracemalloc.start()
        try:
            Codebook(centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of scores plus the K x 2 neighbours and their differences
        block = _block_rows(4096) * 4096
        assert peak <= 8 * (block + 4096 * 2 * (8 + 4)) < 4096**2 * 8 / 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_centroid_distances_rejected_without_warnings(self, tmp_path):
        centroids = np.array([[1e200, 0.0], [0.0, 1e200]])
        with pytest.raises(DataError, match="overflow float64"):
            Codebook(centroids)
        path = tmp_path / "huge.tdfc"
        path.write_bytes(binio.pack_header(CODEBOOK_MAGIC, 2, 2) + binio.f64_bytes(centroids))
        with pytest.raises(DataError, match="overflow float64"):
            load_codebook(path)

    def test_gmm_weights_must_sum_to_one(self):
        with pytest.raises(DataError):
            GmmModel(
                weights=np.array([0.6, 0.6]),
                means=np.zeros((2, 1)),
                variances=np.ones((2, 1)),
            )


def test_codebook_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    codebook = kmeans_fit(rng.normal(size=(40, 3)), 5, seed=0)
    first, second = tmp_path / "a.tdfc", tmp_path / "b.tdfc"
    save_codebook(codebook, first)
    save_codebook(load_codebook(first), second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(load_codebook(first).centroids, codebook.centroids)


def test_gmm_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(8)
    model = gmm_fit(rng.normal(size=(60, 2)), 3, seed=0)
    first, second = tmp_path / "a.tdfg", tmp_path / "b.tdfg"
    save_gmm_model(model, first)
    save_gmm_model(load_gmm_model(first), second)
    assert first.read_bytes() == second.read_bytes()
    back = load_gmm_model(first)
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.variances, model.variances)


# Every function that takes descriptors checks them by one rule. Each caller
# is (call, takes a model, takes one descriptor instead of a matrix).
_CODEBOOK = Codebook(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
_GMM = GmmModel(
    weights=np.array([0.5, 0.5]),
    means=np.array([[0.0, 0.0], [1.0, 1.0]]),
    variances=np.ones((2, 2)),
)
_DESCRIPTOR_CALLERS = {
    "kmeans_fit": (lambda x: kmeans_fit(x, 2, seed=0), False, False),
    "gmm_fit": (lambda x: gmm_fit(x, 2, seed=0), False, False),
    "gmm_responsibilities": (lambda x: gmm_responsibilities(_GMM, x), True, False),
    "average_pool": (average_pool, False, False),
    "llc_pool": (lambda x: llc_pool(_CODEBOOK, LlcParams(neighbors=2), x), True, False),
    "fisher_encode": (lambda x: fisher_encode(_GMM, x), True, False),
    "vlad_encode": (lambda x: vlad_encode(_CODEBOOK, x), True, False),
    "llc_encode": (lambda x: llc_encode(_CODEBOOK, LlcParams(neighbors=2), x), True, True),
}


def _with_value(value):
    def make(good):
        bad = good.copy()
        bad.flat[1] = value
        return bad

    return make


# case: (bad input made from a good one, the message that rejects it)
_DESCRIPTOR_CASES = {
    "ndim": (lambda good: good[None], "non-empty N x d matrix"),
    "no-rows": (lambda good: good[:0], "non-empty N x d matrix"),
    "dims": (
        lambda good: np.concatenate([good, good[..., :1]], axis=-1),
        "dimension mismatch: descriptors have 3 dims, model expects 2",
    ),
    "nan": (_with_value(np.nan), "descriptors contain non-finite values"),
    "inf": (_with_value(np.inf), "descriptors contain non-finite values"),
    "-inf": (_with_value(-np.inf), "descriptors contain non-finite values"),
}


@pytest.mark.parametrize(
    "caller,case",
    [
        (caller, case)
        for caller, (_, takes_model, _) in _DESCRIPTOR_CALLERS.items()
        for case in _DESCRIPTOR_CASES
        if takes_model or case != "dims"
    ],
)
def test_descriptor_callers_share_one_check(caller, case):
    call, _, one_row = _DESCRIPTOR_CALLERS[caller]
    good = np.array([[0.2, 0.1], [0.9, 0.3], [0.1, 0.8], [0.7, 0.6]])
    if one_row:
        good = good[0]
    call(good)
    make_bad, message = _DESCRIPTOR_CASES[case]
    with pytest.raises(DataError, match=message):
        call(make_bad(good))
