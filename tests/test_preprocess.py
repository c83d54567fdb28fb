import numpy as np
import pytest

from tdfenc import (
    PcaModel,
    l2_normalize,
    load_pca_model,
    normalized_pca_transform,
    pca_fit,
    pca_transform,
    save_pca_model,
    scale_to_norm,
)
from tdfenc import binio
from tdfenc.errors import DataError
from tdfenc.preprocess import PCA_MAGIC


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector_unchanged(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

    def test_scalar_scaled_to_its_sign(self):
        assert l2_normalize(-3.0) == -1.0
        assert l2_normalize(0.0) == 0.0

    def test_unit_norm_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 30)))
            if np.linalg.norm(v) == 0:
                continue
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-12

    def test_idempotent_and_scale_invariant(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=12)
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)
        for alpha in (0.5, 2.0, 17.0):
            np.testing.assert_allclose(l2_normalize(alpha * v), once, atol=1e-12)

    def test_matrix_rows_normalized_and_zero_row_kept(self):
        rows = np.random.default_rng(4).normal(size=(5, 7))
        rows[2] = 0.0
        out = l2_normalize(rows)
        np.testing.assert_array_equal(out[2], np.zeros(7))
        for i in (0, 1, 3, 4):
            np.testing.assert_allclose(out[i], l2_normalize(rows[i]), rtol=0, atol=1e-15)
            assert abs(np.linalg.norm(out[i]) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_row_whose_norm_overflows_rejected(self):
        with pytest.raises(DataError, match="norm overflows float64"):
            l2_normalize([[1.0, 2.0, 2.0], [1e200, 1e200, 0.0]])

    def test_non_finite_row_rejected(self):
        rows = np.ones((3, 4))
        rows[1, 2] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            l2_normalize(rows)


class TestPcaFit:
    def test_line_data_gives_diagonal_component(self):
        t = np.linspace(-2, 2, 9)
        data = np.stack([t, t], axis=1)
        model = pca_fit(data, 2)
        np.testing.assert_allclose(model.components[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_exact_subspace_recovery(self):
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        coords = rng.normal(size=(40, 3))
        data = coords @ basis.T
        model = pca_fit(data, 3)
        projected = pca_transform(model, data)
        reconstructed = projected @ model.components + model.mean
        assert np.max(np.abs(reconstructed - data)) < 1e-10

    def test_explained_variance_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 10)) @ np.diag(rng.uniform(0.2, 3.0, 10))
        model = pca_fit(data, 10)
        eigenvalues = np.linalg.eigvalsh(np.cov(data.T))[::-1]
        np.testing.assert_allclose(model.explained_variance, eigenvalues, atol=1e-8)

    def test_transform_variance_matches_explained(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(60, 8))
        model = pca_fit(data, 5)
        coords = pca_transform(model, data)
        variances = coords.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, model.explained_variance, rtol=1e-6)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(size=(30, 7)), 4)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(25, 6))
        a = pca_fit(data, 3)
        b = pca_fit(data, 3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_requested_dims_above_rank_rejected(self):
        data = np.random.default_rng(7).normal(size=(5, 10))
        assert pca_fit(data, 4).output_dims == 4  # min(D=10, M-1=4)
        with pytest.raises(DataError, match="^requested 5 components exceeds attainable rank 4$"):
            pca_fit(data, 5)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            pca_fit(np.zeros((1, 4)), 2)

    def test_row_blocks_fit_as_if_stacked(self):
        data = np.random.default_rng(5).normal(size=(40, 6))
        stacked = pca_fit(data, 4)
        blocks = pca_fit([data[:7], data[7:7], data[7:31], data[31:]], 4)
        np.testing.assert_allclose(blocks.mean, stacked.mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(blocks.components, stacked.components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            blocks.explained_variance, stacked.explained_variance, rtol=1e-12
        )
        np.testing.assert_array_equal(pca_fit(data.tolist(), 4).components, stacked.components)

    def test_bad_row_blocks_rejected(self):
        with pytest.raises(DataError, match="M x D"):
            pca_fit([np.zeros((3, 4)), np.zeros((3, 5))], 2)
        with pytest.raises(DataError, match="at least 2 descriptors, got 1"):
            pca_fit([np.zeros((1, 4)), np.zeros((0, 4))], 2)


class _OnePass:
    """A sized iterable of row blocks that fails if it is iterated twice."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.iterations = 0

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        self.iterations += 1
        assert self.iterations == 1, "row blocks iterated twice"
        yield from self.blocks


class TestPcaFitInOnePass:
    def test_one_pass_fit_equals_the_stacked_fit(self):
        data = np.random.default_rng(5).normal(size=(40, 6))
        stacked = pca_fit(data, 4)
        streamed = pca_fit(_OnePass([data[:7], data[7:31], data[31:]]), 4)
        np.testing.assert_allclose(streamed.mean, stacked.mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(streamed.components, stacked.components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            streamed.explained_variance, stacked.explained_variance, rtol=1e-12
        )

    def test_empty_blocks_are_skipped(self):
        data = np.random.default_rng(6).normal(size=(30, 5))
        blocks = [data[:12], data[12:]]
        empty = np.zeros((0, 5))
        plain = pca_fit(_OnePass(blocks), 3)
        padded = pca_fit(_OnePass([empty, blocks[0], empty, empty, blocks[1], empty]), 3)
        for name in ("mean", "components", "explained_variance"):
            np.testing.assert_array_equal(getattr(padded, name), getattr(plain, name))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(DataError, match="^descriptors must be an M x D matrix$"):
            pca_fit(_OnePass([np.ones((3, 4)), np.ones((3, 5))]), 2)
        with pytest.raises(DataError, match="^descriptors must be an M x D matrix$"):
            pca_fit(_OnePass([np.ones((3, 4)), np.ones(4)]), 2)

    def test_data_far_from_the_origin_matches_the_two_pass_reference(self):
        # the block means sit 1e3 from the origin and their spread is ~1e-3, so
        # a between-block term taken as Σ n μ_b μ_bᵀ − m μ μᵀ cancels to noise
        rng = np.random.default_rng(13)
        data = _offset_data(rng)
        data[200:] += 0.05  # the block means differ, so the between-block term counts
        mean = data.mean(axis=0)
        eigenvalues, eigenvectors = np.linalg.eigh((data - mean).T @ (data - mean))
        axes = eigenvectors[:, ::-1].T
        axes *= np.sign(axes[np.arange(6), np.argmax(np.abs(axes), axis=1)])[:, None]
        bounds = np.cumsum(rng.integers(1, 40, size=30))
        model = pca_fit(_OnePass(np.split(data, bounds[bounds < len(data)])), 6)
        np.testing.assert_allclose(model.mean, mean, rtol=1e-14)
        np.testing.assert_allclose(model.components, axes, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            model.explained_variance, eigenvalues[::-1] / (len(data) - 1), rtol=1e-9
        )


def _svd_reference(data, k):
    """Top-k principal axes and variances from a thin SVD of the centered data,
    with each axis signed so that its largest-magnitude entry is positive."""
    centered = data - data.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:k]
    signs = np.sign(axes[np.arange(k), np.argmax(np.abs(axes), axis=1)])
    return axes * signs[:, None], singular[:k] ** 2 / (data.shape[0] - 1)


def _offset_data(rng):
    return 1e3 + rng.normal(0.0, 1e-2, size=(400, 6)) * np.arange(1.0, 7.0)


def _unit_frames(rng):
    frames = rng.normal(size=(500, 12)) * np.linspace(0.5, 3.0, 12)
    frames[:, 0] += 4.0
    return frames / np.linalg.norm(frames, axis=1, keepdims=True)


def _rank_three(rng):
    basis, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    return 2.0 + (rng.normal(size=(60, 3)) * [3.0, 2.0, 1.0]) @ basis.T


@pytest.mark.parametrize(
    "make,rank", [(_offset_data, 6), (_unit_frames, 12), (_rank_three, 3)],
    ids=["large-offset", "unit-frames", "rank-deficient"],
)
def test_pca_fit_matches_an_svd_reference(make, rank):
    data = make(np.random.default_rng(12))
    model = pca_fit(data, data.shape[1])
    axes, variances = _svd_reference(data, rank)
    np.testing.assert_allclose(model.components[:rank], axes, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.explained_variance[:rank], variances, rtol=1e-9)
    np.testing.assert_allclose(model.mean, data.mean(axis=0), rtol=1e-15)
    assert model.components.flags.c_contiguous
    assert np.all(model.explained_variance >= 0.0)


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(20, 5))
        model = pca_fit(data, 3)
        np.testing.assert_allclose(pca_transform(model, model.mean), np.zeros(3), atol=1e-12)

    def test_identity_model_passthrough(self):
        model = PcaModel(
            mean=np.zeros(3), components=np.eye(3), explained_variance=np.array([3.0, 2.0, 1.0])
        )
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(pca_transform(model, v), v)

    def test_rank_one_reconstruction(self):
        t = np.linspace(-1, 3, 11)
        data = np.stack([2 * t + 1, -t + 4], axis=1)
        model = pca_fit(data, 1)
        coords = pca_transform(model, data)
        reconstructed = coords @ model.components + model.mean
        assert np.max(np.abs(reconstructed - data)) < 1e-10
        # idempotence in the subspace: re-transforming reconstructions reproduces coordinates
        np.testing.assert_allclose(pca_transform(model, reconstructed), coords, atol=1e-10)

    def test_dimension_mismatch(self):
        model = PcaModel(
            mean=np.zeros(3), components=np.eye(3), explained_variance=np.array([1.0, 1.0, 1.0])
        )
        with pytest.raises(DataError):
            pca_transform(model, np.zeros(4))


def _composed(model, frames):
    return pca_transform(model, l2_normalize(frames))


class TestNormalizedPcaTransform:
    # projecting before normalizing reorders the arithmetic, so it matches the
    # two-step transform to rounding, not bit for bit
    ATOL = 1e-12

    def test_random_frames(self):
        rng = np.random.default_rng(20)
        model = pca_fit(l2_normalize(rng.normal(size=(60, 12))), 5)
        for frames in (rng.normal(size=(40, 12)) * 7.0, rng.normal(size=(12, 40)).T):
            np.testing.assert_allclose(
                normalized_pca_transform(model, frames), _composed(model, frames),
                rtol=0, atol=self.ATOL,
            )
        vector = rng.normal(size=12)
        np.testing.assert_allclose(
            normalized_pca_transform(model, vector), _composed(model, vector),
            rtol=0, atol=self.ATOL,
        )

    def test_frames_whose_normalized_rows_almost_equal_the_mean(self):
        # the worst case for projecting before centering: x W^T / |x| and
        # mu W^T are both O(1) and nearly cancel
        rng = np.random.default_rng(21)
        u = l2_normalize(rng.normal(size=16))
        frames = 1e3 * u + 1e-3 * rng.normal(size=(80, 16))
        model = pca_fit(l2_normalize(frames), 4)
        expected = _composed(model, frames)
        assert np.max(np.abs(expected)) < 1e-5
        np.testing.assert_allclose(
            normalized_pca_transform(model, frames), expected, rtol=0, atol=self.ATOL
        )

    def test_zero_rows_give_minus_the_projected_mean(self):
        rng = np.random.default_rng(22)
        model = pca_fit(l2_normalize(rng.normal(size=(30, 6))), 3)
        frames = rng.normal(size=(5, 6))
        frames[[0, 3]] = 0.0
        out = normalized_pca_transform(model, frames)
        np.testing.assert_allclose(out, _composed(model, frames), rtol=0, atol=self.ATOL)
        np.testing.assert_allclose(
            out[[0, 3]], np.tile(-model.mean @ model.components.T, (2, 1)), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "bad,message",
        [(1e200, "cannot normalize a vector whose norm overflows float64"),
         (np.inf, "cannot normalize a non-finite vector"),
         (np.nan, "cannot normalize a non-finite vector")],
    )
    def test_norm_errors_are_those_of_l2_normalize(self, bad, message):
        model = pca_fit(l2_normalize(np.random.default_rng(23).normal(size=(10, 3))), 2)
        frames = np.ones((4, 3))
        frames[2, 1] = bad
        for transform in (normalized_pca_transform, _composed):
            with pytest.raises(DataError, match=f"^{message}$"):
                transform(model, frames)

    def test_dimension_mismatch_is_that_of_pca_transform(self):
        model = pca_fit(l2_normalize(np.random.default_rng(24).normal(size=(10, 3))), 2)
        message = "^dimension mismatch: input has 4 dims, PCA expects 3$"
        for transform in (normalized_pca_transform, pca_transform):
            with pytest.raises(DataError, match=message):
                transform(model, np.ones((5, 4)))


class TestScaleToNorm:
    def test_three_four_example(self):
        np.testing.assert_allclose(scale_to_norm([3.0, 4.0], 0.6), [0.36, 0.48], atol=1e-12)

    def test_unit_vector_to_two_fifths(self):
        v = l2_normalize(np.array([1.0, 2.0, 2.0]))
        out = scale_to_norm(v, 0.4)
        assert np.linalg.norm(out) == pytest.approx(0.4, abs=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out), v, atol=1e-12)

    def test_norm_property(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            v = rng.normal(size=int(rng.integers(1, 20)))
            if np.linalg.norm(v) == 0:
                continue
            target = float(rng.uniform(0.1, 5.0))
            assert np.linalg.norm(scale_to_norm(v, target)) == pytest.approx(target, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="zero vector"):
            scale_to_norm([0.0, 0.0], 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pca_components_rejected_without_warnings(tmp_path):
    mean, components, explained = np.zeros(2), np.array([[1e200, 0.0]]), np.ones(1)
    with pytest.raises(DataError, match="overflow float64"):
        PcaModel(mean=mean, components=components, explained_variance=explained)
    path = tmp_path / "huge.tdfp"
    path.write_bytes(
        binio.pack_header(PCA_MAGIC, 2, 1)
        + binio.f64_bytes(mean)
        + binio.f64_bytes(components)
        + binio.f64_bytes(explained)
    )
    with pytest.raises(DataError, match="overflow float64"):
        load_pca_model(path)


def test_pca_model_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(10)
    model = pca_fit(rng.normal(size=(30, 6)), 4)
    first = tmp_path / "a.tdfp"
    second = tmp_path / "b.tdfp"
    save_pca_model(model, first)
    save_pca_model(load_pca_model(first), second)
    assert first.read_bytes() == second.read_bytes()
    back = load_pca_model(first)
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.components, model.components)
    np.testing.assert_array_equal(back.explained_variance, model.explained_variance)


@pytest.mark.parametrize("field", ["mean", "components", "explained_variance"])
def test_pca_model_rejects_non_finite_parameters(field):
    params = dict(mean=np.zeros(3), components=np.eye(3)[:2], explained_variance=[2.0, 1.0])
    params[field] = np.array(params[field], dtype=np.float64)
    params[field].flat[0] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        PcaModel(**params)
