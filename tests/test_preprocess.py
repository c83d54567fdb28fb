import numpy as np
import pytest

from tdfenc import (
    PcaModel,
    l2_normalize,
    load_pca_model,
    pca_fit,
    pca_transform,
    save_pca_model,
    scale_to_norm,
)
from tdfenc.errors import DataError


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector_unchanged(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

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

    def test_requested_dims_clipped_with_warning(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(5, 10))
        with pytest.warns(UserWarning, match="clipping"):
            model = pca_fit(data, 9)
        assert model.output_dims == 4  # min(D=10, M-1=4)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            pca_fit(np.zeros((1, 4)), 2)


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
