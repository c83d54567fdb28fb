import numpy as np
import pytest

from tdfenc import (
    FeatureSequence,
    Spectrum,
    cubic_resample,
    dft_magnitude,
    naive_dft_reference,
    spectrum_of_sequence,
)
from tdfenc.errors import DataError

from oracles import cubic_oracle


class TestDftMagnitude:
    def test_constant_signal_has_only_dc(self):
        np.testing.assert_allclose(dft_magnitude([2.0, 2.0, 2.0, 2.0]), [8, 0, 0, 0], atol=1e-12)

    def test_impulse_has_flat_spectrum(self):
        np.testing.assert_allclose(dft_magnitude([1.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1], atol=1e-12)

    def test_single_sample(self):
        np.testing.assert_array_equal(naive_dft_reference([0.0]), [0.0])
        np.testing.assert_array_equal(dft_magnitude([3.0]), [3.0])

    def test_matches_naive_reference_on_random_signals(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 513))
            signal = rng.normal(size=n)
            np.testing.assert_allclose(
                dft_magnitude(signal), naive_dft_reference(signal), atol=1e-9
            )

    def test_length7_example(self):
        rng = np.random.default_rng(4)
        signal = rng.normal(size=7)
        np.testing.assert_allclose(dft_magnitude(signal), naive_dft_reference(signal), atol=1e-10)

    def test_output_length_equals_input_length(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 8, 12, 100):
            assert dft_magnitude(rng.normal(size=n)).shape == (n,)

    def test_triangle_inequality_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            signal = rng.normal(size=int(rng.integers(1, 200)))
            assert dft_magnitude(signal).max() <= np.abs(signal).sum() + 1e-9

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(21)
        for n in (16, 12, 37):
            signal = rng.normal(size=n)
            reference = dft_magnitude(signal)
            for shift in (1, 3, n - 1):
                np.testing.assert_allclose(
                    dft_magnitude(np.roll(signal, shift)), reference, atol=1e-9
                )

    def test_batched_rows_match_per_row(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(5, 33))
        batched = dft_magnitude(matrix)
        for k in range(5):
            np.testing.assert_allclose(batched[k], dft_magnitude(matrix[k]), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            dft_magnitude([1.0, np.nan])
        with pytest.raises(DataError):
            naive_dft_reference([np.inf])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            dft_magnitude([])


class TestCubicResample:
    def test_constant_stays_constant(self):
        np.testing.assert_allclose(cubic_resample([5.0, 5.0, 5.0], 6), np.full(6, 5.0), atol=1e-12)
        np.testing.assert_allclose(cubic_resample(np.full(9, 2.5), 31), np.full(31, 2.5), atol=1e-12)

    def test_same_length_is_identity(self):
        np.testing.assert_allclose(cubic_resample([1.0, 2.0, 3.0, 4.0], 4), [1, 2, 3, 4], atol=1e-12)
        rng = np.random.default_rng(1)
        for n in (4, 9, 17):
            pts = rng.normal(size=n)
            np.testing.assert_allclose(cubic_resample(pts, n), pts, atol=1e-12)

    def test_linear_ramp_stays_linear(self):
        out = cubic_resample([0.0, 1.0, 2.0, 3.0, 4.0], 9)
        np.testing.assert_allclose(out, np.linspace(0, 4, 9), atol=1e-9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            target = int(rng.integers(1, 81))
            pts = rng.normal(size=n)
            np.testing.assert_allclose(
                cubic_resample(pts, target), cubic_oracle(pts, target), atol=1e-9
            )

    def test_short_input_fallbacks(self):
        np.testing.assert_allclose(cubic_resample([7.0], 4), np.full(4, 7.0))
        np.testing.assert_allclose(cubic_resample([0.0, 1.0], 3), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(cubic_resample([0.0, 2.0, 4.0], 5), [0, 1, 2, 3, 4])

    def test_single_output_point(self):
        np.testing.assert_allclose(cubic_resample([3.0, 9.0, 1.0, 5.0], 1), [3.0])

    def test_rejects_bad_target(self):
        with pytest.raises(DataError):
            cubic_resample([1.0, 2.0], 0)


class TestSpectrumOfSequence:
    def test_constant_video_is_dc_dominated(self):
        seq = FeatureSequence("c", np.full((1, 3), 4.0))
        spectrum = spectrum_of_sequence(seq, 7)
        assert spectrum.values[0, 0] == pytest.approx(12.0, abs=1e-9)
        # away from the resampled DC bin the magnitude stays comparatively small
        assert np.all(spectrum.values[0, 3:] <= 12.0 * 0.5)

    def test_shared_frequency_axis(self):
        rng = np.random.default_rng(5)
        a = spectrum_of_sequence(FeatureSequence("a", rng.normal(size=(2, 64))), 40)
        b = spectrum_of_sequence(FeatureSequence("b", rng.normal(size=(2, 128))), 40)
        np.testing.assert_array_equal(a.frequency_axis, b.frequency_axis)
        assert a.frequency_axis[0] == 0.0 and a.frequency_axis[-1] == 1.0
        assert a.length == b.length == 40

    def test_sine_peak_location(self):
        n = 64
        steps = np.arange(n)
        seq = FeatureSequence("s", np.sin(2 * np.pi * 8 * steps / n)[None, :])
        spectrum = spectrum_of_sequence(seq, 500)
        row = spectrum.values[0]
        half = 250
        peak = int(np.argmax(row[:half]))
        mirror = half + int(np.argmax(row[half:]))
        # bins 8 and 56 of 64 sit at 8/63 and 56/63 on the normalized axis
        assert abs(spectrum.frequency_axis[peak] - 8 / 63) < 0.02
        assert abs(spectrum.frequency_axis[mirror] - 56 / 63) < 0.02
        assert abs(spectrum.frequency_axis[peak] - 0.125) < 0.02
        assert abs(spectrum.frequency_axis[mirror] - 0.875) < 0.02

    def test_rows_match_single_row_resampling_for_every_length(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 4, 5, 64, 97, 347):
            values = rng.normal(size=(3, n))
            for length in (1, 7, 200):
                spectrum = spectrum_of_sequence(FeatureSequence("v", values), length)
                for row, out in zip(values, spectrum.values):
                    np.testing.assert_array_equal(
                        out, np.maximum(cubic_resample(dft_magnitude(row), length), 0.0)
                    )
                    np.testing.assert_allclose(
                        out,
                        np.maximum(cubic_resample(naive_dft_reference(row), length), 0.0),
                        rtol=0.0,
                        atol=1e-9,
                    )
                for points in (values, np.stack([values, 2.0 * values[::-1]])):
                    resampled = cubic_resample(points, length)
                    assert resampled.shape == points.shape[:-1] + (length,)
                    for index in np.ndindex(points.shape[:-1]):
                        np.testing.assert_array_equal(
                            resampled[index], cubic_resample(points[index], length)
                        )

    def test_values_clamped_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            seq = FeatureSequence("r", rng.normal(size=(3, int(rng.integers(16, 100)))))
            spectrum = spectrum_of_sequence(seq, 200)
            assert np.all(spectrum.values >= 0.0)

    def test_spectrum_invariants_enforced(self):
        with pytest.raises(DataError):
            Spectrum(values=np.array([[-1.0, 0.0]]), frequency_axis=np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            Spectrum(values=np.array([[1.0, 2.0]]), frequency_axis=np.array([0.5, 1.0]))
        with pytest.raises(DataError):
            Spectrum(values=np.array([[1.0, 2.0]]), frequency_axis=np.array([0.0, 0.0]))
