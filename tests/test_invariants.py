"""Property tests of the invariants the method rests on.

The DFT magnitude ignores where in a video an event happens, unit-normalized
frames ignore each frame's scale, and resampling places DFT bin k of an
N-frame video at sample k*(L-1)/(N-1) of every spectrum. Draws are fixed by
the hypothesis profile in ``conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdfenc import (
    FeatureSequence,
    ModelBundle,
    PipelineConfig,
    encode_video,
    l2_normalize,
    pca_fit,
    spectrum_of_sequence,
)


@st.composite
def videos(draw, dims=st.integers(1, 6), max_frames=300):
    """A D x N feature matrix of seeded Gaussian values at a drawn scale."""
    dims = draw(dims)
    frames = draw(st.integers(1, max_frames))
    scale = 10.0 ** draw(st.integers(-3, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(dims, frames)) * scale


def _assert_close_to_max(got, expected, rel):
    assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


@given(videos(), st.integers(0, 10**6), st.integers(1, 600))
def test_spectrum_ignores_circular_shift_and_reversal(values, shift, length):
    """Paper property: the DFT magnitude does not depend on where in the video
    an event occurs, so circularly shifting or reversing the frames leaves the
    resampled spectrum unchanged."""
    spectrum = spectrum_of_sequence(FeatureSequence("v", values), length)
    assert spectrum.video_id == "v" and spectrum.values.shape == (values.shape[0], length)
    for moved in (np.roll(values, shift, axis=1), values[:, ::-1]):
        other = spectrum_of_sequence(FeatureSequence("v", moved), length)
        _assert_close_to_max(other.values, spectrum.values, 1e-9)


# one-dim frames normalize to +-1, whose average can be exactly 0, which the
# time branch rejects as a zero vector
@given(videos(dims=st.integers(2, 6)), st.integers(0, 10**6), st.integers(1, 200))
def test_fused_average_vector_ignores_circular_shift_and_reversal(values, shift, length):
    """Paper property: with average pooling in both branches the fused vector
    depends on neither frame order (time branch) nor event position (spectrum
    branch), so a circular shift or a reversal of the frames leaves it unchanged."""
    config = PipelineConfig(spectrum_length=length)
    vector = encode_video(config, ModelBundle(), FeatureSequence("v", values)).values
    for moved in (np.roll(values, shift, axis=1), values[:, ::-1]):
        other = encode_video(config, ModelBundle(), FeatureSequence("v", moved)).values
        _assert_close_to_max(other, vector, 1e-9)


_PCA_FRAMES = np.random.default_rng(17).normal(size=(400, 6))
_PCA_BUNDLE = ModelBundle(pca=pca_fit(l2_normalize(_PCA_FRAMES), 3))


@pytest.mark.parametrize("pca_dims", [None, 3])
@given(values=videos(dims=st.just(_PCA_FRAMES.shape[1]), max_frames=200), seed=st.integers(0, 2**32 - 1))
def test_encoding_ignores_per_frame_scale(pca_dims, values, seed):
    """Paper property: frame descriptors are unit-normalized before anything
    else, so scaling each frame by its own positive factor leaves the encoded
    video unchanged, with or without PCA."""
    config = PipelineConfig(pca_dims=pca_dims, spectrum_length=64)
    bundle = ModelBundle() if pca_dims is None else _PCA_BUNDLE
    factors = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=values.shape[1])
    vector = encode_video(config, bundle, FeatureSequence("v", values)).values
    scaled = encode_video(config, bundle, FeatureSequence("v", values * factors)).values
    assert np.max(np.abs(scaled - vector)) <= 1e-10


def _tone_peak(frames, cycles, length):
    """Sample of the largest non-DC magnitude in the first half of the resampled
    spectrum of a unit sinusoid of ``cycles`` cycles over ``frames`` frames."""
    steps = np.arange(frames)
    signal = np.sin(2.0 * np.pi * cycles * steps / frames + 0.3)[None, :]
    row = spectrum_of_sequence(FeatureSequence("tone", signal), length).values[0]
    return 1 + int(np.argmax(row[1 : (length - 1) // 2 + 1]))


@given(st.data())
def test_tone_on_a_dft_bin_peaks_at_its_sample(data):
    """Paper property: every video is resampled onto one axis of L samples.
    Bin m of an N-frame video lands at sample m*(L-1)/(N-1), so a sinusoid of
    exactly m cycles peaks at one of the two samples around that position
    whenever the spectrum keeps at least one sample per bin (L >= N)."""
    frames = data.draw(st.integers(8, 600))
    length = data.draw(st.integers(frames, 4 * frames))
    cycles = data.draw(st.integers(1, (frames - 1) // 2))
    position = cycles * (length - 1) / (frames - 1)
    assert _tone_peak(frames, cycles, length) in (np.floor(position), np.ceil(position))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="bins sit (L-1)/(N-1) samples apart")
@pytest.mark.parametrize(
    "frames, cycles, length",
    [
        (100, 47.5, 500),  # an off-bin tone lands 4 samples off
        (101, 43.0, 500),  # a tone on bin 43 lands 3 samples off
        (600, 8.0, 200),  # bin 8 falls between samples and leaves only clamped zeros
    ],
)
def test_tone_peaks_within_two_samples_of_its_frequency(frames, cycles, length):
    """Paper property: one frequency axis for all videos. A sinusoid at f cycles
    per frame should peak at sample round(f*(L-1)) +- 2 whenever N >= 100, at
    the paper's L of 200 and 500. It does not always: bin k lands at
    k*(L-1)/(N-1), not at k*(L-1)/N, and an off-bin tone peaks at its nearest
    bin, so with L several times N the peak moves 3-4 samples; with L < N the
    samples skip bins, and a tone on a skipped bin has no peak at all."""
    expected = round(cycles / frames * (length - 1))
    assert abs(_tone_peak(frames, cycles, length) - expected) <= 2
