"""Magnitude spectra of per-dimension temporal signals and fixed-length resampling.

Each feature dimension of a video is treated as a discrete time signal. Its
DFT magnitude is computed with ``numpy.fft``, then resampled to a fixed
number L of points with cubic convolution, so every video gets a D x L
spectrum. The N bins of an N-frame video are spread evenly over the L
samples: bin k, at k/N cycles per frame, lands at position k/(N-1) of the
axis, that is at sample k*(L-1)/(N-1). The first sample is DC and the last
is bin N-1. A frequency f therefore lands near sample f*(L-1) in every video,
shifted by about f*(L-1)/(N-1) samples, plus up to half a bin spacing,
(L-1)/(2*(N-1)) samples, when f falls between bins. With L < N the samples
skip bins.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .featureio import FeatureSequence


def dft_magnitude(signal) -> np.ndarray:
    """Magnitude spectrum of a real signal; output length equals input length.

    ``out[s] = |sum_n signal[n] * exp(-2i*pi*n*s/N)|`` for s = 0..N-1. Accepts
    any array shape and transforms along the last axis.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DataError("signal must contain at least one sample")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite values")
    return np.abs(np.fft.fft(x, axis=-1))


def _keys_inner(t: np.ndarray) -> np.ndarray:
    # cubic convolution kernel, a = -1/2, for |t| <= 1
    return (1.5 * t - 2.5) * t * t + 1.0


def _keys_outer(t: np.ndarray) -> np.ndarray:
    # cubic convolution kernel, a = -1/2, for 1 < |t| < 2
    return ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0


def cubic_resample(points, target_length: int) -> np.ndarray:
    """Resample to ``target_length`` points via cubic convolution along the last axis.

    Input samples sit at 0, 1/(N-1), ..., 1 on a normalized axis and outputs
    are taken at 0, 1/(L-1), ..., 1. Kernel taps outside the data are filled
    by linear extrapolation of the two edge samples. Lengths below the
    4-point kernel support fall back to linear interpolation (N of 2 or 3)
    or constant replication (N of 1). The taps and weights depend only on
    (N, L), so they are built once and applied to every row of the input.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 1 or pts.shape[-1] < 1:
        raise DataError("points must contain at least one sample")
    if target_length < 1:
        raise DataError(f"target_length must be positive, got {target_length}")
    n = pts.shape[-1]
    if n == 1:
        return np.repeat(pts, target_length, axis=-1)
    if target_length == 1:
        positions = np.zeros(1)
    else:
        positions = np.arange(target_length) * (n - 1) / (target_length - 1)
    base = np.minimum(positions.astype(np.int64), n - 2)
    frac = positions - base
    if n < 4:
        # linear interpolation with np.interp's arithmetic, exact at the last sample
        left, right = pts[..., base], pts[..., base + 1]
        return np.where(positions == n - 1, right, (right - left) * frac + left)
    padded = np.empty(pts.shape[:-1] + (n + 2,))
    padded[..., 1:-1] = pts
    padded[..., 0] = 2.0 * pts[..., 0] - pts[..., 1]
    padded[..., -1] = 2.0 * pts[..., -1] - pts[..., -2]
    # out = Σ_j padded[base + j] · w_j, added left to right, one L-vector per tap
    weights = (_keys_outer(1.0 + frac), _keys_inner(frac), _keys_inner(1.0 - frac),
               _keys_outer(2.0 - frac))
    out = padded[..., base] * weights[0]
    for j in range(1, 4):
        out += padded[..., base + j] * weights[j]
    return out


def spectrum_of_sequence(seq: FeatureSequence, target_length: int) -> FeatureSequence:
    """Per-dimension magnitude spectra resampled to a shared length.

    Returns the D x L spectrum as a ``FeatureSequence`` of the same video,
    one column per frequency sample. Row k is
    ``cubic_resample(dft_magnitude(row k), L)``, with cubic undershoot clamped
    at zero so magnitudes stay non-negative. Sample s sits at position
    s/(L-1) of the axis described in the module docstring, whatever the
    video's frame count.
    """
    values = cubic_resample(dft_magnitude(seq.values), target_length)
    return FeatureSequence(seq.video_id, np.maximum(values, 0.0))
