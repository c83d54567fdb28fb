"""Magnitude spectra of per-dimension temporal signals and fixed-length resampling.

Each feature dimension of a video is treated as a discrete time signal. Its
DFT magnitude is computed with ``numpy.fft``, then resampled to a fixed
number of points with cubic convolution so that every video shares one
normalized frequency axis from 0 (DC) to 1 (the sampling rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .featureio import FeatureSequence


@dataclass(frozen=True)
class Spectrum:
    """Interpolated magnitude spectra, one row per feature dimension.

    ``values[k, s]`` is the magnitude of dimension k at normalized frequency
    ``frequency_axis[s]``.
    """

    values: np.ndarray
    frequency_axis: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        axis = np.asarray(self.frequency_axis, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"spectrum values must be a non-empty 2-D matrix, got {values.shape}")
        if axis.ndim != 1 or axis.shape[0] != values.shape[1]:
            raise DataError("frequency axis length must match spectrum width")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DataError("spectrum values must be finite and non-negative")
        if axis[0] != 0.0 or (axis.size > 1 and np.any(np.diff(axis) <= 0)):
            raise DataError("frequency axis must start at 0 and be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "frequency_axis", axis)

    @property
    def dims(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


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


def naive_dft_reference(signal) -> np.ndarray:
    """Direct O(N^2) evaluation of the DFT magnitude; the test oracle for dft_magnitude."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DataError("signal must be a non-empty vector")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite values")
    n = x.shape[0]
    idx = np.arange(n, dtype=np.int64)
    phase = (idx[:, None] * idx[None, :]) % n
    matrix = np.exp((-2j * np.pi / n) * phase)
    return np.abs(matrix @ x)


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
    weights = np.stack(
        [_keys_outer(1.0 + frac), _keys_inner(frac), _keys_inner(1.0 - frac), _keys_outer(2.0 - frac)],
        axis=1,
    )
    taps = padded[..., base[:, None] + np.arange(4)[None, :]]
    return np.sum(weights * taps, axis=-1)


def spectrum_of_sequence(seq: FeatureSequence, target_length: int) -> Spectrum:
    """Per-dimension magnitude spectra resampled to a shared length.

    Row k of the result is ``cubic_resample(dft_magnitude(row k), L)``; cubic
    undershoot is clamped at zero so magnitudes stay non-negative. All videos
    get the identical normalized frequency axis regardless of frame count.
    """
    values = np.maximum(cubic_resample(dft_magnitude(seq.values), target_length), 0.0)
    axis = np.linspace(0.0, 1.0, target_length) if target_length > 1 else np.zeros(1)
    return Spectrum(values=values, frequency_axis=axis)
