"""Vector normalization, PCA reduction, and branch-norm scaling."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .errors import DataError, FormatError

PCA_MAGIC = b"TDFP"


@dataclass(frozen=True)
class PcaModel:
    """Linear projection onto the top principal components of the training sample."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        components = np.asarray(self.components, dtype=np.float64)
        explained = np.asarray(self.explained_variance, dtype=np.float64)
        if components.ndim != 2 or mean.ndim != 1 or components.shape[1] != mean.shape[0]:
            raise DataError("PCA components must be a d x D matrix matching the mean length")
        if explained.shape != (components.shape[0],):
            raise DataError("explained_variance length must match the component count")
        if not (
            np.all(np.isfinite(mean))
            and np.all(np.isfinite(components))
            and np.all(np.isfinite(explained))
        ):
            raise DataError("PCA parameters contain non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            gram = components @ components.T
        if not np.all(np.isfinite(gram)):
            raise DataError("PCA component products overflow float64")
        if not np.allclose(gram, np.eye(components.shape[0]), atol=1e-8):
            raise DataError("PCA components are not orthonormal")
        if np.any(np.diff(explained) > 1e-12) or np.any(explained < -1e-12):
            raise DataError("explained_variance must be non-negative and non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "explained_variance", explained)

    @property
    def input_dims(self) -> int:
        return self.components.shape[1]

    @property
    def output_dims(self) -> int:
        return self.components.shape[0]


def l2_normalize(v) -> np.ndarray:
    """Scale a vector, or each row of a matrix, to unit length along the last
    axis; zero rows are returned unchanged."""
    # in C order each norm sums its row in the same order whatever the input layout
    vec = np.asarray(v, dtype=np.float64, order="C")
    if not np.all(np.isfinite(vec)):
        raise DataError("cannot normalize a non-finite vector")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vec, axis=-1, keepdims=True) if vec.ndim else np.abs(vec)
    if np.isinf(norms).any():
        raise DataError("cannot normalize a vector whose norm overflows float64")
    return vec / np.where(norms == 0.0, 1.0, norms)


def pca_fit(descriptors, output_dims: int) -> PcaModel:
    """Fit PCA on an M x D sample: eigendecomposition of its centered scatter.

    ``descriptors`` is one M x D array-like or a list of 2-D row blocks that
    are fitted as if stacked. One pass sums the rows for the mean; a second
    accumulates the centered D x D scatter block by block, so no stacked
    matrix is formed. ``output_dims`` above the attainable rank min(D, M-1)
    raises DataError. Component signs are fixed so the largest-magnitude
    entry of each component is positive, making fits reproducible.
    """
    if isinstance(descriptors, (list, tuple)) and descriptors and np.ndim(descriptors[0]) == 2:
        blocks = [np.asarray(b, dtype=np.float64) for b in descriptors]
    else:
        blocks = [np.asarray(descriptors, dtype=np.float64)]
    if any(b.ndim != 2 or b.shape[1] != blocks[0].shape[1] for b in blocks):
        raise DataError("descriptors must be an M x D matrix")
    m = sum(b.shape[0] for b in blocks)
    if m < 2:
        raise DataError(f"PCA needs at least 2 descriptors, got {m}")
    if output_dims < 1:
        raise DataError(f"output_dims must be positive, got {output_dims}")
    d_in = blocks[0].shape[1]
    limit = min(d_in, m - 1)
    if output_dims > limit:
        raise DataError(f"requested {output_dims} components exceeds attainable rank {limit}")
    mean = sum(b.sum(axis=0) for b in blocks) / m
    scatter = np.zeros((d_in, d_in))
    for b in blocks:
        centered = b - mean
        scatter += centered.T @ centered
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    # eigh sorts ascending; keep the top output_dims in descending order
    components = np.ascontiguousarray(eigenvectors[:, ::-1][:, :output_dims].T)
    pick = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    components *= np.where(pick < 0, -1.0, 1.0)[:, None]
    explained = np.maximum(eigenvalues[::-1][:output_dims], 0.0) / (m - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def pca_transform(model: PcaModel, v) -> np.ndarray:
    """Project one vector (or rows of a matrix) onto the fitted components."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape[-1] != model.input_dims:
        raise DataError(
            f"dimension mismatch: input has {vec.shape[-1]} dims, PCA expects {model.input_dims}"
        )
    return (vec - model.mean) @ model.components.T


def scale_to_norm(v, target_norm: float) -> np.ndarray:
    """Rescale a non-zero vector so its Euclidean norm equals ``target_norm``."""
    if target_norm <= 0:
        raise DataError(f"target_norm must be positive, got {target_norm}")
    vec = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise DataError("cannot scale zero vector")
    return vec * (target_norm / norm)


def save_pca_model(model: PcaModel, path) -> None:
    """Write a TDFP file: header (D, d), then mean, components row-major, variances."""
    binio.atomic_write(
        path,
        binio.pack_header(PCA_MAGIC, model.input_dims, model.output_dims),
        binio.f64_bytes(model.mean),
        binio.f64_bytes(model.components),
        binio.f64_bytes(model.explained_variance),
    )


def load_pca_model(path) -> PcaModel:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, PCA_MAGIC, path)
        d_in, d_out = binio.read_u32(fh, 2, path)
        if d_in < 1 or d_out < 1 or d_out > d_in:
            raise FormatError(f"corrupt file: {path}: bad dimensions D={d_in}, d={d_out}")
        mean = binio.read_f64(fh, d_in, path)
        components = binio.read_f64(fh, d_out * d_in, path).reshape(d_out, d_in)
        explained = binio.read_f64(fh, d_out, path)
        binio.check_eof(fh, path)
    return PcaModel(mean=mean, components=components, explained_variance=explained)
