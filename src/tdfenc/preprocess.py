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
    out = None
    with np.errstate(over="ignore", invalid="ignore"):
        if vec.ndim:
            # np.linalg.norm's sum of squares, in the buffer that then takes the result
            out = np.multiply(vec, vec)
            norms = np.sqrt(np.add.reduce(out, axis=-1, keepdims=True))
        else:
            norms = np.abs(vec)
    _check_norms(norms, vec)
    return np.divide(vec, np.where(norms == 0.0, 1.0, norms), out=out)


def _check_norms(norms: np.ndarray, vec: np.ndarray) -> None:
    """Raise DataError unless every row norm of ``vec`` is finite."""
    # a non-finite value makes its row's norm non-finite, so only then is the
    # whole input scanned, to tell a non-finite value from an overflow
    if not np.isfinite(norms).all():
        if not np.isfinite(vec).all():
            raise DataError("cannot normalize a non-finite vector")
        raise DataError("cannot normalize a vector whose norm overflows float64")


def pca_fit(descriptors, output_dims: int) -> PcaModel:
    """Fit PCA on an M x D sample: eigendecomposition of its centered scatter.

    ``descriptors`` is one M x D array-like, or any other iterable (a list or
    tuple of 2-D arrays, or a sized iterable that reads them) of row blocks
    fitted as if stacked. The blocks are iterated once: each is centered on
    its own mean and its scatter added, and the spread of the block means
    about the overall mean, ``Σ n_b (μ_b − μ)(μ_b − μ)ᵀ``, is added once at the
    end (the pairwise update of Chan, Golub & LeVeque, 1983). So the fit
    holds one block, the D x D scatter and one row sum per block, never a
    stacked matrix. Empty blocks are skipped. ``output_dims`` above the
    attainable rank min(D, M-1) raises DataError. Component signs are fixed so
    the largest-magnitude entry of each component is positive, making fits
    reproducible.
    """
    if isinstance(descriptors, np.ndarray) or (
        isinstance(descriptors, (list, tuple))
        and not (descriptors and np.ndim(descriptors[0]) == 2)
    ):
        descriptors = [descriptors]
    d_in = scatter = product = None
    counts, sums = [], []
    # the centered block and its D x D product go into buffers reused from block
    # to block, so a long stream does not allocate and free them per block
    centered = np.empty((0, 0))
    for block in descriptors:
        b = np.asarray(block, dtype=np.float64)
        if d_in is None and b.ndim == 2:
            d_in = b.shape[1]
            scatter, product = np.zeros((d_in, d_in)), np.empty((d_in, d_in))
        if b.ndim != 2 or b.shape[1] != d_in:
            raise DataError("descriptors must be an M x D matrix")
        if len(b):
            total = b.sum(axis=0)
            if len(centered) < len(b):
                centered = np.empty_like(b)
            rows = np.subtract(b, total / len(b), out=centered[: len(b)])
            scatter += np.matmul(rows.T, rows, out=product)
            counts.append(len(b))
            sums.append(total)
    m = sum(counts)
    if m < 2:
        raise DataError(f"PCA needs at least 2 descriptors, got {m}")
    if output_dims < 1:
        raise DataError(f"output_dims must be positive, got {output_dims}")
    limit = min(d_in, m - 1)
    if output_dims > limit:
        raise DataError(f"requested {output_dims} components exceeds attainable rank {limit}")
    mean = sum(sums) / m
    counts = np.array(counts, dtype=np.float64)[:, None]
    spread = np.array(sums) / counts - mean
    scatter += (counts * spread).T @ spread
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    # eigh sorts ascending; keep the top output_dims in descending order
    components = np.ascontiguousarray(eigenvectors[:, ::-1][:, :output_dims].T)
    pick = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    components *= np.where(pick < 0, -1.0, 1.0)[:, None]
    explained = np.maximum(eigenvalues[::-1][:output_dims], 0.0) / (m - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def _check_input_dims(model: PcaModel, vec: np.ndarray) -> None:
    if vec.shape[-1] != model.input_dims:
        raise DataError(
            f"dimension mismatch: input has {vec.shape[-1]} dims, PCA expects {model.input_dims}"
        )


def pca_transform(model: PcaModel, v) -> np.ndarray:
    """Project one vector (or rows of a matrix) onto the fitted components as
    ``v Wᵀ − μ Wᵀ``, which makes no centered copy of the input. The encode
    path normalizes and projects frames in one step instead, with
    ``normalized_pca_transform``."""
    vec = np.asarray(v, dtype=np.float64)
    _check_input_dims(model, vec)
    return vec @ model.components.T - model.mean @ model.components.T


def normalized_pca_transform(model: PcaModel, frames) -> np.ndarray:
    """``pca_transform(model, l2_normalize(frames))`` without a normalized or
    centered copy of the frames.

    Normalizing only scales a row, so each raw row is projected first and its
    projection divided by the row's norm: ``(x/‖x‖ − μ)Wᵀ = (xWᵀ)/‖x‖ − μWᵀ``.
    The only arrays made are the row norms and the projections. A zero row
    gives ``−μWᵀ``. A dims mismatch raises ``pca_transform``'s DataError, and
    a row whose norm is not finite ``l2_normalize``'s.
    """
    vec = np.asarray(frames, dtype=np.float64)
    _check_input_dims(model, vec)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("...i,...i->...", vec, vec))
    _check_norms(norms, vec)
    out = vec @ model.components.T
    out /= np.where(norms == 0.0, 1.0, norms)[..., None]
    out -= model.mean @ model.components.T
    return out


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
