"""Descriptor-set aggregation into fixed-length video vectors, and late fusion.

Four encoders map a variable-size set of descriptors to one vector: average
pooling (dimension d), locality-constrained linear coding with max pooling
(dimension K), Fisher vectors over a diagonal GMM (dimension 2dK), and VLAD
over a K-means codebook (dimension dK). Branch vectors are fused by scaling
each to a target norm and concatenating.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .codebook import Codebook, GmmModel, gmm_responsibilities
from .errors import DataError, FormatError
from .preprocess import scale_to_norm

VECTOR_MAGIC = b"TDFV"

METHOD_TAGS = {"average": 0, "llc": 1, "fv": 2, "vlad": 3, "fused": 4}
BRANCH_TAGS = {"time": 0, "dft": 1, "fused": 2}
_METHOD_BY_TAG = {v: k for k, v in METHOD_TAGS.items()}
_BRANCH_BY_TAG = {v: k for k, v in BRANCH_TAGS.items()}


@dataclass(frozen=True)
class VideoVector:
    """One fixed-length encoded representation of a video."""

    values: np.ndarray
    method: str
    branch: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise DataError("video vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise DataError("video vector contains non-finite values")
        if self.method not in METHOD_TAGS:
            raise DataError(f"unknown method {self.method!r}")
        if self.branch not in BRANCH_TAGS:
            raise DataError(f"unknown branch {self.branch!r}")
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LlcParams:
    """Locality coding knobs: number of nearest codewords and the ridge weight."""

    neighbors: int = 5
    lam: float = 1e-4

    def __post_init__(self):
        if self.neighbors < 1:
            raise DataError(f"neighbors must be positive, got {self.neighbors}")
        if self.lam < 0:
            raise DataError(f"lam must be non-negative, got {self.lam}")


def _as_descriptor_matrix(descriptors) -> np.ndarray:
    data = np.asarray(descriptors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise DataError(f"descriptors must be a non-empty N x d matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise DataError("descriptors contain non-finite values")
    return data


def average_pool(descriptors, branch: str = "time") -> VideoVector:
    """Mean of the descriptor set; output dimension equals the descriptor dimension."""
    data = _as_descriptor_matrix(descriptors)
    return VideoVector(values=data.mean(axis=0), method="average", branch=branch)


def llc_encode(codebook: Codebook, params: LlcParams, x) -> np.ndarray:
    """Sparse locality-constrained code of one descriptor over the codebook.

    The descriptor is fit as an affine combination of its ``neighbors``
    nearest codewords: solve (C + lam*I) c = 1 on the local covariance
    C = (B - x)(B - x)^T, then rescale so the code sums to exactly 1.
    Non-neighbor entries stay zero.
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (codebook.dims,):
        raise DataError(
            f"dimension mismatch: descriptor shape {vec.shape}, codebook dims {codebook.dims}"
        )
    if params.neighbors > codebook.num_words:
        raise DataError(
            f"neighbors={params.neighbors} exceeds codebook size {codebook.num_words}"
        )
    distances = np.sum((codebook.centroids - vec) ** 2, axis=1)
    nearest = np.argsort(distances, kind="stable")[: params.neighbors]
    shifted = codebook.centroids[nearest] - vec
    local_cov = shifted @ shifted.T
    local_cov[np.diag_indices_from(local_cov)] += params.lam
    try:
        raw = np.linalg.solve(local_cov, np.ones(params.neighbors))
    except np.linalg.LinAlgError:
        raise DataError("singular LLC system; use a positive lam") from None
    code = np.zeros(codebook.num_words)
    code[nearest] = raw / raw.sum()
    return code


def llc_pool(codebook: Codebook, params: LlcParams, descriptors, branch: str = "time") -> VideoVector:
    """Elementwise maximum of the per-descriptor locality codes."""
    data = _as_descriptor_matrix(descriptors)
    pooled = llc_encode(codebook, params, data[0])
    for row in data[1:]:
        np.maximum(pooled, llc_encode(codebook, params, row), out=pooled)
    return VideoVector(values=pooled, method="llc", branch=branch)


def _signed_sqrt_l2(values: np.ndarray) -> np.ndarray:
    out = np.sign(values) * np.sqrt(np.abs(values))
    norm = np.linalg.norm(out)
    return out / norm if norm > 0 else out


def fisher_encode(
    model: GmmModel, descriptors, branch: str = "time", normalize: bool = True
) -> VideoVector:
    """Fisher vector of the descriptor set under a diagonal GMM.

    Concatenates the posterior-weighted first-order deviations
    u_k = sum_i q_ki (x_i - mu_k)/sigma_k / (N sqrt(w_k)) for every component,
    then the second-order deviations
    v_k = sum_i q_ki (((x_i - mu_k)/sigma_k)^2 - 1) / (N sqrt(2 w_k)),
    giving dimension 2dK. With ``normalize`` the output is signed-square-rooted
    and scaled to unit length, which bounds feature magnitudes for the SVM.
    """
    data = _as_descriptor_matrix(descriptors)
    if data.shape[1] != model.dims:
        raise DataError(
            f"dimension mismatch: descriptors have {data.shape[1]} dims, model has {model.dims}"
        )
    resp, _ = gmm_responsibilities(model, data)
    n = data.shape[0]
    sigma = np.sqrt(model.variances)
    first = np.empty((model.num_components, model.dims))
    second = np.empty_like(first)
    for k in range(model.num_components):
        standardized = (data - model.means[k]) / sigma[k]
        weighted = resp[:, k][:, None]
        first[k] = np.sum(weighted * standardized, axis=0) / (n * np.sqrt(model.weights[k]))
        second[k] = np.sum(weighted * (standardized * standardized - 1.0), axis=0) / (
            n * np.sqrt(2.0 * model.weights[k])
        )
    values = np.concatenate([first.ravel(), second.ravel()])
    if normalize:
        values = _signed_sqrt_l2(values)
    return VideoVector(values=values, method="fv", branch=branch)


def vlad_encode(
    codebook: Codebook, descriptors, branch: str = "time", normalize: bool = True
) -> VideoVector:
    """Per-centroid sums of residuals to each descriptor's nearest codeword.

    Codewords with no assigned descriptors contribute zero blocks; output
    dimension is dK. ``normalize`` applies the same signed square root and
    unit-length scaling as the Fisher vector.
    """
    data = _as_descriptor_matrix(descriptors)
    if data.shape[1] != codebook.dims:
        raise DataError(
            f"dimension mismatch: descriptors have {data.shape[1]} dims, "
            f"codebook has {codebook.dims}"
        )
    sq = (
        np.sum(data * data, axis=1)[:, None]
        + np.sum(codebook.centroids * codebook.centroids, axis=1)[None, :]
        - 2.0 * data @ codebook.centroids.T
    )
    labels = np.argmin(sq, axis=1)
    residuals = np.zeros((codebook.num_words, codebook.dims))
    np.add.at(residuals, labels, data - codebook.centroids[labels])
    values = residuals.ravel()
    if normalize:
        values = _signed_sqrt_l2(values)
    return VideoVector(values=values, method="vlad", branch=branch)


def fuse(branches) -> VideoVector:
    """Scale each branch vector to its target norm and concatenate in order.

    ``branches`` is an ordered list of (VideoVector, target_norm) pairs; every
    branch must be non-zero, and an error names the branch that is not.
    """
    if not branches:
        raise DataError("fuse needs at least one branch")
    parts = []
    for vv, norm in branches:
        try:
            parts.append(scale_to_norm(vv.values, norm))
        except DataError as exc:
            raise DataError(f"{vv.branch} branch: {exc}") from None
    return VideoVector(values=np.concatenate(parts), method="fused", branch="fused")


def save_video_vector(vector: VideoVector, path) -> None:
    """Write a TDFV file: method tag byte, branch tag byte, length, float64 payload."""
    with open(Path(path), "wb") as fh:
        fh.write(VECTOR_MAGIC)
        fh.write(binio.FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(bytes([METHOD_TAGS[vector.method], BRANCH_TAGS[vector.branch]]))
        fh.write(vector.dims.to_bytes(4, "little"))
        fh.write(binio.f64_bytes(vector.values))


def load_video_vector(path) -> VideoVector:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, VECTOR_MAGIC, path)
        method_tag, branch_tag = binio.read_exact(fh, 2, path)
        if method_tag not in _METHOD_BY_TAG or branch_tag not in _BRANCH_BY_TAG:
            raise FormatError(
                f"corrupt file: {path}: unknown tags method={method_tag}, branch={branch_tag}"
            )
        (length,) = binio.read_u32(fh, 1, path)
        if length < 1:
            raise FormatError(f"corrupt file: {path}: empty vector")
        values = binio.read_f64(fh, length, path)
        binio.check_eof(fh, path)
    return VideoVector(
        values=values, method=_METHOD_BY_TAG[method_tag], branch=_BRANCH_BY_TAG[branch_tag]
    )
