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
from .codebook import (
    Codebook,
    GmmModel,
    _descriptor_matrix,
    _nearest_labels,
    _row_sums,
    gmm_responsibilities,
)
from .errors import DataError, FormatError

VECTOR_MAGIC = b"TDFV"

METHOD_TAGS = {"average": 0, "llc": 1, "fv": 2, "vlad": 3, "fused": 4}
BRANCH_TAGS = {"time": 0, "dft": 1, "fused": 2}
_METHOD_BY_TAG = {v: k for k, v in METHOD_TAGS.items()}
_BRANCH_BY_TAG = {v: k for k, v in BRANCH_TAGS.items()}

# standardized residuals held per block by fisher_encode (8 MiB of float64). At
# K=256 with 1024 x 500 and 300 x 1024 descriptor sets on one BLAS thread, this
# size ran 1.6x faster than a per-component loop, and 2^18, 2^19 and 2^22 slower
_FISHER_BLOCK_ELEMENTS = 1 << 20


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


def average_pool(descriptors, branch: str = "time") -> VideoVector:
    """Mean of the descriptor set; output dimension equals the descriptor dimension."""
    data = _descriptor_matrix(descriptors)
    return VideoVector(values=data.mean(axis=0), method="average", branch=branch)


def _llc_codes(
    codebook: Codebook, data: np.ndarray, neighbors: int, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Locality codes of every row of a checked N x d descriptor matrix.

    Returns two N x k matrices: each row's ``neighbors`` nearest codewords in
    (distance, index) order, from the nearest-center search that K-means and
    VLAD use, and the code on each of them. Each descriptor is fit as an
    affine combination of those codewords: solve (C + lam*I) c = 1 on the
    local covariance C = (B - x)(B - x)^T, then rescale so the code sums to
    exactly 1. All N local systems are solved in one batched call, and no
    N x K matrix is formed. Raises ``DataError`` when distances overflow
    float64, when a local system is singular, and on a ``neighbors`` below 1
    or above K or a ``lam`` that is negative or not finite.
    """
    k = neighbors
    if k < 1:
        raise DataError(f"neighbors must be positive, got {k}")
    if not 0 <= lam < np.inf:
        raise DataError(f"lam must be finite and non-negative, got {lam}")
    if k > codebook.num_words:
        raise DataError(f"neighbors={k} exceeds codebook size {codebook.num_words}")
    nearest = _nearest_labels(data, codebook.centroids, k)
    shifted = codebook.centroids[nearest] - data[:, None, :]
    with np.errstate(over="ignore"):
        local_cov = shifted @ shifted.transpose(0, 2, 1)
    local_cov += lam * np.eye(k)
    if not np.all(np.isfinite(local_cov)):
        raise DataError("descriptor distances overflow float64")
    try:
        raw = np.linalg.solve(local_cov, np.ones((data.shape[0], k, 1)))[..., 0]
    except np.linalg.LinAlgError:
        raise DataError("singular LLC system; use a positive lam") from None
    return nearest, raw / raw.sum(axis=1, keepdims=True)


def llc_encode(codebook: Codebook, x, neighbors: int = 5, lam: float = 1e-4) -> np.ndarray:
    """Sparse locality-constrained code of one descriptor over the codebook.

    Runs the same batched kernel as ``llc_pool`` on one row: the descriptor is
    fit as an affine combination of its ``neighbors`` nearest codewords, found
    by the package's one nearest-center search (ties at equal distance go to
    the lowest index), with ridge weight ``lam``, and the code sums to
    exactly 1. Non-neighbor entries stay zero. Raises ``DataError`` when
    distances overflow float64 and on a bad ``neighbors`` or ``lam``.
    """
    data = _descriptor_matrix([x], codebook.dims)
    nearest, codes = _llc_codes(codebook, data, neighbors, lam)
    code = np.zeros(codebook.num_words)
    code[nearest[0]] = codes[0]
    return code


def llc_pool(
    codebook: Codebook, descriptors, branch: str = "time", neighbors: int = 5, lam: float = 1e-4
) -> VideoVector:
    """Elementwise maximum of the locality codes of every descriptor.

    All descriptors are coded in one batched pass, with the same neighbor
    search and lowest-index tie-break as ``llc_encode``. The maximum is taken
    over the N x k codes, and a word that some descriptor does not use gets
    at least that descriptor's zero, so the result equals the maximum of the
    dense N x K codes without forming them; memory stays at O(block·K + N·k).
    Each row is coded on its own and a maximum does not depend on the order it
    is taken in, so pooling ignores descriptor order. ``neighbors`` and
    ``lam`` are ``llc_encode``'s. Raises ``DataError`` when distances overflow
    float64 and on a bad ``neighbors`` or ``lam``.
    """
    data = _descriptor_matrix(descriptors, codebook.dims)
    nearest, codes = _llc_codes(codebook, data, neighbors, lam)
    pooled = np.full(codebook.num_words, -np.inf)
    np.maximum.at(pooled, nearest, codes)
    partly_used = np.bincount(nearest.ravel(), minlength=codebook.num_words) < data.shape[0]
    np.maximum(pooled, 0.0, out=pooled, where=partly_used)
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

    All K components are built at once from the exact standardized residuals,
    a K x rows x d array, and two batched matmuls per block of rows; the sums
    are never expanded into ``q.T @ x²`` terms, which cancel when |mu| >> sigma.
    Each block holds at most ``_FISHER_BLOCK_ELEMENTS`` residuals (one row when
    K·d alone is larger), so the temporaries stay bounded for any N.
    """
    data = _descriptor_matrix(descriptors, model.dims)
    resp, _ = gmm_responsibilities(model, data)
    n = data.shape[0]
    means = model.means[:, None, :]
    sigma = np.sqrt(model.variances)[:, None, :]
    first = np.zeros((model.num_components, 1, model.dims))
    second = np.zeros_like(first)
    rows = max(1, _FISHER_BLOCK_ELEMENTS // (model.num_components * model.dims))
    for start in range(0, n, rows):
        posteriors = resp[start : start + rows].T[:, None, :]
        standardized = data[None, start : start + rows] - means
        standardized /= sigma
        first += posteriors @ standardized
        np.square(standardized, out=standardized)
        standardized -= 1.0
        second += posteriors @ standardized
    first = first[:, 0] / (n * np.sqrt(model.weights))[:, None]
    second = second[:, 0] / (n * np.sqrt(2.0 * model.weights))[:, None]
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
    data = _descriptor_matrix(descriptors, codebook.dims)
    labels = _nearest_labels(data, codebook.centroids)
    residuals = _row_sums(data - codebook.centroids[labels], labels, codebook.num_words)
    values = residuals.ravel()
    if normalize:
        values = _signed_sqrt_l2(values)
    return VideoVector(values=values, method="vlad", branch=branch)


def fuse(branches) -> VideoVector:
    """Scale each branch vector to its target norm and concatenate in order.

    ``branches`` is an ordered list of (VideoVector, target_norm) pairs. Each
    branch becomes ``v * (target_norm / ‖v‖)``; a target norm that is not
    positive, a zero branch and a branch whose norm overflows float64 raise
    DataError, naming the branch.
    """
    if not branches:
        raise DataError("fuse needs at least one branch")
    parts = []
    for vv, norm in branches:
        if norm <= 0:
            raise DataError(f"{vv.branch} branch: target_norm must be positive, got {norm}")
        with np.errstate(over="ignore"):
            length = np.linalg.norm(vv.values)
        if length == 0.0:
            raise DataError(f"{vv.branch} branch: cannot scale zero vector")
        # the values are finite, so a norm that is not can only have overflowed
        if not np.isfinite(length):
            raise DataError(
                f"{vv.branch} branch: cannot scale a vector whose norm overflows float64"
            )
        parts.append(vv.values * (norm / length))
    return VideoVector(values=np.concatenate(parts), method="fused", branch="fused")


def save_video_vector(vector: VideoVector, path) -> None:
    """Write a TDFV file: method tag byte, branch tag byte, length, float64 payload."""
    binio.atomic_write(
        path,
        VECTOR_MAGIC,
        binio.FORMAT_VERSION.to_bytes(4, "little"),
        bytes([METHOD_TAGS[vector.method], BRANCH_TAGS[vector.branch]]),
        vector.dims.to_bytes(4, "little"),
        binio.f64_bytes(vector.values),
    )


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
