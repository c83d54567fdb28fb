"""Unsupervised descriptor-space models: K-means codebooks and diagonal GMMs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .errors import DataError, FormatError

CODEBOOK_MAGIC = b"TDFC"
GMM_MAGIC = b"TDFG"

# relative floor on per-dimension variances, scaled by the mean data variance
VARIANCE_FLOOR_SCALE = 1e-6

# rows scored per block by _nearest_labels: one block-sized score buffer is
# reused, so no N x K matrix is allocated. At K=256, d=16 on one BLAS thread,
# 512 rows beat 64-256 and 1024-2048 (7.8 ms per 12,778 rows against 8.3-10.5 ms)
_LABEL_BLOCK_ROWS = 512


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, clamped at zero."""
    sq = (
        np.sum(points * points, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(sq, 0.0)


def _nearest_labels(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row of ``points``; ties go to the lowest index.

    Centers are ranked by ``‖c‖² − 2·x·c``. That is ``‖x − c‖²`` minus
    ``‖x‖²``, which is the same for every center of a row, so dropping it (and
    the clamp at zero that only guards its cancellation) leaves each row's
    order unchanged. Multiplying by −2 only changes the sign and exponent, so
    ``block @ (−2·centersᵀ)`` equals ``−2·(x·c)`` bit for bit. Rows are
    scored one block at a time into one reused buffer.
    """
    num_points = points.shape[0]
    sq_centers = np.sum(centers * centers, axis=1)
    scaled = -2.0 * centers.T
    labels = np.empty(num_points, dtype=np.intp)
    buf = np.empty((min(num_points, _LABEL_BLOCK_ROWS), centers.shape[0]))
    for start in range(0, num_points, _LABEL_BLOCK_ROWS):
        block = points[start : start + _LABEL_BLOCK_ROWS]
        scores = buf[: block.shape[0]]
        np.matmul(block, scaled, out=scores)
        scores += sq_centers
        np.argmin(scores, axis=1, out=labels[start : start + block.shape[0]])
    return labels


def _row_sums(data: np.ndarray, labels: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum of the rows of ``data`` that share each label, as a num_rows x d matrix.

    Rows are added in order, so the sums equal ``np.add.at`` bit for bit.
    """
    d = data.shape[1]
    flat = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=data.ravel(), minlength=num_rows * d)
    return sums.reshape(num_rows, d)


@dataclass(frozen=True)
class Codebook:
    """K centroid vectors quantizing descriptor space."""

    centroids: np.ndarray

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] < 1 or centroids.shape[1] < 1:
            raise DataError(f"centroids must be a K x d matrix, got shape {centroids.shape}")
        if not np.all(np.isfinite(centroids)):
            raise DataError("centroids contain non-finite values")
        _check_distinct(centroids)
        object.__setattr__(self, "centroids", centroids)

    @property
    def num_words(self) -> int:
        return self.centroids.shape[0]

    @property
    def dims(self) -> int:
        return self.centroids.shape[1]


def _check_distinct(centroids: np.ndarray) -> None:
    # gram-trick distances carry cancellation noise, so shortlist loosely and
    # confirm candidates with exact differences
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _squared_distances(centroids, centroids)
    if not np.all(np.isfinite(sq)):
        raise DataError("centroid distances overflow float64")
    np.fill_diagonal(sq, np.inf)
    close = np.argwhere(sq < 1e-13)
    for i, j in close:
        if i < j and np.linalg.norm(centroids[i] - centroids[j]) <= 1e-12:
            raise DataError(f"centroids {i} and {j} are identical")


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture: weights, means, per-dimension variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 1 or means.shape[1] < 1:
            raise DataError(f"means must be a K x d matrix, got shape {means.shape}")
        if variances.shape != means.shape or weights.shape != (means.shape[0],):
            raise DataError("weights, means, and variances have inconsistent shapes")
        if not (
            np.all(np.isfinite(weights))
            and np.all(np.isfinite(means))
            and np.all(np.isfinite(variances))
        ):
            raise DataError("mixture parameters contain non-finite values")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-10:
            raise DataError("weights must be positive and sum to 1")
        if np.any(variances <= 0):
            raise DataError("variances must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]


# an overflow shows up as a non-finite distance total, which raises DataError below
@np.errstate(over="ignore", invalid="ignore")
def _kmeans_pp_init(data: np.ndarray, num_words: int, rng: np.random.Generator) -> np.ndarray:
    m = data.shape[0]
    doubled = 2.0 * data
    sq_norms = np.sum(data * data, axis=1)

    def sq_distances_to(j: int) -> np.ndarray:
        # _squared_distances(data, data[j][None, :])[:, 0], reusing the row norms
        return np.maximum((sq_norms + sq_norms[j]) - (doubled @ data[j : j + 1].T)[:, 0], 0.0)

    chosen = [int(rng.integers(m))]
    min_sq = sq_distances_to(chosen[-1])
    taken = np.zeros(m, dtype=bool)
    taken[chosen[0]] = True
    for _ in range(num_words - 1):
        total = float(min_sq.sum())
        if not np.isfinite(total):
            raise DataError("descriptor distances overflow float64")
        if total <= 0.0:
            # all remaining points coincide with a centroid; take the lowest index
            nxt = int(np.argmin(taken))
        else:
            # the draw rng.choice(m, p=min_sq / total) makes, without its checks
            cdf = np.cumsum(min_sq / total)
            cdf /= cdf[-1]
            nxt = int(np.searchsorted(cdf, rng.random(), side="right"))
        chosen.append(nxt)
        taken[nxt] = True
        np.minimum(min_sq, sq_distances_to(nxt), out=min_sq)
    return data[chosen].copy()


def _repair_empty_clusters(
    data: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Reseat each empty cluster on the point farthest from its assigned centroid."""
    counts = np.bincount(labels, minlength=centroids.shape[0])
    if np.all(counts > 0):
        return labels
    own_sq = np.sum((data - centroids[labels]) ** 2, axis=1)
    labels = labels.copy()
    for k in np.flatnonzero(counts == 0):
        farthest = int(np.argmax(own_sq))
        centroids[k] = data[farthest]
        labels[farthest] = k
        own_sq[farthest] = -np.inf
    return labels


def kmeans_fit(
    descriptors,
    num_words: int,
    seed: int,
    max_iters: int = 100,
    trace: list | None = None,
) -> Codebook:
    """Lloyd's algorithm with seeded k-means++ initialization.

    Stops when assignments are unchanged or after ``max_iters`` iterations.
    Empty clusters are reseated on the point farthest from its own centroid.
    If ``trace`` is a list, the within-cluster sum of squares after each
    iteration is appended to it (a non-increasing sequence).

    Each k-means++ draw takes the same index as ``rng.choice(m, p=...)`` on
    the same generator state: the inverse-CDF lookup that ``choice`` makes,
    without its per-draw probability checks.
    """
    data = np.asarray(descriptors, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("descriptors must be an M x d matrix")
    if not np.all(np.isfinite(data)):
        raise DataError("descriptors contain non-finite values")
    if num_words < 1:
        raise DataError(f"num_words must be positive, got {num_words}")
    if data.shape[0] < num_words:
        raise DataError(f"need at least {num_words} descriptors, got {data.shape[0]}")
    if max_iters < 1:
        raise DataError(f"max_iters must be positive, got {max_iters}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(data, num_words, rng)
    labels = None
    for _ in range(max_iters):
        new_labels = _nearest_labels(data, centroids)
        new_labels = _repair_empty_clusters(data, centroids, new_labels)
        if trace is not None:
            trace.append(float(np.sum((data - centroids[new_labels]) ** 2)))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        sums = _row_sums(data, labels, num_words)
        counts = np.bincount(labels, minlength=num_words)
        centroids = sums / counts[:, None]
    return Codebook(centroids=centroids)


def assign_nearest(codebook: Codebook, x) -> int:
    """Index of the nearest centroid; ties break toward the lowest index."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (codebook.dims,):
        raise DataError(
            f"dimension mismatch: descriptor shape {vec.shape}, codebook dims {codebook.dims}"
        )
    return int(_nearest_labels(vec[None, :], codebook.centroids)[0])


def _log_densities(model: GmmModel, data: np.ndarray) -> np.ndarray:
    """Per-sample, per-component log of weight times Gaussian density."""
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * model.variances), axis=1)
    quad = _mahalanobis_sq(model, data)
    return np.log(model.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def _mahalanobis_sq(model: GmmModel, data: np.ndarray) -> np.ndarray:
    inv = 1.0 / model.variances
    return (
        (data * data) @ inv.T
        - 2.0 * data @ (model.means * inv).T
        + np.sum(model.means * model.means * inv, axis=1)[None, :]
    )


def gmm_responsibilities(model: GmmModel, descriptors) -> tuple[np.ndarray, float]:
    """Posterior probabilities per descriptor (rows of an M x K matrix) and the
    average per-sample log-likelihood, computed in log space."""
    data = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    if data.shape[1] != model.dims:
        raise DataError(
            f"dimension mismatch: descriptors have {data.shape[1]} dims, model has {model.dims}"
        )
    log_joint = _log_densities(model, data)
    peak = np.max(log_joint, axis=1, keepdims=True)
    log_total = peak[:, 0] + np.log(np.sum(np.exp(log_joint - peak), axis=1))
    resp = np.exp(log_joint - log_total[:, None])
    return resp, float(np.mean(log_total))


def gmm_posteriors(model: GmmModel, x) -> np.ndarray:
    """Posterior probability of each mixture component for one descriptor."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (model.dims,):
        raise DataError(
            f"dimension mismatch: descriptor shape {vec.shape}, model dims {model.dims}"
        )
    resp, _ = gmm_responsibilities(model, vec[None, :])
    return resp[0]


def gmm_fit(
    descriptors,
    num_components: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    trace: list | None = None,
) -> GmmModel:
    """Diagonal-covariance EM started from a seeded K-means fit.

    EM starts with an M-step on the K-means labels as one-hot
    responsibilities, so each component starts with its share of the rows and
    their mean and variances; a component with no row gets a vanishing weight.
    Each iteration scores the model (E-step) and, unless it stops, re-fits it
    from the posteriors (M-step). EM stops when the average log-likelihood
    improves by less than ``tol`` or after ``max_iters`` scores, and returns
    the last model scored. Variances are floored at a small fraction of the
    mean data variance so degenerate components stay well-defined. If
    ``trace`` is a list, the average log-likelihood of each E-step is
    appended (a non-decreasing sequence up to numerical slack); its last entry
    belongs to the returned model.
    """
    data = np.asarray(descriptors, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("descriptors must be an M x d matrix")
    if not np.all(np.isfinite(data)):
        raise DataError("descriptors contain non-finite values")
    if data.shape[0] < num_components:
        raise DataError(f"need at least {num_components} descriptors, got {data.shape[0]}")
    if tol <= 0:
        raise DataError(f"tol must be positive, got {tol}")
    m = data.shape[0]
    floor = VARIANCE_FLOOR_SCALE * float(np.mean(np.var(data, axis=0)))
    if floor <= 0.0:
        floor = 1e-12
    codebook = kmeans_fit(data, num_components, seed, max_iters)
    labels = _nearest_labels(data, codebook.centroids)
    resp = (labels[:, None] == np.arange(num_components)).astype(np.float64)
    previous = None
    for _ in range(max_iters):
        mass = np.maximum(resp.sum(axis=0), 1e-300)
        weights = mass / m
        weights = weights / weights.sum()
        means = (resp.T @ data) / mass[:, None]
        second = (resp.T @ (data * data)) / mass[:, None]
        variances = np.maximum(second - means * means, floor)
        model = GmmModel(weights=weights, means=means, variances=variances)
        resp, avg_ll = gmm_responsibilities(model, data)
        if trace is not None:
            trace.append(avg_ll)
        if previous is not None and avg_ll - previous < tol:
            break
        previous = avg_ll
    return model


def save_codebook(codebook: Codebook, path) -> None:
    """Write a TDFC file: header (K, d), then centroids row-major as float64."""
    binio.atomic_write(
        path,
        binio.pack_header(CODEBOOK_MAGIC, codebook.num_words, codebook.dims),
        binio.f64_bytes(codebook.centroids),
    )


def load_codebook(path) -> Codebook:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, CODEBOOK_MAGIC, path)
        num_words, dims = binio.read_u32(fh, 2, path)
        if num_words < 1 or dims < 1:
            raise FormatError(f"corrupt file: {path}: bad header K={num_words}, d={dims}")
        centroids = binio.read_f64(fh, num_words * dims, path).reshape(num_words, dims)
        binio.check_eof(fh, path)
    return Codebook(centroids=centroids)


def save_gmm_model(model: GmmModel, path) -> None:
    """Write a TDFG file: header (K, d), then weights, means, variances as float64."""
    binio.atomic_write(
        path,
        binio.pack_header(GMM_MAGIC, model.num_components, model.dims),
        binio.f64_bytes(model.weights),
        binio.f64_bytes(model.means),
        binio.f64_bytes(model.variances),
    )


def load_gmm_model(path) -> GmmModel:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, GMM_MAGIC, path)
        num_components, dims = binio.read_u32(fh, 2, path)
        if num_components < 1 or dims < 1:
            raise FormatError(f"corrupt file: {path}: bad header K={num_components}, d={dims}")
        weights = binio.read_f64(fh, num_components, path)
        means = binio.read_f64(fh, num_components * dims, path).reshape(num_components, dims)
        variances = binio.read_f64(fh, num_components * dims, path).reshape(num_components, dims)
        binio.check_eof(fh, path)
    return GmmModel(weights=weights, means=means, variances=variances)
