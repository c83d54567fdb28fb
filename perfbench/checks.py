"""Correctness checks computed apart from the program.

Every reference here is the benchmark's own code: its own readers for the
binary formats, a direct O(N^2) DFT sum, a scalar Keys cubic-convolution
kernel, a brute-force VLAD, closed-form Fisher-vector sums, a KKT solve per
descriptor for LLC, and its own argmax of W.x + b. Each check returns a list
of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# chance is 0.125 with 8 classes and 0.25 with 4; the only class signal is the
# frequency, and a working spectrum branch scored 0.69 to 1.0 on the seeds tried
ACCURACY_FLOOR = 0.5
VECTOR_TOL = 1e-7
SPECTRUM_RTOL = 1e-9
NORM_RTOL = 1e-9


def _flag(value: str) -> bool:
    return value.lower() in ("true", "1", "yes")


# config keys the oracles read, and how; a workload writes every one it needs,
# so no default of the program is assumed here
CONFIG_KEYS = {
    "pca_dims": int,
    "spectrum_length": int,
    "time_encoder": str,
    "dft_encoder": str,
    "time_codebook_size": int,
    "dft_codebook_size": int,
    "llc_neighbors": int,
    "llc_lambda": float,
    "fusion_time_norm": float,
    "fusion_dft_norm": float,
    "time_branch_enabled": _flag,
    "dft_branch_enabled": _flag,
    "signed_sqrt_l2": _flag,
    "dft_pool_axis": str,
}


def parse_config(text: str) -> dict:
    """The keys of a key=value pipeline config that the oracles read."""
    config = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key in CONFIG_KEYS:
            config[key] = CONFIG_KEYS[key](value)
    return config


# ---- readers for the package's binary formats -------------------------------------------


def _header(data: bytes, magic: bytes, fields: int) -> tuple[int, ...]:
    if data[:4] != magic or struct.unpack_from("<I", data, 4)[0] != 1:
        raise ValueError(f"not a version-1 {magic!r} file")
    return struct.unpack_from("<" + "I" * fields, data, 8)


def read_tdfe(path) -> np.ndarray:
    """D x N matrix of a TDFE feature file, as float64."""
    data = Path(path).read_bytes()
    dims, frames = _header(data, b"TDFE", 2)
    values = np.frombuffer(data, dtype="<f4", count=dims * frames, offset=16)
    return values.reshape(frames, dims).T.astype(np.float64)


def read_tdfv(path) -> np.ndarray:
    """Payload of a TDFV video-vector file."""
    data = Path(path).read_bytes()
    if data[:4] != b"TDFV":
        raise ValueError(f"{path}: not a TDFV file")
    (length,) = struct.unpack_from("<I", data, 10)
    return np.frombuffer(data, dtype="<f8", count=length, offset=14).copy()


def read_tdfm(path) -> tuple[np.ndarray, np.ndarray]:
    """(weights, biases) of a TDFM SVM model file."""
    data = Path(path).read_bytes()
    classes, width = _header(data, b"TDFM", 2)
    payload = np.frombuffer(data, dtype="<f8", offset=16)
    weights = payload[1 : 1 + classes * width].reshape(classes, width)
    return weights.copy(), payload[1 + classes * width : 1 + classes * width + classes].copy()


def read_tdfc(path) -> np.ndarray:
    """Centroids of a TDFC codebook file."""
    data = Path(path).read_bytes()
    words, dims = _header(data, b"TDFC", 2)
    centroids = np.frombuffer(data, dtype="<f8", count=words * dims, offset=16)
    return centroids.reshape(words, dims).copy()


def label_of(video_id: str) -> int:
    """True class of a generated video, from the benchmark's own id scheme ``c<label>_<j>``."""
    return int(video_id[1 : video_id.index("_")])


# ---- oracles ------------------------------------------------------------------------------


def reduced_frames(values: np.ndarray, pca) -> np.ndarray:
    """Frames as rows scaled to unit length, then projected by ``pca`` = (mean, components)."""
    frames = values.T.copy()
    for row in frames:
        norm = np.sqrt(np.sum(row * row))
        if norm > 0:
            row /= norm
    if pca is None:
        return frames
    mean, components = pca
    return (frames - mean) @ components.T


def direct_dft_magnitude(x: np.ndarray) -> np.ndarray:
    """|sum_n x[n] exp(-2 pi i n s / N)| for every s, by the direct O(N^2) sum."""
    n = len(x)
    steps = np.arange(n)
    # reduce n*s modulo N in integers so the angles stay small and exact
    angles = (-2.0 * np.pi / n) * ((steps[:, None] * steps[None, :]) % n)
    return np.abs(np.cos(angles) @ x + 1j * (np.sin(angles) @ x))


def keys_kernel(t: float) -> float:
    """Keys cubic-convolution kernel with a = -1/2."""
    t = abs(t)
    if t <= 1.0:
        return 1.5 * t**3 - 2.5 * t**2 + 1.0
    if t < 2.0:
        return -0.5 * t**3 + 2.5 * t**2 - 4.0 * t + 2.0
    return 0.0


def keys_resample(points: np.ndarray, length: int) -> np.ndarray:
    """Cubic convolution from N samples on [0, 1] to ``length`` samples on [0, 1];
    taps outside the data take the linear extension of the two edge samples."""
    n = len(points)
    if n < 4:
        raise ValueError("the oracle covers the 4-tap path only (N >= 4)")

    def sample(i: int) -> float:
        if i < 0:
            return 2.0 * points[0] - points[1]
        if i >= n:
            return 2.0 * points[-1] - points[-2]
        return points[i]

    out = np.empty(length)
    for j in range(length):
        t = 0.0 if length == 1 else j * (n - 1) / (length - 1)
        base = min(int(t), n - 2)
        out[j] = sum(keys_kernel(t - m) * sample(m) for m in range(base - 1, base + 3))
    return out


def spectrum_rows(frames: np.ndarray, length: int) -> np.ndarray:
    """d x L spectra of N x d frames: resampled DFT magnitudes, clamped at 0."""
    rows = [keys_resample(direct_dft_magnitude(column), length) for column in frames.T]
    return np.maximum(np.array(rows), 0.0)


def signed_sqrt_l2(values: np.ndarray) -> np.ndarray:
    out = np.sign(values) * np.sqrt(np.abs(values))
    norm = np.sqrt(np.sum(out * out))
    return out / norm if norm > 0 else out


def average_vector(descriptors: np.ndarray) -> np.ndarray:
    return np.sum(descriptors, axis=0) / descriptors.shape[0]


def vlad_vector(centroids: np.ndarray, descriptors: np.ndarray, normalize: bool) -> np.ndarray:
    """Residual sums to each descriptor's nearest centroid, by brute-force search."""
    sums = np.zeros_like(centroids)
    for x in descriptors:
        nearest = int(np.argmin([np.sum((x - c) ** 2) for c in centroids]))
        sums[nearest] += x - centroids[nearest]
    values = sums.ravel()
    return signed_sqrt_l2(values) if normalize else values


def fisher_vector(weights, means, variances, descriptors, normalize: bool) -> np.ndarray:
    """Closed-form Fisher-vector sums under a diagonal GMM."""
    n = descriptors.shape[0]
    sigma = np.sqrt(variances)
    log_joint = np.empty((n, len(weights)))
    for k in range(len(weights)):
        z = (descriptors - means[k]) / sigma[k]
        log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * variances[k]))
        log_joint[:, k] = np.log(weights[k]) + log_norm - 0.5 * np.sum(z * z, axis=1)
    peak = log_joint.max(axis=1, keepdims=True)
    posterior = np.exp(log_joint - peak)
    posterior /= posterior.sum(axis=1, keepdims=True)
    first, second = [], []
    for k in range(len(weights)):
        z = (descriptors - means[k]) / sigma[k]
        q = posterior[:, k : k + 1]
        first.append(np.sum(q * z, axis=0) / (n * np.sqrt(weights[k])))
        second.append(np.sum(q * (z * z - 1.0), axis=0) / (n * np.sqrt(2.0 * weights[k])))
    values = np.concatenate([np.ravel(first), np.ravel(second)])
    return signed_sqrt_l2(values) if normalize else values


def llc_vector(centroids: np.ndarray, neighbors: int, lam: float, descriptors) -> np.ndarray:
    """Max pooling of per-descriptor LLC codes, each from the KKT system of
    min ||x - B^T c||^2 + lam ||c||^2 subject to sum(c) = 1 over the nearest codewords."""
    pooled = np.full(centroids.shape[0], -np.inf)
    for x in descriptors:
        distances = np.sum((centroids - x) ** 2, axis=1)
        nearest = np.argsort(distances, kind="stable")[:neighbors]
        shifted = centroids[nearest] - x
        kkt = np.zeros((neighbors + 1, neighbors + 1))
        kkt[:neighbors, :neighbors] = 2.0 * (shifted @ shifted.T + lam * np.eye(neighbors))
        kkt[:neighbors, neighbors] = 1.0
        kkt[neighbors, :neighbors] = 1.0
        rhs = np.zeros(neighbors + 1)
        rhs[neighbors] = 1.0
        code = np.zeros(centroids.shape[0])
        code[nearest] = np.linalg.solve(kkt, rhs)[:neighbors]
        pooled = np.maximum(pooled, code)
    return pooled


def model_arrays(model):
    """A fitted program model as the oracles take it: centroids, or
    (weights, means, variances) of a GMM; None stays None."""
    if model is None:
        return None
    if hasattr(model, "centroids"):
        return model.centroids
    return (model.weights, model.means, model.variances)


def branch_vector(config: dict, branch: str, model, descriptors: np.ndarray) -> np.ndarray:
    """The unscaled vector of one branch; ``model`` is centroids or (weights, means, variances)."""
    encoder = config[f"{branch}_encoder"]
    if encoder == "average":
        return average_vector(descriptors)
    if encoder == "vlad":
        return vlad_vector(model, descriptors, config["signed_sqrt_l2"])
    if encoder == "fv":
        return fisher_vector(*model, descriptors, config["signed_sqrt_l2"])
    return llc_vector(model, config["llc_neighbors"], config["llc_lambda"], descriptors)


def expected_dims(config: dict, branch: str, descriptor_dims: int) -> int:
    """Output dimension law: average d, FV 2dK, VLAD dK, LLC K."""
    encoder = config[f"{branch}_encoder"]
    if encoder == "average":
        return descriptor_dims
    size = config[f"{branch}_codebook_size"]
    return {"fv": 2 * descriptor_dims * size, "vlad": descriptor_dims * size, "llc": size}[encoder]


# ---- checks -------------------------------------------------------------------------------


def check_spectrum(video_id: str, program_rows: np.ndarray, expected_rows: np.ndarray) -> list[str]:
    if program_rows.shape != expected_rows.shape:
        return [f"{video_id}: spectrum shape {program_rows.shape}, expected {expected_rows.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected_rows))))
    worst = float(np.max(np.abs(program_rows - expected_rows)))
    if worst > SPECTRUM_RTOL * scale:
        return [f"{video_id}: spectrum rows differ from the DFT + Keys oracle by {worst:.3g}"]
    return []


def check_video(
    video_id: str,
    config: dict,
    models: dict,
    frames: np.ndarray,
    spectrum: np.ndarray,
    program_vector: np.ndarray,
) -> list[str]:
    """Recompute the fused vector of one video from its reduced frames and
    oracle spectrum, and compare part by part.

    ``models`` maps "time"/"dft" to the fitted model each branch encodes with.
    """
    layout = (config["time_branch_enabled"], config["dft_branch_enabled"], config["dft_pool_axis"])
    if layout != (True, True, "dimension"):
        raise ValueError("the oracles cover two enabled branches and spectra pooled per dimension")
    parts = [
        ("time", frames, config["fusion_time_norm"]),
        ("dft", spectrum, config["fusion_dft_norm"]),
    ]
    failures = []
    offset = 0
    for branch, descriptors, norm in parts:
        dims = expected_dims(config, branch, descriptors.shape[1])
        got = program_vector[offset : offset + dims]
        offset += dims
        if got.shape[0] != dims:
            failures.append(f"{video_id}: {branch} part is shorter than its law's {dims} dims")
            continue
        got_norm = float(np.sqrt(np.sum(got * got)))
        if abs(got_norm - norm) > NORM_RTOL * norm:
            failures.append(f"{video_id}: {branch} part has norm {got_norm!r}, configured {norm}")
        raw = branch_vector(config, branch, models.get(branch), descriptors)
        expected = raw * (norm / np.sqrt(np.sum(raw * raw)))
        worst = float(np.max(np.abs(got - expected)))
        if worst > VECTOR_TOL:
            failures.append(f"{video_id}: {branch} part differs from the oracle by {worst:.3g}")
    if offset != program_vector.shape[0]:
        failures.append(f"{video_id}: fused vector has {len(program_vector)} dims, laws give {offset}")
    return failures


def own_predictions(weights: np.ndarray, biases: np.ndarray, vectors) -> list[int]:
    """argmax_c of W_c . x + b_c, ties to the lowest class."""
    out = []
    for x in vectors:
        scores = [float(np.dot(w, x)) + b for w, b in zip(weights, biases)]
        out.append(max(range(len(scores)), key=lambda c: (scores[c], -c)))
    return out


def check_predictions(expected: list[int], predicted: list[int]) -> list[str]:
    wrong = sum(e != p for e, p in zip(expected, predicted))
    if len(expected) != len(predicted) or wrong:
        return [f"{wrong} of {len(expected)} predictions differ from argmax(W.x + b)"]
    return []


def check_accuracy(predicted: list, labels: list, reported: float) -> list[str]:
    """Accuracy recounted from the predictions must clear ACCURACY_FLOOR and
    equal what the program reported for the same split (to its printed precision)."""
    own = sum(p == t for p, t in zip(predicted, labels)) / len(labels)
    failures = []
    if own < ACCURACY_FLOOR:
        failures.append(f"accuracy {own:.3f} is below the floor {ACCURACY_FLOOR}")
    if abs(own - reported) > 5e-7:
        failures.append(f"reported accuracy {reported:.6f} != recount {own:.6f}")
    return failures
