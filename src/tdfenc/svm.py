"""One-vs-rest linear SVM trained by dual coordinate descent on the hinge loss.

Each class c gets a binary subproblem minimizing
``0.5*||w||^2 + C * sum_i max(1 - y_i*(w.x_i + b), 0)`` with y_i = +1 for
class c and -1 otherwise. The bias is handled by augmenting inputs with a
constant-1 coordinate, so it carries the same (negligible at this scale)
regularization as the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .errors import DataError, FormatError

MODEL_MAGIC = b"TDFM"


@dataclass(frozen=True)
class LinearSvmModel:
    """Per-class weight vectors and biases with the training penalty C."""

    weights: np.ndarray
    biases: np.ndarray
    penalty: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        biases = np.asarray(self.biases, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] < 2 or weights.shape[1] < 1:
            raise DataError(f"weights must be a num_classes x P matrix, got {weights.shape}")
        if biases.shape != (weights.shape[0],):
            raise DataError("biases length must match the class count")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise DataError("model parameters contain non-finite values")
        if not np.isfinite(self.penalty) or self.penalty <= 0:
            raise DataError(f"penalty must be positive, got {self.penalty}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]


def _vector_of(x) -> np.ndarray:
    values = getattr(x, "values", x)
    return np.asarray(values, dtype=np.float64)


def hinge_objective(weights, bias: float, penalty: float, inputs, targets) -> float:
    """Regularized hinge loss: 0.5*||w||^2 + C * sum_i max(1 - y_i*(w.x_i + b), 0)."""
    w = np.asarray(weights, dtype=np.float64)
    data = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != w.shape[0]:
        raise DataError("inputs must be a T x P matrix matching the weight length")
    margins = y * (data @ w + bias)
    return float(0.5 * np.dot(w, w) + penalty * np.sum(np.maximum(1.0 - margins, 0.0)))


def _train_binary(
    augmented: np.ndarray,
    diag: np.ndarray,
    targets: np.ndarray,
    penalty: float,
    max_epochs: int,
    tol: float,
    rng: np.random.Generator,
    trace: list | None,
) -> np.ndarray:
    """Dual coordinate descent for one binary subproblem on bias-augmented inputs.

    ``diag`` holds the squared norms of the augmented rows. Coordinate updates
    decrease the dual objective but the primal can swing between epochs, so
    the candidate model kept after each epoch (and finally returned) is the
    iterate with the lowest primal objective seen so far.
    """
    count, width = augmented.shape
    alpha = np.zeros(count)
    w = np.zeros(width)
    best_w = w.copy()
    best_objective = np.inf
    for _ in range(max_epochs):
        worst = 0.0
        for i in rng.permutation(count):
            grad = targets[i] * np.dot(w, augmented[i]) - 1.0
            a = alpha[i]
            if a <= 0.0:
                projected = min(grad, 0.0)
            elif a >= penalty:
                projected = max(grad, 0.0)
            else:
                projected = grad
            worst = max(worst, abs(projected))
            if abs(projected) > 1e-14:
                updated = min(max(a - grad / diag[i], 0.0), penalty)
                if updated != a:
                    w += (updated - a) * targets[i] * augmented[i]
                    alpha[i] = updated
        objective = hinge_objective(w[:-1], w[-1], penalty, augmented[:, :-1], targets)
        if objective < best_objective:
            best_objective = objective
            best_w = w.copy()
        if trace is not None:
            trace.append(best_objective)
        if worst < tol:
            break
    return best_w


def train_linear_svm(
    train,
    num_classes: int,
    penalty: float,
    max_epochs: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    objective_trace: list | None = None,
) -> LinearSvmModel:
    """Train one-vs-rest hinge-loss classifiers by dual coordinate descent.

    ``train`` is a list of (vector, label) pairs; vectors may be VideoVectors
    or plain arrays of one common dimension. Coordinates are visited in a
    seeded random order each epoch, and a class subproblem stops once the
    largest projected dual gradient of an epoch falls below ``tol``. When
    ``objective_trace`` is a list, one per-epoch list of primal objectives is
    appended per class; its last entry is the recorded final objective.
    """
    if num_classes < 2:
        raise DataError(f"need at least 2 classes, got {num_classes}")
    if penalty <= 0:
        raise DataError(f"penalty must be positive, got {penalty}")
    if max_epochs < 1:
        raise DataError(f"max_epochs must be positive, got {max_epochs}")
    if not train:
        raise DataError("training set is empty")
    rows = [_vector_of(x) for x, _ in train]
    labels = np.asarray([label for _, label in train], dtype=np.int64)
    width = rows[0].shape[0]
    for r in rows:
        if r.shape != (width,):
            raise DataError("training vectors have inconsistent dimensions")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataError("labels out of range for the declared class count")
    for c in range(num_classes):
        if not np.any(labels == c):
            raise DataError(f"class {c} has no training examples")
    data = np.vstack(rows)
    augmented = np.hstack([data, np.ones((data.shape[0], 1))])
    diag = np.sum(augmented * augmented, axis=1)  # shared by every class
    weights = np.zeros((num_classes, width))
    biases = np.zeros(num_classes)
    for c in range(num_classes):
        targets = np.where(labels == c, 1.0, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        class_trace: list | None = [] if objective_trace is not None else None
        solution = _train_binary(
            augmented, diag, targets, penalty, max_epochs, tol, rng, class_trace
        )
        weights[c] = solution[:-1]
        biases[c] = solution[-1]
        if objective_trace is not None:
            objective_trace.append(class_trace)
    return LinearSvmModel(weights=weights, biases=biases, penalty=penalty)


def predict(model: LinearSvmModel, x) -> tuple[int, np.ndarray]:
    """Class index with the highest score and the full score vector.

    Scores are ``w_c . x + b_c``; ties go to the lowest class index.
    """
    vec = _vector_of(x)
    if vec.shape != (model.dims,):
        raise DataError(
            f"dimension mismatch: input shape {vec.shape}, model dims {model.dims}"
        )
    scores = model.weights @ vec + model.biases
    return int(np.argmax(scores)), scores


def save_svm_model(model: LinearSvmModel, path) -> None:
    """Write a TDFM file: header (num_classes, P), penalty, weights row-major, biases."""
    binio.atomic_write(
        path,
        binio.pack_header(MODEL_MAGIC, model.num_classes, model.dims),
        binio.f64_bytes(np.asarray([model.penalty])),
        binio.f64_bytes(model.weights),
        binio.f64_bytes(model.biases),
    )


def load_svm_model(path) -> LinearSvmModel:
    path = Path(path)
    with open(path, "rb") as fh:
        binio.check_magic(fh, MODEL_MAGIC, path)
        num_classes, dims = binio.read_u32(fh, 2, path)
        if num_classes < 2 or dims < 1:
            raise FormatError(f"corrupt file: {path}: bad header classes={num_classes}, P={dims}")
        penalty = float(binio.read_f64(fh, 1, path)[0])
        weights = binio.read_f64(fh, num_classes * dims, path).reshape(num_classes, dims)
        biases = binio.read_f64(fh, num_classes, path)
        binio.check_eof(fh, path)
    return LinearSvmModel(weights=weights, biases=biases, penalty=penalty)
